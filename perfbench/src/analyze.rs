//! The analyze workloads: FIR text → parse → full pipeline → default lint
//! registry → snapshot capture and encode.
//!
//! [`run`] is the untraced op: it goes through `Pipeline::run`, exactly as
//! a user of the library would. [`run_staged`] is the traced op: it calls
//! each layer's public entry point itself, in pipeline order and at the
//! same worker count, with a span around each call.

use std::sync::Arc;

use fsam::{par, Fsam, PhaseConfig, PhaseTimes, Pipeline};
use fsam_andersen::PreAnalysis;
use fsam_ir::icfg::Icfg;
use fsam_ir::parse::parse_module;
use fsam_ir::Module;
use fsam_lint::{LintContext, LintReport, ReductionStats, Registry};
use fsam_mssa::Svfg;
use fsam_query::{AnalysisDb, QueryEngine};
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_threads::flow::precompute_contexts;
use fsam_threads::valueflow::{self, ValueFlowPlan};
use fsam_threads::{HbFacts, Interleaving, LockAnalysis, MhpBackend, ThreadModel};

use crate::check::{diag_listing, pts_listing};
use crate::trace::Tracer;

/// The suite scale every workload runs at.
pub const SCALE: Scale = Scale(0.32);

/// The six small Table 1 programs of the analyze-small workload.
pub const SMALL_PROGRAMS: [Program; 6] = [
    Program::WordCount,
    Program::Kmeans,
    Program::Radiosity,
    Program::Automount,
    Program::Ferret,
    Program::Bodytrack,
];

/// One program of a workload: its FIR text and the expected results.
pub struct Input {
    /// Suite name of the program.
    pub name: &'static str,
    /// The program printed as FIR text — the op's input.
    pub fir: String,
    /// Expected points-to listing (see [`crate::check::pts_listing`]).
    pub expected_pts: String,
    /// Expected diagnostic multiset (see [`crate::check::diag_listing`]).
    pub expected_diags: String,
}

impl Input {
    /// Whether `out` has exactly the expected points-to sets and
    /// diagnostics; reports each difference on standard error.
    pub fn matches(&self, out: &Analyzed) -> bool {
        let pts_ok = pts_listing(&out.module, &out.fsam) == self.expected_pts;
        if !pts_ok {
            eprintln!(
                "{}: points-to sets differ from the expected file",
                self.name
            );
        }
        let diags_ok = diag_listing(&out.report) == self.expected_diags;
        if !diags_ok {
            eprintln!("{}: diagnostics differ from the expected file", self.name);
        }
        pts_ok && diags_ok
    }
}

/// The programs of an analyze workload, generated at their in-suite seeds
/// (`(name, module)` in op order).
pub fn programs(workload: &str) -> Vec<(&'static str, Module)> {
    match workload {
        "analyze-x264" => vec![(Program::X264.name(), Program::X264.generate(SCALE))],
        "analyze-small" => SMALL_PROGRAMS
            .iter()
            .map(|p| (p.name(), p.generate(SCALE)))
            .chain(
                SyncProgram::all()
                    .iter()
                    .map(|p| (p.name(), p.generate(SCALE))),
            )
            .collect(),
        other => panic!("{other} is not an analyze workload"),
    }
}

/// The x264 scale the recomputing reference solver is run at: about
/// 0.25 s there, while at [`SCALE`] it runs for more than 25 minutes.
pub const X264_ORACLE_SCALE: Scale = Scale(0.2);

/// Cross-checks the delta solver against `fsam::solve_recompute` on the
/// workload's programs: every program at [`SCALE`], except x264 at
/// [`X264_ORACLE_SCALE`]. Returns the names whose fixpoints differ.
pub fn cross_check(workload: &str) -> Vec<&'static str> {
    programs(workload)
        .into_iter()
        .map(|(name, module)| {
            if name == Program::X264.name() {
                (name, Program::X264.generate(X264_ORACLE_SCALE))
            } else {
                (name, module)
            }
        })
        .filter(|(_, module)| {
            let fsam = Pipeline::for_module(module).run(PhaseConfig::full());
            let reference = fsam::solve_recompute(module, &fsam.pre, &fsam.svfg);
            !reference.points_to_eq(&fsam.result)
        })
        .map(|(name, _)| name)
        .collect()
}

/// Everything an op produced that the correctness check reads.
pub struct Analyzed {
    /// The parsed module.
    pub module: Module,
    /// The full-configuration analysis result.
    pub fsam: Fsam,
    /// The default lint registry's report.
    pub report: LintReport,
    /// The lint reducer's funnel.
    pub funnel: ReductionStats,
    /// Size of the encoded snapshot.
    pub snapshot_bytes: usize,
}

/// Runs the default lint registry over `fsam`, the way the lint front-end
/// does: a query engine over a captured snapshot, then every checker.
pub fn lint(module: &Module, fsam: &Fsam) -> (LintReport, ReductionStats) {
    let engine = QueryEngine::from_fsam(module, fsam);
    let cx = LintContext::new(module, fsam, &engine);
    let report = Registry::with_default_checkers().run(&cx);
    (report, cx.reduction().stats)
}

/// The untraced op on one program.
pub fn run(fir: &str) -> Analyzed {
    let module = parse_module(fir).expect("benchmark FIR parses");
    let fsam = Pipeline::for_module(&module).run(PhaseConfig::full());
    let (report, funnel) = lint(&module, &fsam);
    let snapshot_bytes = AnalysisDb::capture(&module, &fsam).to_bytes().len();
    Analyzed {
        module,
        fsam,
        report,
        funnel,
        snapshot_bytes,
    }
}

/// Work counts of one traced op, summed over its programs.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub stmts: u64,
    pub pts_entries: u64,
    pub abstract_threads: u64,
    pub svfg_edges: u64,
    pub mhp_regions: u64,
    pub hb_regions: u64,
    pub lock_spans: u64,
    pub mhp_pairs: u64,
    pub aliased_pairs: u64,
    /// Thread-aware edges actually added to the SVFG (after grouping
    /// store × access products through junction nodes).
    pub thread_edges: u64,
    pub processed: u64,
    pub delta_items: u64,
    pub recompute_items: u64,
    pub peak_pts_bytes: u64,
    pub lint_candidates: u64,
    pub lint_confirmed: u64,
    /// Pairs that reached the flow-sensitive alias confirmation.
    pub lint_fs_stage: u64,
    pub snapshot_bytes: u64,
}

/// The traced op on one program: every layer's entry point called in
/// pipeline order, each inside a span. Mirrors `Pipeline::run` for the
/// full configuration, except that the interleaving and lock analyses
/// run one after the other instead of concurrently.
pub fn run_staged(fir: &str, threads: usize, t: &mut Tracer, c: &mut Counts) -> Analyzed {
    let module = t.time("ir.parse", || {
        parse_module(fir).expect("benchmark FIR parses")
    });
    c.stmts += module.stmt_count() as u64;

    let pre = Arc::new(t.time("andersen", || PreAnalysis::run(&module)));
    c.pts_entries += pre.stats.pts_entries as u64;

    let (icfg, tm, ctxs) = t.time("threads.model", || {
        let icfg = Icfg::build(&module, pre.call_graph());
        let tm = ThreadModel::build(&module, &pre, &icfg);
        let ctxs = precompute_contexts(&icfg, pre.call_graph(), &tm);
        (Arc::new(icfg), Arc::new(tm), Arc::new(ctxs))
    });
    c.abstract_threads += tm.len() as u64;

    let svfg_base = t.time("mssa.svfg", || Svfg::build(&module, &pre, &tm));
    c.svfg_edges += svfg_base.stats.edges as u64;

    let (mhp, mhp_rel) = t.time("threads.interleave", || {
        let inter = Interleaving::compute(&module, &icfg, &pre, &tm, &ctxs);
        let mhp = MhpBackend::Interleaving(Arc::new(inter));
        let rel = Arc::new(mhp.relation());
        (mhp, rel)
    });
    c.mhp_regions += mhp_rel.region_count() as u64;

    let hb = Arc::new(t.time("threads.hb", || HbFacts::build(&module, &pre, &tm)));
    c.hb_regions += hb.region_count() as u64;

    let lock = Arc::new(t.time("threads.lock", || {
        LockAnalysis::compute(&module, &icfg, &pre, &tm, &ctxs)
    }));
    c.lock_spans += lock.span_count as u64;

    let (vf_stats, svfg, inserted) = t.time("threads.valueflow", || {
        let vf = if threads > 1 {
            let plan = ValueFlowPlan::new(&module, &icfg, &pre, &mhp, &mhp_rel, Some(&lock));
            let (flows, _) = par::run_tasks(threads, plan.objects(), |_, i, _| plan.object_flow(i));
            plan.merge(flows)
        } else {
            valueflow::compute(&module, &icfg, &pre, &mhp, &mhp_rel, Some(&lock), false)
        };
        // `Pipeline::run` inserts the thread edges into a copy of its
        // cached thread-oblivious SVFG; the copy is part of the layer.
        let mut svfg = svfg_base.clone();
        drop(svfg_base);
        let inserted = svfg.insert_thread_edges_grouped(&vf.edges);
        (vf.stats, svfg, inserted)
    });
    c.mhp_pairs += vf_stats.mhp_pairs as u64;
    c.aliased_pairs += vf_stats.aliased_pairs as u64;
    c.thread_edges += inserted.edges_added as u64;

    let result = t.time("core.solve", || {
        fsam::solve_par(&module, &pre, &svfg, threads)
    });
    c.processed += result.stats.processed as u64;
    c.delta_items += result.stats.delta_items as u64;
    c.recompute_items += result.stats.recompute_items as u64;
    c.peak_pts_bytes += result.stats.peak_pts_bytes as u64;

    let fsam = Fsam {
        pre,
        icfg,
        tm,
        svfg,
        mhp,
        mhp_rel,
        hb,
        lock: Some(lock),
        ctxs,
        vf_stats,
        result,
        times: PhaseTimes::default(),
        config: PhaseConfig::full(),
    };

    let (report, funnel) = t.time("lint", || lint(&module, &fsam));
    c.lint_candidates += funnel.candidates;
    c.lint_confirmed += funnel.confirmed;
    c.lint_fs_stage += funnel.after_lockset();

    let db = t.time("query.capture", || AnalysisDb::capture(&module, &fsam));
    let bytes = t.time("query.encode", || db.to_bytes());
    drop(db);
    let decoded = t.time("query.decode", || {
        AnalysisDb::from_bytes(&bytes).expect("a fresh snapshot decodes")
    });
    drop(decoded);
    c.snapshot_bytes += bytes.len() as u64;

    Analyzed {
        module,
        fsam,
        report,
        funnel,
        snapshot_bytes: bytes.len(),
    }
}
