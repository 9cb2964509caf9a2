//! The FSAM pipeline — paper Figure 2 — as a staged, cacheable [`Pipeline`].
//!
//! `pre-analysis → thread model → thread-oblivious SVFG → interleaving →
//! value-flow → lock → sparse flow-sensitive resolution`, with per-phase
//! wall-clock times, memory accounting, and the phase toggles used by the
//! Figure 12 ablation (*No-Interleaving*, *No-Value-Flow*, *No-Lock*).
//!
//! The pipeline materializes each phase as an explicit, typed stage cached
//! behind a `OnceLock`: drivers that run several configurations on one
//! module (the Figure 12 ablation sweep, the NonSparse comparison of
//! Table 2) build Andersen, the ICFG/thread model, the context table and
//! the thread-oblivious SVFG exactly once and share them across runs.
//! Independent stages are scheduled in parallel — the interleaving and lock
//! analyses, which only read the frozen [`ContextTable`], run concurrently
//! under `std::thread::scope`, and [`Pipeline::run_many`] solves whole
//! configurations on separate threads. [`Fsam::analyze`] and
//! [`Fsam::analyze_with`] remain the one-shot entry points, now thin
//! wrappers over a single-use pipeline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use fsam_andersen::PreAnalysis;
use fsam_ir::context::ContextTable;
use fsam_ir::icfg::Icfg;
use fsam_ir::{Module, VarId};
use fsam_mssa::Svfg;
use fsam_pts::MemoryMeter;
use fsam_threads::flow::precompute_contexts;
use fsam_threads::hb::HbFacts;
use fsam_threads::interleave::Interleaving;
use fsam_threads::lock::LockAnalysis;
use fsam_threads::mhp::MhpBackend;
use fsam_threads::relation::{MhpRelation, MHP_COUNTERS};
use fsam_threads::valueflow::{self, ValueFlowPlan, ValueFlowStats};
use fsam_threads::{ProcMhp, ThreadModel};
use fsam_trace::{FieldValue, Recorder};

use crate::nonsparse::{self, NonSparseOutcome};
use crate::par;
use crate::solver::{self, SparseResult};

/// Which thread-interference phases run (the Figure 12 ablation knobs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PhaseConfig {
    /// §3.3.1 interleaving analysis; when off, the PCG-style procedure-level
    /// MHP is used instead (*No-Interleaving*).
    pub interleaving: bool,
    /// §3.3.2 value-flow analysis; when off, the aliasing condition of
    /// `[THREAD-VF]` is disregarded (*No-Value-Flow*).
    pub value_flow: bool,
    /// §3.3.3 lock analysis; when off, no non-interference filtering
    /// (*No-Lock*).
    pub lock: bool,
    /// Vector-clock happens-before analysis (DESIGN §1.9); when off, the
    /// run carries an empty [`HbFacts`] and no MHP refinement or lint
    /// `killed_hb` filtering happens (*No-HB*, the `--no-hb` knob).
    pub hb: bool,
}

impl Default for PhaseConfig {
    fn default() -> Self {
        PhaseConfig {
            interleaving: true,
            value_flow: true,
            lock: true,
            hb: true,
        }
    }
}

impl PhaseConfig {
    /// All phases on (the full FSAM configuration).
    pub fn full() -> Self {
        Self::default()
    }

    /// The *No-Interleaving* ablation.
    pub fn no_interleaving() -> Self {
        PhaseConfig {
            interleaving: false,
            ..Self::default()
        }
    }

    /// The *No-Value-Flow* ablation.
    pub fn no_value_flow() -> Self {
        PhaseConfig {
            value_flow: false,
            ..Self::default()
        }
    }

    /// The *No-Lock* ablation.
    pub fn no_lock() -> Self {
        PhaseConfig {
            lock: false,
            ..Self::default()
        }
    }

    /// The *No-HB* ablation: happens-before ordering is not computed, so
    /// condvar/barrier/atomic synchronization kills nothing downstream.
    pub fn no_hb() -> Self {
        PhaseConfig {
            hb: false,
            ..Self::default()
        }
    }
}

/// Wall-clock time of each pipeline phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimes {
    /// Andersen pre-analysis.
    pub pre_analysis: Duration,
    /// ICFG + thread model construction.
    pub thread_model: Duration,
    /// Thread-oblivious SVFG (memory SSA).
    pub svfg: Duration,
    /// Interleaving (or PCG) analysis.
    pub interleaving: Duration,
    /// Happens-before (vector clock) analysis.
    pub hb: Duration,
    /// Lock analysis.
    pub lock: Duration,
    /// Value-flow analysis + edge insertion.
    pub value_flow: Duration,
    /// Sparse flow-sensitive resolution.
    pub sparse_solve: Duration,
}

impl PhaseTimes {
    /// Total analysis time.
    pub fn total(&self) -> Duration {
        self.pre_analysis
            + self.thread_model
            + self.svfg
            + self.interleaving
            + self.hb
            + self.lock
            + self.value_flow
            + self.sparse_solve
    }
}

/// How many times each shared stage was actually built (cache misses), and
/// whether the parallel interference path ran.
///
/// A driver that runs all four Figure 12 configurations through one
/// [`Pipeline`] sees every counter at 1: the ablations differ only in the
/// per-run phases (value-flow, edge insertion, sparse solve).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageBuildCounts {
    /// Andersen pre-analysis builds.
    pub pre_analysis: usize,
    /// ICFG + thread model builds.
    pub icfg: usize,
    /// Context-table precompute passes.
    pub contexts: usize,
    /// Thread-oblivious SVFG builds.
    pub svfg: usize,
    /// Interleaving analysis builds.
    pub interleaving: usize,
    /// PCG fallback builds.
    pub pcg: usize,
    /// Happens-before analysis builds.
    pub hb: usize,
    /// Lock analysis builds.
    pub lock: usize,
    /// Whether the interleaving and lock analyses were scheduled
    /// concurrently in one `thread::scope` (the full configuration's
    /// parallel path).
    pub parallel_interference: bool,
}

/// A cached stage: the artifact plus the wall-clock time of its one build.
/// Cache hits report the original duration, so [`PhaseTimes`] stays
/// comparable between a fresh run and a stage-sharing run.
type Stage<T> = (Arc<T>, Duration);

#[derive(Default)]
struct StageCounters {
    pre: AtomicUsize,
    icfg: AtomicUsize,
    ctxs: AtomicUsize,
    svfg: AtomicUsize,
    interleaving: AtomicUsize,
    pcg: AtomicUsize,
    hb: AtomicUsize,
    lock: AtomicUsize,
    parallel_interference: AtomicBool,
}

/// The staged FSAM driver: each phase of Figure 2 is an explicitly-typed
/// artifact, built on first demand and cached for every later run.
///
/// ```
/// use fsam::{PhaseConfig, Pipeline};
/// use fsam_ir::parse::parse_module;
///
/// let m = parse_module("func main() {\nentry:\n  ret\n}").unwrap();
/// let pipeline = Pipeline::for_module(&m);
/// // All four Figure 12 configurations share one Andersen run, one ICFG,
/// // one context table and one thread-oblivious SVFG.
/// let full = pipeline.run(PhaseConfig::full());
/// let ablated = pipeline.run(PhaseConfig::no_lock());
/// assert_eq!(pipeline.build_counts().pre_analysis, 1);
/// # let _ = (full, ablated);
/// ```
pub struct Pipeline<'m> {
    module: &'m Module,
    pre: OnceLock<Stage<PreAnalysis>>,
    cfg: OnceLock<(Arc<Icfg>, Arc<ThreadModel>, Duration)>,
    ctxs: OnceLock<Stage<ContextTable>>,
    svfg: OnceLock<Stage<Svfg>>,
    interleaving: OnceLock<Stage<Interleaving>>,
    pcg: OnceLock<Stage<ProcMhp>>,
    /// Factored MHP relations, one per backend kind (an ablation sweep uses
    /// both). Built once from the backend's exported facts and shared by
    /// every run and client.
    rel_inter: OnceLock<Arc<MhpRelation>>,
    rel_pcg: OnceLock<Arc<MhpRelation>>,
    hb: OnceLock<Stage<HbFacts>>,
    lock: OnceLock<Stage<LockAnalysis>>,
    counts: StageCounters,
    trace: Arc<Recorder>,
    /// Worker-pool width for the value-flow phase. Defaults to
    /// [`par::thread_count`] (the `FSAM_THREADS` override, or the machine's
    /// available parallelism); `1` selects the sequential code path.
    threads: usize,
}

impl<'m> Pipeline<'m> {
    /// Creates an empty pipeline for `module`; nothing is computed yet.
    pub fn for_module(module: &'m Module) -> Pipeline<'m> {
        Pipeline {
            module,
            pre: OnceLock::new(),
            cfg: OnceLock::new(),
            ctxs: OnceLock::new(),
            svfg: OnceLock::new(),
            interleaving: OnceLock::new(),
            pcg: OnceLock::new(),
            rel_inter: OnceLock::new(),
            rel_pcg: OnceLock::new(),
            hb: OnceLock::new(),
            lock: OnceLock::new(),
            counts: StageCounters::default(),
            trace: Arc::new(Recorder::disabled()),
            threads: par::thread_count(),
        }
    }

    /// Sets the worker-pool width for the value-flow phase, overriding
    /// `FSAM_THREADS`. `1` (the floor — zero is clamped) runs the
    /// sequential `valueflow::compute`; any larger value shards the
    /// per-object store × access loops across the pool, with bit-identical
    /// results. The sparse solve is sequential and ignores the width, so
    /// the whole [`Fsam`] result is the same at every worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The worker-pool width this pipeline will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches a trace recorder: every stage build, pipeline run, and the
    /// sparse/NonSparse solves emit spans and counters into it. The
    /// recorder is shared (`Arc`) so [`Pipeline::run_many`]'s configuration
    /// threads all feed one stream; a disabled recorder (the default) costs
    /// one relaxed atomic load per instrumentation site.
    pub fn with_trace(mut self, trace: Arc<Recorder>) -> Self {
        self.trace = trace;
        self
    }

    /// The recorder this pipeline emits into (disabled unless
    /// [`Pipeline::with_trace`] installed one).
    pub fn trace(&self) -> &Arc<Recorder> {
        &self.trace
    }

    /// The module this pipeline analyzes.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// How many times each shared stage has been built so far.
    pub fn build_counts(&self) -> StageBuildCounts {
        StageBuildCounts {
            pre_analysis: self.counts.pre.load(Ordering::Relaxed),
            icfg: self.counts.icfg.load(Ordering::Relaxed),
            contexts: self.counts.ctxs.load(Ordering::Relaxed),
            svfg: self.counts.svfg.load(Ordering::Relaxed),
            interleaving: self.counts.interleaving.load(Ordering::Relaxed),
            pcg: self.counts.pcg.load(Ordering::Relaxed),
            hb: self.counts.hb.load(Ordering::Relaxed),
            lock: self.counts.lock.load(Ordering::Relaxed),
            parallel_interference: self.counts.parallel_interference.load(Ordering::Relaxed),
        }
    }

    // ---- shared stages (built once, cached) -------------------------------

    fn pre_stage(&self) -> &Stage<PreAnalysis> {
        self.pre.get_or_init(|| {
            self.counts.pre.fetch_add(1, Ordering::Relaxed);
            let span = self.trace.span("stage.pre_analysis");
            let t0 = Instant::now();
            let pre = PreAnalysis::run(self.module);
            span.counter("andersen.rounds", pre.stats.rounds as u64);
            span.counter("andersen.pts_entries", pre.stats.pts_entries as u64);
            (Arc::new(pre), t0.elapsed())
        })
    }

    fn cfg_stage(&self) -> &(Arc<Icfg>, Arc<ThreadModel>, Duration) {
        self.cfg.get_or_init(|| {
            let (pre, _) = self.pre_stage();
            self.counts.icfg.fetch_add(1, Ordering::Relaxed);
            let span = self.trace.span("stage.icfg");
            let t0 = Instant::now();
            let icfg = Icfg::build(self.module, pre.call_graph());
            let tm = ThreadModel::build(self.module, pre, &icfg);
            span.counter("threads.abstract", tm.len() as u64);
            (Arc::new(icfg), Arc::new(tm), t0.elapsed())
        })
    }

    fn ctxs_stage(&self) -> &Stage<ContextTable> {
        self.ctxs.get_or_init(|| {
            let (pre, _) = self.pre_stage();
            let (icfg, tm, _) = self.cfg_stage();
            self.counts.ctxs.fetch_add(1, Ordering::Relaxed);
            let _span = self.trace.span("stage.contexts");
            let t0 = Instant::now();
            let ctxs = precompute_contexts(icfg, pre.call_graph(), tm);
            (Arc::new(ctxs), t0.elapsed())
        })
    }

    fn svfg_stage(&self) -> &Stage<Svfg> {
        self.svfg.get_or_init(|| {
            let (pre, _) = self.pre_stage();
            let (_, tm, _) = self.cfg_stage();
            self.counts.svfg.fetch_add(1, Ordering::Relaxed);
            let span = self.trace.span("stage.svfg");
            let t0 = Instant::now();
            let svfg = Svfg::build(self.module, pre, tm);
            span.counter("svfg.nodes", svfg.stats.nodes as u64);
            span.counter("svfg.edges", svfg.stats.edges as u64);
            span.counter("svfg.mem_phis", svfg.stats.mem_phis as u64);
            (Arc::new(svfg), t0.elapsed())
        })
    }

    /// The interleaving analysis (§3.3.1), built on first demand.
    fn interleaving_stage(&self) -> &Stage<Interleaving> {
        self.interleaving.get_or_init(|| {
            let (pre, _) = self.pre_stage();
            let (icfg, tm, _) = self.cfg_stage();
            let (ctxs, _) = self.ctxs_stage();
            self.counts.interleaving.fetch_add(1, Ordering::Relaxed);
            let _span = self.trace.span("stage.interleaving");
            let t0 = Instant::now();
            let inter = Interleaving::compute(self.module, icfg, pre, tm, ctxs);
            (Arc::new(inter), t0.elapsed())
        })
    }

    fn pcg_stage(&self) -> &Stage<ProcMhp> {
        self.pcg.get_or_init(|| {
            let (icfg, tm, _) = self.cfg_stage();
            self.counts.pcg.fetch_add(1, Ordering::Relaxed);
            let _span = self.trace.span("stage.pcg");
            let t0 = Instant::now();
            let pcg = ProcMhp::build(self.module, icfg, tm);
            (Arc::new(pcg), t0.elapsed())
        })
    }

    /// The factored region×region MHP relation for `mhp`'s backend kind,
    /// built on first demand and cached per kind.
    fn relation_stage(&self, mhp: &MhpBackend) -> Arc<MhpRelation> {
        let slot = match mhp {
            MhpBackend::Interleaving(_) => &self.rel_inter,
            MhpBackend::Pcg(_) => &self.rel_pcg,
        };
        Arc::clone(slot.get_or_init(|| {
            let span = self.trace.span("stage.mhp_relation");
            let rel = mhp.relation();
            rel.export_trace(&span, MHP_COUNTERS);
            Arc::new(rel)
        }))
    }

    /// The happens-before analysis (DESIGN §1.9), built on first demand.
    /// Modules without sync intrinsics gate to `HbFacts::empty()` inside
    /// the build, so this stage is effectively free on pre-HB programs.
    fn hb_stage(&self) -> &Stage<HbFacts> {
        self.hb.get_or_init(|| {
            let (pre, _) = self.pre_stage();
            let (_, tm, _) = self.cfg_stage();
            self.counts.hb.fetch_add(1, Ordering::Relaxed);
            let span = self.trace.span("stage.hb");
            let t0 = Instant::now();
            let hb = HbFacts::build(self.module, pre, tm);
            hb.export_trace(&span);
            (Arc::new(hb), t0.elapsed())
        })
    }

    fn lock_stage(&self) -> &Stage<LockAnalysis> {
        self.lock.get_or_init(|| {
            let (pre, _) = self.pre_stage();
            let (icfg, tm, _) = self.cfg_stage();
            let (ctxs, _) = self.ctxs_stage();
            self.counts.lock.fetch_add(1, Ordering::Relaxed);
            let span = self.trace.span("stage.lock");
            let t0 = Instant::now();
            let lock = LockAnalysis::compute(self.module, icfg, pre, tm, ctxs);
            span.counter("lock.spans", lock.span_count as u64);
            (Arc::new(lock), t0.elapsed())
        })
    }

    /// Builds the interleaving and lock analyses concurrently. Both are
    /// forward data-flow passes that only *read* the shared pre-analysis,
    /// ICFG, thread model and frozen context table, so after materializing
    /// those inputs the two stages are independent.
    fn interference_parallel(&self) {
        let both_pending = self.interleaving.get().is_none() && self.lock.get().is_none();
        if !both_pending {
            // At least one is already cached; build the other inline.
            let _ = self.interleaving_stage();
            let _ = self.lock_stage();
            return;
        }
        let _ = self.pre_stage();
        let _ = self.cfg_stage();
        let _ = self.ctxs_stage();
        self.counts
            .parallel_interference
            .store(true, Ordering::Relaxed);
        thread::scope(|s| {
            s.spawn(|| {
                let _ = self.interleaving_stage();
            });
            let _ = self.lock_stage();
        });
    }

    // ---- drivers ----------------------------------------------------------

    /// Runs one configuration, reusing every already-built shared stage.
    ///
    /// In the full configuration the interleaving and lock analyses are
    /// scheduled concurrently; the value-flow phase, thread-aware edge
    /// insertion (on a clone of the cached thread-oblivious SVFG) and the
    /// sparse solve are per-configuration work.
    pub fn run(&self, config: PhaseConfig) -> Fsam {
        let mut times = PhaseTimes::default();
        let run_span = self.trace.span("pipeline.run");
        run_span.point(
            "config",
            vec![
                (
                    "interleaving".into(),
                    FieldValue::U64(config.interleaving.into()),
                ),
                (
                    "value_flow".into(),
                    FieldValue::U64(config.value_flow.into()),
                ),
                ("lock".into(), FieldValue::U64(config.lock.into())),
                ("hb".into(), FieldValue::U64(config.hb.into())),
            ],
        );

        let (pre, d) = self.pre_stage();
        times.pre_analysis = *d;
        let (icfg, tm, d) = self.cfg_stage();
        times.thread_model = *d;

        if config.interleaving && config.lock {
            self.interference_parallel();
        }
        // The interference analyses share the frozen context table; its
        // precompute pass is accounted to the thread-model phase (it depends
        // only on the ICFG and call graph).
        let (ctxs, d) = self.ctxs_stage();
        times.thread_model += *d;

        let mhp = if config.interleaving {
            let (inter, d) = self.interleaving_stage();
            times.interleaving = *d;
            MhpBackend::Interleaving(Arc::clone(inter))
        } else {
            let (pcg, d) = self.pcg_stage();
            times.interleaving = *d;
            MhpBackend::Pcg(Arc::clone(pcg))
        };

        let mhp_rel = self.relation_stage(&mhp);

        let hb = if config.hb {
            let (hb, d) = self.hb_stage();
            times.hb = *d;
            Arc::clone(hb)
        } else {
            Arc::new(HbFacts::empty())
        };

        let lock = config.lock.then(|| {
            let (lock, d) = self.lock_stage();
            times.lock = *d;
            Arc::clone(lock)
        });

        let (svfg_base, d) = self.svfg_stage();
        times.svfg = *d;

        let t0 = Instant::now();
        let vf_span = run_span.child("phase.value_flow");
        let vf = if self.threads > 1 && config.value_flow {
            // Shard the per-object store × access loops across the pool and
            // fold the results back in object order — bit-identical to the
            // sequential `valueflow::compute` by construction.
            let plan = ValueFlowPlan::new(self.module, icfg, pre, &mhp, &mhp_rel, lock.as_deref());
            let (flows, ps) =
                par::run_tasks(self.threads, plan.objects(), |_, i, _| plan.object_flow(i));
            vf_span.counter("par.workers", ps.workers.max(1) as u64);
            vf_span.counter("par.steals", ps.steals);
            plan.merge(flows)
        } else {
            valueflow::compute(
                self.module,
                icfg,
                pre,
                &mhp,
                &mhp_rel,
                lock.as_deref(),
                !config.value_flow,
            )
        };
        vf.stats.export_trace(&vf_span);
        let mut svfg = Svfg::clone(svfg_base);
        let inserted = svfg.insert_thread_edges_grouped(&vf.edges);
        vf_span.counter("svfg.thread_classes", inserted.classes as u64);
        vf_span.counter("svfg.thread_junctions", inserted.junctions as u64);
        vf_span.counter("svfg.thread_edges_added", inserted.edges_added as u64);
        drop(vf_span);
        times.value_flow = t0.elapsed();

        let t0 = Instant::now();
        let result = solver::solve_traced(self.module, pre, &svfg, &self.trace, run_span.id());
        times.sparse_solve = t0.elapsed();

        Fsam {
            pre: Arc::clone(pre),
            icfg: Arc::clone(icfg),
            tm: Arc::clone(tm),
            svfg,
            mhp,
            mhp_rel,
            hb,
            lock,
            ctxs: Arc::clone(ctxs),
            vf_stats: vf.stats,
            result,
            times,
            config,
        }
    }

    /// Runs several configurations, solving them on separate threads once
    /// the shared stages are materialized. Results are returned in the order
    /// of `configs`.
    pub fn run_many(&self, configs: &[PhaseConfig]) -> Vec<Fsam> {
        // Materialize every shared stage the batch needs up front (with the
        // interleaving/lock pair in parallel) so the per-configuration
        // threads below only do per-run work on cached inputs.
        let need_inter = configs.iter().any(|c| c.interleaving);
        let need_lock = configs.iter().any(|c| c.lock);
        let need_pcg = configs.iter().any(|c| !c.interleaving);
        let _ = self.svfg_stage();
        let _ = self.ctxs_stage();
        if need_inter && need_lock {
            self.interference_parallel();
        } else if need_inter {
            let _ = self.interleaving_stage();
        } else if need_lock {
            let _ = self.lock_stage();
        }
        if need_pcg {
            let _ = self.pcg_stage();
        }
        if configs.iter().any(|c| c.hb) {
            let _ = self.hb_stage();
        }
        thread::scope(|s| {
            let handles: Vec<_> = configs
                .iter()
                .map(|&c| s.spawn(move || self.run(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("configuration run panicked"))
                .collect()
        })
    }

    /// Runs the four Figure 12 configurations (full plus the three
    /// ablations), sharing stages and solving in parallel.
    pub fn run_all(&self) -> Vec<Fsam> {
        self.run_many(&[
            PhaseConfig::full(),
            PhaseConfig::no_interleaving(),
            PhaseConfig::no_value_flow(),
            PhaseConfig::no_lock(),
        ])
    }

    /// Runs the NonSparse baseline (§4.3) on the shared pre-analysis and
    /// ICFG/thread-model stages — the Table 2 comparison without paying for
    /// a second pre-analysis.
    pub fn run_nonsparse(&self, budget: Option<Duration>) -> NonSparseOutcome {
        let (pre, _) = self.pre_stage();
        let (icfg, tm, _) = self.cfg_stage();
        let span = self.trace.span("pipeline.run_nonsparse");
        nonsparse::run_traced(self.module, pre, icfg, tm, budget, &self.trace, span.id())
    }
}

/// The complete output of an FSAM run.
///
/// Shared stages (`pre`, `icfg`, `tm`, `ctxs`, the MHP backend, the lock
/// analysis) are `Arc`-backed so several runs from one [`Pipeline`] hand out
/// the same artifacts; the SVFG, value-flow statistics, solver result and
/// times are per-run.
#[derive(Debug)]
pub struct Fsam {
    /// The pre-analysis (Andersen) results.
    pub pre: Arc<PreAnalysis>,
    /// The interprocedural CFG.
    pub icfg: Arc<Icfg>,
    /// The static thread model.
    pub tm: Arc<ThreadModel>,
    /// The (thread-aware) sparse value-flow graph.
    pub svfg: Svfg,
    /// The MHP oracle this configuration used: the interleaving analysis,
    /// or the PCG fallback under *No-Interleaving*.
    pub mhp: MhpBackend,
    /// The same backend factored into region×region bitmatrix form —
    /// statement-level MHP as two region lookups and one bit test.
    pub mhp_rel: Arc<MhpRelation>,
    /// The vector-clock happens-before facts (empty under *No-HB* or when
    /// the module has no sync intrinsics). `mhp_rel` stays the raw MHP —
    /// consumers combine the two: a pair truly races only when MHP holds
    /// and HB does not order it.
    pub hb: Arc<HbFacts>,
    /// The lock analysis (present unless *No-Lock*).
    pub lock: Option<Arc<LockAnalysis>>,
    /// The shared (frozen) context table.
    pub ctxs: Arc<ContextTable>,
    /// Value-flow phase statistics.
    pub vf_stats: ValueFlowStats,
    /// The sparse solver output.
    pub result: SparseResult,
    /// Per-phase wall-clock times.
    pub times: PhaseTimes,
    /// The configuration that ran.
    pub config: PhaseConfig,
}

impl Fsam {
    /// Runs the full FSAM pipeline on `module`.
    pub fn analyze(module: &Module) -> Fsam {
        Self::analyze_with(module, PhaseConfig::full())
    }

    /// Runs the pipeline with a specific phase configuration (a thin wrapper
    /// over a single-use [`Pipeline`]).
    pub fn analyze_with(module: &Module, config: PhaseConfig) -> Fsam {
        Pipeline::for_module(module).run(config)
    }

    /// Looks up `func::var`.
    ///
    /// # Panics
    ///
    /// Panics if no such variable exists.
    pub fn var_named(module: &Module, func: &str, var: &str) -> VarId {
        module
            .var_ids()
            .find(|&v| module.var(v).name == var && module.func(module.var(v).func).name == func)
            .unwrap_or_else(|| panic!("no variable {func}::{var}"))
    }

    /// Statement-level MHP refined by happens-before: the pair may race
    /// only if the raw MHP relation says it can interleave *and* no
    /// condvar/barrier/atomic synchronization chain orders it.
    pub fn mhp_refined(&self, s1: fsam_ir::StmtId, s2: fsam_ir::StmtId) -> bool {
        self.mhp_rel.related(s1, s2) && !self.hb.related(s1, s2)
    }

    /// Memory held by analysis state, broken down by category (the Table 2
    /// memory column).
    pub fn memory(&self) -> MemoryMeter {
        let mut m = MemoryMeter::new();
        m.add("pre-analysis", self.pre.pts_bytes());
        m.add("sparse-points-to", self.result.pts_bytes());
        m.add("hb-facts", self.hb.heap_bytes());
        m
    }

    /// A human-readable summary of the run: per-phase times and the key
    /// statistics of every stage.
    pub fn report(&self, module: &Module) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "FSAM analysis report");
        let _ = writeln!(
            out,
            "  program: {} stmts, {} functions, {} objects, {} variables",
            module.stmt_count(),
            module.func_count(),
            module.obj_count(),
            module.var_count()
        );
        let _ = writeln!(out, "  threads: {} abstract threads", self.tm.len());
        let _ = writeln!(
            out,
            "  pre-analysis:  {:>10.2?}  ({} rounds, {} pts entries)",
            self.times.pre_analysis, self.pre.stats.rounds, self.pre.stats.pts_entries
        );
        let _ = writeln!(out, "  thread model:  {:>10.2?}", self.times.thread_model);
        let _ = writeln!(
            out,
            "  memory SSA:    {:>10.2?}  ({} nodes, {} edges, {} mem-phis)",
            self.times.svfg, self.svfg.stats.nodes, self.svfg.stats.edges, self.svfg.stats.mem_phis
        );
        let mhp_kind = if self.config.interleaving {
            "interleaving"
        } else {
            "PCG"
        };
        let _ = writeln!(out, "  MHP ({mhp_kind}): {:>8.2?}", self.times.interleaving);
        let _ = writeln!(
            out,
            "  happens-before:{:>10.2?}  ({} regions, {} chain events)",
            self.times.hb,
            self.hb.region_count(),
            self.hb.chain_event_count()
        );
        let _ = writeln!(
            out,
            "  lock analysis: {:>10.2?}  ({} spans)",
            self.times.lock,
            self.lock.as_ref().map_or(0, |l| l.span_count)
        );
        let _ = writeln!(
            out,
            "  value flow:    {:>10.2?}  ({} shared objects, {} MHP pairs, {} lock-filtered, {} edges)",
            self.times.value_flow,
            self.vf_stats.shared_objects,
            self.vf_stats.mhp_pairs,
            self.vf_stats.lock_filtered,
            self.vf_stats.edges
        );
        let _ = writeln!(
            out,
            "  sparse solve:  {:>10.2?}  ({} items, {} strong / {} weak updates)",
            self.times.sparse_solve,
            self.result.stats.processed,
            self.result.stats.strong_updates,
            self.result.stats.weak_updates
        );
        let _ = writeln!(out, "  total:         {:>10.2?}", self.times.total());
        let _ = writeln!(out, "  memory:        {}", self.memory());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_ir::parse::parse_module;

    /// Sorted display names of the objects `func::var` points to under the
    /// flow-sensitive result. (External callers go through
    /// `fsam_query::QueryEngine::pt_names`; the query crate depends on this
    /// one, so in-crate tests read the result directly.)
    fn pt_names(fsam: &Fsam, m: &Module, func: &str, var: &str) -> Vec<String> {
        let v = Fsam::var_named(m, func, var);
        let mut names: Vec<String> = fsam
            .result
            .pt_var(v)
            .iter()
            .map(|o| fsam.pre.objects().display_name(m, o))
            .collect();
        names.sort();
        names
    }

    /// Paper Figure 1(a): interleaving soundness — pt(c) = {y, z}.
    #[test]
    fn figure_1a() {
        let m = parse_module(
            r#"
            global x
            global y
            global z
            func foo() {
            entry:
              p2 = &x
              q = &y
              store p2, q      // *p = q (in thread t)
              ret
            }
            func main() {
            entry:
              p = &x
              r = &z
              t = fork foo()
              store p, r       // *p = r
              c = load p       // c = *p
              ret
            }
        "#,
        )
        .unwrap();
        let fsam = Fsam::analyze(&m);
        assert_eq!(pt_names(&fsam, &m, "main", "c"), vec!["y", "z"]);
    }

    /// Paper Figure 1(c): fork/join precision with a strong update —
    /// pt(c) = {y} only.
    #[test]
    fn figure_1c() {
        let m = parse_module(
            r#"
            global x
            global y
            global z
            func foo() {
            entry:
              p2 = &x
              q = &y
              store p2, q      // *p = q (strong update under thread order)
              ret
            }
            func main() {
            entry:
              p = &x
              r = &z
              store p, r       // *p = r
              t = fork foo()
              join t
              c = load p       // c = *p — after the join
              ret
            }
        "#,
        )
        .unwrap();
        let fsam = Fsam::analyze(&m);
        assert_eq!(pt_names(&fsam, &m, "main", "c"), vec!["y"]);
    }

    /// Paper Figure 1(d): sparsity — *x and *p don't alias, so the store to
    /// x never pollutes c. pt(c) = {y}.
    #[test]
    fn figure_1d() {
        let m = parse_module(
            r#"
            global x
            global y
            global a
            func foo() {
            entry:
              p2 = &x
              q = &y
              xv = load p2     // x was set to &a in main; *x = r writes a
              store xv, xv     // *x = r stand-in: writes object a, not x
              store p2, q      // *p = q
              ret
            }
            func main() {
            entry:
              p = &x
              aa = &a
              store p, aa      // x = &a
              t = fork foo()
              c = load p       // c = *p
              join t
              ret
            }
        "#,
        )
        .unwrap();
        let fsam = Fsam::analyze(&m);
        let names = pt_names(&fsam, &m, "main", "c");
        assert!(names.contains(&"y".to_owned()));
        assert!(!names.contains(&"x".to_owned()), "{names:?}");
    }

    /// Sequential strong updates still work end to end.
    #[test]
    fn sequential_strong_update() {
        let m = parse_module(
            r#"
            global x
            global y
            global z
            func main() {
            entry:
              p = &x
              r = &z
              q = &y
              store p, r       // x = &z
              store p, q       // x = &y (kills &z)
              c = load p       // c = {y}
              ret
            }
        "#,
        )
        .unwrap();
        let fsam = Fsam::analyze(&m);
        assert_eq!(pt_names(&fsam, &m, "main", "c"), vec!["y"]);
        assert!(fsam.result.stats.strong_updates > 0);
    }

    /// Weak update on a heap object (never a singleton).
    #[test]
    fn heap_updates_are_weak() {
        let m = parse_module(
            r#"
            global y
            global z
            func main() {
            entry:
              h = alloc "cell"
              r = &z
              q = &y
              store h, r
              store h, q       // weak: heap objects are not singletons
              c = load h
              ret
            }
        "#,
        )
        .unwrap();
        let fsam = Fsam::analyze(&m);
        assert_eq!(pt_names(&fsam, &m, "main", "c"), vec!["y", "z"]);
    }

    /// FSAM refines the pre-analysis: every sparse points-to set is a subset
    /// of Andersen's.
    #[test]
    fn sparse_refines_andersen() {
        let m = parse_module(
            r#"
            global x
            global y
            global z
            func worker(w) {
            entry:
              v = load w
              store w, v
              ret
            }
            func main() {
            entry:
              p = &x
              r = &z
              q = &y
              store p, r
              t = fork worker(p)
              store p, q
              c = load p
              join t
              ret
            }
        "#,
        )
        .unwrap();
        let fsam = Fsam::analyze(&m);
        for v in m.var_ids() {
            assert!(
                fsam.result.pt_var(v).is_subset(fsam.pre.pt_var(v)),
                "sparse pt({}) ⊄ andersen",
                m.var_name(v)
            );
        }
    }

    #[test]
    fn alias_queries_and_report() {
        let m = parse_module(
            r#"
            global x
            global y
            func main() {
            entry:
              p = &x
              q = &x
              r = &y
              store p, r
              c = load q
              ret
            }
        "#,
        )
        .unwrap();
        let fsam = Fsam::analyze(&m);
        let p = Fsam::var_named(&m, "main", "p");
        let q = Fsam::var_named(&m, "main", "q");
        let r = Fsam::var_named(&m, "main", "r");
        // Alias queries live in `fsam_query::QueryEngine::may_alias`; the
        // underlying flow-sensitive sets answer the same question here.
        assert!(fsam.result.pt_var(p).intersects(fsam.result.pt_var(q)));
        assert!(!fsam.result.pt_var(p).intersects(fsam.result.pt_var(r)));
        let report = fsam.report(&m);
        assert!(report.contains("sparse solve"), "{report}");
        assert!(report.contains("abstract threads"), "{report}");
        assert!(report.contains("strong"), "{report}");
    }

    /// A program that exercises every phase: forks, joins, locks, aliased
    /// stores and loads.
    const ABLATION_SRC: &str = r#"
            global o
            global lk
            global y
            global z
            func a() {
            entry:
              p = &o
              l = &lk
              zz = &z
              lock l
              store p, zz
              yy = &y
              store p, yy
              unlock l
              ret
            }
            func b() {
            entry:
              q = &o
              l = &lk
              lock l
              c = load q
              unlock l
              ret
            }
            func main() {
            entry:
              t1 = fork a()
              t2 = fork b()
              join t1
              join t2
              p = &o
              after = load p
              ret
            }
        "#;

    /// Ablations run and produce sound (superset-or-equal) results.
    #[test]
    fn ablations_are_sound_but_no_more_precise() {
        let m = parse_module(ABLATION_SRC).unwrap();
        let full = Fsam::analyze(&m);
        for cfg in [
            PhaseConfig::no_interleaving(),
            PhaseConfig::no_value_flow(),
            PhaseConfig::no_lock(),
        ] {
            let ablated = Fsam::analyze_with(&m, cfg);
            for v in m.var_ids() {
                assert!(
                    full.result.pt_var(v).is_subset(ablated.result.pt_var(v)),
                    "ablation {cfg:?} lost soundness on {}",
                    m.var_name(v)
                );
            }
        }
    }

    /// The tentpole guarantee: four ablations, one build of every shared
    /// stage, with the interleaving/lock pair scheduled concurrently.
    #[test]
    fn stages_are_built_once_across_ablations() {
        let m = parse_module(ABLATION_SRC).unwrap();
        let pipeline = Pipeline::for_module(&m);
        let runs = pipeline.run_all();
        assert_eq!(runs.len(), 4);
        let counts = pipeline.build_counts();
        assert_eq!(
            counts,
            StageBuildCounts {
                pre_analysis: 1,
                icfg: 1,
                contexts: 1,
                svfg: 1,
                interleaving: 1,
                pcg: 1,
                hb: 1,
                lock: 1,
                parallel_interference: true,
            }
        );
    }

    /// Stage sharing is by reference: runs from one pipeline hand out the
    /// same `Arc`-backed artifacts.
    #[test]
    fn runs_share_stage_arcs() {
        use fsam_threads::MhpBackend;
        let m = parse_module(ABLATION_SRC).unwrap();
        let pipeline = Pipeline::for_module(&m);
        let a = pipeline.run(PhaseConfig::full());
        let b = pipeline.run(PhaseConfig::no_lock());
        assert!(Arc::ptr_eq(&a.pre, &b.pre));
        assert!(Arc::ptr_eq(&a.icfg, &b.icfg));
        assert!(Arc::ptr_eq(&a.tm, &b.tm));
        assert!(Arc::ptr_eq(&a.ctxs, &b.ctxs));
        match (&a.mhp, &b.mhp) {
            (MhpBackend::Interleaving(x), MhpBackend::Interleaving(y)) => {
                assert!(Arc::ptr_eq(x, y));
            }
            other => panic!("both configurations use interleaving: {other:?}"),
        }
        assert!(a.lock.is_some());
        assert!(
            b.lock.is_none(),
            "*No-Lock* must not expose a lock analysis"
        );
    }

    /// `PhaseTimes::total` is the sum of all eight phases, and the empty
    /// value totals zero.
    #[test]
    fn phase_times_total_sums_every_phase() {
        let t = PhaseTimes {
            pre_analysis: Duration::from_millis(1),
            thread_model: Duration::from_millis(2),
            svfg: Duration::from_millis(4),
            interleaving: Duration::from_millis(8),
            hb: Duration::from_millis(128),
            lock: Duration::from_millis(16),
            value_flow: Duration::from_millis(32),
            sparse_solve: Duration::from_millis(64),
        };
        assert_eq!(t.total(), Duration::from_millis(255));
        assert_eq!(PhaseTimes::default().total(), Duration::ZERO);
    }

    /// Under `run_many`, shared stages build exactly once across parallel
    /// configurations, and cache-hit phases report the original build's
    /// duration — so `PhaseTimes` stays comparable between the run that
    /// built a stage and the runs that reused it.
    #[test]
    fn run_many_builds_shared_stages_once_with_original_durations() {
        let m = parse_module(ABLATION_SRC).unwrap();
        let pipeline = Pipeline::for_module(&m);
        let runs = pipeline.run_many(&[
            PhaseConfig::full(),
            PhaseConfig::full(),
            PhaseConfig::no_lock(),
        ]);
        assert_eq!(runs.len(), 3);
        let counts = pipeline.build_counts();
        assert_eq!(counts.pre_analysis, 1);
        assert_eq!(counts.icfg, 1);
        assert_eq!(counts.contexts, 1);
        assert_eq!(counts.svfg, 1);
        assert_eq!(counts.interleaving, 1);
        assert_eq!(counts.lock, 1);
        assert_eq!(counts.pcg, 0, "every config used interleaving");
        for r in &runs[1..] {
            assert_eq!(r.times.pre_analysis, runs[0].times.pre_analysis);
            assert_eq!(r.times.thread_model, runs[0].times.thread_model);
            assert_eq!(r.times.svfg, runs[0].times.svfg);
            assert_eq!(r.times.interleaving, runs[0].times.interleaving);
        }
        assert_eq!(runs[1].times.lock, runs[0].times.lock);
        assert_eq!(
            runs[2].times.lock,
            Duration::ZERO,
            "*No-Lock* never pays for the lock stage"
        );
        for r in &runs {
            assert!(r.times.total() >= r.times.pre_analysis + r.times.sparse_solve);
        }
    }

    /// The wrapper entry points and the staged driver agree exactly.
    #[test]
    fn wrapper_matches_staged_run() {
        let m = parse_module(ABLATION_SRC).unwrap();
        let pipeline = Pipeline::for_module(&m);
        for cfg in [
            PhaseConfig::full(),
            PhaseConfig::no_interleaving(),
            PhaseConfig::no_value_flow(),
            PhaseConfig::no_lock(),
        ] {
            let staged = pipeline.run(cfg);
            let standalone = Fsam::analyze_with(&m, cfg);
            assert_eq!(staged.result, standalone.result, "{cfg:?}");
            assert_eq!(staged.vf_stats, standalone.vf_stats, "{cfg:?}");
        }
    }

    /// NonSparse rides the same pre-analysis/ICFG stages.
    #[test]
    fn nonsparse_shares_stages() {
        let m = parse_module(ABLATION_SRC).unwrap();
        let pipeline = Pipeline::for_module(&m);
        let _ = pipeline.run(PhaseConfig::full());
        let outcome = pipeline.run_nonsparse(None);
        assert!(matches!(
            outcome,
            crate::nonsparse::NonSparseOutcome::Done(_)
        ));
        assert_eq!(pipeline.build_counts().pre_analysis, 1);
        assert_eq!(pipeline.build_counts().icfg, 1);
    }
}
