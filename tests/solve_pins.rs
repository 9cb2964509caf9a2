//! Pins the sparse solve's complete fixpoint with snapshot checksums.
//!
//! Each row is the header FNV-1a checksum of
//! `AnalysisDb::capture(..).to_bytes()`: it seals every points-to set,
//! every handle table, every `SolverStats` field (including
//! `peak_pts_bytes`) and the pool's handle order. A solver refactor that
//! keeps this table unchanged reached the same fixpoint by the same route.
//!
//! Rows cover the ten suite programs and the three sync programs under all
//! five phase configurations at `Scale::SMOKE`, plus x264 at scale 0.32
//! under the full configuration.
//!
//! The rows after those pin the routes of the three worklists in plain
//! text, per program at `Scale::SMOKE` under the full configuration: the
//! delta solver's `processed`, `delta_items` and `recompute_items` (also
//! sealed in the checksums, spelled out here so a route change reads as a
//! before → after table), the recompute oracle's `processed` count, and
//! the NonSparse baseline's `processed` and `pts_entries`. The oracle and
//! the baseline pop in `TopoOrder::priority` order, so a queue change that
//! keeps these counts pops the same sequence.
//!
//! The last rows pin the shape of the thread-aware SVFG the full
//! configuration solves over, per program at `Scale::SMOKE` and for x264 at
//! 0.32: its node count, the edges present (the `succs` row lengths), the
//! thread-aware edges among them (present edges beyond the
//! thread-oblivious graph's), the memory phis, and an FNV-1a checksum over
//! every node kind, every `succs` and `preds` row in order and whether
//! each successor edge is a thread edge. A graph refactor that keeps these
//! rows builds the same nodes, in the same numbering, with the same rows.
//!
//! The `andersen` rows pin the pre-analysis, per program at `Scale::SMOKE`
//! and for x264 and raytrace at 0.32: every `AndersenStats` field but the
//! wall clock, the number of interned objects, and an FNV-1a checksum over
//! every variable's and every object's points-to set (by id), each
//! object's root, offset, collapsed and singleton flags, and the resolved
//! targets of every call and fork site. A pre-analysis refactor that keeps
//! these rows ran the same rounds and interned the same field objects in
//! the same order.
//!
//! The `parse` rows pin the FIR front end, per program at `Scale::SMOKE`
//! and for x264 at 0.32: an FNV-1a checksum over the module parsed back
//! from the program's printed FIR — every function's, variable's,
//! object's and block's name in id order, every statement's kind with its
//! operand ids, every statement's source line and the lint directives
//! (not `func_by_name`'s hash-map order, only that it maps each name to
//! its function). The `parse-errors` row folds the outcome of each of the
//! seeded mutants of `fir_robustness` — `Ok`, or the error's line, column
//! and message. A front-end refactor that keeps these rows numbers every
//! entity the same way and reports every error in the same words.
//! Regenerate after an intentional change with:
//!
//! ```text
//! FSAM_BLESS=1 cargo test --release --test solve_pins
//! ```

use fsam::nonsparse::{self, NonSparseOutcome};
use fsam::{Fsam, PhaseConfig};
use fsam_andersen::PreAnalysis;
use fsam_ir::parse::parse_module;
use fsam_ir::print::module_to_string;
use fsam_ir::stmt::StmtKind;
use fsam_ir::Module;
use fsam_mssa::Svfg;
use fsam_pts::{MemKind, PtsSet};
use fsam_query::AnalysisDb;
use fsam_suite::{Program, Scale, SyncProgram};

mod fir_mutants;

fn configs() -> [(&'static str, PhaseConfig); 5] {
    [
        ("full", PhaseConfig::full()),
        ("no_interleaving", PhaseConfig::no_interleaving()),
        ("no_value_flow", PhaseConfig::no_value_flow()),
        ("no_lock", PhaseConfig::no_lock()),
        ("no_hb", PhaseConfig::no_hb()),
    ]
}

fn pins_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/solve_pins.txt")
}

/// The header checksum of the snapshot of one solved run.
fn checksum(module: &Module, fsam: &Fsam) -> u64 {
    let bytes = AnalysisDb::capture(module, fsam).to_bytes();
    u64::from_le_bytes(bytes[20..28].try_into().unwrap())
}

/// The delta solver's, the oracle's and the baseline's route counts on
/// one full-config run.
fn route_rows(name: &str, module: &Module, fsam: &Fsam) -> [String; 3] {
    let oracle = fsam::solve_recompute(module, &fsam.pre, &fsam.svfg);
    let NonSparseOutcome::Done(ns) = nonsparse::run(module, &fsam.pre, &fsam.icfg, &fsam.tm, None)
    else {
        unreachable!("no budget, so the baseline always finishes");
    };
    let delta = &fsam.result.stats;
    [
        format!(
            "{name}@0.05 delta processed={} delta_items={} recompute_items={}",
            delta.processed, delta.delta_items, delta.recompute_items
        ),
        format!("{name}@0.05 recompute processed={}", oracle.stats.processed),
        format!(
            "{name}@0.05 nonsparse processed={} pts_entries={}",
            ns.stats.processed, ns.stats.pts_entries
        ),
    ]
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shape row of the thread-aware SVFG of one full-config run.
fn svfg_row(label: &str, module: &Module, fsam: &Fsam) -> String {
    let svfg = &fsam.svfg;
    let base: usize = {
        let oblivious = Svfg::build(module, &fsam.pre, &fsam.tm);
        oblivious.node_ids().map(|n| oblivious.succs(n).len()).sum()
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut edges = 0;
    for n in svfg.node_ids() {
        h = fnv(h, format!("{:?}", svfg.kind(n)).as_bytes());
        h = fnv(h, &(svfg.succs(n).len() as u32).to_le_bytes());
        for &(t, o) in svfg.succs(n) {
            h = fnv(h, &(t.index() as u32).to_le_bytes());
            h = fnv(h, &o.raw().to_le_bytes());
            h = fnv(h, &[u8::from(svfg.is_thread_edge(n, t))]);
        }
        h = fnv(h, &(svfg.preds(n).len() as u32).to_le_bytes());
        for &(p, o) in svfg.preds(n) {
            h = fnv(h, &(p.index() as u32).to_le_bytes());
            h = fnv(h, &o.raw().to_le_bytes());
        }
        edges += svfg.succs(n).len();
    }
    format!(
        "{label} svfg nodes={} edges={edges} thread_edges={} mem_phis={} {h:016x}",
        svfg.node_count(),
        edges - base,
        svfg.stats.mem_phis
    )
}

/// The pre-analysis row of one program.
fn andersen_row(label: &str, module: &Module, pre: &PreAnalysis) -> String {
    let set = |h: u64, s: &PtsSet| {
        let h = fnv(h, &(s.len() as u32).to_le_bytes());
        s.iter().fold(h, |h, m| fnv(h, &m.raw().to_le_bytes()))
    };
    let om = pre.objects();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for v in module.var_ids() {
        h = set(h, pre.pt_var(v));
    }
    for m in om.mem_ids() {
        h = set(h, pre.pt_mem(m));
        let offset = match om.kind(m) {
            MemKind::Base(_) => 0,
            MemKind::Field { field, .. } => field,
        };
        h = fnv(h, &om.root(m).raw().to_le_bytes());
        h = fnv(h, &offset.to_le_bytes());
        h = fnv(
            h,
            &[u8::from(om.is_collapsed(m)), u8::from(om.is_singleton(m))],
        );
    }
    for (sid, stmt) in module.stmts() {
        if matches!(stmt.kind, StmtKind::Call { .. } | StmtKind::Fork { .. }) {
            let targets: Vec<_> = pre.call_graph().targets(sid).collect();
            h = fnv(h, &(targets.len() as u32).to_le_bytes());
            for f in targets {
                h = fnv(h, &(f.index() as u32).to_le_bytes());
            }
        }
    }
    let s = &pre.stats;
    format!(
        "{label} andersen rounds={} nodes={} copy_edges={} pts_entries={} scc_merges={} \
         indirect_resolved={} pwc_collapses={} objects={} {h:016x}",
        s.rounds,
        s.nodes,
        s.copy_edges,
        s.pts_entries,
        s.scc_merges,
        s.indirect_resolved,
        s.pwc_collapses,
        om.len()
    )
}

/// The front-end row of one program: the checksum of the module parsed
/// back from its printed FIR.
fn parse_row(label: &str, module: &Module) -> String {
    let m = parse_module(&module_to_string(module)).expect("printed FIR parses");
    let name = |h: u64, s: &str| fnv(fnv(h, &(s.len() as u32).to_le_bytes()), s.as_bytes());
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in m.funcs() {
        h = name(h, &f.name);
        h = fnv(h, &[u8::from(m.func_by_name(&f.name) == Some(f.id))]);
        h = fnv(
            h,
            format!("{:?}", (&f.params, &f.locals, f.func_obj)).as_bytes(),
        );
        h = fnv(h, &[u8::from(f.is_external)]);
        for (_, b) in f.blocks() {
            h = name(h, &b.name);
            h = fnv(h, format!("{:?}", (&b.stmts, &b.term)).as_bytes());
        }
    }
    for v in m.var_ids() {
        let info = m.var(v);
        h = name(h, &info.name);
        h = fnv(h, &(info.func.index() as u32).to_le_bytes());
    }
    for (_, o) in m.objs() {
        h = name(h, &o.name);
        h = fnv(h, format!("{:?}", (o.kind, o.is_array)).as_bytes());
    }
    for (sid, s) in m.stmts() {
        h = fnv(h, format!("{:?}", (&s.kind, s.func, s.block)).as_bytes());
        h = fnv(h, &m.stmt_line(sid).unwrap_or(0).to_le_bytes());
    }
    for d in m.lint_directives() {
        h = fnv(h, &d.line.to_le_bytes());
        for c in &d.codes {
            h = name(h, c);
        }
    }
    format!(
        "{label} parse funcs={} vars={} objs={} stmts={} {h:016x}",
        m.func_count(),
        m.var_count(),
        m.obj_count(),
        m.stmt_count()
    )
}

/// The outcome of parsing every seeded mutant of `fir_robustness`.
fn parse_errors_row() -> String {
    let corpus = fir_mutants::corpus();
    let (mut ok, mut h) = (0, 0xcbf2_9ce4_8422_2325);
    for seed in fir_mutants::SEED_BASE..fir_mutants::SEED_BASE + fir_mutants::MUTANTS {
        match parse_module(&fir_mutants::mutant(&corpus, seed)) {
            Ok(_) => {
                ok += 1;
                h = fnv(h, b"ok");
            }
            Err(e) => {
                h = fnv(h, &e.line.to_le_bytes());
                h = fnv(h, &e.col.to_le_bytes());
                h = fnv(h, e.message.as_bytes());
            }
        }
    }
    format!(
        "parse-errors mutants={} ok={ok} {h:016x}",
        fir_mutants::MUTANTS
    )
}

fn rows() -> Vec<String> {
    let mut modules: Vec<(String, Module)> = Program::all()
        .into_iter()
        .map(|p| (p.name().to_string(), p.generate(Scale::SMOKE)))
        .collect();
    modules.extend(
        SyncProgram::all()
            .into_iter()
            .map(|p| (p.name().to_string(), p.generate(Scale::SMOKE))),
    );
    let mut rows = Vec::new();
    let mut routes = Vec::new();
    let mut shapes = Vec::new();
    let mut pres = Vec::new();
    let mut parses = Vec::new();
    for (name, module) in &modules {
        parses.push(parse_row(&format!("{name}@0.05"), module));
        for (config_name, config) in configs() {
            let fsam = Fsam::analyze_with(module, config);
            let sum = checksum(module, &fsam);
            rows.push(format!("{name}@0.05 {config_name} {sum:016x}"));
            if config_name == "full" {
                routes.extend(route_rows(name, module, &fsam));
                shapes.push(svfg_row(&format!("{name}@0.05"), module, &fsam));
                pres.push(andersen_row(&format!("{name}@0.05"), module, &fsam.pre));
            }
        }
    }
    let x264 = Program::X264.generate(Scale(0.32));
    let x264_fsam = Fsam::analyze(&x264);
    let sum = checksum(&x264, &x264_fsam);
    rows.push(format!("{}@0.32 full {sum:016x}", Program::X264.name()));
    shapes.push(svfg_row(
        &format!("{}@0.32", Program::X264.name()),
        &x264,
        &x264_fsam,
    ));
    pres.push(andersen_row(
        &format!("{}@0.32", Program::X264.name()),
        &x264,
        &x264_fsam.pre,
    ));
    parses.push(parse_row(&format!("{}@0.32", Program::X264.name()), &x264));
    parses.push(parse_errors_row());
    let raytrace = Program::Raytrace.generate(Scale(0.32));
    pres.push(andersen_row(
        &format!("{}@0.32", Program::Raytrace.name()),
        &raytrace,
        &PreAnalysis::run(&raytrace),
    ));
    rows.extend(routes);
    rows.extend(shapes);
    rows.extend(pres);
    rows.extend(parses);
    rows
}

#[test]
fn solve_fixpoints_match_pinned_snapshot_checksums() {
    let got = rows();
    let path = pins_path();
    if std::env::var_os("FSAM_BLESS").is_some() {
        std::fs::write(&path, got.join("\n") + "\n").expect("write pins");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing pin table {} ({e}); run with FSAM_BLESS=1",
            path.display()
        )
    });
    let want: Vec<&str> = text.lines().collect();
    let drifted: Vec<String> = got
        .iter()
        .zip(want.iter())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got {g}\n want {w}"))
        .collect();
    assert!(
        drifted.is_empty() && got.len() == want.len(),
        "solve fixpoint drifted from {} ({} vs {} rows):\n{}\n\
         if intentional, re-bless with FSAM_BLESS=1",
        path.display(),
        got.len(),
        want.len(),
        drifted.join("\n")
    );
}
