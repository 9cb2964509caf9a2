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
//! The rows after those pin the routes of the two one-item-at-a-time
//! worklists, per program at `Scale::SMOKE` under the full configuration:
//! the recompute oracle's `processed` count, and the NonSparse baseline's
//! `processed` and `pts_entries`. Both pop in `TopoOrder::priority` order,
//! so a queue change that keeps these counts pops the same sequence.
//! Regenerate after an intentional change with:
//!
//! ```text
//! FSAM_BLESS=1 cargo test --release --test solve_pins
//! ```

use fsam::nonsparse::{self, NonSparseOutcome};
use fsam::{Fsam, PhaseConfig};
use fsam_ir::Module;
use fsam_query::AnalysisDb;
use fsam_suite::{Program, Scale, SyncProgram};

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

/// The oracle's and the baseline's route counts on one full-config run.
fn route_rows(name: &str, module: &Module, fsam: &Fsam) -> [String; 2] {
    let oracle = fsam::solve_recompute(module, &fsam.pre, &fsam.svfg);
    let NonSparseOutcome::Done(ns) = nonsparse::run(module, &fsam.pre, &fsam.icfg, &fsam.tm, None)
    else {
        unreachable!("no budget, so the baseline always finishes");
    };
    [
        format!("{name}@0.05 recompute processed={}", oracle.stats.processed),
        format!(
            "{name}@0.05 nonsparse processed={} pts_entries={}",
            ns.stats.processed, ns.stats.pts_entries
        ),
    ]
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
    for (name, module) in &modules {
        for (config_name, config) in configs() {
            let fsam = Fsam::analyze_with(module, config);
            let sum = checksum(module, &fsam);
            rows.push(format!("{name}@0.05 {config_name} {sum:016x}"));
            if config_name == "full" {
                routes.extend(route_rows(name, module, &fsam));
            }
        }
    }
    let x264 = Program::X264.generate(Scale(0.32));
    let sum = checksum(&x264, &Fsam::analyze(&x264));
    rows.push(format!("{}@0.32 full {sum:016x}", Program::X264.name()));
    rows.extend(routes);
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
