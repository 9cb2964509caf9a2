//! Property: the factored region × region [`fsam_threads::MhpRelation`]
//! answers *exactly* like the live MHP backend it was factored from — on
//! every statement pair of every suite program and every sync program, for
//! both the interleaving backend (full configuration) and the PCG fallback
//! (`no_interleaving` ablation).
//!
//! The relation is the form every consumer queries and the snapshot stores
//! (the pipeline, the query engine, the lint reducer); this test is the
//! ground-truth tether that lets them all drop the per-pair enumeration.

use fsam::{Fsam, PhaseConfig};
use fsam_ir::{Module, StmtId};
use fsam_suite::{Program, Scale, SyncProgram};
use fsam_threads::{MhpOracle, MhpRelation};

/// Compares the relation against the live backend on statement pairs.
/// Small programs get the full quadratic sweep; large ones a deterministic
/// stride sample that still touches every statement on both sides of a
/// pair (plus every self pair, where the multi-instance bit lives).
fn assert_identical(name: &str, module: &Module, oracle: &dyn MhpOracle, rel: &MhpRelation) {
    let stmts: Vec<StmtId> = module.stmt_ids().collect();
    let stride = (stmts.len() / 600).max(1);
    for (i, &a) in stmts.iter().enumerate() {
        assert_eq!(
            rel.related(a, a),
            oracle.mhp_stmt(a, a),
            "{name}: self-MHP diverges on {a}"
        );
        for &b in stmts.iter().skip(i % stride).step_by(stride) {
            assert_eq!(
                rel.related(a, b),
                oracle.mhp_stmt(a, b),
                "{name}: MHP diverges on ({a}, {b})"
            );
            assert_eq!(
                rel.related(b, a),
                rel.related(a, b),
                "{name}: relation not symmetric on ({a}, {b})"
            );
        }
    }
}

/// The ten suite programs and the three sync programs at SMOKE.
fn programs() -> Vec<(&'static str, Module)> {
    (Program::all().into_iter())
        .map(|p| (p.name(), p.generate(Scale::SMOKE)))
        .chain(SyncProgram::all().map(|p| (p.name(), p.generate(Scale::SMOKE))))
        .collect()
}

#[test]
fn relation_matches_live_backend_on_every_suite_and_sync_program() {
    for (name, module) in programs() {
        let fsam = Fsam::analyze(&module);
        // The pipeline's own cached relation …
        assert_identical(name, &module, fsam.mhp.oracle(), &fsam.mhp_rel);
        // … and one factored afresh from the backend answer identically.
        assert_identical(name, &module, fsam.mhp.oracle(), &fsam.mhp.relation());
    }
}

#[test]
fn relation_matches_live_backend_under_the_pcg_backend() {
    for (name, module) in programs() {
        let fsam = Fsam::analyze_with(&module, PhaseConfig::no_interleaving());
        assert_identical(name, &module, fsam.mhp.oracle(), &fsam.mhp_rel);
    }
}

/// The relation's shape invariants: every statement with executors maps to
/// a region, regions are dense, and the parallel bits are a subset of the
/// matrix.
#[test]
fn relation_shape_is_coherent() {
    let module = Program::Radiosity.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let rel = &fsam.mhp_rel;
    assert!(rel.region_count() >= 1);
    assert!(rel.stmt_count() >= rel.region_count());
    assert!(rel.related_bits() <= rel.matrix_bits());
    for s in module.stmt_ids() {
        if let Some(r) = rel.region_of(s) {
            assert!(
                (r as usize) < rel.region_count(),
                "region id out of range for {s}"
            );
        }
    }
}
