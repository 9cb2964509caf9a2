//! No `.fir` text panics the front end or, once it verifies, the analysis.
//!
//! Mutants are SplitMix64-seeded edits of the printed FIR of every suite
//! program and every sync program (see `fir_mutants`). Each goes through
//! `parse_module` and `verify_module`; a mutant that verifies also goes through
//! `Fsam::analyze` and the default lint registry. A panic anywhere is
//! reported with the mutant's seed, which [`mutant`] turns back into the
//! exact text.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fsam::Fsam;
use fsam_ir::parse::parse_module;
use fsam_ir::verify::verify_module;
use fsam_query::QueryEngine;

mod fir_mutants;
use fir_mutants::{corpus, mutant, MUTANTS, SEED_BASE};

/// Parses, verifies and — when the mutant is a valid module — analyzes
/// and lints one mutant. Returns whether it verified.
fn run_pipeline(text: &str) -> bool {
    let Ok(module) = parse_module(text) else {
        return false;
    };
    if verify_module(&module).is_err() {
        return false;
    }
    let fsam = Fsam::analyze(&module);
    let engine = QueryEngine::from_fsam(&module, &fsam);
    let cx = fsam_lint::LintContext::new(&module, &fsam, &engine);
    let _ = fsam_lint::Registry::with_default_checkers().run(&cx);
    true
}

#[test]
fn mutated_fir_never_panics_the_front_end_or_the_analysis() {
    let corpus = corpus();
    let mut panicked = Vec::new();
    let mut verified = 0;
    for seed in SEED_BASE..SEED_BASE + MUTANTS {
        let text = mutant(&corpus, seed);
        match catch_unwind(AssertUnwindSafe(|| run_pipeline(&text))) {
            Ok(ok) => verified += usize::from(ok),
            Err(_) => panicked.push(format!("{seed:#x}")),
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {MUTANTS} mutants panicked; reproduce with mutant(&corpus(), seed) for seeds {}",
        panicked.len(),
        panicked.join(", ")
    );
    // The edits are small, so some mutants must survive to the analysis.
    assert!(verified > 0, "no mutant reached the analysis");
    eprintln!("{MUTANTS} mutants, {verified} verified and analyzed, 0 panics");
}
