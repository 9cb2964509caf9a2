//! No `.fir` text panics the front end or, once it verifies, the analysis.
//!
//! Mutants are SplitMix64-seeded edits of the printed FIR of every suite
//! program and every sync program: byte deletes, token inserts, span
//! drains and truncation. Each goes through `parse_module` and
//! `verify_module`; a mutant that verifies also goes through
//! `Fsam::analyze` and the default lint registry. A panic anywhere is
//! reported with the mutant's seed, which [`mutant`] turns back into the
//! exact text.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fsam::Fsam;
use fsam_ir::parse::parse_module;
use fsam_ir::print::module_to_string;
use fsam_ir::rng::SmallRng;
use fsam_ir::verify::verify_module;
use fsam_query::QueryEngine;
use fsam_suite::{Program, Scale, SyncProgram};

/// Mutants per run; each seed picks its own program and edits.
const MUTANTS: u64 = 1_000;
/// Tokens a mutation inserts, whitespace-separated: FIR keywords and
/// punctuation, plus a few values a parser tends to trip on. Inserts also
/// draw a bare newline or space.
const TOKENS: &str = "= & , : ( ) { } [ ] global array extern func local store call join \
    lock unlock alloc load gep phi fork br ret signal wait broadcast barrier_init barrier_wait \
    atomic_load atomic_store atomic_rmw acq rel acqrel entry: main p 0 -1 \
    18446744073709551616 \u{e9} # \"";

/// The printed FIR of the ten Table 1 programs and the three sync
/// programs at scale 0.05.
fn corpus() -> Vec<String> {
    let scale = Scale(0.05);
    Program::all()
        .into_iter()
        .map(|p| p.generate(scale))
        .chain(SyncProgram::all().into_iter().map(|p| p.generate(scale)))
        .map(|m| module_to_string(&m))
        .collect()
}

/// The mutant `seed` names: one corpus program under one to three edits.
fn mutant(corpus: &[String], seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut text = corpus[rng.gen_range(0..corpus.len())].clone().into_bytes();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..text.len() + 1);
        match rng.gen_range(0..4u32) {
            0 if at < text.len() => {
                text.remove(at);
            }
            1 => {
                let tokens: Vec<&str> = TOKENS.split_whitespace().chain(["\n", " "]).collect();
                let token = tokens[rng.gen_range(0..tokens.len())];
                text.splice(at..at, token.bytes());
            }
            2 => {
                let end = (at + rng.gen_range(1..64usize)).min(text.len());
                text.drain(at..end);
            }
            _ => text.truncate(at),
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

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
    let base = 0xf12_5eed_u64 << 16;
    let mut panicked = Vec::new();
    let mut verified = 0;
    for seed in base..base + MUTANTS {
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
