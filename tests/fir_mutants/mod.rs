//! Seeded FIR mutants shared by the integration tests: the never-panic
//! property of `fir_robustness` and the `parse-errors` pin of `solve_pins`
//! read the same texts.
//!
//! Mutants are SplitMix64-seeded edits of the printed FIR of every suite
//! program and every sync program: byte deletes, token inserts, span
//! drains and truncation.

use fsam_ir::print::module_to_string;
use fsam_ir::rng::SmallRng;
use fsam_suite::{Program, Scale, SyncProgram};

/// Mutants per run; each seed picks its own program and edits.
pub const MUTANTS: u64 = 1_000;
/// The first mutant's seed; the run covers `SEED_BASE..SEED_BASE + MUTANTS`.
pub const SEED_BASE: u64 = 0xf12_5eed_u64 << 16;
/// Tokens a mutation inserts, whitespace-separated: FIR keywords and
/// punctuation, plus a few values a parser tends to trip on. Inserts also
/// draw a bare newline or space.
const TOKENS: &str = "= & , : ( ) { } [ ] global array extern func local store call join \
    lock unlock alloc load gep phi fork br ret signal wait broadcast barrier_init barrier_wait \
    atomic_load atomic_store atomic_rmw acq rel acqrel entry: main p 0 -1 \
    18446744073709551616 \u{e9} # \"";

/// The printed FIR of the ten Table 1 programs and the three sync
/// programs at scale 0.05.
pub fn corpus() -> Vec<String> {
    let scale = Scale(0.05);
    Program::all()
        .into_iter()
        .map(|p| p.generate(scale))
        .chain(SyncProgram::all().into_iter().map(|p| p.generate(scale)))
        .map(|m| module_to_string(&m))
        .collect()
}

/// The mutant `seed` names: one corpus program under one to three edits.
pub fn mutant(corpus: &[String], seed: u64) -> String {
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
