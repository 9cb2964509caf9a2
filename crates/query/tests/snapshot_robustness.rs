//! Snapshot robustness: lossless roundtrips on every benchmark, and typed
//! (never panicking) failures on corrupted, truncated or wrong-version
//! input — including corruption that re-seals the checksum, so the payload
//! decoder and its validation see the damage.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fsam::{Fsam, PhaseConfig};
use fsam_ir::rng::SmallRng;
use fsam_ir::{Module, StmtId, VarId};
use fsam_pts::MemId;
use fsam_query::{AnalysisDb, Query, QueryEngine, SnapshotError, FORMAT_VERSION, MAGIC};
use fsam_suite::{Program, Scale, SyncProgram};

/// The snapshot inputs at SMOKE: the ten Table 1 programs, then the three
/// sync programs without and with their seeded bug — the only programs
/// whose HB section is non-empty.
fn programs() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = (Program::all().into_iter())
        .map(|p| (p.name().to_string(), p.generate(Scale::SMOKE)))
        .collect();
    for p in SyncProgram::all() {
        for bug in [false, true] {
            let name = format!("{}{}", p.name(), if bug { "+bug" } else { "" });
            out.push((name, p.generate_with(Scale::SMOKE, bug)));
        }
    }
    out
}

/// The four Table 1 programs too large for a full quadratic MHP sweep.
const LARGE: [Program; 4] = [
    Program::HttpdServer,
    Program::MtDaapd,
    Program::Raytrace,
    Program::X264,
];

/// Solve → save → load must preserve every query answer, on every suite
/// and sync program under both MHP backends: points-to sets per variable,
/// pairwise may-alias, the MHP relation refined by HB, the reverse index
/// and the name tables.
#[test]
fn roundtrip_preserves_every_answer_on_every_benchmark() {
    let mut hb_sections = 0;
    for (name, module) in programs() {
        let stride = if LARGE.iter().any(|p| p.name() == name) {
            7
        } else {
            1
        };
        for config in [PhaseConfig::full(), PhaseConfig::no_interleaving()] {
            let fsam = Fsam::analyze_with(&module, config);
            let db = AnalysisDb::capture(&module, &fsam);
            let bytes = db.to_bytes();
            let loaded = AnalysisDb::from_bytes(&bytes).unwrap_or_else(|e| {
                panic!("{name}: snapshot failed to load: {e}");
            });
            assert_eq!(db, loaded, "{name}: databases diverge");
            // Determinism: re-serializing the loaded copy is byte-identical.
            assert_eq!(bytes, loaded.to_bytes(), "{name}: bytes diverge");
            hb_sections += usize::from(loaded.hb().region_count() > 0);

            let a = QueryEngine::new(db);
            let b = QueryEngine::new(loaded);
            for v in module.var_ids() {
                assert_eq!(a.points_to(v), b.points_to(v), "{name}: pt({v:?})");
                assert_eq!(
                    b.points_to(v),
                    fsam.result.pt_var(v),
                    "{name}: pt({v:?}) vs live"
                );
            }
            // Sample may-alias rather than the full quadratic space: every
            // pair on a stride keeps this test fast at SMOKE.
            let vars: Vec<_> = module.var_ids().collect();
            for (i, &x) in vars.iter().enumerate().step_by(7) {
                for &y in vars.iter().skip(i % 13).step_by(13) {
                    assert_eq!(a.may_alias(x, y), b.may_alias(x, y), "{name}");
                }
            }
            // MHP: the loaded engine against the live refined relation.
            let stmts: Vec<StmtId> = module.stmt_ids().collect();
            for (i, &s1) in stmts.iter().enumerate() {
                for &s2 in stmts.iter().skip(i % stride).step_by(stride) {
                    assert_eq!(
                        b.mhp(s1, s2),
                        fsam.mhp_refined(s1, s2),
                        "{name}: mhp({s1}, {s2}) vs live"
                    );
                }
            }
        }
    }
    // Both configurations of each sync program carry a real HB section.
    assert_eq!(hb_sections, 12, "sync programs round-trip non-empty HB");
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let bytes = AnalysisDb::capture(&module, &fsam).to_bytes();
    // Every proper prefix must fail with a typed error — never a panic,
    // never a bogus success. Stride keeps the loop fast; the boundaries
    // around the header are covered exhaustively.
    let mut lengths: Vec<usize> = (0..=32.min(bytes.len() - 1)).collect();
    lengths.extend((33..bytes.len()).step_by(97));
    for len in lengths {
        let err = AnalysisDb::from_bytes(&bytes[..len])
            .expect_err(&format!("prefix of {len} bytes decoded"));
        assert!(
            matches!(err, SnapshotError::Length { .. }),
            "prefix {len}: unexpected error {err:?}"
        );
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let bytes = AnalysisDb::capture(&module, &fsam).to_bytes();
    for at in (0..bytes.len()).step_by(61) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        assert!(
            AnalysisDb::from_bytes(&bad).is_err(),
            "flip at byte {at} went undetected"
        );
    }
}

#[test]
fn wrong_version_is_reported_as_such() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let mut bytes = AnalysisDb::capture(&module, &fsam).to_bytes();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match AnalysisDb::from_bytes(&bytes) {
        Err(SnapshotError::Version { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected a Version error, got {other:?}"),
    }
}

#[test]
fn foreign_files_are_rejected_on_magic() {
    assert!(matches!(
        AnalysisDb::from_bytes(b"\x7fELF\x02\x01\x01\x00 definitely not a snapshot"),
        Err(SnapshotError::BadMagic)
    ));
    // A file that *is* long enough and has the magic but a garbage body.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&4u64.to_le_bytes()); // payload length
    bytes.extend_from_slice(&0u64.to_le_bytes()); // wrong checksum
    bytes.extend_from_slice(&[1, 2, 3, 4]);
    assert!(matches!(
        AnalysisDb::from_bytes(&bytes),
        Err(SnapshotError::ChecksumMismatch)
    ));
}

/// A payload whose checksum is valid but whose tables are inconsistent
/// (here: a points-to set referencing an object with no name) must fail
/// validation, not load.
#[test]
fn internally_inconsistent_payloads_are_malformed() {
    let module = Program::WordCount.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let bytes = AnalysisDb::capture(&module, &fsam).to_bytes();
    // Drop the object-name table count to zero: the last 4+... bytes are
    // the obj_names section; rebuild a "valid" file with the payload cut
    // at the obj count and a recomputed checksum.
    let payload = &bytes[28..];
    // Find the obj-name count offset by re-encoding with zero names is
    // intricate; instead corrupt a pool member to an enormous object id
    // and re-seal the checksum.
    let mut bad_payload = payload.to_vec();
    // First section: u32 set count, then per-set u32s. Set 0 is EMPTY
    // (count 0). Set 1's member count is at offset 8, first member at 12.
    let set_count = u32::from_le_bytes(bad_payload[0..4].try_into().unwrap());
    assert!(set_count > 1, "solved run has non-empty sets");
    let first_len = u32::from_le_bytes(bad_payload[8..12].try_into().unwrap());
    assert!(first_len > 0);
    bad_payload[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut bad = bytes[..20].to_vec();
    bad.extend_from_slice(&fsam_query::codec::fnv1a(&bad_payload).to_le_bytes());
    bad.extend_from_slice(&bad_payload);
    match AnalysisDb::from_bytes(&bad) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn two_process_handoff_via_the_filesystem() {
    // The README's scenario, in one process: solve+save, then load+query
    // with nothing but the file.
    let module = Program::Bodytrack.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let path =
        std::env::temp_dir().join(format!("fsam-query-handoff-{}.fsamdb", std::process::id()));
    AnalysisDb::capture(&module, &fsam).save(&path).unwrap();

    let engine = QueryEngine::new(AnalysisDb::load(&path).unwrap());
    std::fs::remove_file(&path).ok();
    for v in module.var_ids() {
        assert_eq!(engine.points_to(v), fsam.result.pt_var(v));
    }
}

/// Replaces `bytes`' payload and re-seals the checksum over it, so the
/// header checks pass and the payload decoder sees the damage.
fn reseal(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..20].to_vec();
    out[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fsam_query::codec::fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Mutants per program for the resealed-corruption property.
const MUTANTS: u64 = 400;

/// The payload of mutant `seed`: one to three edits, each a bit flip, a
/// `u32` overwrite with a boundary value, or a random byte.
fn mutant(payload: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = payload.to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..out.len());
        match rng.gen_range(0..3u32) {
            0 => out[at] ^= 1 << rng.gen_range(0..8u32),
            1 => {
                let values = [0, 1, 0xFF, 0xFFFF, u32::MAX];
                let v = values[rng.gen_range(0..values.len())].to_le_bytes();
                let end = (at + 4).min(out.len());
                out[at..end].copy_from_slice(&v[..end - at]);
            }
            _ => out[at] = rng.gen_range(0..256u32) as u8,
        }
    }
    out
}

/// Answers a sample of all four query kinds, in range and out of it.
fn exercise(engine: &QueryEngine) {
    let db = engine.db();
    let vars = db.var_names().len() as u32 + 2;
    let objs = db.obj_names().len() as u32 + 2;
    let stmts =
        (engine.mhp_relation().region_map().len()).max(engine.hb().region_map().len()) as u32 + 2;
    let mut slab = Vec::new();
    for i in (0..vars).step_by(7).chain([u32::MAX]) {
        slab.push(Query::PointsTo(VarId::new(i)));
        slab.push(Query::MayAlias(
            VarId::new(i),
            VarId::new(vars - 1 - i % vars),
        ));
    }
    for i in (0..objs).step_by(5).chain([u32::MAX]) {
        slab.push(Query::AliasesOf(MemId::new(i)));
    }
    for i in (0..stmts).step_by(3).chain([u32::MAX]) {
        slab.push(Query::Mhp(
            StmtId::new(i),
            StmtId::new(stmts - 1 - i % stmts),
        ));
    }
    engine.query_many(&slab);
    engine.stats();
    engine.memory();
}

/// No payload bytes panic the loader or the engine: every resealed mutant
/// of every program's snapshot either loads — and then answers queries —
/// or fails with a typed error. Panicking mutants are reported by program
/// and seed; [`mutant`] rebuilds them.
#[test]
fn resealed_payload_mutants_never_panic() {
    let mut panicked = Vec::new();
    let (mut decoded, mut errors) = (0, 0);
    for (name, module) in programs() {
        let fsam = Fsam::analyze(&module);
        let bytes = AnalysisDb::capture(&module, &fsam).to_bytes();
        let base = 0x5eed_0000_u64 << 16;
        for seed in base..base + MUTANTS {
            let bad = reseal(&bytes, &mutant(&bytes[28..], seed));
            let run = catch_unwind(AssertUnwindSafe(|| match AnalysisDb::from_bytes(&bad) {
                Ok(db) => {
                    exercise(&QueryEngine::new(db));
                    true
                }
                Err(_) => false,
            }));
            match run {
                Ok(true) => decoded += 1,
                Ok(false) => errors += 1,
                Err(_) => panicked.push(format!("{name}/{seed:#x}")),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "{} mutants panicked; reproduce with mutant(payload, seed) for {}",
        panicked.len(),
        panicked.join(", ")
    );
    assert!(
        decoded > 0 && errors > 0,
        "{decoded} decoded, {errors} errors"
    );
    eprintln!("{decoded} mutants decoded and answered, {errors} typed errors, 0 panics");
}

/// Byte offsets of the MHP and HB relation sections in a snapshot payload:
/// the set table, the four handle tables and the eight statistics precede
/// them.
fn relation_offsets(payload: &[u8]) -> [usize; 2] {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let skip_u32s = |at: usize| at + 4 + 4 * u32_at(at);
    let mut at = 4;
    for _ in 0..u32_at(0) {
        at = skip_u32s(at);
    }
    for _ in 0..4 {
        at = skip_u32s(at);
    }
    let mhp = at + 8 * 8;
    let regions_at = skip_u32s(mhp);
    let regions = u32_at(regions_at);
    [mhp, regions_at + 4 + 8 * regions * regions.div_ceil(64)]
}

/// An in-place edit of a snapshot payload, given a section's offset.
type PayloadEdit<'a> = dyn Fn(&mut Vec<u8>, usize) + 'a;

/// Corrupts one relation section of a sync program's snapshot with `edit`
/// (given the payload and the section's region-map offset), re-seals it
/// and returns the load result.
fn load_with_relation_edit(
    section: usize,
    edit: impl Fn(&mut Vec<u8>, usize),
) -> Result<AnalysisDb, SnapshotError> {
    let module = SyncProgram::ProducerConsumer.generate(Scale::SMOKE);
    let fsam = Fsam::analyze(&module);
    let bytes = AnalysisDb::capture(&module, &fsam).to_bytes();
    let mut payload = bytes[28..].to_vec();
    let at = relation_offsets(&payload)[section];
    edit(&mut payload, at);
    AnalysisDb::from_bytes(&reseal(&bytes, &payload))
}

/// Each relation section (0 = MHP, 1 = HB) rejects a region id past the
/// region count, a bit vector one word short, and an asymmetric matrix.
#[test]
fn corrupt_relation_sections_are_malformed() {
    let u32_at = |p: &[u8], at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap());
    let regions_at = |p: &[u8], at: usize| at + 4 + 4 * u32_at(p, at) as usize;
    for section in [0, 1] {
        let region_out_of_range = |p: &mut Vec<u8>, at: usize| {
            let regions = u32_at(p, regions_at(p, at));
            let first = (0..u32_at(p, at) as usize)
                .map(|i| at + 4 + 4 * i)
                .find(|&e| u32_at(p, e) != u32::MAX)
                .expect("some statement has a region");
            p[first..first + 4].copy_from_slice(&regions.to_le_bytes());
        };
        let bits_one_word_short = |p: &mut Vec<u8>, at: usize| {
            let regions = u32_at(p, regions_at(p, at)) as usize;
            let end = regions_at(p, at) + 4 + 8 * regions * regions.div_ceil(64);
            p.truncate(end - 8);
        };
        let asymmetric = |p: &mut Vec<u8>, at: usize| {
            let bits = regions_at(p, at) + 4;
            assert!(u32_at(p, bits - 4) >= 2, "two regions to relate");
            p[bits] ^= 0b10; // row 0, column 1 only
        };
        let edits: [(&str, &PayloadEdit<'_>); 3] = [
            ("region out of range", &region_out_of_range),
            ("bit vector one word short", &bits_one_word_short),
            ("asymmetric matrix", &asymmetric),
        ];
        for (what, edit) in edits {
            match load_with_relation_edit(section, edit) {
                Err(SnapshotError::Malformed(_)) => {}
                other => panic!("section {section}, {what}: expected Malformed, got {other:?}"),
            }
        }
    }
}
