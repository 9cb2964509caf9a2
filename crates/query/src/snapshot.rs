//! Persistent analysis snapshots: [`AnalysisDb`] and its binary format.
//!
//! An [`AnalysisDb`] is a frozen, self-contained image of a solved
//! [`Fsam`] run — everything the query engine needs to answer
//! `points_to` / `may_alias` / `aliases_of` / `mhp` without the module or
//! any live pipeline stage:
//!
//! * the interned points-to pool (the set table, in stable handle order),
//! * the per-variable and per-definition handle tables of
//!   [`SparseResult`],
//! * the statement-level MHP relation ([`MhpRelation`]), in the region
//!   form the pipeline factored it into,
//! * the happens-before facts ([`HbFacts`]), the same region form,
//!   refining `mhp` answers by must-ordering (condvar/barrier/atomic
//!   chains),
//! * the module's name tables (per-variable `(function, name)` pairs and
//!   per-object display names), so queries by name and [`Race`]-style
//!   rendering survive the module itself.
//!
//! # On-disk format
//!
//! ```text
//! ┌──────────┬─────────┬─────────────┬──────────┬──────────────────┐
//! │ magic 8B │ ver u32 │ payload u64 │ fnv1a u64│ payload bytes …  │
//! └──────────┴─────────┴─────────────┴──────────┴──────────────────┘
//! ```
//!
//! The payload holds, in order: the pool's set table, the handle tables,
//! the solver statistics, the MHP relation, the HB relation with its two
//! clock dimensions, and the name tables. Both relations use one encoding
//! (`put_relation`): the dense statement → region map as one `u32` list
//! (`u32::MAX` = no region), the region count, and the row-major bitmatrix
//! words.
//!
//! The checksum covers the payload; the header length and the file length
//! must agree exactly. Every failure mode — short file, flipped byte, wrong
//! version, internally inconsistent tables — surfaces as a typed
//! [`SnapshotError`], never a panic: the payload decoder is bounds-checked
//! ([`crate::codec`]) and the rebuilt tables are re-validated by
//! [`PtsPool::from_sets`], [`SparseResult::from_tables`] and
//! [`RegionRelation::from_parts`].
//!
//! [`Race`]: fsam::Race

use std::path::Path;

use fsam::solver::SolverStats;
use fsam::{Fsam, SparseResult};
use fsam_ir::csr::Csr;
use fsam_ir::{Module, VarId};
use fsam_pts::{MemId, PtsPool, PtsRef, PtsSet};
use fsam_threads::hb::HbFacts;
use fsam_threads::{MhpRelation, RegionRelation};

use crate::codec::{fnv1a, CodecError, Reader, Writer};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"FSAMQDB\0";

/// Header bytes: magic 8, version 4, payload length 8, checksum 8.
const HEADER: usize = 28;

/// The format version this build reads and writes. Version 3 stores MHP as
/// its region relation, in the same encoding as the happens-before section
/// version 2 added; older files are rejected with a typed
/// [`SnapshotError::Version`], never misread.
pub const FORMAT_VERSION: u32 = 3;

/// Why a snapshot could not be saved or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not open with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file is shorter or longer than its header declares.
    Length {
        /// Bytes the header promises (header + payload).
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The payload does not hash to the stored checksum (corruption).
    ChecksumMismatch,
    /// The payload decoded but its tables are internally inconsistent.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not an FSAM snapshot (bad magic)"),
            SnapshotError::Version { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::Length { expected, found } => {
                write!(
                    f,
                    "snapshot length {found} disagrees with header ({expected} expected)"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Malformed(why) => write!(f, "snapshot payload malformed: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Malformed(e.to_string())
    }
}

/// A frozen, self-contained image of a solved analysis (see module docs).
#[derive(Debug)]
pub struct AnalysisDb {
    result: SparseResult,
    mhp: MhpRelation,
    hb: HbFacts,
    /// `(function name, variable name)` per [`VarId::index`].
    var_names: Vec<(String, String)>,
    /// Display name per [`MemId::index`].
    obj_names: Vec<String>,
    /// Derived reverse index: row `o` holds the variables whose
    /// flow-sensitive points-to set contains object `o`, ascending. Rebuilt
    /// on load, never stored.
    aliased_by: Csr<VarId>,
}

impl PartialEq for AnalysisDb {
    fn eq(&self, other: &AnalysisDb) -> bool {
        // `aliased_by` is derived from the other fields.
        self.result == other.result
            && self.mhp == other.mhp
            && self.hb == other.hb
            && self.var_names == other.var_names
            && self.obj_names == other.obj_names
    }
}

impl AnalysisDb {
    /// Assembles a database, validating the cross-table invariants and
    /// building the derived reverse index.
    pub fn new(
        result: SparseResult,
        mhp: MhpRelation,
        hb: HbFacts,
        var_names: Vec<(String, String)>,
        obj_names: Vec<String>,
    ) -> Result<AnalysisDb, SnapshotError> {
        if var_names.len() != result.var_handles().len() {
            return Err(SnapshotError::Malformed(format!(
                "{} variable names for {} variables",
                var_names.len(),
                result.var_handles().len()
            )));
        }
        for set in result.pool().sets() {
            for m in set.iter() {
                if m.index() >= obj_names.len() {
                    return Err(SnapshotError::Malformed(format!(
                        "object {m:?} out of range ({} names)",
                        obj_names.len()
                    )));
                }
            }
        }
        let aliased_by = reverse_index(&result, obj_names.len());
        Ok(AnalysisDb {
            result,
            mhp,
            hb,
            var_names,
            obj_names,
            aliased_by,
        })
    }

    /// Captures a solved run into a self-contained database. The module
    /// supplies the name tables; the points-to tables and the MHP and HB
    /// relations come from the run itself.
    pub fn capture(module: &Module, fsam: &Fsam) -> AnalysisDb {
        let src = &fsam.result;
        let (slot_base, slot_obj, slot_out) = src.slot_tables();
        let result = SparseResult::from_tables(
            src.pool().clone(),
            src.var_handles().to_vec(),
            slot_base.to_vec(),
            slot_obj.to_vec(),
            slot_out.to_vec(),
            src.stats.clone(),
        )
        .expect("a live result's tables are valid by construction");
        let var_names = module
            .var_ids()
            .map(|v| {
                let info = module.var(v);
                (module.func(info.func).name.clone(), info.name.clone())
            })
            .collect();
        let objects = fsam.pre.objects();
        let obj_names = objects
            .mem_ids()
            .map(|m| objects.display_name(module, m))
            .collect();
        AnalysisDb::new(
            result,
            (*fsam.mhp_rel).clone(),
            (*fsam.hb).clone(),
            var_names,
            obj_names,
        )
        .expect("a captured run is internally consistent")
    }

    /// The frozen points-to tables.
    pub fn result(&self) -> &SparseResult {
        &self.result
    }

    /// The frozen statement-level MHP relation (factored region form).
    pub fn mhp(&self) -> &MhpRelation {
        &self.mhp
    }

    /// The frozen happens-before facts (factored region form).
    pub fn hb(&self) -> &HbFacts {
        &self.hb
    }

    /// `(function name, variable name)` per variable.
    pub fn var_names(&self) -> &[(String, String)] {
        &self.var_names
    }

    /// Display name per abstract object.
    pub fn obj_names(&self) -> &[String] {
        &self.obj_names
    }

    /// Variables whose points-to set contains `o`, ascending (the reverse
    /// index behind `aliases_of`). Empty for out-of-range objects.
    pub fn aliased_by(&self, o: MemId) -> &[VarId] {
        if o.index() + 1 < self.aliased_by.base.len() {
            self.aliased_by.row(o.index())
        } else {
            &[]
        }
    }

    /// Approximate heap bytes of the points-to, name and reverse-index
    /// tables (memory metering). The MHP and HB relations are not included:
    /// [`crate::QueryEngine::memory`] meters each under its own category.
    pub fn heap_bytes(&self) -> usize {
        let names: usize = self
            .var_names
            .iter()
            .map(|(f, v)| f.capacity() + v.capacity())
            .sum::<usize>()
            + self.obj_names.iter().map(String::capacity).sum::<usize>()
            + self.var_names.capacity() * std::mem::size_of::<(String, String)>()
            + self.obj_names.capacity() * std::mem::size_of::<String>();
        let index = self.aliased_by.base.capacity() * std::mem::size_of::<u32>()
            + self.aliased_by.items.capacity() * std::mem::size_of::<VarId>();
        self.result.pts_bytes() + names + index
    }

    // ---- serialization ----------------------------------------------------

    /// Serializes to the versioned, checksummed snapshot format, in one
    /// buffer sized exactly up front: the sets and handle tables are
    /// written straight from the result, and the checksum is sealed into
    /// the header in place once the payload is written.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.payload_len();
        let mut w = Writer::with_capacity(HEADER + payload);
        w.put_u64(u64::from_le_bytes(MAGIC));
        w.put_u32(FORMAT_VERSION);
        w.put_u64(payload as u64);
        // The checksum, sealed once the payload is written.
        w.put_u64(0);
        // Pool set table, in stable handle order.
        let pool = self.result.pool();
        w.put_u32(u32::try_from(pool.set_count()).expect("pool too large"));
        for set in pool.sets() {
            w.put_u32(set.len() as u32);
            for m in set.iter() {
                w.put_u32(m.raw());
            }
        }
        // Handle tables.
        let raw = |r: &PtsRef| r.index() as u32;
        w.put_u32s(self.result.var_handles().iter().map(raw));
        let (slot_base, slot_obj, slot_out) = self.result.slot_tables();
        w.put_u32s(slot_base.iter().copied());
        w.put_u32s(slot_obj.iter().map(|m| m.raw()));
        w.put_u32s(slot_out.iter().map(raw));
        // Statistics.
        let s = &self.result.stats;
        for v in [
            s.processed,
            s.delta_items,
            s.recompute_items,
            s.strong_updates,
            s.weak_updates,
            s.var_pts_entries,
            s.def_pts_entries,
            s.peak_pts_bytes,
        ] {
            w.put_u64(v as u64);
        }
        // MHP and HB relations.
        put_relation(&mut w, &self.mhp);
        put_relation(&mut w, &self.hb);
        w.put_u32(self.hb.thread_count());
        w.put_u32(self.hb.chain_event_count());
        // Name tables.
        w.put_u32(u32::try_from(self.var_names.len()).expect("too many variables"));
        for (func, var) in &self.var_names {
            w.put_str(func);
            w.put_str(var);
        }
        w.put_u32(u32::try_from(self.obj_names.len()).expect("too many objects"));
        for name in &self.obj_names {
            w.put_str(name);
        }

        let mut out = w.finish();
        debug_assert_eq!(out.len(), HEADER + payload, "payload_len is exact");
        let checksum = fnv1a(&out[HEADER..]);
        out[20..HEADER].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// The payload bytes [`to_bytes`](AnalysisDb::to_bytes) writes.
    fn payload_len(&self) -> usize {
        let table = |n: usize| 4 + 4 * n;
        let relation =
            |rel: &RegionRelation| table(rel.region_map().len()) + 4 + 8 * rel.bit_words().len();
        let (slot_base, slot_obj, slot_out) = self.result.slot_tables();
        let sets: usize = self.result.pool().sets().map(|s| table(s.len())).sum();
        let var_names: usize = (self.var_names.iter())
            .map(|(f, v)| 8 + f.len() + v.len())
            .sum();
        let obj_names: usize = self.obj_names.iter().map(|n| 4 + n.len()).sum();
        4 + sets
            + table(self.result.var_handles().len())
            + table(slot_base.len())
            + table(slot_obj.len())
            + table(slot_out.len())
            + 8 * 8
            + relation(&self.mhp)
            + relation(&self.hb)
            + 8
            + 4
            + var_names
            + 4
            + obj_names
    }

    /// Deserializes and re-validates a snapshot produced by
    /// [`to_bytes`](AnalysisDb::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<AnalysisDb, SnapshotError> {
        if bytes.len() < HEADER {
            return Err(SnapshotError::Length {
                expected: HEADER as u64,
                found: bytes.len() as u64,
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapshotError::Version {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let expected = (HEADER as u64).saturating_add(payload_len);
        if bytes.len() as u64 != expected {
            return Err(SnapshotError::Length {
                expected,
                found: bytes.len() as u64,
            });
        }
        let checksum = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
        let payload = &bytes[HEADER..];
        if fnv1a(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut r = Reader::new(payload);
        // Pool set table (each set costs ≥ 4 bytes: its count prefix).
        let set_count = r.read_count(4)?;
        let mut sets = Vec::with_capacity(set_count);
        for _ in 0..set_count {
            let members = r.read_count(4)?;
            let mut set = PtsSet::new();
            for _ in 0..members {
                set.insert(MemId::new(r.u32()?));
            }
            sets.push(set);
        }
        let pool =
            PtsPool::from_sets(&sets).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        // Handle tables.
        let pt_vars = read_handles(&mut r, &pool)?;
        let slot_base = r.u32s()?;
        let slot_obj: Vec<MemId> = r.u32s()?.into_iter().map(MemId::new).collect();
        let slot_out = read_handles(&mut r, &pool)?;
        // Statistics.
        let mut stat = || -> Result<usize, SnapshotError> {
            usize::try_from(r.u64()?).map_err(|_| {
                SnapshotError::Malformed("statistic overflows this platform's usize".into())
            })
        };
        let stats = SolverStats {
            processed: stat()?,
            delta_items: stat()?,
            recompute_items: stat()?,
            strong_updates: stat()?,
            weak_updates: stat()?,
            var_pts_entries: stat()?,
            def_pts_entries: stat()?,
            peak_pts_bytes: stat()?,
        };
        let result = SparseResult::from_tables(pool, pt_vars, slot_base, slot_obj, slot_out, stats)
            .map_err(SnapshotError::Malformed)?;
        // MHP and HB relations.
        let mhp = read_relation(&mut r, "MHP")?;
        let hb_rel = read_relation(&mut r, "HB")?;
        let hb_threads = r.u32()?;
        let hb_chain_events = r.u32()?;
        let hb = HbFacts::from_relation(hb_rel, hb_threads, hb_chain_events);
        // Name tables.
        let var_count = r.read_count(8)?;
        let mut var_names = Vec::with_capacity(var_count);
        for _ in 0..var_count {
            let func = r.str()?;
            let var = r.str()?;
            var_names.push((func, var));
        }
        let obj_count = r.read_count(4)?;
        let mut obj_names = Vec::with_capacity(obj_count);
        for _ in 0..obj_count {
            obj_names.push(r.str()?);
        }
        r.finish()?;
        AnalysisDb::new(result, mhp, hb, var_names, obj_names)
    }

    /// Writes the snapshot to `path` (atomically enough for tests: a plain
    /// whole-buffer write).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a snapshot from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<AnalysisDb, SnapshotError> {
        let bytes = std::fs::read(path)?;
        AnalysisDb::from_bytes(&bytes)
    }
}

/// Looks up a variable id by `(function, variable)` name against a
/// database's name table. Shared by the engine and tests.
pub(crate) fn lookup_var(
    names: &[(String, String)],
    order: &[u32],
    func: &str,
    var: &str,
) -> Option<VarId> {
    order
        .binary_search_by(|&i| {
            let (f, v) = &names[i as usize];
            (f.as_str(), v.as_str()).cmp(&(func, var))
        })
        .ok()
        .map(|pos| VarId::new(order[pos]))
}

/// Builds the name-ordered permutation backing [`lookup_var`]. Duplicate
/// names keep their first occurrence reachable (later ids still resolve by
/// exact id through the tables; name lookup is a convenience).
pub(crate) fn name_order(names: &[(String, String)]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..names.len() as u32).collect();
    order.sort_by(|&a, &b| names[a as usize].cmp(&names[b as usize]).then(a.cmp(&b)));
    order
}

/// The `aliased_by` table: row `o` lists the variables whose set holds
/// object `o`, ascending. The rows are counted per distinct set, weighted
/// by how many variables hold it (far fewer members than the table has
/// entries), and then filled in one pass over the variables.
fn reverse_index(result: &SparseResult, objects: usize) -> Csr<VarId> {
    let (pool, vars) = (result.pool(), result.var_handles());
    let mut holders = vec![0u32; pool.set_count()];
    for r in vars {
        holders[r.index()] += 1;
    }
    let mut base = vec![0u32; objects + 1];
    for (set, &n) in pool.sets().zip(&holders).filter(|&(_, &n)| n > 0) {
        for m in set.iter() {
            base[m.index() + 1] += n;
        }
    }
    for o in 0..objects {
        base[o + 1] += base[o];
    }
    // `base[o]` is row `o`'s fill cursor and ends at row `o + 1`'s start;
    // shifting the table one row up restores the starts.
    let mut items = vec![VarId::from_usize(0); base[objects] as usize];
    for (i, r) in vars.iter().enumerate() {
        for m in pool.get(*r).iter() {
            let at = &mut base[m.index()];
            items[*at as usize] = VarId::from_usize(i);
            *at += 1;
        }
    }
    base.copy_within(..objects, 1);
    base[0] = 0;
    Csr { base, items }
}

/// Reads a count-prefixed table of handles into `pool`, each validated.
fn read_handles(r: &mut Reader<'_>, pool: &PtsPool) -> Result<Vec<PtsRef>, SnapshotError> {
    let count = r.read_count(4)?;
    let mut handles = Vec::with_capacity(count);
    for _ in 0..count {
        let i = r.u32()?;
        handles.push(pool.handle(i as usize).ok_or_else(|| {
            SnapshotError::Malformed(format!(
                "handle p{i} out of range ({} sets)",
                pool.set_count()
            ))
        })?);
    }
    Ok(handles)
}

/// Writes a region relation: its dense statement → region map, its region
/// count and its row-major bitmatrix words (the row width is derived from
/// the region count on load, never stored).
fn put_relation(w: &mut Writer, rel: &RegionRelation) {
    w.put_u32s(rel.region_map().iter().copied());
    w.put_u32(u32::try_from(rel.region_count()).expect("too many regions"));
    for &word in rel.bit_words() {
        w.put_u64(word);
    }
}

/// Reads and validates a relation written by [`put_relation`]; `what`
/// names the section in errors.
fn read_relation(r: &mut Reader<'_>, what: &str) -> Result<RegionRelation, SnapshotError> {
    let region_of = r.u32s()?;
    let regions = r.u32()?;
    let words = (regions as usize).saturating_mul((regions as usize).div_ceil(64));
    if words.saturating_mul(8) > r.remaining() {
        return Err(SnapshotError::Malformed(format!(
            "{what} bitmatrix of {words} words exceeds the payload"
        )));
    }
    let bits = (0..words)
        .map(|_| r.u64())
        .collect::<Result<Vec<u64>, _>>()?;
    RegionRelation::from_parts(region_of, regions, bits)
        .map_err(|e| SnapshotError::Malformed(format!("{what}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsam_ir::parse::parse_module;

    const SRC: &str = r#"
        global x
        global y
        global z
        func foo() {
        entry:
          p2 = &x
          q = &y
          store p2, q
          ret
        }
        func main() {
        entry:
          p = &x
          r = &z
          t = fork foo()
          store p, r
          c = load p
          ret
        }
    "#;

    fn db() -> AnalysisDb {
        let m = parse_module(SRC).unwrap();
        let fsam = Fsam::analyze(&m);
        AnalysisDb::capture(&m, &fsam)
    }

    #[test]
    fn bytes_roundtrip_exactly() {
        let a = db();
        let bytes = a.to_bytes();
        let b = AnalysisDb::from_bytes(&bytes).unwrap();
        assert_eq!(a, b);
        // Re-serializing the loaded database is byte-identical.
        assert_eq!(bytes, b.to_bytes());
    }

    #[test]
    fn header_errors_are_typed() {
        let bytes = db().to_bytes();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0x20;
        assert!(matches!(
            AnalysisDb::from_bytes(&bad),
            Err(SnapshotError::BadMagic)
        ));
        // Wrong version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            AnalysisDb::from_bytes(&bad),
            Err(SnapshotError::Version { found: 99, .. })
        ));
        // A version-2 file (enumerated MHP facts) is not misread.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            AnalysisDb::from_bytes(&bad),
            Err(SnapshotError::Version {
                found: 2,
                supported: 3
            })
        ));
        // Truncated.
        assert!(matches!(
            AnalysisDb::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::Length { .. })
        ));
        // Payload corruption.
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            AnalysisDb::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch)
        ));
        // Empty file.
        assert!(matches!(
            AnalysisDb::from_bytes(&[]),
            Err(SnapshotError::Length { .. })
        ));
    }

    #[test]
    fn save_load_roundtrips_on_disk() {
        let a = db();
        let path = std::env::temp_dir().join(format!(
            "fsam-query-snapshot-test-{}.db",
            std::process::id()
        ));
        a.save(&path).unwrap();
        let b = AnalysisDb::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_file_is_io_error() {
        let path = std::env::temp_dir().join("fsam-query-no-such-snapshot.db");
        assert!(matches!(AnalysisDb::load(&path), Err(SnapshotError::Io(_))));
    }

    #[test]
    fn reverse_index_matches_points_to() {
        let m = parse_module(SRC).unwrap();
        let fsam = Fsam::analyze(&m);
        let db = AnalysisDb::capture(&m, &fsam);
        for i in 0..db.obj_names().len() {
            let o = MemId::new(i as u32);
            for &v in db.aliased_by(o) {
                assert!(db.result().pt_var(v).contains(o));
            }
        }
        for v in m.var_ids() {
            for o in db.result().pt_var(v).iter() {
                assert!(db.aliased_by(o).contains(&v), "{v:?} missing from {o:?}");
            }
        }
    }
}
