//! Instrumentation planning for dynamic race detectors.
//!
//! The paper's §6 proposes combining FSAM "with some dynamic analysis tools
//! such as Google's ThreadSanitizer to reduce their instrumentation
//! overhead". This module implements that client: a memory access needs
//! dynamic instrumentation only if the static analysis cannot prove it
//! race-free. An access is *provably race-free* when
//!
//! * every object it may touch is thread-private (escape analysis), or
//! * it participates in no MHP store/access pair on a shared object, or
//! * every such pair is consistently protected by a common lock.
//!
//! The planner (`fsam_query::plan_instrumentation`, over a query engine)
//! returns the set of accesses to instrument; everything else can run
//! uninstrumented, which is where the overhead reduction comes from. The
//! plan errs toward instrumenting (any statically-unprovable access stays
//! instrumented), so the dynamic tool loses no coverage. This module holds
//! what the planner shares with the core crate: the plan type and the
//! instance-level lock check [`instances_protected`].

use fsam_ir::StmtId;
use fsam_threads::mhp::MhpOracle;

use crate::pipeline::Fsam;

/// The instrumentation plan for one module.
#[derive(Debug)]
pub struct InstrumentationPlan {
    /// Accesses (loads and stores) that must be instrumented.
    pub instrument: Vec<StmtId>,
    /// Accesses proven race-free (skippable).
    pub skip: Vec<StmtId>,
}

impl InstrumentationPlan {
    /// Fraction of memory accesses that can skip instrumentation.
    ///
    /// A program with no memory accesses needs no instrumentation at all,
    /// so the reduction is total: `1.0`, not `0.0` (the `0/0` case must
    /// not read as "nothing skippable").
    pub fn reduction(&self) -> f64 {
        let total = self.instrument.len() + self.skip.len();
        if total == 0 {
            return 1.0;
        }
        self.skip.len() as f64 / total as f64
    }
}

/// Whether every MHP instance pair of `(s, a)` holds a common lock.
///
/// Public so engine-backed clients (`fsam-query`) can reuse the
/// instance-level refinement after answering the statement-level queries
/// from a snapshot.
pub fn instances_protected(fsam: &Fsam, oracle: &dyn MhpOracle, s: StmtId, a: StmtId) -> bool {
    let Some(lock) = &fsam.lock else { return false };
    for &(t1, c1) in &oracle.instances(s) {
        for &(t2, c2) in &oracle.instances(a) {
            let i1 = (t1, c1, s);
            let i2 = (t2, c2, a);
            if oracle.mhp_instances(&fsam.icfg, i1, i2)
                && !lock.commonly_protected(&fsam.icfg, i1, i2)
            {
                return false;
            }
        }
    }
    true
}
