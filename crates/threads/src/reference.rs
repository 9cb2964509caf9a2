//! The `HashMap` forward driver that the dense [`run_forward`] replaced,
//! kept as a test reference, and the check that pins the dense driver and
//! the accessors answering from its instance space to it.
//!
//! The reference keys every fact by its `(thread, context, node)` state in
//! a hash map, discovers states as facts reach them and clones a fact on
//! every edge. [`check`] runs it and the dense driver on the interleaving,
//! must-held and may-held problems of one module and asserts:
//!
//! * the same state set, with equal facts;
//! * equal [`Interleaving`] accessors (`alive_at`, `alive_any`,
//!   `mhp_state`, `state_count`) and [`MhpOracle::instances`] lists under
//!   both MHP backends, against the per-`(thread, statement)` summaries
//!   the old analysis built from its state map;
//! * equal [`LockAnalysis`] locksets at every state, and the same
//!   `may_states` pairs once sorted.
//!
//! The handwritten programs of the `flow`, `interleave` and `lock` unit
//! tests pass through [`check`] too.

use std::collections::HashMap;
use std::fmt::Debug;

use fsam_andersen::PreAnalysis;
use fsam_ir::callgraph::CallGraph;
use fsam_ir::context::{ContextTable, CtxId};
use fsam_ir::icfg::{Icfg, NodeKind};
use fsam_ir::{Module, StmtId};
use fsam_suite::{Program, Scale, SyncProgram};

use crate::flow::{
    precompute_contexts, run_forward, succ_context, Facts, ForwardProblem, InstanceSpace, State,
};
use crate::interleave::{InterleaveProblem, Interleaving, ThreadSet};
use crate::lock::{HeldLocks, LockAnalysis, LockSet};
use crate::mhp::{MhpOracle, ProcMhp};
use crate::model::{ThreadId, ThreadModel};

/// The forward driver before the instance space: the fixpoint of
/// `problem` as a map from each reached state to its IN fact.
pub(crate) fn run_forward_reference<P: ForwardProblem>(
    icfg: &Icfg,
    cg: &CallGraph,
    tm: &ThreadModel,
    ctxs: &ContextTable,
    problem: &mut P,
) -> HashMap<State, P::Fact> {
    let mut state: HashMap<State, P::Fact> = HashMap::new();
    let mut work: Vec<State> = Vec::new();
    for ti in tm.threads() {
        let entry = icfg.entry(ti.routine);
        let fact = problem.entry_fact(ti.id);
        state.insert((ti.id, CtxId::EMPTY, entry), fact);
        work.push((ti.id, CtxId::EMPTY, entry));
    }
    while let Some((t, ctx, node)) = work.pop() {
        let in_fact = state[&(t, ctx, node)].clone();
        let out = problem.transfer(t, node, &in_fact).unwrap_or(in_fact);
        for &(succ, kind) in icfg.succs(node) {
            let Some(succ_ctx) = succ_context(icfg, cg, ctxs, ctx, node, succ, kind) else {
                continue;
            };
            let edge_out =
                (problem.edge_transfer(t, node, succ, &out)).unwrap_or_else(|| out.clone());
            let key = (t, succ_ctx, succ);
            match state.get_mut(&key) {
                Some(cur) => {
                    if problem.merge(cur, &edge_out) {
                        work.push(key);
                    }
                }
                None => {
                    state.insert(key, edge_out);
                    work.push(key);
                }
            }
        }
    }
    state
}

/// Asserts that the dense `facts` over `space` reach exactly the
/// reference's states, with equal facts.
fn assert_same_facts<F: Clone + Default + Eq + std::hash::Hash + Debug>(
    what: &str,
    space: &InstanceSpace,
    facts: &Facts<F>,
    reference: &HashMap<State, F>,
) {
    assert_eq!(space.len(), reference.len(), "{what}: state count");
    for (&(t, c, n), fact) in reference {
        let id = (space.find(t, c, n)).unwrap_or_else(|| panic!("{what}: {:?} missing", (t, c, n)));
        assert_eq!(space.state(id), (t, c, n), "{what}: state id");
        assert_eq!(facts.at(id), fact, "{what}: fact at {:?}", (t, c, n));
    }
}

/// Runs both drivers on `m`'s three problems and compares them and the
/// analyses' accessors (module docs); returns the state count.
pub(crate) fn check(m: &Module) -> usize {
    let pre = PreAnalysis::run(m);
    let cg = pre.call_graph();
    let icfg = Icfg::build(m, cg);
    let tm = ThreadModel::build(m, &pre, &icfg);
    let ctxs = precompute_contexts(&icfg, cg, &tm);
    let space = InstanceSpace::build(&icfg, cg, &tm, &ctxs);

    // Interleaving: facts, then the accessors against the summaries the
    // old analysis built from its state map.
    let problem = || InterleaveProblem::new(m, &icfg, &tm);
    let reference = run_forward_reference(&icfg, cg, &tm, &ctxs, &mut problem());
    assert_same_facts(
        "interleaving",
        &space,
        &run_forward(&space, &mut problem()),
        &reference,
    );
    let inter = Interleaving::compute(m, &icfg, &pre, &tm, &ctxs);
    assert_eq!(inter.state_count(), reference.len());
    let mut instances: HashMap<(ThreadId, StmtId), Vec<CtxId>> = HashMap::new();
    let mut alive: HashMap<(ThreadId, StmtId), ThreadSet> = HashMap::new();
    for (&(t, c, n), fact) in &reference {
        if let NodeKind::Stmt(s) = icfg.kind(n) {
            instances.entry((t, s)).or_default().push(c);
            alive.entry((t, s)).or_default().union_in_place(fact);
            assert_eq!(inter.alive_at(&icfg, t, c, s), Some(fact));
            assert_eq!(
                inter.mhp_state(&icfg, (t, c, s)).map(|id| inter.fact(id)),
                Some(fact)
            );
        }
    }
    let pcg = ProcMhp::build(&icfg, &pre, &tm, &ctxs);
    for (s, stmt) in m.stmts() {
        let mut expected = Vec::new();
        for t in tm.threads_executing(stmt.func) {
            if let Some(cs) = instances.get_mut(&(t, s)) {
                cs.sort();
                cs.dedup();
                expected.extend(cs.iter().map(|&c| (t, c)));
            }
            assert_eq!(
                inter.alive_any(t, s),
                alive.get(&(t, s)),
                "alive_any({t:?}, {s})"
            );
        }
        assert_eq!(
            inter.instances(s),
            expected,
            "interleaving instances of {s}"
        );
        assert_eq!(pcg.instances(s), expected, "PCG instances of {s}");
    }

    // Must-held and may-held: facts, per-state locksets, `may_states`.
    let mut lock_refs = Vec::new();
    for (what, may) in [("must-held", false), ("may-held", true)] {
        let problem = || HeldLocks {
            module: m,
            pre: &pre,
            icfg: &icfg,
            may,
        };
        let reference = run_forward_reference(&icfg, cg, &tm, &ctxs, &mut problem());
        assert_same_facts(
            what,
            &space,
            &run_forward(&space, &mut problem()),
            &reference,
        );
        lock_refs.push(reference);
    }
    let lock = LockAnalysis::compute(m, &icfg, &pre, &tm, &ctxs);
    let [held, may_held] = [&lock_refs[0], &lock_refs[1]];
    for (&(t, c, n), set) in held {
        assert_eq!(lock.held_at_node(t, c, n), set.as_slice());
        assert_eq!(
            lock.may_held_at_node(t, c, n),
            may_held[&(t, c, n)].as_slice()
        );
    }
    let mut got: Vec<(State, LockSet)> =
        (lock.may_states()).map(|(k, v)| (k, v.to_vec())).collect();
    let mut want: Vec<(State, LockSet)> = may_held.clone().into_iter().collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "may_states");
    reference.len()
}

#[test]
fn dense_driver_matches_the_hashmap_reference_on_every_suite_and_sync_program() {
    for p in Program::all() {
        check(&p.generate(Scale::SMOKE));
    }
    for p in SyncProgram::all() {
        check(&p.generate(Scale::SMOKE));
    }
}

#[test]
fn dense_driver_matches_the_hashmap_reference_at_scale() {
    if cfg!(debug_assertions) {
        eprintln!("scale-0.32 dense-driver references run in release builds only");
        return;
    }
    for p in [Program::Radiosity, Program::X264] {
        let states = check(&p.generate(Scale(0.32)));
        eprintln!("{} @ 0.32: {states} interleaving states match", p.name());
    }
}
