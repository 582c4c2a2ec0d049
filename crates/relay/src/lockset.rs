//! Relative-lockset dataflow: function summaries composed bottom-up over
//! the call graph, then entry contexts propagated top-down.
//!
//! Locksets are dense [`PtsSet`]s over the object universe, so composing a
//! summary (including the pessimistic "may release every object" one) is a
//! handful of word operations rather than a tree rebuild.

use crate::oracle::AliasOracle;
use chimera_minic::callgraph::CallGraph;
use chimera_minic::ir::{
    AccessId, BlockId, Callee, FuncId, Instr, Program, Terminator,
};
use chimera_pta::PtsSet;
use std::collections::BTreeSet;

/// A relative lockset: the effect of executing a region on the lockset held
/// at its start. If `L` is held on entry, `(L ∖ minus) ∪ plus` is held on
/// exit. Both sets range over the oracle's object ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelLockset {
    /// Locks definitely acquired (and still held).
    pub plus: PtsSet,
    /// Locks possibly released.
    pub minus: PtsSet,
}

impl RelLockset {
    /// The identity effect (acquire nothing, release nothing) over a
    /// universe of `objects` objects.
    pub fn identity(objects: usize) -> RelLockset {
        RelLockset {
            plus: PtsSet::new(objects),
            minus: PtsSet::new(objects),
        }
    }

    /// Sequential composition: apply `next` after `self`, in place.
    pub fn then(&mut self, next: &RelLockset) {
        self.plus.subtract(&next.minus);
        self.plus.union_from(&next.plus);
        self.minus.subtract(&next.plus);
        self.minus.union_from(&next.minus);
    }

    /// Must-meet at a CFG join, in place: keep only definitely acquired
    /// locks, union possibly released locks.
    pub fn meet(&mut self, other: &RelLockset) {
        self.plus.intersect_with(&other.plus);
        self.minus.union_from(&other.minus);
    }

    /// Apply to an absolute entry lockset.
    pub fn apply(&self, entry: &PtsSet) -> PtsSet {
        let mut out = entry.clone();
        out.subtract(&self.minus);
        out.union_from(&self.plus);
        out
    }
}

/// Summary of a whole function: its relative lockset at exit.
pub type FuncSummary = RelLockset;

/// A memory access paired with the relative lockset held when it executes.
#[derive(Debug, Clone)]
pub struct GuardedAccess {
    /// Which access.
    pub access: AccessId,
    /// Containing function.
    pub func: FuncId,
    /// True for stores.
    pub is_write: bool,
    /// Lockset at the access, relative to function entry.
    pub rel: RelLockset,
}

/// A call site with the relative lockset held at the call.
#[derive(Debug, Clone)]
pub struct CallSiteState {
    /// Calling function.
    pub caller: FuncId,
    /// Possible targets (post points-to resolution).
    pub targets: Vec<FuncId>,
    /// Lockset at the call, relative to the caller's entry.
    pub rel: RelLockset,
}

/// Results of the whole-program lockset analysis.
#[derive(Debug, Clone)]
pub struct LocksetAnalysis {
    /// Per-function exit summaries.
    pub summaries: Vec<FuncSummary>,
    /// Every memory access with its relative lockset.
    pub guarded: Vec<GuardedAccess>,
    /// Must-lockset at each function's entry (absolute), intersected over
    /// call sites reachable from the thread roots.
    pub contexts: Vec<PtsSet>,
    /// Absolute lockset of each access (indexed by `AccessId`).
    pub absolute: Vec<PtsSet>,
}

impl LocksetAnalysis {
    /// Run summaries bottom-up, then contexts top-down, then compute
    /// absolute locksets per access.
    pub fn run(program: &Program, cg: &CallGraph, oracle: &AliasOracle) -> LocksetAnalysis {
        let n = program.funcs.len();
        let universe = oracle.objects.len();
        let mut pessimistic = RelLockset::identity(universe);
        for (id, _) in oracle.objects.iter() {
            pessimistic.minus.insert(id.index());
        }
        let mut summaries: Vec<FuncSummary> = vec![pessimistic; n];
        // Address-taken functions, computed once; every indirect call site
        // shares this slice rather than re-walking the whole program.
        let indirect = indirect_targets_of(program);

        // Bottom-up over SCCs. Within an SCC, callee summaries start
        // pessimistic (acquire nothing, possibly release everything) which
        // is sound for recursion; one extra pass refines mutual recursion.
        for scc in cg.sccs_bottom_up() {
            for _round in 0..2 {
                for &f in &scc {
                    let (summary, _, _) =
                        analyze_function(program, f, &summaries, oracle, &indirect);
                    summaries[f.index()] = summary;
                }
            }
        }

        // Final pass: collect guarded accesses and call-site states with
        // stable summaries.
        let mut guarded = Vec::new();
        let mut call_sites = Vec::new();
        for f in &program.funcs {
            let (_, mut g, mut cs) =
                analyze_function(program, f.id, &summaries, oracle, &indirect);
            guarded.append(&mut g);
            call_sites.append(&mut cs);
        }
        // Call-site targets: direct calls record their callee; indirect
        // sites record every address-taken function (`indirect_targets_of`),
        // not the Andersen-resolved call graph. Deliberately coarse for now
        // (DESIGN.md §6): tightening it would change every race report.

        // Top-down context propagation. Roots start with the empty lockset.
        let mut contexts: Vec<Option<PtsSet>> = vec![None; n];
        let mut roots: BTreeSet<FuncId> = cg.all_spawn_targets();
        roots.insert(program.main());
        for r in &roots {
            contexts[r.index()] = Some(PtsSet::new(universe));
        }
        loop {
            let mut changed = false;
            for site in &call_sites {
                let Some(caller_ctx) = &contexts[site.caller.index()] else {
                    continue;
                };
                let at_site = site.rel.apply(caller_ctx);
                for &t in &site.targets {
                    let next = match &contexts[t.index()] {
                        None => at_site.clone(),
                        Some(cur) => {
                            let mut meet = cur.clone();
                            meet.intersect_with(&at_site);
                            meet
                        }
                    };
                    if contexts[t.index()].as_ref() != Some(&next) {
                        contexts[t.index()] = Some(next);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let contexts: Vec<PtsSet> = contexts
            .into_iter()
            .map(|c| c.unwrap_or_else(|| PtsSet::new(universe)))
            .collect();

        let mut absolute = vec![PtsSet::new(universe); program.accesses.len()];
        for g in &guarded {
            absolute[g.access.index()] = g.rel.apply(&contexts[g.func.index()]);
        }

        LocksetAnalysis {
            summaries,
            guarded,
            contexts,
            absolute,
        }
    }

    /// Absolute must-lockset of an access, as a set of object indices.
    pub fn lockset_of(&self, a: AccessId) -> &PtsSet {
        &self.absolute[a.index()]
    }
}

/// Intraprocedural forward must-dataflow over the relative lockset.
/// Returns (exit summary, guarded accesses, call-site states).
fn analyze_function(
    program: &Program,
    fid: FuncId,
    summaries: &[FuncSummary],
    oracle: &AliasOracle,
    indirect: &[FuncId],
) -> (FuncSummary, Vec<GuardedAccess>, Vec<CallSiteState>) {
    let f = &program.funcs[fid.index()];
    let universe = oracle.objects.len();
    let nb = f.blocks.len();
    // Block-entry states. None = not yet reached.
    let mut entry_state: Vec<Option<RelLockset>> = vec![None; nb];
    entry_state[f.entry.index()] = Some(RelLockset::identity(universe));
    let mut work: Vec<BlockId> = vec![f.entry];
    while let Some(b) = work.pop() {
        let mut state = entry_state[b.index()]
            .clone()
            .expect("worklist only holds reached blocks");
        let block = f.block(b);
        for (ii, i) in block.instrs.iter().enumerate() {
            transfer(fid, b, ii as u32, i, &mut state, summaries, oracle, indirect);
        }
        for succ in block.term.successors() {
            let next = match &entry_state[succ.index()] {
                None => state.clone(),
                Some(cur) => {
                    let mut meet = cur.clone();
                    meet.meet(&state);
                    meet
                }
            };
            if entry_state[succ.index()].as_ref() != Some(&next) {
                entry_state[succ.index()] = Some(next);
                work.push(succ);
            }
        }
    }

    // Re-walk with final states to record facts and the exit summary.
    let mut guarded = Vec::new();
    let mut call_sites = Vec::new();
    let mut exit: Option<RelLockset> = None;
    for (b, block) in f.iter_blocks() {
        let Some(mut state) = entry_state[b.index()].clone() else {
            continue; // unreachable
        };
        for (ii, i) in block.instrs.iter().enumerate() {
            match i {
                Instr::Load { access, .. } | Instr::Store { access, .. } => {
                    guarded.push(GuardedAccess {
                        access: *access,
                        func: fid,
                        is_write: matches!(i, Instr::Store { .. }),
                        rel: state.clone(),
                    });
                }
                Instr::Call { callee, .. } => {
                    let targets = match callee {
                        Callee::Direct(t) => vec![*t],
                        Callee::Indirect(_) => indirect.to_vec(),
                    };
                    call_sites.push(CallSiteState {
                        caller: fid,
                        targets,
                        rel: state.clone(),
                    });
                }
                // Spawned threads begin with an empty lockset; modeled by
                // roots in the context propagation, so no call-site state
                // is recorded here.
                _ => {}
            }
            transfer(fid, b, ii as u32, i, &mut state, summaries, oracle, indirect);
        }
        if matches!(block.term, Terminator::Return(_)) {
            match &mut exit {
                None => exit = Some(state),
                Some(e) => e.meet(&state),
            }
        }
    }
    (
        exit.unwrap_or_else(|| RelLockset::identity(universe)),
        guarded,
        call_sites,
    )
}

/// Conservative indirect-call target set: every address-taken function.
fn indirect_targets_of(program: &Program) -> Vec<FuncId> {
    let mut out = Vec::new();
    for f in &program.funcs {
        for b in &f.blocks {
            for i in &b.instrs {
                if let Instr::AddrOfFunc { func, .. } = i {
                    if !out.contains(func) {
                        out.push(*func);
                    }
                }
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn transfer(
    fid: FuncId,
    b: BlockId,
    ii: u32,
    i: &Instr,
    state: &mut RelLockset,
    summaries: &[FuncSummary],
    oracle: &AliasOracle,
    indirect: &[FuncId],
) {
    match i {
        Instr::Lock { .. } => {
            if let Some(l) = oracle.definite_lock((fid, b, ii)) {
                state.plus.insert(l.index());
                state.minus.remove(l.index());
            }
        }
        Instr::Unlock { .. } => {
            for l in oracle.lock_objs.get(&(fid, b, ii)).into_iter().flatten() {
                state.plus.remove(l.index());
                state.minus.insert(l.index());
            }
        }
        // cond_wait releases and reacquires its mutex: the lockset at
        // subsequent points is unchanged, and RELAY does not model the
        // happens-before edge — so it is a no-op here.
        Instr::CondWait { .. } => {}
        Instr::Call { callee, .. } => match callee {
            Callee::Direct(t) => state.then(&summaries[t.index()]),
            Callee::Indirect(_) => {
                // Meet of all possible targets, pessimistically seeded.
                let Some((first, rest)) = indirect.split_first() else {
                    return;
                };
                let mut effect = summaries[first.index()].clone();
                for t in rest {
                    effect.meet(&summaries[t.index()]);
                }
                state.then(&effect);
            }
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::callgraph::CallGraph;
    use chimera_minic::compile;
    use chimera_pta::{ObjectTable, Steensgaard};

    fn run(src: &str) -> (chimera_minic::ir::Program, LocksetAnalysis) {
        let p = compile(src).unwrap();
        let objects = ObjectTable::build(&p);
        let mut s = Steensgaard::analyze(&p, &objects);
        let oracle = AliasOracle::from_steensgaard(&p, &mut s);
        let cg = CallGraph::build_conservative(&p);
        let ls = LocksetAnalysis::run(&p, &cg, &oracle);
        (p, ls)
    }

    fn access_lockset_sizes(p: &chimera_minic::ir::Program, ls: &LocksetAnalysis) -> Vec<usize> {
        p.accesses.iter().map(|a| ls.lockset_of(a.id).len()).collect()
    }

    #[test]
    fn lock_held_between_acquire_and_release() {
        let (p, ls) = run(
            "lock_t m; int g;
             int main() { g = 1; lock(&m); g = 2; unlock(&m); g = 3; return 0; }",
        );
        let sizes = access_lockset_sizes(&p, &ls);
        // Three stores to g: outside, inside, outside.
        assert_eq!(sizes, vec![0, 1, 0]);
    }

    #[test]
    fn branch_join_takes_intersection() {
        let (p, ls) = run(
            "lock_t m; int g; int c;
             int main() {
                if (c) { lock(&m); }
                g = 1;          // lock only held on one path: not in must-set
                if (c) { unlock(&m); }
                return 0;
             }",
        );
        // The store to g must have an empty must-lockset.
        let store = p.accesses.iter().find(|a| a.is_write && a.what == "g").unwrap();
        assert!(ls.lockset_of(store.id).is_empty());
    }

    #[test]
    fn summary_composition_through_callee() {
        let (p, ls) = run(
            "lock_t m; int g;
             void locked_write(int v) { g = v; }
             int main() { lock(&m); locked_write(1); unlock(&m); return 0; }",
        );
        // The store inside locked_write inherits main's held lock through
        // the top-down context.
        let store = p
            .accesses
            .iter()
            .find(|a| a.is_write && a.what == "g")
            .unwrap();
        assert_eq!(ls.lockset_of(store.id).len(), 1);
    }

    #[test]
    fn context_is_intersection_over_call_sites() {
        let (p, ls) = run(
            "lock_t m; int g;
             void w(int v) { g = v; }
             int main() { lock(&m); w(1); unlock(&m); w(2); return 0; }",
        );
        // w is called both with and without the lock: its context must be
        // the empty set, so the store is unprotected.
        let store = p.accesses.iter().find(|a| a.is_write && a.what == "g").unwrap();
        assert!(ls.lockset_of(store.id).is_empty());
    }

    #[test]
    fn callee_that_releases_clears_callers_lockset() {
        let (p, ls) = run(
            "lock_t m; int g;
             void release_it(int v) { unlock(&m); }
             int main() { lock(&m); release_it(0); g = 1; return 0; }",
        );
        let store = p.accesses.iter().find(|a| a.is_write && a.what == "g").unwrap();
        assert!(
            ls.lockset_of(store.id).is_empty(),
            "summary must propagate the release"
        );
    }

    #[test]
    fn callee_that_acquires_extends_callers_lockset() {
        let (p, ls) = run(
            "lock_t m; int g;
             void acquire_it(int v) { lock(&m); }
             int main() { acquire_it(0); g = 1; unlock(&m); return 0; }",
        );
        let store = p.accesses.iter().find(|a| a.is_write && a.what == "g").unwrap();
        assert_eq!(ls.lockset_of(store.id).len(), 1);
    }

    #[test]
    fn two_locks_tracked_independently() {
        let (p, ls) = run(
            "lock_t m1; lock_t m2; int g;
             int main() {
                lock(&m1); lock(&m2); g = 1; unlock(&m2); g = 2; unlock(&m1);
                return 0;
             }",
        );
        let sizes: Vec<usize> = p
            .accesses
            .iter()
            .filter(|a| a.is_write)
            .map(|a| ls.lockset_of(a.id).len())
            .collect();
        assert_eq!(sizes, vec![2, 1]);
    }

    #[test]
    fn recursion_is_sound_not_crashy() {
        let (p, ls) = run(
            "lock_t m; int g;
             void rec(int n) { if (n > 0) { rec(n - 1); } g = n; }
             int main() { lock(&m); rec(3); unlock(&m); return 0; }",
        );
        // Pessimistic recursion handling may lose the lock, but must not
        // claim locks that are not held.
        let store = p.accesses.iter().find(|a| a.is_write && a.what == "g").unwrap();
        let _ = ls.lockset_of(store.id);
        assert!(ls.summaries.len() == p.funcs.len());
    }

    #[test]
    fn spawned_root_context_is_empty() {
        let (p, ls) = run(
            "lock_t m; int g;
             void w(int v) { g = v; }
             int main() { int t; lock(&m); t = spawn(w, 1); unlock(&m); join(t); return 0; }",
        );
        // Even though spawn happens under the lock, the new thread starts
        // with nothing held.
        let w = p.func_by_name("w").unwrap().id;
        assert!(ls.contexts[w.index()].is_empty());
    }
}
