//! Call-graph construction with pluggable function-pointer resolution.
//!
//! RELAY composes function summaries bottom-up over the call graph (§3.1).
//! Indirect calls are resolved by the points-to analysis; to avoid a
//! dependency cycle between crates, this module accepts a resolver callback
//! and `chimera-pta` supplies it.

use crate::ir::{Callee, FuncId, Instr, Program};
use std::collections::BTreeSet;

/// Every function whose address is taken anywhere in `program`, in order
/// of first appearance: the conservative target set of an indirect call
/// or spawn.
pub fn address_taken_funcs(program: &Program) -> Vec<FuncId> {
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

/// Call graph over the functions of a program.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// `callees[f]` = set of possible targets called (or spawned) from `f`.
    pub callees: Vec<BTreeSet<FuncId>>,
    /// `spawned[f]` = targets started with `spawn` from `f`.
    pub spawned: Vec<BTreeSet<FuncId>>,
}

impl CallGraph {
    /// Build the call graph. `resolve_indirect` maps an indirect call/spawn
    /// site (identified by the calling function) to its possible targets;
    /// pass a closure backed by points-to results, or one returning all
    /// address-taken functions for a conservative graph.
    pub fn build(
        program: &Program,
        mut resolve_indirect: impl FnMut(FuncId) -> Vec<FuncId>,
    ) -> CallGraph {
        let n = program.funcs.len();
        let mut callees = vec![BTreeSet::new(); n];
        let mut spawned = vec![BTreeSet::new(); n];
        for f in &program.funcs {
            for b in &f.blocks {
                for i in &b.instrs {
                    match i {
                        Instr::Call { callee, .. } => match callee {
                            Callee::Direct(t) => {
                                callees[f.id.index()].insert(*t);
                            }
                            Callee::Indirect(_) => {
                                for t in resolve_indirect(f.id) {
                                    callees[f.id.index()].insert(t);
                                }
                            }
                        },
                        Instr::Spawn { callee, .. } => match callee {
                            Callee::Direct(t) => {
                                spawned[f.id.index()].insert(*t);
                            }
                            Callee::Indirect(_) => {
                                for t in resolve_indirect(f.id) {
                                    spawned[f.id.index()].insert(t);
                                }
                            }
                        },
                        _ => {}
                    }
                }
            }
        }
        CallGraph { callees, spawned }
    }

    /// Conservative default: indirect calls may target any function whose
    /// address is taken anywhere in the program.
    pub fn build_conservative(program: &Program) -> CallGraph {
        let address_taken = address_taken_funcs(program);
        Self::build(program, move |_| address_taken.clone())
    }

    /// Functions transitively reachable from `root` through calls (spawns
    /// are *not* followed: a spawn starts a different thread).
    pub fn reachable_from(&self, root: FuncId) -> BTreeSet<FuncId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(f) = stack.pop() {
            if seen.insert(f) {
                for &c in &self.callees[f.index()] {
                    stack.push(c);
                }
            }
        }
        seen
    }

    /// All spawn targets anywhere in the program (used as thread roots).
    pub fn all_spawn_targets(&self) -> BTreeSet<FuncId> {
        self.spawned.iter().flatten().copied().collect()
    }

    /// Strongly connected components in reverse topological (callee-first)
    /// order — the order RELAY composes summaries in.
    pub fn sccs_bottom_up(&self) -> Vec<Vec<FuncId>> {
        // Tarjan's algorithm, iterative.
        let n = self.callees.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<FuncId>> = Vec::new();
        let mut counter = 0usize;

        enum Frame {
            Enter(usize),
            Post(usize, usize),
        }
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut work = vec![Frame::Enter(start)];
            while let Some(frame) = work.pop() {
                match frame {
                    Frame::Enter(v) => {
                        if index[v] != usize::MAX {
                            continue;
                        }
                        index[v] = counter;
                        low[v] = counter;
                        counter += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        work.push(Frame::Post(v, usize::MAX));
                        for &c in &self.callees[v] {
                            let c = c.index();
                            if index[c] == usize::MAX {
                                work.push(Frame::Post(v, c));
                                work.push(Frame::Enter(c));
                            } else if on_stack[c] {
                                low[v] = low[v].min(index[c]);
                            }
                        }
                    }
                    Frame::Post(v, child) => {
                        if child != usize::MAX {
                            low[v] = low[v].min(low[child]);
                            continue;
                        }
                        if low[v] == index[v] {
                            let mut comp = Vec::new();
                            while let Some(w) = stack.pop() {
                                on_stack[w] = false;
                                comp.push(FuncId(w as u32));
                                if w == v {
                                    break;
                                }
                            }
                            sccs.push(comp);
                        }
                    }
                }
            }
        }
        sccs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn direct_calls_recorded() {
        let p = compile(
            "int leaf() { return 1; }
             int mid() { return leaf(); }
             int main() { return mid(); }",
        )
        .unwrap();
        let cg = CallGraph::build_conservative(&p);
        let main = p.main();
        let mid = p.func_by_name("mid").unwrap().id;
        let leaf = p.func_by_name("leaf").unwrap().id;
        assert!(cg.callees[main.index()].contains(&mid));
        assert!(cg.callees[mid.index()].contains(&leaf));
        assert!(cg.reachable_from(main).contains(&leaf));
    }

    #[test]
    fn spawns_tracked_separately() {
        let p = compile(
            "void w(int x) {}
             int main() { int t; t = spawn(w, 1); join(t); }",
        )
        .unwrap();
        let cg = CallGraph::build_conservative(&p);
        let main = p.main();
        let w = p.func_by_name("w").unwrap().id;
        assert!(cg.spawned[main.index()].contains(&w));
        assert!(!cg.callees[main.index()].contains(&w));
        assert!(!cg.reachable_from(main).contains(&w));
        assert_eq!(cg.all_spawn_targets().into_iter().collect::<Vec<_>>(), vec![w]);
    }

    #[test]
    fn conservative_indirect_targets_address_taken() {
        let p = compile(
            "int a(int x) { return x; }
             int b(int x) { return x; }
             int main() { int *fp; fp = a; return fp(1); }",
        )
        .unwrap();
        let cg = CallGraph::build_conservative(&p);
        let main = p.main();
        let a = p.func_by_name("a").unwrap().id;
        let b = p.func_by_name("b").unwrap().id;
        assert!(cg.callees[main.index()].contains(&a));
        // b's address is never taken, so even conservatively it is excluded.
        assert!(!cg.callees[main.index()].contains(&b));
    }

    #[test]
    fn sccs_bottom_up_orders_callees_first() {
        let p = compile(
            "int leaf() { return 1; }
             int mid() { return leaf(); }
             int main() { return mid(); }",
        )
        .unwrap();
        let cg = CallGraph::build_conservative(&p);
        let sccs = cg.sccs_bottom_up();
        let pos = |f: FuncId| sccs.iter().position(|s| s.contains(&f)).unwrap();
        let main = p.main();
        let mid = p.func_by_name("mid").unwrap().id;
        let leaf = p.func_by_name("leaf").unwrap().id;
        assert!(pos(leaf) < pos(mid));
        assert!(pos(mid) < pos(main));
    }

    #[test]
    fn recursion_forms_one_scc() {
        let p = compile(
            "int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
             int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
             int main() { return even(4); }",
        )
        .unwrap();
        let cg = CallGraph::build_conservative(&p);
        let sccs = cg.sccs_bottom_up();
        let even = p.func_by_name("even").unwrap().id;
        let odd = p.func_by_name("odd").unwrap().id;
        let scc = sccs.iter().find(|s| s.contains(&even)).unwrap();
        assert!(scc.contains(&odd), "mutually recursive functions share an SCC");
    }
}
