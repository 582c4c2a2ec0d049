//! Race-pair enumeration: thread reachability, the escape filter, and the
//! final lockset check.

use crate::lockset::LocksetAnalysis;
use crate::oracle::AliasOracle;
use chimera_minic::callgraph::CallGraph;
use chimera_minic::cfg::{Cfg, Dominators};
use chimera_minic::ir::{AccessId, FuncId, Instr, Program};
use chimera_minic::loops::LoopForest;
use chimera_pta::{AbsObj, ObjId, PtsSet};
use std::collections::{BTreeMap, BTreeSet};

/// A pair of static memory accesses that may race (the paper's
/// *race-pair*). Normalized so `a <= b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RacePair {
    /// First access.
    pub a: AccessId,
    /// Second access (may equal `a`: an access racing with another dynamic
    /// instance of itself).
    pub b: AccessId,
}

impl RacePair {
    /// Construct, normalizing the order.
    pub fn new(x: AccessId, y: AccessId) -> RacePair {
        if x <= y {
            RacePair { a: x, b: y }
        } else {
            RacePair { a: y, b: x }
        }
    }
}

/// The detector's output.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// All race pairs found.
    pub pairs: Vec<RacePair>,
    /// For each pair (aligned with `pairs`), one witness object both sides
    /// may touch: the lowest-numbered object they share.
    pub witnesses: Vec<ObjId>,
}

impl RaceReport {
    /// The set of accesses involved in at least one race pair — these are
    /// the instructions Chimera must place under weak-locks.
    pub fn racy_accesses(&self) -> BTreeSet<AccessId> {
        self.pairs
            .iter()
            .flat_map(|p| [p.a, p.b])
            .collect()
    }

    /// Race pairs grouped as *racy-function-pairs* (paper §2.1).
    pub fn racy_function_pairs(&self, program: &Program) -> BTreeSet<(FuncId, FuncId)> {
        self.pairs
            .iter()
            .map(|p| {
                let fa = program.access(p.a).func;
                let fb = program.access(p.b).func;
                if fa <= fb {
                    (fa, fb)
                } else {
                    (fb, fa)
                }
            })
            .collect()
    }

    /// Human-readable summary, one line per pair.
    pub fn describe(&self, program: &Program) -> String {
        let mut out = String::new();
        for p in &self.pairs {
            let ia = program.access(p.a);
            let ib = program.access(p.b);
            out.push_str(&format!(
                "race: {} '{}' at {} <-> {} '{}' at {}\n",
                if ia.is_write { "write" } else { "read" },
                ia.what,
                ia.span,
                if ib.is_write { "write" } else { "read" },
                ib.what,
                ib.span,
            ));
        }
        out
    }
}

/// Per-function thread-origin facts.
#[derive(Debug, Clone)]
pub struct ThreadFacts {
    /// For each function: the set of thread roots (main or spawn targets)
    /// it is call-reachable from.
    pub roots_of: Vec<BTreeSet<FuncId>>,
    /// Roots that may have more than one simultaneous instance (spawned at
    /// two or more sites, or at a site inside a loop).
    pub multi_instance: BTreeSet<FuncId>,
}

impl ThreadFacts {
    /// Compute reachability and instance multiplicity.
    pub fn compute(program: &Program, cg: &CallGraph) -> ThreadFacts {
        let mut roots: BTreeSet<FuncId> = cg.all_spawn_targets();
        roots.insert(program.main());
        let mut roots_of = vec![BTreeSet::new(); program.funcs.len()];
        for &r in &roots {
            for f in cg.reachable_from(r) {
                roots_of[f.index()].insert(r);
            }
        }
        // Spawn-site multiplicity. Only functions that spawn need their
        // loop forest (to tell whether a spawn sits inside a loop).
        let mut spawn_count: BTreeMap<FuncId, usize> = BTreeMap::new();
        let spawns = |i: &Instr| matches!(i, Instr::Spawn { .. });
        for f in &program.funcs {
            if !f.blocks.iter().any(|b| b.instrs.iter().any(spawns)) {
                continue;
            }
            let cfg = Cfg::new(f);
            let dom = Dominators::new(f, &cfg);
            let loops = LoopForest::new(f, &cfg, &dom);
            for (bid, b) in f.iter_blocks() {
                for i in &b.instrs {
                    if let Instr::Spawn { callee, .. } = i {
                        let targets: Vec<FuncId> = match callee {
                            chimera_minic::ir::Callee::Direct(t) => vec![*t],
                            chimera_minic::ir::Callee::Indirect(_) => {
                                cg.spawned[f.id.index()].iter().copied().collect()
                            }
                        };
                        let in_loop = loops.innermost_containing(bid).is_some();
                        for t in targets {
                            *spawn_count.entry(t).or_insert(0) += if in_loop { 2 } else { 1 };
                        }
                    }
                }
            }
        }
        let multi_instance = spawn_count
            .into_iter()
            .filter(|(_, c)| *c >= 2)
            .map(|(f, _)| f)
            .collect();
        ThreadFacts {
            roots_of,
            multi_instance,
        }
    }

    /// Can accesses in `fa` and `fb` execute on two different threads?
    ///
    /// True when some root pair `(ra, rb)` has `ra != rb` or a
    /// multi-instance `ra == rb`. That fails only when both functions hang
    /// off one single-instance root, so the answer needs no pair loop.
    pub fn may_be_parallel(&self, fa: FuncId, fb: FuncId) -> bool {
        let (ra, rb) = (&self.roots_of[fa.index()], &self.roots_of[fb.index()]);
        match (ra.len(), rb.len()) {
            (0, _) | (_, 0) => false,
            (1, 1) => {
                let (r, s) = (ra.first(), rb.first());
                r != s || r.is_some_and(|r| self.multi_instance.contains(r))
            }
            _ => true,
        }
    }
}

/// One access that may touch a shareable object.
struct Candidate {
    access: AccessId,
    func: FuncId,
    is_write: bool,
    /// Shareable objects the access may touch.
    objs: PtsSet,
}

/// Enumerate race pairs.
///
/// Two accesses race when (1) they may touch a common *shared* object, (2)
/// at least one is a write, (3) they can run on different threads, and (4)
/// their absolute must-locksets are disjoint. Races on sync cells and on
/// heapified locals that never escape their function are filtered (paper
/// §6.2).
pub fn find_races(
    program: &Program,
    cg: &CallGraph,
    oracle: &AliasOracle,
    lockset: &LocksetAnalysis,
) -> RaceReport {
    let threads = ThreadFacts::compute(program, cg);
    let universe = oracle.objects.len();

    // An object is shareable if it is a non-sync global, a heap object, or
    // a local slot that escapes (is touched by an access outside its owner).
    let mut escaped = PtsSet::new(universe);
    for (aid, objs) in oracle.access_objs.iter().enumerate() {
        let owner = program.access(AccessId(aid as u32)).func;
        for o in objs {
            if let AbsObj::LocalSlot(f, _) = oracle.objects.get(*o) {
                if f != owner {
                    escaped.insert(o.index());
                }
            }
        }
    }
    let shareable: Vec<bool> = oracle
        .objects
        .iter()
        .map(|(o, obj)| match obj {
            AbsObj::Global(g) => !program.globals[g.index()].is_sync,
            AbsObj::Alloc(_) => true,
            AbsObj::LocalSlot(_, _) => escaped.contains(o.index()),
            AbsObj::Func(_) => false,
        })
        .collect();

    // Candidate accesses: non-empty shareable object sets, bucketed by
    // object (ascending candidate index within each bucket) so pair
    // generation is proportional to real aliasing.
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); universe];
    for (aid, objs) in oracle.access_objs.iter().enumerate() {
        let mut shared = PtsSet::new(universe);
        for o in objs.iter().filter(|o| shareable[o.index()]) {
            shared.insert(o.index());
            buckets[o.index()].push(candidates.len());
        }
        if !shared.is_empty() {
            let access = program.access(AccessId(aid as u32));
            candidates.push(Candidate {
                access: AccessId(aid as u32),
                func: access.func,
                is_write: access.is_write,
                objs: shared,
            });
        }
    }

    // For each candidate i, OR the bucket tails at or after i into a
    // neighbour bitset and walk it upward: every sharing pair (i, j ≥ i)
    // appears exactly once, in ascending (i, j) order (DESIGN.md §7).
    let mut report = RaceReport::default();
    let mut near = PtsSet::new(candidates.len());
    for (i, a) in candidates.iter().enumerate() {
        for o in a.objs.iter() {
            let bucket = &buckets[o];
            for &j in &bucket[bucket.partition_point(|&j| j < i)..] {
                near.insert(j);
            }
        }
        for j in near.iter() {
            let b = &candidates[j];
            if !a.is_write && !b.is_write {
                continue;
            }
            if !threads.may_be_parallel(a.func, b.func) {
                continue;
            }
            if !lockset.lockset_of(a.access).is_disjoint(lockset.lockset_of(b.access)) {
                continue;
            }
            let witness = a
                .objs
                .first_common(&b.objs)
                .expect("bucketed candidates share an object");
            report.pairs.push(RacePair::new(a.access, b.access));
            report.witnesses.push(ObjId(witness as u32));
        }
        near.clear();
    }
    report
}

#[cfg(test)]
mod tests {
    use crate::detect_races;
    use chimera_minic::compile;

    #[test]
    fn joined_thread_still_reported_racy() {
        // RELAY ignores fork/join happens-before: the read of g in main
        // *after* join(t) cannot actually race, but is still reported.
        // (Profiling removes this class of false positive, §4.)
        let p = compile(
            "int g;
             void w(int v) { g = v; }
             int main() { int t; t = spawn(w, 1); join(t); return g; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(!report.pairs.is_empty());
    }

    #[test]
    fn single_thread_program_has_no_races() {
        let p = compile(
            "int g;
             void w(int v) { g = v; }
             int main() { w(1); w(2); return g; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(report.pairs.is_empty(), "{}", report.describe(&p));
    }

    #[test]
    fn access_races_with_itself_under_multi_instance_root() {
        // Two instances of the same worker: the same static store races
        // with itself (a self race-pair, like radix's line 4 in §5.1).
        let p = compile(
            "int g;
             void w(int v) { g = v; }
             int main() { int t1; int t2; t1 = spawn(w, 1); t2 = spawn(w, 2);
                          join(t1); join(t2); return g; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(report.pairs.iter().any(|p| p.a == p.b), "self-pair expected");
    }

    #[test]
    fn spawn_inside_loop_counts_as_multi_instance() {
        let p = compile(
            "int g;
             void w(int v) { g = v; }
             int main() { int i; int t;
                for (i = 0; i < 4; i = i + 1) { t = spawn(w, i); }
                return 0; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(!report.pairs.is_empty());
    }

    #[test]
    fn unescaped_local_slot_filtered() {
        // x is address-taken (heapified) but never escapes main.
        let p = compile(
            "void w(int v) {}
             int main() { int x; int *p; int t; p = &x; *p = 3;
                          t = spawn(w, 1); join(t); return x; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(report.pairs.is_empty(), "{}", report.describe(&p));
    }

    #[test]
    fn escaped_local_slot_reported() {
        let p = compile(
            "void w(int *p) { *p = 7; }
             int main() { int x; int t; x = 0;
                          t = spawn(w, &x);
                          x = 1;
                          join(t); return x; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(!report.pairs.is_empty(), "escaping local must be reported");
    }

    #[test]
    fn read_read_pairs_not_reported() {
        let p = compile(
            "int g;
             void r(int v) { v = g; }
             int main() { int t; t = spawn(r, 1); r(2); join(t); return 0; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(report.pairs.is_empty());
    }

    #[test]
    fn sync_cells_never_race() {
        let p = compile(
            "lock_t m; int g;
             void w(int v) { lock(&m); g = v; unlock(&m); }
             int main() { int t; t = spawn(w, 1); w(2); join(t); return 0; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(report.pairs.is_empty(), "{}", report.describe(&p));
    }

    #[test]
    fn different_locks_do_race() {
        let p = compile(
            "lock_t m1; lock_t m2; int g;
             void w1(int v) { lock(&m1); g = v; unlock(&m1); }
             void w2(int v) { lock(&m2); g = v; unlock(&m2); }
             int main() { int t; t = spawn(w1, 1); w2(2); join(t); return 0; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(!report.pairs.is_empty(), "disjoint locksets must race");
    }

    #[test]
    fn racy_function_pairs_grouping() {
        let p = compile(
            "int g;
             void a(int v) { g = v; }
             void b(int v) { g = v; }
             int main() { int t; t = spawn(a, 1); b(2); join(t); return 0; }",
        )
        .unwrap();
        let report = detect_races(&p);
        let pairs = report.racy_function_pairs(&p);
        let fa = p.func_by_name("a").unwrap().id;
        let fb = p.func_by_name("b").unwrap().id;
        assert!(pairs.contains(&(fa.min(fb), fa.max(fb))));
    }

    #[test]
    fn heap_objects_race_across_threads() {
        // A malloc'd buffer published through a global pointer and written
        // by two threads without a lock.
        let p = compile(
            "int *shared_buf;
             void w(int v) { shared_buf[v] = v; }
             int main() { int t1; int t2;
                 shared_buf = malloc(8);
                 t1 = spawn(w, 1); t2 = spawn(w, 2);
                 join(t1); join(t2);
                 return shared_buf[1]; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(!report.pairs.is_empty(), "heap writes must be reported");
    }

    #[test]
    fn races_found_through_function_pointer_spawns() {
        let p = compile(
            "int g;
             void w(int v) { g = g + v; }
             int main() { int *fp; int t1; int t2;
                 fp = w;
                 t1 = spawn(fp, 1); t2 = spawn(fp, 2);
                 join(t1); join(t2); return g; }",
        )
        .unwrap();
        let report = detect_races(&p);
        assert!(
            !report.pairs.is_empty(),
            "Andersen resolution must find the spawn targets"
        );
    }

    #[test]
    fn struct_field_races_detected_field_insensitively() {
        let p = compile(
            "struct state { int a; int b; };
             struct state s;
             void wa(int v) { s.a = v; }
             void wb(int v) { s.b = v; }
             int main() { int t; t = spawn(wa, 1); wb(2); join(t); return 0; }",
        )
        .unwrap();
        let report = detect_races(&p);
        // Field-insensitive aliasing (like RELAY's) reports s.a vs s.b —
        // a false race the optimizations must absorb.
        assert!(!report.pairs.is_empty());
    }

    #[test]
    fn witness_object_is_the_shared_global() {
        let p = compile(
            "int g;
             void w(int v) { g = v; }
             int main() { int t; t = spawn(w, 1); w(2); join(t); return 0; }",
        )
        .unwrap();
        let report = detect_races(&p);
        let g = p.globals.iter().position(|g| g.name == "g").unwrap();
        let g_obj = chimera_pta::ObjectTable::build(&p)
            .id_of(chimera_pta::AbsObj::Global(chimera_minic::ir::GlobalId(g as u32)))
            .unwrap();
        assert!(!report.witnesses.is_empty());
        assert_eq!(report.witnesses.len(), report.pairs.len());
        assert!(
            report.witnesses.iter().all(|w| *w == g_obj),
            "every witness is g's object {g_obj}: {:?}",
            report.witnesses
        );
    }
}
