//! Weak-lock planning: deciding granularity and lock identity for every
//! race pair (paper §2.2's decision tree).

use crate::clique::assign_cliques;
use chimera_bounds::{loop_access_bounds, Bound, LoopBounds, SymExpr};
use chimera_minic::cfg::{Cfg, Dominators};
use chimera_minic::ir::{
    AccessId, BlockId, FuncId, Instr, LockGranularity, Program, WeakLockId,
};
use chimera_minic::loops::LoopForest;
use chimera_pta::{ObjId, PtsSet};
use chimera_profile::ProfileData;
use chimera_relay::RaceReport;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Which optimizations are enabled — the four configurations of the
/// paper's Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct OptSet {
    /// Profile-guided function-granularity locks with clique sharing (§4).
    pub func_locks: bool,
    /// Symbolic-bounds loop locks (§5).
    pub loop_locks: bool,
    /// Basic-block coarsening for what remains.
    pub bb_locks: bool,
    /// §5.3's loop-body threshold: loops with fewer average dynamic
    /// instructions per iteration than this still get a (range-less)
    /// loop-lock even when bounds are imprecise.
    pub loop_body_threshold: f64,
}

impl OptSet {
    /// `instr`: every race instrumented at instruction granularity (the
    /// 53x configuration).
    pub fn naive() -> OptSet {
        OptSet {
            func_locks: false,
            loop_locks: false,
            bb_locks: false,
            loop_body_threshold: 25.0,
        }
    }

    /// `inst+func`: profiling-based function locks only.
    pub fn func_only() -> OptSet {
        OptSet {
            func_locks: true,
            ..OptSet::naive()
        }
    }

    /// `inst+loop`: symbolic loop locks only.
    pub fn loop_only() -> OptSet {
        OptSet {
            loop_locks: true,
            ..OptSet::naive()
        }
    }

    /// `inst+bb+loop+func`: everything (the 1.39x configuration).
    pub fn all() -> OptSet {
        OptSet {
            func_locks: true,
            loop_locks: true,
            bb_locks: true,
            loop_body_threshold: 25.0,
        }
    }
}

impl Default for OptSet {
    fn default() -> Self {
        OptSet::all()
    }
}

/// A loop-lock to hoist in front of one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopLockSpec {
    /// The weak-lock (keyed by the protected object).
    pub lock: WeakLockId,
    /// Symbolic `[lo, hi]` to evaluate in the preheader; `None` guards all
    /// addresses (the `-INF..+INF` case).
    pub range: Option<(SymExpr, SymExpr)>,
}

/// Counts of how race pairs were handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Total race pairs planned for.
    pub pairs_total: u32,
    /// Pairs protected by clique function-locks.
    pub pairs_function: u32,
    /// Access decisions at loop granularity.
    pub sides_loop: u32,
    /// Access decisions at basic-block granularity.
    pub sides_bb: u32,
    /// Access decisions at instruction granularity.
    pub sides_instr: u32,
    /// Number of cliques formed.
    pub cliques: u32,
    /// Pairs demoted to unsynchronized access by dynamic evidence
    /// (`pairs_total` counts only the pairs actually planned for).
    pub pairs_demoted: u32,
}

/// The complete instrumentation plan for a program.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Function-granularity locks to hold for the whole body, per function.
    pub func_locks: BTreeMap<FuncId, Vec<WeakLockId>>,
    /// Loop locks per `(function, loop header)`.
    pub loop_locks: BTreeMap<(FuncId, BlockId), Vec<LoopLockSpec>>,
    /// Basic-block locks per `(function, block)`.
    pub bb_locks: BTreeMap<(FuncId, BlockId), Vec<WeakLockId>>,
    /// Instruction locks per racy access.
    pub instr_locks: BTreeMap<AccessId, Vec<WeakLockId>>,
    /// Total number of weak-locks allocated.
    pub n_weak_locks: u32,
    /// Planning statistics.
    pub stats: PlanStats,
}

/// The profile's non-concurrency relation over this program's `FuncId`s,
/// built once per [`plan`] from the name-keyed [`ProfileData`]:
/// `rows[f]` holds every `g` with
/// `profile.likely_non_concurrent(name(f), name(g))`, i.e. both executed
/// and never observed overlapping. Function names are unique within a
/// program, so the translation is exact.
struct NonConcurrency {
    rows: Vec<PtsSet>,
}

impl NonConcurrency {
    fn new(program: &Program, profile: &ProfileData) -> NonConcurrency {
        let n = program.funcs.len();
        let id_of: HashMap<&str, usize> = program
            .funcs
            .iter()
            .map(|f| (f.name.as_str(), f.id.index()))
            .collect();
        let mut executed = PtsSet::new(n);
        for name in &profile.executed {
            if let Some(&f) = id_of.get(name.as_str()) {
                executed.insert(f);
            }
        }
        let mut rows: Vec<PtsSet> = (0..n)
            .map(|f| {
                if executed.contains(f) {
                    executed.clone()
                } else {
                    PtsSet::new(n)
                }
            })
            .collect();
        // Pairs arrive sorted by their first name: look it up once per run.
        let mut first: (&str, Option<usize>) = ("", None);
        for (a, b) in &profile.concurrent {
            if first.0 != a {
                first = (a, id_of.get(a.as_str()).copied());
            }
            if let (Some(a), Some(&b)) = (first.1, id_of.get(b.as_str())) {
                rows[a].remove(b);
                rows[b].remove(a);
            }
        }
        NonConcurrency { rows }
    }

    /// Profiling evidence that `a` and `b` never run concurrently.
    fn get(&self, a: FuncId, b: FuncId) -> bool {
        self.rows[a.index()].contains(b.index())
    }

    /// Every function `f` is evidently non-concurrent with.
    fn row(&self, f: FuncId) -> &PtsSet {
        &self.rows[f.index()]
    }
}

/// Build the instrumentation plan.
///
/// For every race pair: if profiling shows the two containing functions
/// are never concurrent (and the optimization is on), protect both with a
/// shared clique function-lock. Otherwise protect each side with an
/// object-keyed weak-lock at the coarsest safe granularity: a loop-lock
/// with a symbolic address range, a loop-lock without a range for small
/// loop bodies, a basic-block lock, or an instruction lock when the block
/// contains a call.
pub fn plan(
    program: &Program,
    races: &RaceReport,
    profile: &ProfileData,
    opts: &OptSet,
) -> Plan {
    let mut plan = Plan::default();
    plan.stats.pairs_total = races.pairs.len() as u32;
    let nc = NonConcurrency::new(program, profile);

    // Split pairs into the function-lock stage and the fine stage.
    let mut func_stage: Vec<(u32, u32)> = Vec::new();
    let mut fine_stage: Vec<(chimera_relay::RacePair, ObjId)> = Vec::new();
    for (pair, &witness) in races.pairs.iter().zip(&races.witnesses) {
        let fa = program.access(pair.a).func;
        let fb = program.access(pair.b).func;
        // Function-lock eligibility: the pair must be non-concurrent, and
        // each side must also never overlap *itself* — a clique lock held
        // for a whole function body would otherwise serialize concurrent
        // instances of a worker function (a conservative reading of §4.2:
        // clique members must be mutually non-concurrent, including the
        // implicit self edge).
        if opts.func_locks && nc.get(fa, fb) && nc.get(fa, fa) && nc.get(fb, fb) {
            func_stage.push((fa.0.min(fb.0), fa.0.max(fb.0)));
            plan.stats.pairs_function += 1;
        } else {
            fine_stage.push((*pair, witness));
        }
    }

    // Clique analysis over the function-lock stage.
    // Collecting sorts and bulk-builds the set (duplicates collapse).
    let func_stage: BTreeSet<(u32, u32)> = func_stage.into_iter().collect();
    let mut next_lock = 0u32;
    if !func_stage.is_empty() {
        let asg = assign_cliques(&func_stage, |a, b| {
            a == b || nc.get(FuncId(a), FuncId(b))
        });
        plan.stats.cliques = asg.cliques.len() as u32;
        // One lock per clique.
        let clique_lock: Vec<WeakLockId> = (0..asg.cliques.len())
            .map(|_| {
                let id = WeakLockId(next_lock);
                next_lock += 1;
                id
            })
            .collect();
        // Each function acquires the locks of the cliques assigned to at
        // least one of its pairs.
        for ((a, b), cid) in &asg.pair_clique {
            for f in [*a, *b] {
                let fid = FuncId(f);
                let locks = plan.func_locks.entry(fid).or_default();
                if !locks.contains(&clique_lock[*cid]) {
                    locks.push(clique_lock[*cid]);
                }
            }
        }
        for locks in plan.func_locks.values_mut() {
            locks.sort();
        }
    }

    // For the profile-guided loop fallback: which functions does each
    // access race with (fine-stage pairs only)? One function bitset per
    // access.
    let n_funcs = program.funcs.len();
    let mut partners: Vec<Option<PtsSet>> = vec![None; program.accesses.len()];
    for (pair, _) in &fine_stage {
        let (fa, fb) = (program.access(pair.a).func, program.access(pair.b).func);
        for side in [pair.a, pair.b] {
            let set = partners[side.index()].get_or_insert_with(|| PtsSet::new(n_funcs));
            set.insert(fa.index());
            set.insert(fb.index());
        }
    }

    // Object-keyed locks for the fine stage.
    let mut obj_lock: BTreeMap<ObjId, WeakLockId> = BTreeMap::new();
    let mut lock_for = |o: ObjId, next_lock: &mut u32| -> WeakLockId {
        *obj_lock.entry(o).or_insert_with(|| {
            let id = WeakLockId(*next_lock);
            *next_lock += 1;
            id
        })
    };

    // Per-function geometry caches.
    struct Geometry {
        forest: LoopForest,
        block_of_access: BTreeMap<AccessId, BlockId>,
        block_has_call: Vec<bool>,
        loop_bounds: BTreeMap<usize, BTreeMap<AccessId, LoopBounds>>,
    }
    let mut geos: BTreeMap<FuncId, Geometry> = BTreeMap::new();
    fn geometry<'a>(
        geos: &'a mut BTreeMap<FuncId, Geometry>,
        program: &Program,
        f: FuncId,
    ) -> &'a mut Geometry {
        geos.entry(f).or_insert_with(|| {
            let func = &program.funcs[f.index()];
            let cfg = Cfg::new(func);
            let dom = Dominators::new(func, &cfg);
            let forest = LoopForest::new(func, &cfg, &dom);
            let mut block_of_access = BTreeMap::new();
            let mut block_has_call = vec![false; func.blocks.len()];
            for (bid, b) in func.iter_blocks() {
                for i in &b.instrs {
                    if let Some(a) = i.access_id() {
                        block_of_access.insert(a, bid);
                    }
                    // Calls re-enter lock acquisition and blocking
                    // operations would be performed while holding the
                    // block's weak-lock: both force instruction
                    // granularity (§2.2).
                    if matches!(
                        i,
                        Instr::Call { .. }
                            | Instr::Spawn { .. }
                            | Instr::SysRead { .. }
                            | Instr::SysWrite { .. }
                            | Instr::SysInput { .. }
                    ) || i.is_program_sync()
                    {
                        block_has_call[bid.index()] = true;
                    }
                }
            }
            let loop_bounds = (0..forest.loops.len())
                .map(|i| (i, loop_access_bounds(func, &forest, i)))
                .collect();
            Geometry {
                forest,
                block_of_access,
                block_has_call,
                loop_bounds,
            }
        })
    }

    // Decide granularity per access side, once per (access, witness):
    // a dense bitset over `access * objects + witness`.
    let n_objs = fine_stage.iter().map(|(_, w)| w.index() + 1).max().unwrap_or(0);
    let mut decided = PtsSet::new(program.accesses.len() * n_objs);
    for (pair, witness) in fine_stage {
        for access in [pair.a, pair.b] {
            if !decided.insert(access.index() * n_objs + witness.index()) {
                continue;
            }
            let fid = program.access(access).func;
            let func = &program.funcs[fid.index()];
            let lock = lock_for(witness, &mut next_lock);
            let geo = geometry(&mut geos, program, fid);
            let Some(&block) = geo.block_of_access.get(&access) else {
                continue; // access optimized away (not possible today)
            };

            // Loop stage (§5.3).
            if opts.loop_locks {
                // Candidate loops: containing the block, call-free (§5.3),
                // and free of program synchronization — hoisting a
                // weak-lock over a barrier or mutex wait would hold it
                // across a blocking point and trigger timeout preemptions.
                let sync_free = |l: &chimera_minic::loops::Loop| {
                    l.blocks.iter().all(|b| {
                        func.block(*b).instrs.iter().all(|i| {
                            !i.is_program_sync()
                                && !matches!(
                                    i,
                                    Instr::SysRead { .. }
                                        | Instr::SysWrite { .. }
                                        | Instr::SysInput { .. }
                                )
                        })
                    })
                };
                let mut candidates: Vec<usize> = geo
                    .forest
                    .loops
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| {
                        l.blocks.contains(&block) && !l.contains_call(func) && sync_free(l)
                    })
                    .map(|(i, _)| i)
                    .collect();
                // Outermost (smallest depth) first.
                candidates.sort_by_key(|i| geo.forest.loops[*i].depth);
                let precise = candidates.iter().find_map(|&i| {
                    let b = geo.loop_bounds[&i].get(&access)?;
                    if b.is_precise() {
                        Some((i, b.clone()))
                    } else {
                        None
                    }
                });
                if let Some((li, b)) = precise {
                    let header = geo.forest.loops[li].header;
                    let (Bound::Expr(lo), Bound::Expr(hi)) = (b.lo, b.hi) else {
                        unreachable!("is_precise checked");
                    };
                    let specs = plan.loop_locks.entry((fid, header)).or_default();
                    let spec = LoopLockSpec {
                        lock,
                        range: Some((lo, hi)),
                    };
                    if !specs.contains(&spec) {
                        specs.push(spec);
                    }
                    plan.stats.sides_loop += 1;
                    continue;
                }
                // Imprecise bounds: a range-less loop-lock (innermost
                // call-free loop) is still preferred when either (a) the
                // loop body is small, so per-iteration locking would cost
                // more than the serialization (§5.3's threshold rule), or
                // (b) profiling shows this access's function never runs
                // concurrently with itself or any of its race partners, so
                // holding the coarse lock for the whole loop cannot stall
                // anyone (profile evidence, with the weak-lock timeout as
                // the §2.3 safety net if profiling was wrong).
                if let Some(&li) = candidates.last() {
                    let header = geo.forest.loops[li].header;
                    let small = profile
                        .avg_loop_body(&func.name, header)
                        .is_some_and(|avg| avg < opts.loop_body_threshold);
                    let serialization_free = partners[access.index()]
                        .as_ref()
                        .is_some_and(|ps| ps.is_subset(nc.row(fid)));
                    if small || serialization_free {
                        let specs = plan.loop_locks.entry((fid, header)).or_default();
                        let spec = LoopLockSpec { lock, range: None };
                        if !specs.contains(&spec) {
                            specs.push(spec);
                        }
                        plan.stats.sides_loop += 1;
                        continue;
                    }
                }
            }

            // Basic-block stage.
            if opts.bb_locks && !geo.block_has_call[block.index()] {
                let locks = plan.bb_locks.entry((fid, block)).or_default();
                if !locks.contains(&lock) {
                    locks.push(lock);
                }
                plan.stats.sides_bb += 1;
                continue;
            }

            // Instruction stage.
            let locks = plan.instr_locks.entry(access).or_default();
            if !locks.contains(&lock) {
                locks.push(lock);
            }
            plan.stats.sides_instr += 1;
        }
    }

    // §2.3's nesting discipline for loop-locks: a thread must not hold an
    // outer loop's weak-lock while acquiring an inner loop's — with
    // differently-ordered lock ids across threads that is a lock-order
    // inversion (resolvable only by timeout preemptions). Hoist inner
    // specs into the outermost locked ancestor loop, dropping a range that
    // mentions values defined inside the outer loop (they are not
    // evaluable at the outer preheader).
    let funcs_with_loops: BTreeSet<FuncId> =
        plan.loop_locks.keys().map(|(f, _)| *f).collect();
    for fid in funcs_with_loops {
        let geo = geometry(&mut geos, program, fid);
        let headers: Vec<BlockId> = plan
            .loop_locks
            .keys()
            .filter(|(f, _)| *f == fid)
            .map(|(_, h)| *h)
            .collect();
        let loop_of = |h: BlockId| {
            geo.forest
                .loops
                .iter()
                .position(|l| l.header == h)
                .expect("planned header is a loop header")
        };
        for &inner_h in &headers {
            let inner_li = loop_of(inner_h);
            // Outermost *locked* ancestor: the planned header whose loop
            // strictly contains this one, with the smallest depth.
            let ancestor = headers
                .iter()
                .filter(|&&h| h != inner_h)
                .map(|&h| loop_of(h))
                .filter(|&li| {
                    geo.forest.loops[li]
                        .blocks
                        .is_superset(&geo.forest.loops[inner_li].blocks)
                        && geo.forest.loops[li].blocks.len()
                            > geo.forest.loops[inner_li].blocks.len()
                })
                .min_by_key(|&li| geo.forest.loops[li].depth);
            let Some(outer_li) = ancestor else { continue };
            let outer_h = geo.forest.loops[outer_li].header;
            let inner_specs = plan
                .loop_locks
                .remove(&(fid, inner_h))
                .expect("header came from the map");
            let func = &program.funcs[fid.index()];
            for mut spec in inner_specs {
                // A range is only liftable if its symbols are invariant
                // with respect to the outer loop.
                let liftable = spec.range.as_ref().is_some_and(|(lo, hi)| {
                    [lo, hi].iter().all(|e| {
                        e.terms.keys().all(|sym| match sym {
                            chimera_bounds::Sym::Entry(l) => {
                                !chimera_bounds::iv::defined_in_loop(
                                    func,
                                    &geo.forest.loops[outer_li],
                                    *l,
                                )
                            }
                            _ => true,
                        })
                    })
                });
                if !liftable {
                    spec.range = None;
                }
                let outer_specs = plan.loop_locks.entry((fid, outer_h)).or_default();
                if !outer_specs.contains(&spec) {
                    outer_specs.push(spec);
                }
            }
        }
    }

    // Deterministic ordering everywhere.
    for v in plan.bb_locks.values_mut() {
        v.sort();
    }
    for v in plan.instr_locks.values_mut() {
        v.sort();
    }
    for v in plan.loop_locks.values_mut() {
        v.sort_by_key(|s| s.lock);
    }
    plan.n_weak_locks = next_lock;
    plan
}

/// Race pairs that dynamic evidence has certified race-free: planning
/// skips them entirely, so no weak-lock protects either side (unless the
/// side also appears in a pair that was *not* demoted).
pub type DemotedSet = BTreeSet<(AccessId, AccessId)>;

/// [`plan`] with a demotion set: pairs in `demoted` are stripped from the
/// race report before planning, so they earn no weak-lock at any
/// granularity. An access shared between a demoted and a kept pair is
/// still protected — demotion is per *pair*, and a surviving pair keeps
/// its sides locked. The count of stripped pairs lands in
/// [`PlanStats::pairs_demoted`].
pub fn plan_demoted(
    program: &Program,
    races: &RaceReport,
    profile: &ProfileData,
    opts: &OptSet,
    demoted: &DemotedSet,
) -> Plan {
    let kept = RaceReport {
        pairs: races
            .pairs
            .iter()
            .filter(|p| !demoted.contains(&(p.a, p.b)))
            .copied()
            .collect(),
        witnesses: races
            .pairs
            .iter()
            .zip(&races.witnesses)
            .filter(|(p, _)| !demoted.contains(&(p.a, p.b)))
            .map(|(_, o)| *o)
            .collect(),
    };
    let mut p = plan(program, &kept, profile, opts);
    p.stats.pairs_demoted = (races.pairs.len() - kept.pairs.len()) as u32;
    p
}

/// How many distinct acquire sites the plan creates per granularity —
/// useful for reports and tests.
pub fn plan_site_counts(plan: &Plan) -> BTreeMap<LockGranularity, usize> {
    let mut m = BTreeMap::new();
    m.insert(
        LockGranularity::Function,
        plan.func_locks.values().map(|v| v.len()).sum(),
    );
    m.insert(
        LockGranularity::Loop,
        plan.loop_locks.values().map(|v| v.len()).sum(),
    );
    m.insert(
        LockGranularity::BasicBlock,
        plan.bb_locks.values().map(|v| v.len()).sum(),
    );
    m.insert(
        LockGranularity::Instruction,
        plan.instr_locks.values().map(|v| v.len()).sum(),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;
    use chimera_profile::profile_runs;
    use chimera_relay::detect_races;
    use chimera_runtime::ExecConfig;

    fn plan_for(src: &str, opts: &OptSet) -> (Program, Plan) {
        let p = compile(src).unwrap();
        let races = detect_races(&p);
        let prof = profile_runs(&p, &ExecConfig::default(), &[1, 2, 3]);
        let pl = plan(&p, &races, &prof, opts);
        (p, pl)
    }

    const RACY_LOOP: &str = "int data[64];
        void worker(int base) {
            int j;
            for (j = 0; j < 32; j = j + 1) { data[base + j] = j; }
        }
        int main() { int t1; int t2;
            t1 = spawn(worker, 0); t2 = spawn(worker, 32);
            join(t1); join(t2); return 0; }";

    #[test]
    fn naive_uses_instruction_locks_only() {
        let (_, pl) = plan_for(RACY_LOOP, &OptSet::naive());
        assert!(pl.func_locks.is_empty());
        assert!(pl.loop_locks.is_empty());
        assert!(pl.bb_locks.is_empty());
        assert!(!pl.instr_locks.is_empty());
    }

    #[test]
    fn loop_opt_hoists_with_symbolic_range() {
        let (_, pl) = plan_for(RACY_LOOP, &OptSet::loop_only());
        assert!(!pl.loop_locks.is_empty(), "{pl:?}");
        let spec = pl.loop_locks.values().next().unwrap();
        assert!(spec[0].range.is_some(), "partitioned loop gets a range");
        assert!(pl.instr_locks.is_empty());
    }

    #[test]
    fn non_concurrent_functions_get_clique_function_locks() {
        let src = "int shared;
            void phase1(int n) { shared = n; }
            void phase2(int n) { shared = shared * n; }
            void w(int id) { int t; t = 0; }
            int main() { int t;
                t = spawn(phase1, 3); join(t);
                t = spawn(phase2, 5); join(t);
                return shared; }";
        let (p, pl) = plan_for(src, &OptSet::all());
        let f1 = p.func_by_name("phase1").unwrap().id;
        let f2 = p.func_by_name("phase2").unwrap().id;
        assert!(pl.func_locks.contains_key(&f1), "{pl:?}");
        assert!(pl.func_locks.contains_key(&f2));
        // Both share one clique lock.
        assert_eq!(pl.func_locks[&f1], pl.func_locks[&f2]);
        assert_eq!(pl.stats.cliques, 1);
    }

    #[test]
    fn concurrent_functions_do_not_get_function_locks() {
        let (p, pl) = plan_for(RACY_LOOP, &OptSet::all());
        let w = p.func_by_name("worker").unwrap().id;
        assert!(
            !pl.func_locks.contains_key(&w),
            "two live worker instances observed concurrent"
        );
        // The loop optimization covers them instead.
        assert!(!pl.loop_locks.is_empty());
    }

    #[test]
    fn block_with_call_falls_back_to_instruction_lock() {
        let src = "int g;
            int id(int x) { return x; }
            void w(int n) { g = id(g + n); }
            int main() { int t1; int t2;
                t1 = spawn(w, 1); t2 = spawn(w, 2); join(t1); join(t2); return g; }";
        let (_, pl) = plan_for(src, &OptSet::all());
        // The accesses sit in a block with a call: instruction locks.
        assert!(pl.stats.sides_instr > 0, "{pl:?}");
    }

    #[test]
    fn shared_witness_object_shares_one_lock() {
        let (_, pl) = plan_for(RACY_LOOP, &OptSet::naive());
        // All racy accesses touch the same array: one object lock.
        let all: BTreeSet<WeakLockId> = pl
            .instr_locks
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn opt_presets_match_figure_5_labels() {
        assert!(!OptSet::naive().func_locks);
        assert!(OptSet::func_only().func_locks && !OptSet::func_only().loop_locks);
        assert!(OptSet::loop_only().loop_locks && !OptSet::loop_only().bb_locks);
        let all = OptSet::all();
        assert!(all.func_locks && all.loop_locks && all.bb_locks);
    }

    #[test]
    fn site_counts_are_consistent() {
        let (_, pl) = plan_for(RACY_LOOP, &OptSet::all());
        let counts = plan_site_counts(&pl);
        let total: usize = counts.values().sum();
        assert!(total > 0);
        assert_eq!(
            counts[&LockGranularity::Instruction],
            pl.instr_locks.values().map(|v| v.len()).sum::<usize>()
        );
    }
}
