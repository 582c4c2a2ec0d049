//! Offline profiling of non-concurrent functions and loop-body sizes
//! (paper §4 and §5.3).
//!
//! Chimera profiles the *uninstrumented* program over a set of
//! representative inputs (the paper used 20 runs per benchmark, with
//! inputs deliberately different from the evaluation inputs). Two facts are
//! collected:
//!
//! * **Concurrent function pairs** — pairs of functions observed executing
//!   at overlapping times on different threads in *any* profile run. A racy
//!   function pair that is never observed concurrent becomes a candidate
//!   for a coarse function-granularity weak-lock.
//! * **Loop statistics** — average dynamic instructions per loop iteration,
//!   used by the instrumenter's loop-body-threshold rule when symbolic
//!   bounds are too imprecise (§5.3).
//!
//! Functions are keyed by *name* (not id) so profiles taken on one input
//! variant of a workload apply to another variant of the same source.
//!
//! # Quickstart
//!
//! ```
//! use chimera_minic::compile;
//! use chimera_profile::{profile_runs, ProfileData};
//! use chimera_runtime::ExecConfig;
//!
//! let p = compile(
//!     "int g; lock_t m;
//!      void w(int n) { lock(&m); g = g + n; unlock(&m); }
//!      int main() { int t; t = spawn(w, 1); w(2); join(t); return 0; }",
//! )
//! .unwrap();
//! let data = profile_runs(&p, &ExecConfig::default(), &[1, 2, 3]);
//! assert_eq!(data.runs, 3);
//! assert!(data.was_executed("w"));
//! ```

#![warn(missing_docs)]

use chimera_minic::cfg::{Cfg, Dominators};
use chimera_minic::ir::{BlockId, FuncId, Program};
use chimera_minic::loops::LoopForest;
use chimera_runtime::{execute_supervised, Event, EventKind, EventMask, ExecConfig, Supervisor};
use std::collections::{BTreeMap, BTreeSet};

/// Merged profiling facts across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileData {
    /// Number of profile runs merged in.
    pub runs: u32,
    /// Functions observed executing at least once.
    pub executed: BTreeSet<String>,
    /// Function pairs observed concurrent (normalized `a <= b`; includes
    /// self-pairs when two instances of one function overlapped).
    pub concurrent: BTreeSet<(String, String)>,
    /// Per `(function, loop-header block)` total iterations observed.
    pub loop_iters: BTreeMap<(String, u32), u64>,
    /// Per `(function, loop-header block)` total dynamic instructions
    /// attributed to the loop body.
    pub loop_instrs: BTreeMap<(String, u32), u64>,
}

impl ProfileData {
    /// Was the pair ever observed concurrent?
    pub fn observed_concurrent(&self, a: &str, b: &str) -> bool {
        let key = if a <= b {
            (a.to_string(), b.to_string())
        } else {
            (b.to_string(), a.to_string())
        };
        self.concurrent.contains(&key)
    }

    /// Profiling evidence of non-concurrency: both functions executed in
    /// at least one run and were never seen overlapping. Functions that
    /// never executed give no evidence (conservatively "may be
    /// concurrent").
    pub fn likely_non_concurrent(&self, a: &str, b: &str) -> bool {
        self.was_executed(a) && self.was_executed(b) && !self.observed_concurrent(a, b)
    }

    /// Did this function run during profiling?
    pub fn was_executed(&self, f: &str) -> bool {
        self.executed.contains(f)
    }

    /// Average dynamic instructions per iteration of a loop, if observed.
    pub fn avg_loop_body(&self, func: &str, header: BlockId) -> Option<f64> {
        let key = (func.to_string(), header.0);
        let iters = *self.loop_iters.get(&key)?;
        if iters == 0 {
            return None;
        }
        Some(*self.loop_instrs.get(&key)? as f64 / iters as f64)
    }

    /// Merge another profile in (set union / counter sum).
    pub fn merge(&mut self, other: &ProfileData) {
        self.runs += other.runs;
        self.executed.extend(other.executed.iter().cloned());
        self.concurrent.extend(other.concurrent.iter().cloned());
        for (k, v) in &other.loop_iters {
            *self.loop_iters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.loop_instrs {
            *self.loop_instrs.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// A dense `n × n` bit matrix over function ids.
#[derive(Debug, Clone)]
struct FuncMatrix {
    /// `u64` words per row.
    stride: usize,
    words: Vec<u64>,
}

impl FuncMatrix {
    fn new(n: usize) -> FuncMatrix {
        let stride = n.div_ceil(64);
        FuncMatrix {
            stride,
            words: vec![0; n * stride],
        }
    }

    fn row(&self, f: usize) -> &[u64] {
        &self.words[f * self.stride..(f + 1) * self.stride]
    }

    fn row_mut(&mut self, f: usize) -> &mut [u64] {
        &mut self.words[f * self.stride..(f + 1) * self.stride]
    }

    fn contains(&self, a: usize, b: usize) -> bool {
        self.row(a)[b / 64] & (1 << (b % 64)) != 0
    }

    fn union_from(&mut self, other: &FuncMatrix) {
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d |= s;
        }
    }
}

/// One thread's view for [`ConcurrencyObserver`].
#[derive(Debug, Clone)]
struct ThreadStack {
    /// Active functions, innermost last.
    frames: Vec<FuncId>,
    /// Activations per function on this stack (recursion stacks one
    /// function several times).
    depth: Vec<u32>,
    /// Bitset of functions with `depth > 0`.
    live: Vec<u64>,
}

/// Observes function enter/exit events, maintaining per-thread stacks; any
/// two functions live on different threads at the same commit point are
/// concurrent (commit order is non-decreasing in virtual start time, so
/// stack co-residency implies temporal overlap).
///
/// An entering function's row of `seen` absorbs the live sets of every
/// other thread, so `seen[f][g]` means "`f` entered while `g` was live
/// elsewhere"; the concurrent pairs are that relation made symmetric.
#[derive(Debug)]
struct ConcurrencyObserver {
    n: usize,
    threads: Vec<ThreadStack>,
    seen: FuncMatrix,
    executed: Vec<bool>,
}

impl ConcurrencyObserver {
    fn new(n: usize) -> ConcurrencyObserver {
        ConcurrencyObserver {
            n,
            threads: Vec::new(),
            seen: FuncMatrix::new(n),
            executed: vec![false; n],
        }
    }
}

impl Supervisor for ConcurrencyObserver {
    /// Concurrency is derived purely from function enter/exit pairs — the
    /// machine can skip constructing every other event kind.
    fn event_mask(&self) -> EventMask {
        EventMask::of(&[EventKind::FuncEnter, EventKind::FuncExit])
    }

    fn on_event(&mut self, ev: &Event) {
        match ev {
            Event::FuncEnter { thread, func, .. } => {
                let (t, f) = (thread.index(), func.index());
                self.executed[f] = true;
                let row = self.seen.row_mut(f);
                for (u, other) in self.threads.iter().enumerate() {
                    if u != t {
                        for (d, s) in row.iter_mut().zip(&other.live) {
                            *d |= s;
                        }
                    }
                }
                if self.threads.len() <= t {
                    let empty = ThreadStack {
                        frames: Vec::new(),
                        depth: vec![0; self.n],
                        live: vec![0; self.seen.stride],
                    };
                    self.threads.resize(t + 1, empty);
                }
                let stack = &mut self.threads[t];
                stack.frames.push(*func);
                stack.depth[f] += 1;
                stack.live[f / 64] |= 1 << (f % 64);
            }
            Event::FuncExit { thread, .. } => {
                let Some(stack) = self.threads.get_mut(thread.index()) else {
                    return;
                };
                if let Some(g) = stack.frames.pop() {
                    let g = g.index();
                    stack.depth[g] -= 1;
                    if stack.depth[g] == 0 {
                        stack.live[g / 64] &= !(1 << (g % 64));
                    }
                }
            }
            _ => {}
        }
    }
}

/// The loops of every function, found once per profiled program:
/// `(function, header, body blocks)`.
fn program_loops(program: &Program) -> Vec<(FuncId, BlockId, Vec<BlockId>)> {
    let mut out = Vec::new();
    for f in &program.funcs {
        let cfg = Cfg::new(f);
        let dom = Dominators::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        for l in forest.loops {
            out.push((f.id, l.header, l.blocks.into_iter().collect()));
        }
    }
    out
}

/// Profiling facts of one or more runs, indexed by `FuncId` and loop
/// number; converted to the name-keyed [`ProfileData`] once.
#[derive(Debug, Clone)]
struct DenseProfile {
    runs: u32,
    executed: Vec<bool>,
    seen: FuncMatrix,
    /// Per loop of [`program_loops`]: total iterations and body
    /// instructions, summed over the runs in which the loop iterated.
    loop_iters: Vec<u64>,
    loop_instrs: Vec<u64>,
}

impl DenseProfile {
    fn merge(&mut self, other: &DenseProfile) {
        self.runs += other.runs;
        for (d, s) in self.executed.iter_mut().zip(&other.executed) {
            *d |= s;
        }
        self.seen.union_from(&other.seen);
        for (d, s) in self.loop_iters.iter_mut().zip(&other.loop_iters) {
            *d += s;
        }
        for (d, s) in self.loop_instrs.iter_mut().zip(&other.loop_instrs) {
            *d += s;
        }
    }

    fn to_profile_data(
        &self,
        program: &Program,
        loops: &[(FuncId, BlockId, Vec<BlockId>)],
    ) -> ProfileData {
        let name = |f: usize| program.funcs[f].name.clone();
        let mut data = ProfileData {
            runs: self.runs,
            ..ProfileData::default()
        };
        // Visit functions in name order, so the name pairs come out sorted
        // and the sets are bulk-built rather than grown by insertion.
        let mut by_name: Vec<usize> = (0..program.funcs.len()).collect();
        by_name.sort_by(|&a, &b| program.funcs[a].name.cmp(&program.funcs[b].name));
        data.executed = by_name.iter().filter(|&&f| self.executed[f]).map(|&f| name(f)).collect();
        let mut concurrent = Vec::new();
        for (i, &a) in by_name.iter().enumerate() {
            for &b in &by_name[i..] {
                if self.seen.contains(a, b) || self.seen.contains(b, a) {
                    concurrent.push((name(a), name(b)));
                }
            }
        }
        data.concurrent = concurrent.into_iter().collect();
        for (k, (f, header, _)) in loops.iter().enumerate() {
            if self.loop_iters[k] == 0 {
                continue;
            }
            let key = (name(f.index()), header.0);
            *data.loop_iters.entry(key.clone()).or_insert(0) += self.loop_iters[k];
            *data.loop_instrs.entry(key).or_insert(0) += self.loop_instrs[k];
        }
        data
    }
}

/// Run one profile execution and keep its facts dense.
fn profile_dense(
    program: &Program,
    config: &ExecConfig,
    loops: &[(FuncId, BlockId, Vec<BlockId>)],
) -> DenseProfile {
    let mut obs = ConcurrencyObserver::new(program.funcs.len());
    let cfg = ExecConfig {
        count_blocks: true,
        log: false,
        ..*config
    };
    let result = execute_supervised(program, &cfg, &mut obs);
    let mut loop_iters = vec![0; loops.len()];
    let mut loop_instrs = vec![0; loops.len()];
    // Loop statistics from block counts.
    for (k, (f, header, blocks)) in loops.iter().enumerate() {
        let counts = &result.block_counts[f.index()];
        let iters = counts[header.index()];
        if iters == 0 {
            continue;
        }
        let func = &program.funcs[f.index()];
        loop_iters[k] = iters;
        loop_instrs[k] = blocks
            .iter()
            .map(|b| counts[b.index()] * (func.block(*b).instrs.len() as u64 + 1))
            .sum();
    }
    DenseProfile {
        runs: 1,
        executed: obs.executed,
        seen: obs.seen,
        loop_iters,
        loop_instrs,
    }
}

/// Run one profile execution and distill it into [`ProfileData`].
pub fn profile_once(program: &Program, config: &ExecConfig) -> ProfileData {
    let loops = program_loops(program);
    profile_dense(program, config, &loops).to_profile_data(program, &loops)
}

/// Profile `program` over several seeds (standing in for the paper's
/// "various inputs") and merge the results.
///
/// Runs are independent, so they execute in parallel via
/// [`chimera_runtime::par_map`]. Each run's facts stay dense (function
/// bit matrices and per-loop counters); they are merged in seed order
/// and translated to the name-keyed [`ProfileData`] once, so the result
/// is identical to folding [`profile_once`] over the seeds with
/// [`ProfileData::merge`].
pub fn profile_runs(program: &Program, base: &ExecConfig, seeds: &[u64]) -> ProfileData {
    let loops = program_loops(program);
    let per_seed = chimera_runtime::par_map(seeds, 0, |&seed| {
        let cfg = ExecConfig {
            seed,
            ..*base
        };
        profile_dense(program, &cfg, &loops)
    });
    let Some((first, rest)) = per_seed.split_first() else {
        return ProfileData::default();
    };
    let mut merged = first.clone();
    for data in rest {
        merged.merge(data);
    }
    merged.to_profile_data(program, &loops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    #[test]
    fn concurrent_workers_detected() {
        let p = compile(
            "int a; int b;
             void w1(int n) { int i; for (i = 0; i < 500; i = i + 1) { a = a + 1; } }
             void w2(int n) { int i; for (i = 0; i < 500; i = i + 1) { b = b + 1; } }
             int main() { int t1; int t2;
                t1 = spawn(w1, 0); t2 = spawn(w2, 0); join(t1); join(t2); return 0; }",
        )
        .unwrap();
        let d = profile_runs(&p, &ExecConfig::default(), &[1]);
        assert!(d.observed_concurrent("w1", "w2"));
        assert!(!d.likely_non_concurrent("w1", "w2"));
    }

    #[test]
    fn sequential_phases_are_non_concurrent() {
        // w2 only runs after w1's thread is joined: never concurrent.
        let p = compile(
            "int a;
             void w1(int n) { int i; for (i = 0; i < 200; i = i + 1) { a = a + 1; } }
             void w2(int n) { int i; for (i = 0; i < 200; i = i + 1) { a = a + 1; } }
             int main() { int t;
                t = spawn(w1, 0); join(t);
                t = spawn(w2, 0); join(t); return 0; }",
        )
        .unwrap();
        let d = profile_runs(&p, &ExecConfig::default(), &[1, 2, 3]);
        assert!(d.likely_non_concurrent("w1", "w2"));
    }

    #[test]
    fn barrier_separated_phases_non_concurrent() {
        // The paper's water pattern (Fig. 2): bndry and interf are
        // separated by a barrier inside the same worker function.
        let p = compile(
            "int shared; barrier_t bar;
             void interf(int id) { shared = shared + id; }
             void bndry(int id) { shared = shared * 2; }
             void w(int id) { interf(id); barrier_wait(&bar); bndry(id); }
             int main() { int t1; int t2;
                barrier_init(&bar, 2);
                t1 = spawn(w, 1); t2 = spawn(w, 2);
                join(t1); join(t2); return shared; }",
        )
        .unwrap();
        let d = profile_runs(&p, &ExecConfig::default(), &[1, 2, 3, 4, 5]);
        // interf runs before the barrier, bndry after: never concurrent.
        assert!(
            d.likely_non_concurrent("interf", "bndry"),
            "concurrent set: {:?}",
            d.concurrent
        );
        // But w overlaps with itself (two instances).
        assert!(d.observed_concurrent("w", "w"));
    }

    #[test]
    fn self_pair_for_multi_instance_worker() {
        let p = compile(
            "int g;
             void w(int n) { int i; for (i = 0; i < 300; i = i + 1) { g = g + 1; } }
             int main() { int t1; int t2;
                t1 = spawn(w, 0); t2 = spawn(w, 0); join(t1); join(t2); return 0; }",
        )
        .unwrap();
        let d = profile_runs(&p, &ExecConfig::default(), &[7]);
        assert!(d.observed_concurrent("w", "w"));
    }

    #[test]
    fn loop_body_size_estimated() {
        let p = compile(
            "int acc;
             int main() { int i;
                for (i = 0; i < 100; i = i + 1) { acc = acc + i * 2 + 1; }
                return acc; }",
        )
        .unwrap();
        let d = profile_runs(&p, &ExecConfig::default(), &[1]);
        // Exactly one loop profiled; body is a handful of instructions.
        assert_eq!(d.loop_iters.len(), 1);
        let (key, iters) = d.loop_iters.iter().next().unwrap();
        assert!(*iters >= 100, "{iters}");
        let avg = d
            .avg_loop_body("main", BlockId(key.1))
            .expect("loop observed");
        assert!(avg > 2.0 && avg < 40.0, "avg {avg}");
    }

    #[test]
    fn merge_accumulates_runs_and_pairs() {
        let mut a = ProfileData {
            runs: 1,
            ..ProfileData::default()
        };
        a.executed.insert("f".into());
        let mut b = ProfileData {
            runs: 2,
            ..ProfileData::default()
        };
        b.executed.insert("g".into());
        b.concurrent.insert(("f".into(), "g".into()));
        a.merge(&b);
        assert_eq!(a.runs, 3);
        assert!(a.was_executed("g"));
        assert!(a.observed_concurrent("g", "f"));
    }

    #[test]
    fn unexecuted_function_gives_no_evidence() {
        let p = compile(
            "int g;
             void never(int n) { g = n; }
             int main() { return 0; }",
        )
        .unwrap();
        let d = profile_runs(&p, &ExecConfig::default(), &[1]);
        assert!(!d.likely_non_concurrent("never", "main"));
    }

    #[test]
    fn parallel_merge_equals_serial_merge() {
        // profile_runs fans seeds out across threads; the merged result
        // must be exactly what a serial per-seed fold produces.
        let p = compile(
            "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 200; i = i + 1) {
                lock(&m); g = g + 1; unlock(&m); } }
             int main() { int t1; int t2;
                t1 = spawn(w, 0); t2 = spawn(w, 0); w(0);
                join(t1); join(t2); return 0; }",
        )
        .unwrap();
        let base = ExecConfig::default();
        let seeds: Vec<u64> = (0..12).map(|i| i * 31 + 5).collect();
        let parallel = profile_runs(&p, &base, &seeds);
        let mut serial = ProfileData::default();
        for &seed in &seeds {
            let cfg = ExecConfig { seed, ..base };
            serial.merge(&profile_once(&p, &cfg));
        }
        assert_eq!(parallel, serial);
    }

    #[test]
    fn saturation_more_runs_only_grow_the_set() {
        let p = compile(
            "int g;
             void w(int n) { int i; for (i = 0; i < 100; i = i + 1) { g = g + 1; } }
             int main() { int t; t = spawn(w, 0); w(0); join(t); return 0; }",
        )
        .unwrap();
        let d1 = profile_runs(&p, &ExecConfig::default(), &[1]);
        let d5 = profile_runs(&p, &ExecConfig::default(), &[1, 2, 3, 4, 5]);
        assert!(d5.concurrent.is_superset(&d1.concurrent));
    }
}
