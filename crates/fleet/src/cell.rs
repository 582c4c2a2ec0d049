//! The exploration **cell**: one `(program, strategy, seed)` probe of the
//! schedule space, the **grid** of cells every hostile sweep runs, and
//! the stable keying that makes cells addressable across processes.
//!
//! [`run_cell`] is the single shared per-cell body — record under a
//! hostile strategy with the single-holder probe, the order hasher and
//! (optionally) FastTrack observing the recording, replay it under a
//! *different* seed of the same strategy, verify observable equivalence,
//! and optionally run FastTrack on the uninstrumented program.
//! [`Grid`] is the single sweep over it: one baseline run per
//! program, each strategy resolved once, cells mapped over
//! `chimera_runtime::par_map`. The orchestrator behind `chimera explore`
//! (journal, resume) and `chimera_plan::gather_evidence` (the
//! demotion evidence) both run it. Keeping one body and one grid is
//! deliberate: sweeps with private copies of the
//! record→replay→verify→probe pipeline would drift, and evidence that a
//! sweep cannot reproduce is worthless.
//!
//! [`CellKey`] names a cell durably: program digest × strategy encoding ×
//! seed × execution-config digest. The journal uses it to make fleet
//! invocations incremental, so the digests must be *stable across
//! processes* (pure FNV over canonical bytes, no hash-map iteration, no
//! pointer identity).

use chimera_drd::{detect, RaceDetector};
use chimera_minic::ir::{AccessId, Program};
use chimera_minic::pretty::program_to_string;
use chimera_replay::wire::fnv64;
use chimera_replay::{record_observed, replay, verify_determinism};
use chimera_runtime::{
    execute, par_map, Event, EventKind, EventMask, ExecConfig, SchedStrategy, SingleHolderProbe,
    Supervisor,
};
use std::collections::BTreeSet;

/// RELAY's static race pairs, for the dynamic-vs-static cross-check.
pub type StaticPairs = BTreeSet<(AccessId, AccessId)>;

/// Everything observed for one `(strategy, seed)` cell.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// The record seed.
    pub seed: u64,
    /// The replay consumed every log entry and exited.
    pub replay_complete: bool,
    /// Record and replay were observably equivalent.
    pub equivalent: bool,
    /// Verifier differences (empty when equivalent).
    pub differences: Vec<String>,
    /// Single-holder invariant violations seen by the probe.
    pub violations: Vec<String>,
    /// Scheduling perturbations the strategy injected during the
    /// recorded schedule (PCT priority changes, forced preemptions).
    pub preemptions: u64,
    /// Weak-lock forced releases (timeouts / hand-offs) during recording.
    pub forced_releases: u64,
    /// FNV-1a hash of the full sync/weak order stream.
    pub order_hash: u64,
    /// Hash of the first 32 order events (schedule prefix identity).
    pub prefix_hash: u64,
    /// Order events observed.
    pub sync_events: u64,
    /// Final memory state hash of the *recorded* run
    /// ([`chimera_runtime::Memory::state_hash`] via `Machine::fold_ordered`) —
    /// what `--check-determinism` double-runs diff, kimberlite-style.
    pub state_hash: u64,
    /// Dynamic racy pairs FastTrack found on the recording of the
    /// instrumented program (`None` when the DRD cross-check was off; must
    /// be 0 otherwise).
    pub drd_races: Option<usize>,
    /// Dynamic racy pairs on the uninstrumented program that RELAY
    /// predicted statically (`None` without the cross-check program).
    pub drd_confirmed: Option<Vec<(AccessId, AccessId)>>,
    /// Dynamic racy pairs on the uninstrumented program that RELAY did
    /// *not* predict statically (`None` without the cross-check program;
    /// must be empty otherwise).
    pub drd_unpredicted: Option<Vec<(AccessId, AccessId)>>,
}

impl SeedOutcome {
    /// Replay reproduced the recording and no invariant or DRD check
    /// failed.
    pub fn clean(&self) -> bool {
        self.replay_complete
            && self.equivalent
            && self.violations.is_empty()
            && self.drd_races.unwrap_or(0) == 0
            && self.drd_unpredicted.as_ref().is_none_or(Vec::is_empty)
    }

    /// The replay failed to reproduce the recording.
    pub fn diverged(&self) -> bool {
        !(self.replay_complete && self.equivalent)
    }
}

/// Observes the sync/weak order of one run: hashes the order stream for
/// coverage counting, delegates weak-lock events to a
/// [`SingleHolderProbe`], and feeds an attached [`RaceDetector`] every
/// event it subscribes to.
#[derive(Debug, Default)]
pub struct ScheduleObserver {
    /// The attached single-holder invariant probe.
    pub probe: SingleHolderProbe,
    /// FNV-1a over the order stream so far.
    pub order_hash: u64,
    /// The hash frozen after [`PREFIX_EVENTS`] events (or the final hash
    /// for shorter runs).
    pub prefix_hash: u64,
    /// Events folded in.
    pub events: u64,
    /// FastTrack on the observed run, when one is attached.
    pub detector: Option<RaceDetector>,
}

/// How many leading order events define a schedule "prefix".
pub const PREFIX_EVENTS: u64 = 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl ScheduleObserver {
    fn fold(&mut self, thread: u32, tag: u64, addr: u64) {
        let mut h = if self.events == 0 {
            FNV_OFFSET
        } else {
            self.order_hash
        };
        for word in [u64::from(thread), tag, addr] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        self.order_hash = h;
        self.events += 1;
        if self.events <= PREFIX_EVENTS {
            self.prefix_hash = h;
        }
    }
}

impl Supervisor for ScheduleObserver {
    fn event_mask(&self) -> EventMask {
        let order = EventMask::of(&[
            EventKind::Sync,
            EventKind::WeakAcquire,
            EventKind::WeakRelease,
            EventKind::WeakForcedRelease,
        ]);
        match &self.detector {
            Some(d) => order.union(d.event_mask()),
            None => order,
        }
    }

    fn on_event(&mut self, ev: &Event) {
        if let Some(d) = self.detector.as_mut() {
            d.on_event(ev);
        }
        self.probe.on_event(ev);
        match *ev {
            Event::Sync {
                thread, kind, addr, ..
            } => {
                let tag = match kind {
                    chimera_runtime::SyncKind::Mutex => 1,
                    chimera_runtime::SyncKind::Cond => 2,
                    chimera_runtime::SyncKind::Barrier => 3,
                    chimera_runtime::SyncKind::Join => 4,
                    chimera_runtime::SyncKind::Spawn => 5,
                };
                self.fold(thread.0, tag, addr as u64);
            }
            Event::WeakAcquire { thread, lock, .. } => self.fold(thread.0, 6, u64::from(lock.0)),
            Event::WeakRelease { thread, lock, .. } => self.fold(thread.0, 7, u64::from(lock.0)),
            Event::WeakForcedRelease { holder, lock, .. } => {
                self.fold(holder.0, 8, u64::from(lock.0))
            }
            _ => {}
        }
    }
}

/// Resolve a strategy against a program's baseline step count: PCT with
/// `span: 0` ("auto") gets the measured retired-instruction count so its
/// change points actually land inside the run.
pub fn resolve_strategy(sched: SchedStrategy, baseline_instrs: u64) -> SchedStrategy {
    match sched {
        SchedStrategy::Pct { depth, span: 0 } => SchedStrategy::Pct {
            depth,
            span: baseline_instrs.max(1),
        },
        other => other,
    }
}

/// The seed a recording made under `seed` is replayed under
/// (`seed·0x9e3779b9 + 1`): a different seed, so the log and not the
/// scheduler must decide the run.
pub fn replay_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(1)
}

/// Run one exploration cell: record under `(sched, seed)` while probing
/// the single-holder invariant, hashing the order stream and (with
/// `check_drd`) running FastTrack on the recording, hostile-replay under
/// [`replay_seed`] with the same strategy, verify, and (with `check_drd`
/// and `drd_cross`) run FastTrack on the uninstrumented original,
/// splitting that run's racy pairs by `drd_cross`'s static pairs.
///
/// This is the one per-cell body, with two callers:
/// `chimera_plan::gather_evidence` runs it through [`Grid::sweep`], and
/// the fleet orchestrator over the journal misses among [`Grid::cells`]. The result is a pure function of
/// `(program, sched, seed, exec, check_drd)`.
pub fn run_cell(
    program: &Program,
    drd_cross: Option<(&Program, &StaticPairs)>,
    sched: SchedStrategy,
    seed: u64,
    exec: &ExecConfig,
    check_drd: bool,
) -> SeedOutcome {
    let run_cfg = ExecConfig {
        seed,
        sched,
        ..*exec
    };
    // The probe, the order hasher and FastTrack observe the recording
    // itself, so they see exactly the recorded schedule.
    let mut obs = ScheduleObserver {
        detector: check_drd.then(|| RaceDetector::new(program)),
        ..ScheduleObserver::default()
    };
    let rec = record_observed(program, &run_cfg, &mut obs);
    // Hostile replay: same adversarial strategy, different seed. The
    // recorded order must still fully determine the run.
    let rep = replay(
        program,
        &rec.logs,
        &ExecConfig {
            seed: replay_seed(seed),
            ..run_cfg
        },
    );
    let verdict = verify_determinism(&rec.result, &rep.result);
    let drd_races = obs.detector.map(|d| d.into_report().pairs.len());
    // No run of the uninstrumented program exists yet: it gets its own.
    let (drd_confirmed, drd_unpredicted) = drd_cross
        .filter(|_| check_drd)
        .map(|(orig, statics)| {
            let pairs = detect(orig, &run_cfg).report.pairs;
            pairs.into_iter().partition(|p| statics.contains(p))
        })
        .unzip();
    SeedOutcome {
        seed,
        replay_complete: rep.complete,
        equivalent: verdict.equivalent,
        differences: verdict.differences,
        violations: std::mem::take(&mut obs.probe.violations),
        preemptions: rec.result.stats.sched_preemptions,
        forced_releases: rec.result.stats.forced_releases,
        order_hash: obs.order_hash,
        prefix_hash: obs.prefix_hash,
        sync_events: obs.events,
        state_hash: rec.result.state_hash,
        drd_races,
        drd_confirmed,
        drd_unpredicted,
    }
}

/// The hostile grid: strategies × seeds on one base execution
/// configuration, swept on `jobs` workers. The fleet's `FleetConfig`
/// holds one and `chimera_plan::GatherConfig` is one, so both sweeps
/// share its one default.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Scheduling strategies. PCT entries with `span: 0` are auto-sized
    /// to the program's baseline retired-instruction count.
    pub strategies: Vec<SchedStrategy>,
    /// Record seeds; each replays under [`replay_seed`].
    pub seeds: Vec<u64>,
    /// Base execution configuration; `seed` and `sched` are overridden
    /// per cell.
    pub exec: ExecConfig,
    /// Worker threads: 0 = auto (`available_parallelism`), 1 = serial,
    /// N = exactly N. No outcome depends on it.
    pub jobs: usize,
}

impl Default for Grid {
    /// Clock jitter, PCT depth 3 and preemption-bounded, over seeds 1–3.
    fn default() -> Self {
        Grid {
            strategies: vec![
                SchedStrategy::ClockJitter,
                SchedStrategy::pct(3),
                SchedStrategy::preempt_bound(),
            ],
            seeds: vec![1, 2, 3],
            exec: ExecConfig::default(),
            jobs: 0,
        }
    }
}

/// One cell of a program's grid.
#[derive(Debug, Clone, Copy)]
pub struct GridCell {
    /// Index into [`Grid::strategies`] (the strategy as written).
    pub strategy: usize,
    /// That strategy resolved against the program's baseline.
    pub sched: SchedStrategy,
    /// The record seed.
    pub seed: u64,
}

impl Grid {
    /// The program's cells, strategy-major then seed. One baseline run
    /// sizes PCT auto-spans and each strategy is resolved once:
    /// resolution is a pure function of the strategy and the baseline
    /// instruction count, so per-cell resolution could never differ.
    pub fn cells(&self, program: &Program) -> Vec<GridCell> {
        let instrs = execute(program, &self.exec).stats.instrs;
        let mut cells = Vec::with_capacity(self.strategies.len() * self.seeds.len());
        for (strategy, &s) in self.strategies.iter().enumerate() {
            let sched = resolve_strategy(s, instrs);
            cells.extend(self.seeds.iter().map(|&seed| GridCell {
                strategy,
                sched,
                seed,
            }));
        }
        cells
    }

    /// Run [`run_cell`] over every cell of the program's grid on `jobs`
    /// workers. Outcomes come back in cell order, so the result is
    /// bit-identical at every worker count.
    pub fn sweep(
        &self,
        program: &Program,
        drd_cross: Option<(&Program, &StaticPairs)>,
        check_drd: bool,
    ) -> Vec<(GridCell, SeedOutcome)> {
        par_map(&self.cells(program), self.jobs, |&c| {
            let o = run_cell(program, drd_cross, c.sched, c.seed, &self.exec, check_drd);
            (c, o)
        })
    }
}

/// Durable identity of one exploration cell.
///
/// Two fleet invocations (possibly days apart, possibly on different
/// grids) that would execute the same work produce the same key, which is
/// exactly what lets `--resume` skip it. Strategy parameters are keyed
/// *unresolved* (PCT auto-span as written, before per-program sizing):
/// resolution is a deterministic function of the program and exec
/// config, both already in the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// FNV-1a digest of the canonical pretty-printed program.
    pub program: u64,
    /// Strategy discriminant: 0 = jitter, 1 = pct, 2 = preempt-bound.
    pub strat: u8,
    /// First strategy parameter (PCT depth / preemption budget).
    pub strat_a: u64,
    /// Second strategy parameter (PCT span / preemption period).
    pub strat_b: u64,
    /// The record seed.
    pub seed: u64,
    /// Digest of the execution configuration and check flags
    /// ([`exec_digest`]).
    pub exec: u64,
}

impl CellKey {
    /// Build a key for `(program, sched, seed)` under an already-computed
    /// program digest and exec digest.
    pub fn new(program: u64, sched: SchedStrategy, seed: u64, exec: u64) -> CellKey {
        let (strat, strat_a, strat_b) = strategy_code(sched);
        CellKey {
            program,
            strat,
            strat_a,
            strat_b,
            seed,
            exec,
        }
    }

    /// Human-readable strategy name for this key.
    pub fn strategy_name(&self) -> &'static str {
        match self.strat {
            0 => "jitter",
            1 => "pct",
            _ => "preempt-bound",
        }
    }
}

/// Canonical `(discriminant, a, b)` encoding of a strategy.
pub fn strategy_code(sched: SchedStrategy) -> (u8, u64, u64) {
    match sched {
        SchedStrategy::ClockJitter => (0, 0, 0),
        SchedStrategy::Pct { depth, span } => (1, u64::from(depth), span),
        SchedStrategy::PreemptBound { budget, period } => (2, u64::from(budget), period),
    }
}

/// Inverse of [`strategy_code`]; rejects unknown discriminants (journals
/// written by future builds must fail loudly, not misparse).
pub fn strategy_from_code(code: u8, a: u64, b: u64) -> Result<SchedStrategy, String> {
    Ok(match code {
        0 => SchedStrategy::ClockJitter,
        1 => SchedStrategy::Pct {
            depth: u32::try_from(a).map_err(|_| "pct depth overflow".to_string())?,
            span: b,
        },
        2 => SchedStrategy::PreemptBound {
            budget: u32::try_from(a).map_err(|_| "preempt budget overflow".to_string())?,
            period: b,
        },
        other => return Err(format!("unknown strategy code {other}")),
    })
}

/// Stable digest of a program: FNV-1a over its canonical pretty-printed
/// IR. Any semantic edit (different instrumentation plan, different
/// source) changes the text, so stale journal entries can never be
/// mistaken for the current program's cells.
pub fn program_digest(program: &Program) -> u64 {
    fnv64(program_to_string(program).as_bytes())
}

/// Stable digest of the execution configuration a cell runs under, plus
/// the check flags that change what a cell's outcome even *means*
/// (`check_drd` adds detector columns, `check_determinism` adds the
/// double-run verdict). Seed, strategy, and orchestration-level
/// parallelism are deliberately excluded — the first two are keyed
/// separately, the last cannot affect any outcome bit.
///
/// A cell's detector count describes its recording (`drd=rec`). Cells
/// keyed `drd=1` counted an unlogged rerun instead, so their journal
/// entries miss and re-run; cells swept without the check keep `drd=0`.
pub fn exec_digest(exec: &ExecConfig, check_drd: bool, check_determinism: bool) -> u64 {
    // Debug formatting of the plain-data config structs is canonical
    // within a build and changes only when the config surface itself
    // changes — exactly when old journal entries *should* be invalidated.
    // `log` prints three times: it replaced three flags (sync, weak and
    // input logging) that were always set together, and repeating it
    // keeps the cell keys of existing journals valid.
    let l = exec.log as u8;
    let drd = if check_drd { "rec" } else { "0" };
    let canon = format!(
        "cost={:?}|jitter={:?}|io={:?}|max_steps={}|weak_timeout={}|timeout_enabled={}|\
         log={l}{l}{l}|was={}|drd={drd}|det={}",
        exec.cost,
        exec.jitter,
        exec.io,
        exec.max_steps,
        exec.weak_timeout,
        exec.timeout_enabled,
        exec.weak_always_succeed as u8,
        check_determinism as u8,
    );
    fnv64(canon.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    const RACY: &str = "int g;
        void w(int v) { int i; int x;
            for (i = 0; i < 40; i = i + 1) { x = g; g = x + v; } }
        int main() { int t; t = spawn(w, 1); w(2); join(t); print(g); return 0; }";

    #[test]
    fn run_cell_is_a_pure_function_of_its_key() {
        let p = compile(RACY).unwrap();
        let exec = ExecConfig::default();
        let a = run_cell(&p, None, SchedStrategy::pct(3), 7, &exec, false);
        let b = run_cell(&p, None, SchedStrategy::pct(3), 7, &exec, false);
        assert_eq!(a.order_hash, b.order_hash);
        assert_eq!(a.prefix_hash, b.prefix_hash);
        assert_eq!(a.state_hash, b.state_hash);
        assert_eq!(a.equivalent, b.equivalent);
        assert_eq!(a.preemptions, b.preemptions);
    }

    #[test]
    fn digests_separate_programs_configs_and_strategies() {
        let p = compile(RACY).unwrap();
        let q = compile("int main() { print(1); return 0; }").unwrap();
        assert_ne!(program_digest(&p), program_digest(&q));

        let exec = ExecConfig::default();
        let base = exec_digest(&exec, false, false);
        assert_eq!(base, exec_digest(&exec, false, false));
        assert_ne!(base, exec_digest(&exec, true, false));
        // Since detector counts describe the recording, cells swept
        // without the check keep their old keys, and `--drd` cells keyed
        // under the rerun rule miss.
        assert_eq!(base, 0xfdf2_9ab7_4edb_e1f4);
        assert_ne!(exec_digest(&exec, true, false), 0x24b5_047a_648e_b447);
        assert_ne!(base, exec_digest(&exec, false, true));
        let slow = ExecConfig {
            weak_timeout: 9,
            ..exec
        };
        assert_ne!(base, exec_digest(&slow, false, false));

        let k1 = CellKey::new(1, SchedStrategy::pct(3), 5, base);
        let k2 = CellKey::new(1, SchedStrategy::pct(4), 5, base);
        let k3 = CellKey::new(1, SchedStrategy::preempt_bound(), 5, base);
        assert!(k1 != k2 && k1 != k3 && k2 != k3);
        assert_eq!(k1.strategy_name(), "pct");
        assert_eq!(k3.strategy_name(), "preempt-bound");
    }

    #[test]
    fn pct_auto_span_resolves_to_baseline_instrs() {
        assert_eq!(
            resolve_strategy(SchedStrategy::pct(3), 12_345),
            SchedStrategy::Pct {
                depth: 3,
                span: 12_345
            }
        );
        let fixed = SchedStrategy::Pct { depth: 2, span: 77 };
        assert_eq!(resolve_strategy(fixed, 12_345), fixed);
        assert_eq!(
            resolve_strategy(SchedStrategy::ClockJitter, 9),
            SchedStrategy::ClockJitter
        );
    }

    #[test]
    fn strategy_codes_round_trip() {
        for s in [
            SchedStrategy::ClockJitter,
            SchedStrategy::pct(3),
            SchedStrategy::Pct { depth: 2, span: 99 },
            SchedStrategy::preempt_bound(),
        ] {
            let (c, a, b) = strategy_code(s);
            assert_eq!(strategy_from_code(c, a, b).unwrap(), s);
        }
        assert!(strategy_from_code(9, 0, 0).is_err());
    }
}
