//! The weak part of weak-locks (paper §2.3): a weak-lock held across a
//! blocking wait must not deadlock the program — the runtime forcibly
//! preempts the holder, hands the lock to the starving waiter, and the
//! forced release is recorded (holder + instruction count) and re-injected
//! on replay.
//!
//! The paper's benchmarks never triggered this path ("none of our
//! benchmarks have exhibited a weak-lock timeout"); these tests construct
//! the condvar-deadlock scenario deliberately and verify both liveness and
//! replay fidelity.

use chimera_minic::compile;
use chimera_minic::diag::Span;
use chimera_minic::ir::{
    FuncId, Instr, LockGranularity, Program, Terminator, WeakLockId,
};
use chimera_replay::{record, replay, verify_determinism, JournalEvent, ReplayLogs, Replayer};
use chimera_runtime::{
    execute, execute_supervised, execute_supervised_mode, ExecConfig, InterpMode, SchedStrategy,
    SingleHolderProbe,
};

/// Wrap the whole body of `func` in weak-lock `lock` — the hand-rolled
/// equivalent of a function-granularity instrumentation decision.
fn wrap_function_in_weak_lock(program: &mut Program, func: FuncId, lock: WeakLockId) {
    let f = &mut program.funcs[func.index()];
    let entry = f.entry;
    f.block_mut(entry).instrs.insert(
        0,
        Instr::WeakAcquire {
            lock,
            granularity: LockGranularity::Function,
            range: None,
        },
    );
    f.block_mut(entry).spans.insert(0, Span::default());
    for b in 0..f.blocks.len() {
        if matches!(f.blocks[b].term, Terminator::Return(_)) {
            f.blocks[b]
                .instrs
                .push(Instr::WeakRelease { lock });
            f.blocks[b].spans.push(Span::default());
        }
    }
    program.weak_locks = program.weak_locks.max(lock.0 + 1);
}

/// A consumer blocks in `cond_wait` while (artificially) holding a
/// weak-lock; the producer needs that same weak-lock to reach its
/// `cond_signal`. Without §2.3's timeout this deadlocks forever.
const CONDVAR_DEADLOCK: &str = r#"
    int ready; int data; lock_t m; cond_t c;
    void consumer(int unused) {
        lock(&m);
        while (ready == 0) {
            cond_wait(&c, &m);
        }
        print(data);
        unlock(&m);
    }
    void producer(int v) {
        lock(&m);
        data = v;
        ready = 1;
        cond_signal(&c);
        unlock(&m);
    }
    int main() {
        int t1; int t2;
        t1 = spawn(consumer, 0);
        t2 = spawn(producer, 77);
        join(t1);
        join(t2);
        return 0;
    }
"#;

fn deadlocky_program() -> Program {
    let mut p = compile(CONDVAR_DEADLOCK).expect("valid MiniC");
    let consumer = p.func_by_name("consumer").unwrap().id;
    let producer = p.func_by_name("producer").unwrap().id;
    // One shared weak-lock held for both whole bodies: the consumer parks
    // inside cond_wait still holding it; the producer stalls acquiring it.
    wrap_function_in_weak_lock(&mut p, consumer, WeakLockId(0));
    wrap_function_in_weak_lock(&mut p, producer, WeakLockId(0));
    p
}

fn exec_with_timeout(timeout: u64) -> ExecConfig {
    ExecConfig {
        weak_timeout: timeout,
        ..ExecConfig::default()
    }
}

/// Does the recording's journal hold a forced release?
fn has_forced(logs: &ReplayLogs) -> bool {
    logs.journal.iter().any(|e| matches!(e, JournalEvent::Forced { .. }))
}

/// Replay `logs` through a [`Replayer`] in both interpreter modes,
/// configured as [`replay`] configures `base`. A recording that holds
/// forced releases makes the replayer inject them, which may preempt a
/// thread between any two steps: the two modes must still agree on every
/// observable, and the flat one must still retire hot ops in runs.
fn assert_replay_modes_agree(p: &Program, logs: &ReplayLogs, base: &ExecConfig, what: &str) {
    let cfg = ExecConfig {
        log: false,
        timeout_enabled: false,
        ..*base
    };
    let run = |mode| execute_supervised_mode(p, &cfg, &mut Replayer::new(logs), mode);
    let (flat, refr) = (run(InterpMode::Flat), run(InterpMode::Reference));
    assert!(flat.outcome.is_exit(), "{what}: {:?}", flat.outcome);
    assert_eq!(flat.outcome, refr.outcome, "{what}");
    assert_eq!(flat.output, refr.output, "{what}");
    assert_eq!(flat.state_hash, refr.state_hash, "{what}");
    assert_eq!(flat.makespan, refr.makespan, "{what}");
    assert_eq!(flat.stats, refr.stats, "{what}");
    assert!(
        flat.stats.vm.batched_ops > 0,
        "{what}: no hot run in the flat replay"
    );
}

#[test]
fn timeout_resolves_the_condvar_deadlock() {
    let p = deadlocky_program();
    let r = execute(&p, &exec_with_timeout(2_000));
    assert!(r.outcome.is_exit(), "{:?}", r.outcome);
    assert!(
        r.stats.forced_releases > 0,
        "the deadlock must be resolved by a forced release"
    );
}

#[test]
fn forced_release_preserves_single_holder_invariant_and_output() {
    let p = deadlocky_program();
    let r = execute(&p, &exec_with_timeout(2_000));
    // The consumer's print must still observe the produced value.
    let consumer_out: Vec<i64> = r
        .output
        .iter()
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(consumer_out, vec![77]);
}

#[test]
fn forced_releases_are_recorded_and_replayed_exactly() {
    let p = deadlocky_program();
    for seed in [1u64, 9, 42] {
        let rec = record(
            &p,
            &ExecConfig {
                seed,
                weak_timeout: 2_000,
                ..ExecConfig::default()
            },
        );
        assert!(rec.result.outcome.is_exit(), "{:?}", rec.result.outcome);
        assert!(
            has_forced(&rec.logs),
            "recording must contain forced-release events"
        );
        let rep_cfg = ExecConfig {
            seed: seed + 555,
            weak_timeout: 2_000,
            ..ExecConfig::default()
        };
        let rep = replay(&p, &rec.logs, &rep_cfg);
        let v = verify_determinism(&rec.result, &rep.result);
        assert!(
            rep.complete && v.equivalent,
            "seed {seed}: forced-release replay diverged: {:?}",
            v.differences
        );
        assert_eq!(
            rep.result.stats.forced_releases, rec.result.stats.forced_releases,
            "replay must re-inject exactly the recorded preemptions"
        );
        assert_replay_modes_agree(&p, &rec.logs, &rep_cfg, &format!("seed {seed}"));
    }
}

#[test]
fn larger_timeout_just_delays_the_resolution() {
    let p = deadlocky_program();
    let fast = execute(&p, &exec_with_timeout(1_000));
    let slow = execute(&p, &exec_with_timeout(50_000));
    assert!(fast.outcome.is_exit());
    assert!(slow.outcome.is_exit());
    assert!(
        slow.makespan > fast.makespan,
        "waiting longer before forcing must cost virtual time ({} vs {})",
        slow.makespan,
        fast.makespan
    );
}

/// The hostile schedules for the timeout tests: PCT with change points
/// sized to this short program, and preemption-bounding with `period: 1`
/// so a context switch is forced at *every* weak-lock acquire/release and
/// shared-access boundary — including the acquire the timeout hands off.
fn adversarial_strategies() -> Vec<SchedStrategy> {
    vec![
        SchedStrategy::Pct {
            depth: 3,
            span: 500,
        },
        SchedStrategy::PreemptBound {
            budget: 4_096,
            period: 1,
        },
    ]
}

#[test]
fn timeout_handoff_survives_adversarial_schedules() {
    let p = deadlocky_program();
    for sched in adversarial_strategies() {
        for seed in [1u64, 7, 23] {
            let cfg = ExecConfig {
                seed,
                sched,
                weak_timeout: 2_000,
                ..ExecConfig::default()
            };
            let mut probe = SingleHolderProbe::default();
            let r = execute_supervised(&p, &cfg, &mut probe);
            assert!(
                r.outcome.is_exit(),
                "{} seed {seed}: {:?}",
                sched.name(),
                r.outcome
            );
            assert!(
                r.stats.forced_releases > 0,
                "{} seed {seed}: deadlock must resolve via forced release",
                sched.name()
            );
            let out: Vec<i64> = r.output.iter().map(|(_, v)| *v).collect();
            assert_eq!(
                out,
                vec![77],
                "{} seed {seed}: consumer lost the produced value",
                sched.name()
            );
            assert!(
                probe.holds(),
                "{} seed {seed}: single-holder violated: {:?}",
                sched.name(),
                probe.violations
            );
            assert!(probe.forced > 0, "{} seed {seed}", sched.name());
        }
    }
}

#[test]
fn forced_releases_replay_exactly_under_adversarial_schedules() {
    let p = deadlocky_program();
    for sched in adversarial_strategies() {
        // Not every schedule deadlocks: if the producer runs to completion
        // before the consumer starts, `ready` is already set and nobody
        // parks holding the weak-lock. Require the deadlock somewhere in
        // the sweep, and replay fidelity everywhere.
        let mut saw_forced = false;
        for seed in [1u64, 5, 9, 13] {
            let rec = record(
                &p,
                &ExecConfig {
                    seed,
                    sched,
                    weak_timeout: 2_000,
                    ..ExecConfig::default()
                },
            );
            assert!(
                rec.result.outcome.is_exit(),
                "{} seed {seed}: {:?}",
                sched.name(),
                rec.result.outcome
            );
            saw_forced |= has_forced(&rec.logs);
            // Hostile replay: same strategy, different seed.
            let rep_cfg = ExecConfig {
                seed: seed + 555,
                sched,
                weak_timeout: 2_000,
                ..ExecConfig::default()
            };
            let rep = replay(&p, &rec.logs, &rep_cfg);
            let v = verify_determinism(&rec.result, &rep.result);
            assert!(
                rep.complete && v.equivalent,
                "{} seed {seed}: diverged: {:?}",
                sched.name(),
                v.differences
            );
            assert_eq!(
                rep.result.stats.forced_releases, rec.result.stats.forced_releases,
                "{} seed {seed}: replay must re-inject exactly the recorded preemptions",
                sched.name()
            );
            let what = format!("{} seed {seed}", sched.name());
            assert_replay_modes_agree(&p, &rec.logs, &rep_cfg, &what);
        }
        assert!(
            saw_forced,
            "{}: no seed in the sweep exercised the forced-release path",
            sched.name()
        );
    }
}

/// Regression: a cross-granularity lock-order inversion (one thread holds
/// object A's lock at loop granularity and takes B's per instruction; the
/// other holds B's at loop granularity and takes A's) triggers repeated
/// forced handoffs during recording. The replay must reproduce the
/// execution exactly — this was the shrunk counterexample from the
/// generative soak that motivated consumed-grant logging and per-thread
/// forced-event queues (DESIGN.md §6).
#[test]
fn lock_order_inversion_war_replays_exactly() {
    use chimera::{analyze, measure, OptSet, PipelineConfig};

    let src = "int g0; int g1; int g2;
        int arr[16];
        lock_t m;
        void wa(int v) {
            int r; int i; int x;
            for (r = 0; r < 4; r = r + 1) {
                arr[g0 & 15] = 0;
                g0 = g0 + 0;
                if (g1 > 0) { g0 = g0 - 1; }
                g0 = g0 + 0;
            }
        }
        void wb(int v) {
            int r; int i; int x;
            for (r = 0; r < 4; r = r + 1) {
                if (g1 > 0) { g1 = g1 - 1; }
                for (i = 0; i < 8; i = i + 1) { arr[i] = arr[i] + g1; }
            }
        }
        int main() {
            int t1; int t2; int i; int s;
            g0 = 5; g1 = 3; g2 = 9;
            t1 = spawn(wa, 1);
            t2 = spawn(wb, 2);
            join(t1);
            join(t2);
            s = g0 + g1 * 10 + g2 * 100;
            for (i = 0; i < 16; i = i + 1) { s = s + arr[i]; }
            print(s);
            return 0;
        }";
    let program = compile(src).unwrap();
    let cfg = PipelineConfig {
        opts: OptSet::loop_only(),
        profile_seeds: vec![1, 2],
        exec: ExecConfig::default(),
    };
    let analysis = analyze(&program, &cfg);
    let mut saw_forced = false;
    for seed in 110..125u64 {
        let m = measure(&analysis, &ExecConfig::default(), seed);
        saw_forced |= m.recording.result.stats.forced_releases > 0;
        assert!(m.deterministic, "seed {seed}: inversion war diverged");
    }
    assert!(
        saw_forced,
        "the scenario must actually exercise forced handoffs"
    );
}
