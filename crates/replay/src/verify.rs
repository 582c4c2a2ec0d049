//! The determinism verifier: did a replay reproduce the recording?
//!
//! Two layers: [`verify_determinism`] compares end states (outcome, final
//! memory, output), and [`localize_divergence`] compares the journals to
//! name the first event where a replay left the recorded schedule (or,
//! when the schedules agree, the first checkpoint whose state digest
//! differs) — without re-running anything.

use crate::logs::{Checkpoint, JournalEvent, ReplayLogs, CHUNK_EVENTS};
use chimera_runtime::ExecResult;

/// Outcome of comparing two executions for observable equivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismReport {
    /// True if all checks passed.
    pub equivalent: bool,
    /// One line per failed check.
    pub differences: Vec<String>,
}

impl DeterminismReport {
    fn ok() -> DeterminismReport {
        DeterminismReport {
            equivalent: true,
            differences: Vec::new(),
        }
    }

    fn push(&mut self, what: impl Into<String>) {
        self.equivalent = false;
        self.differences.push(what.into());
    }
}

/// Root-cause class of a localized divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceCause {
    /// The input streams differ (payload or consuming thread).
    InputStream,
    /// A program-synchronization order entry differs (mutex, condvar,
    /// spawn, or output commit order).
    SyncOrder,
    /// A weak-lock entry differs (acquisition order or forced release),
    /// i.e. the instrumentation layer's order was not reproduced.
    WeakLockStream,
    /// The journals agree but a checkpoint digest differs: the schedule
    /// matched, the *values* at it did not (an unlogged data race wrote
    /// different data).
    StateValue,
}

impl std::fmt::Display for DivergenceCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DivergenceCause::InputStream => "input stream",
            DivergenceCause::SyncOrder => "sync order",
            DivergenceCause::WeakLockStream => "weak-lock stream",
            DivergenceCause::StateValue => "state value (unlogged race)",
        };
        f.write_str(s)
    }
}

/// The first point where a replay's journal left the recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Chunk index (`event / CHUNK_EVENTS`) containing the first mismatch.
    pub chunk: usize,
    /// Global journal index of the first mismatched event.
    pub event: u64,
    /// The recording's event there (`None` = recording ended first).
    pub recorded: Option<JournalEvent>,
    /// The replay's event there (`None` = replay ended first).
    pub replayed: Option<JournalEvent>,
    /// A few journal lines around the mismatch, recorded vs replayed.
    pub context: Vec<String>,
    /// Root-cause hint derived from the mismatched events.
    pub cause: DivergenceCause,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence at event {} (chunk {}), cause: {}",
            self.event, self.chunk, self.cause
        )?;
        write!(f, "\n  recorded: {:?}", self.recorded)?;
        write!(f, "\n  replayed: {:?}", self.replayed)?;
        for line in &self.context {
            write!(f, "\n  {line}")?;
        }
        Ok(())
    }
}

fn cause_of(a: Option<&JournalEvent>, b: Option<&JournalEvent>) -> DivergenceCause {
    let classify = |ev: &JournalEvent| match ev {
        JournalEvent::Input { .. } => DivergenceCause::InputStream,
        JournalEvent::Weak { .. } | JournalEvent::Forced { .. } => {
            DivergenceCause::WeakLockStream
        }
        _ => DivergenceCause::SyncOrder,
    };
    // An input mismatch on either side wins (inputs steer everything
    // downstream); then the weak-lock layer; then plain sync order.
    let (ca, cb) = (a.map(classify), b.map(classify));
    for want in [DivergenceCause::InputStream, DivergenceCause::WeakLockStream] {
        if ca == Some(want) || cb == Some(want) {
            return want;
        }
    }
    DivergenceCause::SyncOrder
}

/// Compare `recorded` with `observed` (a replay's own logs, e.g. from
/// `replay_bisect`) and name the first journal event where they part ways.
///
/// One pass finds the first journal index where the two differ, or where
/// one journal has ended. Only when the journals agree does it look at the
/// checkpoints: a digest that differs, or is missing on one side, means the
/// schedule matched but the values at it did not. Returns `None` when
/// journals and checkpoints fully agree.
pub fn localize_divergence(recorded: &ReplayLogs, observed: &ReplayLogs) -> Option<Divergence> {
    let (rec, obs) = (&recorded.journal, &observed.journal);
    let Some(event) = (0..rec.len().max(obs.len())).find(|&i| rec.get(i) != obs.get(i)) else {
        // Journals identical but a digest differs: same schedule,
        // different data — the signature of an unlogged race.
        let (rec_cp, obs_cp) = (&recorded.checkpoints, &observed.checkpoints);
        let i = (0..rec_cp.len().max(obs_cp.len())).find(|&i| rec_cp.get(i) != obs_cp.get(i))?;
        let (a, b) = (rec_cp.get(i), obs_cp.get(i));
        let at = a.or(b).map_or(0, |c| c.events);
        let digest = |c: Option<&Checkpoint>| c.map_or(0, |c| c.state_hash);
        let event = at.saturating_sub(1);
        return Some(Divergence {
            chunk: (event / CHUNK_EVENTS as u64) as usize,
            event,
            recorded: rec.get(event as usize).copied(),
            replayed: obs.get(event as usize).copied(),
            context: vec![format!(
                "checkpoint at {at} events: digest {:#x} vs {:#x}",
                digest(a),
                digest(b)
            )],
            cause: DivergenceCause::StateValue,
        });
    };
    let context = (event.saturating_sub(2)..event + 3)
        .map(|i| {
            let mark = if i == event { ">>" } else { "  " };
            format!("{mark} [{i}] recorded {:?} | replayed {:?}", rec.get(i), obs.get(i))
        })
        .collect();
    let (rec_ev, obs_ev) = (rec.get(event), obs.get(event));
    Some(Divergence {
        chunk: event / CHUNK_EVENTS,
        event: event as u64,
        recorded: rec_ev.copied(),
        replayed: obs_ev.copied(),
        context,
        cause: cause_of(rec_ev, obs_ev),
    })
}

/// Compare a recording and a replay for observable equivalence: same
/// outcome class, same final live memory, and the same output — both the
/// global commit order and each thread's projection.
pub fn verify_determinism(recorded: &ExecResult, replayed: &ExecResult) -> DeterminismReport {
    let mut report = DeterminismReport::ok();
    if recorded.outcome != replayed.outcome {
        report.push(format!(
            "outcome differs: recorded {:?}, replayed {:?}",
            recorded.outcome, replayed.outcome
        ));
    }
    if recorded.state_hash != replayed.state_hash {
        report.push(format!(
            "final memory differs: {:#x} vs {:#x}",
            recorded.state_hash, replayed.state_hash
        ));
    }
    if recorded.output != replayed.output {
        let n = recorded
            .output
            .iter()
            .zip(&replayed.output)
            .take_while(|(a, b)| a == b)
            .count();
        report.push(format!(
            "output differs from element {n}: recorded {} values, replayed {}",
            recorded.output.len(),
            replayed.output.len()
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::record;
    use crate::replayer::{replay, replay_bisect};
    use chimera_minic::compile;
    use chimera_runtime::ExecConfig;

    #[test]
    fn identical_runs_verify() {
        let p = compile("int main() { print(1); print(2); return 0; }").unwrap();
        let a = chimera_runtime::execute(&p, &ExecConfig::default());
        let b = chimera_runtime::execute(&p, &ExecConfig::default());
        assert!(verify_determinism(&a, &b).equivalent);
    }

    #[test]
    fn detects_output_difference() {
        let p1 = compile("int main() { print(1); return 0; }").unwrap();
        let p2 = compile("int main() { print(2); return 0; }").unwrap();
        let a = chimera_runtime::execute(&p1, &ExecConfig::default());
        let b = chimera_runtime::execute(&p2, &ExecConfig::default());
        let rep = verify_determinism(&a, &b);
        assert!(!rep.equivalent);
        assert!(rep.differences.iter().any(|d| d.contains("output")));
    }

    #[test]
    fn record_replay_of_synchronized_program_verifies() {
        let src = "int g; lock_t m; barrier_t b;
             void w(int n) {
                lock(&m); g = g + n; unlock(&m);
                barrier_wait(&b);
                lock(&m); g = g * 2; unlock(&m);
             }
             int main() { int t1; int t2;
                barrier_init(&b, 2);
                t1 = spawn(w, 3); t2 = spawn(w, 5);
                join(t1); join(t2); print(g); return 0; }";
        let p = compile(src).unwrap();
        for seed in [1u64, 17, 99] {
            let rec = record(&p, &ExecConfig { seed, ..ExecConfig::default() });
            let rep = replay(
                &p,
                &rec.logs,
                &ExecConfig { seed: seed ^ 0xffff, ..ExecConfig::default() },
            );
            let v = verify_determinism(&rec.result, &rep.result);
            assert!(v.equivalent, "seed {seed}: {:?}", v.differences);
        }
    }

    #[test]
    fn conforming_bisect_replay_localizes_nothing() {
        let src = "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 150; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                print(g); return 0; }";
        let p = compile(src).unwrap();
        let rec = record(&p, &ExecConfig { seed: 5, ..ExecConfig::default() });
        let rep = replay_bisect(&p, &rec.logs, &ExecConfig { seed: 6, ..ExecConfig::default() });
        assert!(rep.complete);
        assert!(localize_divergence(&rec.logs, &rep.observed).is_none());
        let v = verify_determinism(&rec.result, &rep.result);
        assert!(v.equivalent, "{:?}", v.differences);
    }

    #[test]
    fn planted_mutation_is_localized_exactly() {
        // Plant a single-event mutation at several positions in a real
        // multi-chunk recording; the search must name the exact event
        // and chunk. Checkpoints covering the mutated suffix are poisoned
        // the way a real divergent replay would: their digests differ.
        let src = "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 300; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                print(g); return 0; }";
        let p = compile(src).unwrap();
        let rec = record(&p, &ExecConfig { seed: 9, ..ExecConfig::default() });
        let total = rec.logs.journal.len() as u64;
        assert!(total > 2 * CHUNK_EVENTS as u64, "need a multi-chunk log");
        for pos in [0u64, 1, 255, 256, 300, total - 1] {
            let mut mutated = rec.logs.clone();
            let ev = &mut mutated.journal[pos as usize];
            *ev = match *ev {
                JournalEvent::Mutex { thread, addr } => JournalEvent::Mutex {
                    thread: thread + 1,
                    addr,
                },
                other => JournalEvent::Spawn {
                    thread: other.thread() + 1,
                },
            };
            for cp in &mut mutated.checkpoints {
                if cp.events > pos {
                    cp.state_hash ^= 0xdead_beef;
                }
            }
            let d = localize_divergence(&rec.logs, &mutated).expect("must diverge");
            assert_eq!(d.event, pos, "event index");
            assert_eq!(d.chunk, pos as usize / CHUNK_EVENTS, "chunk index");
            assert!(matches!(d.cause, DivergenceCause::SyncOrder));
            assert!(!d.context.is_empty());
        }
    }

    #[test]
    fn cause_hints_follow_the_mismatched_stream() {
        let mut a = ReplayLogs::default();
        a.push_input(0, vec![1]);
        a.push_weak(
            chimera_minic::ir::WeakLockId(3),
            chimera_minic::ir::LockGranularity::Loop,
            1,
        );
        a.push_mutex(9, 0);
        let mut b = a.clone();
        b.journal[0] = JournalEvent::Input { thread: 5 };
        let d = localize_divergence(&a, &b).unwrap();
        assert_eq!(d.cause, DivergenceCause::InputStream);
        let mut b = a.clone();
        b.journal[1] = JournalEvent::Weak {
            thread: 7,
            lock: chimera_minic::ir::WeakLockId(3),
        };
        let d = localize_divergence(&a, &b).unwrap();
        assert_eq!(d.event, 1);
        assert_eq!(d.cause, DivergenceCause::WeakLockStream);
        let mut b = a.clone();
        b.journal[2] = JournalEvent::Mutex { thread: 4, addr: 9 };
        let d = localize_divergence(&a, &b).unwrap();
        assert_eq!(d.event, 2);
        assert_eq!(d.cause, DivergenceCause::SyncOrder);
    }

    #[test]
    fn identical_journals_with_differing_digests_hint_state_value() {
        let mut a = ReplayLogs::default();
        for i in 0..10u32 {
            a.push_mutex(1, i % 2);
        }
        a.push_checkpoint(10, 0x1111);
        let mut b = a.clone();
        b.checkpoints[0].state_hash = 0x2222;
        let d = localize_divergence(&a, &b).unwrap();
        assert_eq!(d.cause, DivergenceCause::StateValue);
        assert_eq!(d.event, 9);
    }
}
