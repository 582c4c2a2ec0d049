//! The determinism verifier: did a replay reproduce the recording?
//!
//! Two layers: [`verify_determinism`] compares end states (outcome, final
//! memory, output), and [`localize_divergence`] bisects the v2 checkpoint
//! stream to name the first journal event where a replay left the recorded
//! schedule — without re-running anything.

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

/// The first point where a replay's journal left the recording, found by
/// binary search over checkpoint digests.
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
    /// Checkpoint digests compared during the bisection (the work a full
    /// linear scan would have multiplied).
    pub checkpoint_probes: usize,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "first divergence at event {} (chunk {}), cause: {}",
            self.event, self.chunk, self.cause
        )?;
        writeln!(f, "  recorded: {:?}", self.recorded)?;
        writeln!(f, "  replayed: {:?}", self.replayed)?;
        for line in &self.context {
            writeln!(f, "  {line}")?;
        }
        write!(f, "  ({} checkpoint digests probed)", self.checkpoint_probes)
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

/// Bisect `recorded` against `observed` (a replay's own logs, e.g. from
/// `replay_bisect`) and name the first journal event where they part ways.
///
/// Returns `None` when journals and checkpoints fully agree. The search
/// binary-searches the checkpoint stream for the first digest mismatch —
/// checkpoint prefixes are cumulative, so digests match exactly up to the
/// first bad chunk — then scans only the bracketed window of at most
/// [`CHUNK_EVENTS`] events.
pub fn localize_divergence(recorded: &ReplayLogs, observed: &ReplayLogs) -> Option<Divergence> {
    if recorded.journal == observed.journal && recorded.checkpoints == observed.checkpoints {
        return None;
    }
    let rec_cp = &recorded.checkpoints;
    let obs_cp = &observed.checkpoints;
    let mut probes = 0usize;
    // bad(i): checkpoint i is missing on either side or its digest
    // differs. The running digest makes badness monotone: once a prefix
    // mismatches, every later checkpoint mismatches too (FNV folding never
    // cancels), so binary search applies.
    let n = rec_cp.len().max(obs_cp.len());
    let mut bad = |i: usize| -> bool {
        probes += 1;
        match (rec_cp.get(i), obs_cp.get(i)) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    };
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if bad(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // lo = first bad checkpoint (or n if all agree — then the divergence
    // sits past the last checkpoint). The window to scan starts at the
    // last good checkpoint's event count.
    let start = if lo == 0 {
        0
    } else {
        rec_cp.get(lo - 1).map(|c| c.events).unwrap_or(0)
    };
    let end = match (rec_cp.get(lo), obs_cp.get(lo)) {
        (Some(a), Some(b)) => a.events.max(b.events),
        _ => recorded.journal.len().max(observed.journal.len()) as u64,
    };
    let first_mismatch = |from: u64, to: u64| -> Option<u64> {
        (from..to).find(|&i| {
            recorded.journal.get(i as usize) != observed.journal.get(i as usize)
        })
    };
    // Scan the bracketed window; fall back to a full scan if the bracket
    // was clean (possible only when the divergence is past the last
    // checkpoint or in checkpoint metadata alone).
    let at = first_mismatch(start, end)
        .or_else(|| first_mismatch(0, recorded.journal.len().max(observed.journal.len()) as u64));
    let Some(event) = at else {
        // Journals identical but a digest differs: same schedule,
        // different data — the signature of an unlogged race.
        let cp = rec_cp
            .iter()
            .zip(obs_cp)
            .find(|(a, b)| a != b)
            .map(|(a, _)| *a)
            .or_else(|| rec_cp.get(lo).copied())
            .unwrap_or(Checkpoint {
                events: 0,
                state_hash: 0,
            });
        let event = cp.events.saturating_sub(1);
        return Some(Divergence {
            chunk: (event / CHUNK_EVENTS as u64) as usize,
            event,
            recorded: recorded.journal.get(event as usize).copied(),
            replayed: observed.journal.get(event as usize).copied(),
            context: vec![format!(
                "checkpoint at {} events: digest {:#x} vs {:#x}",
                cp.events,
                cp.state_hash,
                obs_cp
                    .iter()
                    .find(|c| c.events == cp.events)
                    .map(|c| c.state_hash)
                    .unwrap_or(0),
            )],
            cause: DivergenceCause::StateValue,
            checkpoint_probes: probes,
        });
    };
    let rec_ev = recorded.journal.get(event as usize);
    let obs_ev = observed.journal.get(event as usize);
    let mut context = Vec::new();
    let lo_ctx = event.saturating_sub(2);
    let hi_ctx = event + 3;
    for i in lo_ctx..hi_ctx {
        let mark = if i == event { ">>" } else { "  " };
        context.push(format!(
            "{mark} [{i}] recorded {:?} | replayed {:?}",
            recorded.journal.get(i as usize),
            observed.journal.get(i as usize)
        ));
    }
    Some(Divergence {
        chunk: (event / CHUNK_EVENTS as u64) as usize,
        event,
        recorded: rec_ev.copied(),
        replayed: obs_ev.copied(),
        context,
        cause: cause_of(rec_ev, obs_ev),
        checkpoint_probes: probes,
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
        // multi-chunk recording; the bisection must name the exact event
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
            // Bisection must beat a linear checkpoint scan for interior
            // positions: probes are logarithmic in checkpoint count.
            let n_cp = rec.logs.checkpoints.len();
            assert!(
                d.checkpoint_probes <= (usize::BITS - n_cp.leading_zeros()) as usize + 1,
                "expected O(log {n_cp}) probes, got {}",
                d.checkpoint_probes
            );
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
