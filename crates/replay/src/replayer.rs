//! The replaying supervisor: enforces recorded orders and feeds recorded
//! inputs.

use crate::logs::{obj_thread, object_orders, JournalEvent, ObjKey, ReplayLogs};
use chimera_minic::ir::{Program, WeakLockId};
use chimera_runtime::{
    execute_supervised, Event, EventKind, EventMask, ExecConfig, ExecResult, OrderPoint,
    Supervisor, SyncKind, ThreadId,
};
use std::collections::{BTreeMap, VecDeque};

/// Result of a replay attempt.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// The replayed execution.
    pub result: ExecResult,
    /// True if the replay consumed every ordered log entry without getting
    /// stuck (a racy, *uninstrumented* program can diverge; a Chimera-
    /// instrumented one cannot).
    pub complete: bool,
}

/// Replay `program` against recorded `logs`.
///
/// Inputs are fed from the log with zero latency (the paper's
/// network-bound workloads replay much faster than real time for exactly
/// this reason), weak-lock timeouts are disabled, and forced releases are
/// re-injected at their recorded `(thread, instruction-count)` points.
pub fn replay(program: &Program, logs: &ReplayLogs, base: &ExecConfig) -> ReplayRun {
    let config = ExecConfig {
        log: false,
        timeout_enabled: false,
        ..*base
    };
    let mut sup = Replayer::new(logs);
    let result = execute_supervised(program, &config, &mut sup);
    let complete = result.outcome.is_exit() && sup.fully_consumed();
    ReplayRun { result, complete }
}

/// The order-enforcing supervisor. It borrows the recorded logs and
/// builds its queues from their journal once.
#[derive(Debug, Clone)]
pub struct Replayer<'a> {
    logs: &'a ReplayLogs,
    /// Each recorded object's committing threads in journal order (see
    /// `object_orders`), with how many of them the replay has passed.
    queues: BTreeMap<ObjKey, (Vec<u32>, usize)>,
    input_pos: BTreeMap<u32, u64>,
    /// Recorded forced-release points per thread, in that thread's order —
    /// replayed like DoublePlay's preemptions: the machine re-injects each
    /// when its holder reaches the recorded instruction count (and
    /// parked/running state). Cross-thread ordering needs no extra
    /// enforcement: the per-lock acquire queues already order every
    /// consequence.
    forced_by_thread: BTreeMap<u32, VecDeque<(u64, bool, WeakLockId)>>,
}

impl<'a> Replayer<'a> {
    /// Build a replayer over recorded logs.
    pub fn new(logs: &'a ReplayLogs) -> Replayer<'a> {
        let mut forced_by_thread: BTreeMap<u32, VecDeque<_>> = BTreeMap::new();
        for ev in &logs.journal {
            if let JournalEvent::Forced {
                thread,
                icount,
                parked,
                lock,
            } = *ev
            {
                forced_by_thread
                    .entry(thread)
                    .or_default()
                    .push_back((icount, parked, lock));
            }
        }
        Replayer {
            logs,
            queues: object_orders(&logs.journal)
                .into_iter()
                .map(|(key, order)| (key, (order, 0)))
                .collect(),
            input_pos: BTreeMap::new(),
            forced_by_thread,
        }
    }

    /// Did the replay consume every ordered entry, and no spawn or output
    /// past them?
    pub fn fully_consumed(&self) -> bool {
        self.queues.values().all(|(order, pos)| *pos == order.len())
            && self.forced_by_thread.values().all(VecDeque::is_empty)
    }
}

impl Supervisor for Replayer<'_> {
    /// Replay tracks log positions off these kinds only.
    fn event_mask(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Sync,
            EventKind::Output,
            EventKind::WeakAcquire,
            EventKind::WeakForcedRelease,
        ])
    }

    /// The machine must poll [`Supervisor::forced_release_at`] between
    /// every pair of steps whenever the recording contains forced
    /// releases — batching steps would skip recorded preemption points.
    fn injects_forced_releases(&self) -> bool {
        !self.forced_by_thread.is_empty()
    }

    fn may_proceed(&mut self, point: OrderPoint, thread: ThreadId) -> bool {
        let key = point_key(point);
        match self.queues.get(&key) {
            // Inputs have no queue: per-object replay feeds them by
            // per-thread sequence number (`input_override`), so their
            // global position needs no gate. Nor has an object never seen
            // during recording, which is let through (this can only
            // happen on divergent replays of racy code).
            None => true,
            // A recording without output leaves outputs unconstrained;
            // each one still leaves the replay incomplete.
            Some((order, _)) if key == ObjKey::Output && order.is_empty() => true,
            Some((order, pos)) => order.get(*pos) == Some(&thread.0),
        }
    }

    fn on_event(&mut self, ev: &Event) {
        let key = match *ev {
            Event::Sync {
                kind: SyncKind::Mutex,
                addr,
                ..
            } => ObjKey::Mutex(addr),
            Event::Sync {
                kind: SyncKind::Cond,
                addr,
                ..
            } => ObjKey::Cond(addr),
            Event::Sync {
                kind: SyncKind::Spawn,
                ..
            } => ObjKey::Spawn,
            Event::Output { .. } => ObjKey::Output,
            Event::WeakAcquire { lock, .. } => ObjKey::Weak(lock.0),
            Event::WeakForcedRelease { holder, .. } => {
                if let Some(q) = self.forced_by_thread.get_mut(&holder.0) {
                    q.pop_front();
                }
                return;
            }
            _ => return,
        };
        if let Some((_, pos)) = self.queues.get_mut(&key) {
            *pos += 1;
        }
    }

    fn input_override(
        &mut self,
        thread: ThreadId,
        _chan: i64,
        _len: usize,
    ) -> Option<Vec<i64>> {
        let seq = self.input_pos.entry(thread.0).or_insert(0);
        let data = self.logs.inputs.get(&(thread.0, *seq)).cloned();
        if data.is_some() {
            *seq += 1;
        }
        data
    }

    fn forced_release_at(
        &mut self,
        thread: ThreadId,
        icount: u64,
        parked: bool,
    ) -> Option<WeakLockId> {
        let (ic, pk, lock) = *self.forced_by_thread.get(&thread.0)?.front()?;
        if ic == icount && pk == parked {
            // Note: the queue entry is consumed in on_event when the
            // machine actually emits the WeakForcedRelease (the injection
            // is a no-op until the thread holds the lock again).
            Some(lock)
        } else {
            None
        }
    }
}

/// The journal object an order point commits on.
fn point_key(point: OrderPoint) -> ObjKey {
    match point {
        OrderPoint::Mutex(addr) => ObjKey::Mutex(addr),
        OrderPoint::Cond(addr) => ObjKey::Cond(addr),
        OrderPoint::Weak(lock) => ObjKey::Weak(lock.0),
        OrderPoint::Spawn => ObjKey::Spawn,
        OrderPoint::Output => ObjKey::Output,
        OrderPoint::Input => ObjKey::Input,
    }
}

/// Result of a digest-observing replay (see [`replay_bisect`]).
#[derive(Debug, Clone)]
pub struct BisectReplay {
    /// The replayed execution.
    pub result: ExecResult,
    /// True if the replay consumed every ordered log entry (as in
    /// [`ReplayRun::complete`]).
    pub complete: bool,
    /// The logs the replay itself produced — journal and checkpoints
    /// included — ready to diff against the recording with
    /// `localize_divergence`.
    pub observed: ReplayLogs,
}

/// Replay `program` against `logs` while simultaneously re-recording it:
/// the returned [`BisectReplay::observed`] logs carry the replay's own
/// journal and schedule-digest checkpoints at the recording's own
/// checkpoint interval, which is what divergence bisection compares
/// against the original recording.
///
/// Unlike [`replay`], which enforces only the *per-object* orders (all
/// Chimera needs for state determinism — independent objects may commute
/// globally), forensic replay additionally pins every ordered event to
/// its recorded **global** journal position. That sequentialization is
/// what makes the observed journal and checkpoint digests byte-comparable
/// to the recording; it costs parallelism, which is irrelevant when
/// hunting a divergence.
pub fn replay_bisect(program: &Program, logs: &ReplayLogs, base: &ExecConfig) -> BisectReplay {
    let config = ExecConfig {
        log: false,
        timeout_enabled: false,
        ..*base
    };
    // Mirror the recording's checkpoint cadence so the digest streams
    // line up; default to the standard chunk interval for logs recorded
    // without checkpoints.
    let interval = logs
        .checkpoints
        .first()
        .map_or(crate::logs::CHUNK_EVENTS as u64, |c| c.events);
    let mut sup = BisectReplayer {
        rep: Replayer::new(logs),
        rec: crate::record::Recorder::with_interval(interval),
        cursor: 0,
    };
    let result = execute_supervised(program, &config, &mut sup);
    let complete = result.outcome.is_exit() && sup.rep.fully_consumed();
    BisectReplay {
        result,
        complete,
        observed: sup.rec.logs,
    }
}

/// A [`Replayer`] composed with a [`crate::record::Recorder`]: the
/// replayer side enforces the recorded per-object orders, the global gate
/// (the recorded journal and `cursor`) serializes events into their
/// recorded journal positions, and the recorder side writes down what the
/// replay actually did (plus checkpoints).
#[derive(Debug, Clone)]
struct BisectReplayer<'a> {
    rep: Replayer<'a>,
    rec: crate::record::Recorder,
    cursor: usize,
}

impl BisectReplayer<'_> {
    /// Does the journal event match what `thread` wants to commit at
    /// `point`? `Forced` entries never match here: they are not gated
    /// (their timing is pinned by the holder's instruction count), so a
    /// `Forced` journal head simply stalls every gated thread until the
    /// holder reaches its recorded preemption point and emits it.
    fn head_matches(ev: &JournalEvent, point: OrderPoint, thread: ThreadId) -> bool {
        obj_thread(ev) == (point_key(point), thread.0)
    }

    /// Is `ev` one of the journal-ordered kinds (advances the cursor)?
    fn is_journaled(ev: &Event) -> bool {
        match ev {
            Event::Sync { kind, .. } => {
                matches!(kind, SyncKind::Mutex | SyncKind::Cond | SyncKind::Spawn)
            }
            Event::Output { .. }
            | Event::Input { .. }
            | Event::WeakAcquire { .. }
            | Event::WeakForcedRelease { .. } => true,
            _ => false,
        }
    }
}

impl Supervisor for BisectReplayer<'_> {
    /// Union of both sides: the replayer's order-tracking kinds plus the
    /// recorder's `Input`.
    fn event_mask(&self) -> EventMask {
        self.rep.event_mask().union(self.rec.event_mask())
    }

    fn injects_forced_releases(&self) -> bool {
        self.rep.injects_forced_releases()
    }

    fn checkpoint_interval(&self) -> u64 {
        self.rec.checkpoint_interval()
    }

    fn on_checkpoint(&mut self, events: u64, state_hash: u64) {
        self.rec.on_checkpoint(events, state_hash);
    }

    fn defers_cond_signals(&self) -> bool {
        true
    }

    fn on_event(&mut self, ev: &Event) {
        self.rep.on_event(ev);
        self.rec.on_event(ev);
        if Self::is_journaled(ev) {
            // Advance unconditionally: on a divergent replay the emitted
            // event may not match `journal[cursor]`, but the comparison
            // is `localize_divergence`'s job, not the gate's.
            self.cursor += 1;
        }
    }

    fn may_proceed(&mut self, point: OrderPoint, thread: ThreadId) -> bool {
        if !self.rep.may_proceed(point, thread) {
            return false;
        }
        match self.rep.logs.journal.get(self.cursor) {
            Some(expected) => Self::head_matches(expected, point, thread),
            // Past the recorded journal (or a log with none): the
            // global gate has nothing left to say.
            None => true,
        }
    }

    fn input_override(
        &mut self,
        thread: ThreadId,
        chan: i64,
        len: usize,
    ) -> Option<Vec<i64>> {
        self.rep.input_override(thread, chan, len)
    }

    fn forced_release_at(
        &mut self,
        thread: ThreadId,
        icount: u64,
        parked: bool,
    ) -> Option<WeakLockId> {
        self.rep.forced_release_at(thread, icount, parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::record;
    use chimera_minic::compile;

    #[test]
    fn drf_program_replays_identically() {
        let src = "int g; lock_t m; int buf[16];
             void w(int n) { int i; for (i = 0; i < 50; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t;
                sys_read(1000, &buf[0], 16);
                t = spawn(w, 1); w(2); join(t);
                print(g); print(buf[3]); return 0; }";
        let p = compile(src).unwrap();
        let rec = record(&p, &ExecConfig { seed: 11, ..ExecConfig::default() });
        // Replay under a different seed (different jitter): everything
        // observable must still match.
        let rep = replay(&p, &rec.logs, &ExecConfig { seed: 999, ..ExecConfig::default() });
        assert!(rep.complete, "{:?}", rep.result.outcome);
        assert_eq!(rep.result.state_hash, rec.result.state_hash);
        assert_eq!(rep.result.output, rec.result.output);
    }

    #[test]
    fn replay_feeds_recorded_input_without_latency() {
        let src = "int buf[64];
             int main() { sys_read(1000, &buf[0], 64); print(buf[0]); return 0; }";
        let p = compile(src).unwrap();
        let rec = record(&p, &ExecConfig { seed: 3, ..ExecConfig::default() });
        let rep = replay(&p, &rec.logs, &ExecConfig { seed: 4, ..ExecConfig::default() });
        assert!(rep.complete);
        assert_eq!(rep.result.output, rec.result.output);
        assert_eq!(rep.result.stats.io_wait, 0, "recorded input is fed directly");
        assert!(rep.result.makespan < rec.result.makespan);
    }

    #[test]
    fn racy_program_without_weak_locks_can_diverge() {
        // A read-modify-write race: replay does not enforce racy access
        // order, so across many seeds at least one replay differs from its
        // recording. This is the problem Chimera exists to solve.
        let src = "int g;
             void w(int v) { int i; int x;
                for (i = 0; i < 300; i = i + 1) { x = g; g = x + v; } }
             int main() { int t; t = spawn(w, 1); w(1); join(t); print(g); return 0; }";
        let p = compile(src).unwrap();
        let mut any_divergence = false;
        for seed in 0..10 {
            let rec = record(&p, &ExecConfig { seed, ..ExecConfig::default() });
            let rep = replay(
                &p,
                &rec.logs,
                &ExecConfig { seed: seed + 1000, ..ExecConfig::default() },
            );
            if rep.result.output != rec.result.output || !rep.complete {
                any_divergence = true;
                break;
            }
        }
        assert!(
            any_divergence,
            "expected at least one divergent replay of a racy program"
        );
    }

    #[test]
    fn bisect_replay_reproduces_journal_and_checkpoints() {
        // The digest-soundness test: under a *different* jitter seed, a
        // conforming replay must reproduce the recorded journal AND every
        // checkpoint digest bit-for-bit. If this fails, something
        // schedule-dependent leaked into the fold.
        let src = "int g; lock_t m; int buf[16];
             void w(int n) { int i; for (i = 0; i < 200; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t;
                sys_read(1000, &buf[0], 16);
                t = spawn(w, 1); w(2); join(t);
                print(g); print(buf[3]); return 0; }";
        let p = compile(src).unwrap();
        for seed in [7u64, 23, 901] {
            let rec = record(&p, &ExecConfig { seed, ..ExecConfig::default() });
            let rep = replay_bisect(
                &p,
                &rec.logs,
                &ExecConfig { seed: seed ^ 0xabcd, ..ExecConfig::default() },
            );
            assert!(rep.complete, "seed {seed}");
            assert_eq!(rep.observed.journal, rec.logs.journal, "seed {seed}");
            assert!(!rec.logs.checkpoints.is_empty(), "seed {seed}");
            assert_eq!(rep.observed.checkpoints, rec.logs.checkpoints, "seed {seed}");
        }
    }

    /// What replay answers when a variant program reaches an ordered
    /// event the recording of the original never saw: an unseen mutex is
    /// let through, a spawn with no recorded spawn stalls, and an output
    /// with no recorded output runs but leaves the replay incomplete.
    #[test]
    fn replay_answers_for_events_the_recording_lacks() {
        let variant_replay = |original: &str, variant: &str| {
            let rec = record(&compile(original).unwrap(), &ExecConfig::default());
            assert!(rec.result.outcome.is_exit(), "{:?}", rec.result.outcome);
            replay(&compile(variant).unwrap(), &rec.logs, &ExecConfig::default())
        };
        let rep = variant_replay(
            "int g; lock_t m;
             int main() { lock(&m); g = 1; unlock(&m); print(g); return 0; }",
            "int g; lock_t m; lock_t n;
             int main() { lock(&m); g = 1; unlock(&m);
                lock(&n); g = g + 1; unlock(&n); print(g - 1); return 0; }",
        );
        assert!(rep.complete, "{:?}", rep.result.outcome);
        let rep = variant_replay(
            "int main() { print(1); return 0; }",
            "void w(int x) { }
             int main() { int t; t = spawn(w, 0); join(t); print(1); return 0; }",
        );
        assert!(!rep.complete);
        assert!(!rep.result.outcome.is_exit(), "{:?}", rep.result.outcome);
        let rep = variant_replay("int main() { return 0; }", "int main() { print(1); return 0; }");
        assert!(rep.result.outcome.is_exit(), "{:?}", rep.result.outcome);
        assert!(!rep.complete);
    }

    #[test]
    fn replayer_reports_unconsumed_logs() {
        let mut logs = ReplayLogs::default();
        logs.push_spawn(0);
        assert!(!Replayer::new(&logs).fully_consumed());
    }
}
