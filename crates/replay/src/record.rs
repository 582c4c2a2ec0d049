//! The recording supervisor: observes an execution and writes the replay
//! logs.

use crate::logs::{ReplayLogs, CHUNK_EVENTS};
use chimera_minic::ir::Program;
use chimera_runtime::{
    execute_supervised, Event, EventKind, EventMask, ExecConfig, ExecResult, Supervisor,
};

/// A completed recording: the logs plus the recorded run's result (used for
/// determinism verification and overhead measurement).
#[derive(Debug, Clone)]
pub struct Recording {
    /// The logs a replayer needs.
    pub logs: ReplayLogs,
    /// The recorded execution itself.
    pub result: ExecResult,
}

/// Record one execution of (typically instrumented) `program`.
///
/// Turns on all log-cost accounting in the machine (`log_sync`, `log_weak`,
/// `log_input`), so `result.makespan` is the *recording* runtime the
/// paper's Table 2 and Figure 5 measure. Checkpoints are emitted every
/// [`CHUNK_EVENTS`] ordered events (the v2 chunk boundary).
pub fn record(program: &Program, base: &ExecConfig) -> Recording {
    record_with(program, base, CHUNK_EVENTS as u64)
}

/// [`record`] with an explicit checkpoint interval (0 disables
/// checkpointing entirely — the baseline the format benchmark times
/// checkpoint folding against).
pub fn record_with(program: &Program, base: &ExecConfig, ckpt_every: u64) -> Recording {
    let config = ExecConfig {
        log_sync: true,
        log_weak: true,
        log_input: true,
        timeout_enabled: true,
        ..*base
    };
    let mut sup = Recorder::with_interval(ckpt_every);
    let result = execute_supervised(program, &config, &mut sup);
    Recording {
        logs: sup.logs,
        result,
    }
}

/// The event observer that builds [`ReplayLogs`] — per-object order
/// streams, the global journal, and (when enabled) periodic schedule
/// checkpoints.
#[derive(Debug, Clone)]
pub struct Recorder {
    /// Logs built so far.
    pub logs: ReplayLogs,
    ckpt_every: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::with_interval(CHUNK_EVENTS as u64)
    }
}

impl Recorder {
    /// A recorder checkpointing every `ckpt_every` ordered events (0 =
    /// never).
    pub fn with_interval(ckpt_every: u64) -> Recorder {
        Recorder {
            logs: ReplayLogs::default(),
            ckpt_every,
        }
    }
}

impl Supervisor for Recorder {
    /// Recording only consumes the event kinds it logs; the machine skips
    /// constructing the rest (notably per-call `FuncEnter`/`FuncExit`).
    fn event_mask(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Input,
            EventKind::Sync,
            EventKind::Output,
            EventKind::WeakAcquire,
            EventKind::WeakForcedRelease,
        ])
    }

    fn checkpoint_interval(&self) -> u64 {
        self.ckpt_every
    }

    fn on_checkpoint(&mut self, events: u64, state_hash: u64) {
        self.logs.push_checkpoint(events, state_hash);
    }

    fn on_event(&mut self, ev: &Event) {
        match ev {
            Event::Input { thread, data, .. } => {
                self.logs.push_input(thread.0, data.clone());
                self.logs.input_log_entries += 1;
            }
            Event::Sync {
                thread, kind, addr, ..
            } => {
                self.logs.sync_log_entries += 1;
                match kind {
                    chimera_runtime::SyncKind::Mutex => {
                        self.logs.push_mutex(*addr, thread.0);
                    }
                    chimera_runtime::SyncKind::Cond => {
                        self.logs.push_cond(*addr, thread.0);
                    }
                    chimera_runtime::SyncKind::Spawn => {
                        self.logs.push_spawn(thread.0);
                    }
                    // Barrier releases and joins are deterministic given
                    // the rest of the order; they are counted but need no
                    // order stream.
                    chimera_runtime::SyncKind::Barrier
                    | chimera_runtime::SyncKind::Join => {}
                }
            }
            Event::Output { thread, .. } => {
                self.logs.push_output(thread.0);
                self.logs.sync_log_entries += 1;
            }
            Event::WeakAcquire {
                thread,
                lock,
                granularity,
                ..
            } => {
                self.logs.push_weak(*lock, *granularity, thread.0);
            }
            Event::WeakForcedRelease {
                lock,
                holder,
                icount,
                parked,
                ..
            } => {
                self.logs.push_forced(holder.0, *icount, *parked, *lock);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    #[test]
    fn records_inputs_and_sync_order() {
        let p = compile(
            "int g; lock_t m; int buf[8];
             void w(int n) { lock(&m); g = g + n; unlock(&m); }
             int main() { int t;
                sys_read(0, &buf[0], 8);
                t = spawn(w, 1); w(2); join(t);
                print(g); return 0; }",
        )
        .unwrap();
        let rec = record(&p, &ExecConfig::default());
        assert!(rec.result.outcome.is_exit());
        assert_eq!(rec.logs.input_log_entries, 1);
        assert_eq!(rec.logs.input_words(), 8);
        // Two lock acquisitions on m.
        let total_mutex: usize = rec.logs.mutex_order.values().map(|v| v.len()).sum();
        assert_eq!(total_mutex, 2);
        assert_eq!(rec.logs.spawn_order, vec![0]);
    }

    #[test]
    fn recorded_journal_matches_order_streams() {
        let p = compile(
            "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 40; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                print(g); return 0; }",
        )
        .unwrap();
        let rec = record(&p, &ExecConfig::default());
        // The journal is the global order; projected per object it must
        // reproduce the per-object streams — which is exactly what the v2
        // encoder relies on to drop the explicit sections.
        let bytes = rec.logs.to_bytes();
        let back = ReplayLogs::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, rec.logs);
        let total: usize = rec.logs.mutex_order.values().map(|v| v.len()).sum();
        assert!(rec.logs.journal.len() >= total);
    }

    #[test]
    fn recorder_emits_checkpoints_at_chunk_boundaries() {
        let p = compile(
            "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 400; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                print(g); return 0; }",
        )
        .unwrap();
        let rec = record(&p, &ExecConfig::default());
        assert!(
            rec.logs.journal.len() >= 800,
            "expected a multi-chunk journal, got {}",
            rec.logs.journal.len()
        );
        assert!(!rec.logs.checkpoints.is_empty());
        for (i, cp) in rec.logs.checkpoints.iter().enumerate() {
            assert_eq!(cp.events, (i as u64 + 1) * CHUNK_EVENTS as u64);
        }
        // Interval 0 turns checkpointing off and must not change the logs
        // otherwise.
        let rec0 = record_with(&p, &ExecConfig::default(), 0);
        assert!(rec0.logs.checkpoints.is_empty());
        assert_eq!(rec0.logs.journal, rec.logs.journal);
    }

    #[test]
    fn recording_costs_inflate_makespan() {
        let src = "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 200; i = i + 1) {
                lock(&m); g = g + 1; unlock(&m); } }
             int main() { int t; t = spawn(w, 0); w(0); join(t); return g; }";
        let p = compile(src).unwrap();
        let plain = chimera_runtime::execute(&p, &ExecConfig::default());
        let rec = record(&p, &ExecConfig::default());
        assert!(
            rec.result.makespan > plain.makespan,
            "logging must cost time: {} vs {}",
            rec.result.makespan,
            plain.makespan
        );
    }
}
