//! Deterministic record & replay for MiniC executions (the paper's runtime
//! system, §6.1).
//!
//! The recorder logs the three things Chimera needs (paper §1–2):
//!
//! 1. all nondeterministic input (system-call payloads),
//! 2. the happens-before order of the program's own synchronization, and
//! 3. the acquisition order of every instrumenter-added weak-lock, plus any
//!    forced releases with their exact preemption points.
//!
//! The replayer enforces those orders and feeds recorded inputs back with
//! zero latency. For a Chimera-instrumented program this reproduces the
//! execution exactly; for a racy *uninstrumented* program it can diverge —
//! a contrast demonstrated in this crate's tests and the `debug_race`
//! example.
//!
//! # Quickstart
//!
//! ```
//! use chimera_minic::compile;
//! use chimera_replay::{record, replay, verify_determinism};
//! use chimera_runtime::ExecConfig;
//!
//! let p = compile(
//!     "int g; lock_t m;
//!      void w(int n) { lock(&m); g = g + n; unlock(&m); }
//!      int main() { int t; t = spawn(w, 1); w(2); join(t);
//!                   lock(&m); print(g); unlock(&m); return 0; }",
//! )
//! .unwrap();
//! let rec = record(&p, &ExecConfig { seed: 1, ..ExecConfig::default() });
//! let rep = replay(&p, &rec.logs, &ExecConfig { seed: 2, ..ExecConfig::default() });
//! assert!(verify_determinism(&rec.result, &rep.result).equivalent);
//! ```

#![warn(missing_docs)]

pub mod logs;
pub mod record;
pub mod replayer;
pub mod verify;
pub mod wire;

pub use logs::{compressed_estimate, Checkpoint, JournalEvent, ReplayLogs, CHUNK_EVENTS};
pub use record::{record, record_observed, record_with, Recorder, Recording};
pub use replayer::{replay, replay_bisect, BisectReplay, ReplayRun, Replayer};
pub use verify::{
    localize_divergence, verify_determinism, DeterminismReport, Divergence, DivergenceCause,
};
