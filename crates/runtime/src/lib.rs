//! The Chimera execution substrate: a deterministic-when-seeded,
//! virtual-time multithreaded virtual machine for MiniC IR.
//!
//! The original system modified the Linux kernel and glibc's pthreads to
//! record and replay real executions on an 8-core Xeon. This crate is that
//! substrate's laptop-scale analogue (see DESIGN.md §2): it executes IR
//! with per-thread virtual clocks, pthread-style synchronization, simulated
//! I/O with latency, and Chimera's weak-lock semantics, and exposes a
//! [`event::Supervisor`] hook that the recorder, replayer and profiler plug
//! into.
//!
//! # Quickstart
//!
//! ```
//! use chimera_minic::compile;
//! use chimera_runtime::{execute, ExecConfig};
//!
//! let p = compile(
//!     "int g; lock_t m;
//!      void w(int n) { int i; for (i = 0; i < n; i = i + 1) {
//!          lock(&m); g = g + 1; unlock(&m); } }
//!      int main() { int t; t = spawn(w, 10); w(10); join(t); print(g); return 0; }",
//! )
//! .unwrap();
//! let result = execute(&p, &ExecConfig::default());
//! assert!(result.outcome.is_exit());
//! assert_eq!(result.output_of(chimera_runtime::ThreadId(0)), vec![20]);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod event;
mod flat;
pub mod machine;
pub mod memory;
pub mod parallel;
pub mod probe;
pub mod sched;
pub mod stats;
pub mod sync;
pub mod world;

pub use cost::{CostModel, Jitter};
pub use flat::{fusion_summary, FusionSummary};
pub use parallel::{par_map, worker_count};
pub use event::{
    Event, EventKind, EventMask, NullSupervisor, OrderPoint, Supervisor, SyncKind, ThreadId,
};
pub use machine::{
    execute, execute_mode, execute_supervised, execute_supervised_mode, ExecConfig, ExecResult,
    InterpMode, Outcome,
};
pub use probe::SingleHolderProbe;
pub use sched::{SchedStrategy, Scheduler};
pub use memory::{Memory, RegionKind};
pub use stats::{ExecStats, VmPerf};
pub use world::{IoModel, World};
