//! chimera-fleet: the hostile sweep of Chimera's replay guarantee — a
//! work-stealing exploration orchestrator with a persistent run journal
//! and incremental resume.
//!
//! `chimera explore` runs it, on one program with a handful of strategy
//! × seed cells ("does this program survive adversarial scheduling?") or
//! at campaign scale: every workload × every strategy × a wall of seeds,
//! incrementally, across interrupted invocations, without ever counting
//! the same schedule twice.
//!
//! Two pieces:
//!
//! - [`cell`] — the shared per-cell pipeline ([`run_cell`]): record under
//!   an adversarial strategy with the single-holder probe observing,
//!   hostile-replay at a derived seed, verify equivalence, optionally
//!   cross-check with FastTrack; and the one hostile [`Grid`] every sweep
//!   maps it over — the orchestrator and evidence gathering alike.
//! - [`journal`] — every executed cell's outcome, keyed by
//!   [`CellKey`] (program digest, strategy, seed, exec-config digest),
//!   persisted in a `chimera_replay::wire` container (DESIGN.md §12) that
//!   fails loudly on truncation or corruption, never panics. `--resume`
//!   skips journaled cells; `--check-determinism` stores the double-run
//!   verdict.
//!
//! [`orchestrator::run_fleet`] ties them together: each target's
//! [`Grid::cells`] in canonical order, journal-hit skipping, work-stealing
//! over `chimera_runtime::par_map`, persistence when a directory is
//! given, and a grid-wide report with one row per covered cell that is a
//! pure function of cell outcomes — so a budgeted run completed by
//! `--resume` renders the same bytes as a one-shot run.

#![warn(missing_docs)]

pub mod cell;
pub mod journal;
pub mod orchestrator;

pub use cell::{
    exec_digest, program_digest, replay_seed, resolve_strategy, run_cell, CellKey, Grid, GridCell,
    ScheduleObserver, SeedOutcome, StaticPairs, PREFIX_EVENTS,
};
pub use journal::{CellOutcome, Journal, JOURNAL_FILE, JOURNAL_VERSION};
pub use orchestrator::{
    run_fleet, FleetConfig, FleetReport, FleetRun, FleetTarget, StrategyCells, TargetReport,
};
