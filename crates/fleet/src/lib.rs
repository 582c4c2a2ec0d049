//! chimera-fleet: a work-stealing exploration orchestrator with a
//! persistent schedule corpus and incremental resume.
//!
//! The explore sweep (one program, a handful of strategy × seed cells)
//! answers "does this program survive adversarial scheduling?". The
//! fleet answers the campaign-scale question: run *thousands* of cells —
//! every workload × every strategy × a wall of seeds — overnight,
//! incrementally, across interrupted invocations, without ever counting
//! the same schedule twice.
//!
//! Three pieces:
//!
//! - [`cell`] — the shared per-cell pipeline ([`run_cell`]): record under
//!   an adversarial strategy, hostile-replay at a derived seed, verify
//!   equivalence, run the single-holder probe, optionally cross-check
//!   with FastTrack. Identical to the explore sweep body — explore now
//!   calls this same function.
//! - [`journal`] — every executed cell's outcome, keyed by
//!   [`CellKey`] (program digest, strategy, seed, exec-config digest),
//!   persisted in a checksummed varint-framed container. `--resume`
//!   skips journaled cells; `--check-determinism` stores the double-run
//!   verdict.
//! - [`corpus`] — the seed corpus of *interesting* cells: new order-hash
//!   coverage, divergences, near-divergences (forced releases without
//!   divergence), preemption-heavy schedules, probe violations,
//!   determinism failures. Same container idiom; both files fail loudly
//!   on truncation or corruption, never panic.
//!
//! [`orchestrator::run_fleet`] ties them together: grid construction in
//! canonical order, journal-hit skipping, chunked work-stealing over
//! `chimera_runtime::par_map`, corpus classification, atomic
//! persistence, and a grid-wide report that is a pure function of cell
//! outcomes — so a budgeted run completed by `--resume` renders the
//! same bytes as a one-shot run.

#![warn(missing_docs)]

pub mod cell;
pub mod corpus;
pub mod journal;
pub mod orchestrator;
pub mod wire;

pub use cell::{
    exec_digest, program_digest, resolve_strategy, run_cell, CellKey, ScheduleObserver,
    SeedOutcome, StaticPairs, PREFIX_EVENTS,
};
pub use corpus::{Corpus, CorpusEntry, Interest, CORPUS_FILE, CORPUS_VERSION};
pub use journal::{CellOutcome, Journal, JOURNAL_FILE, JOURNAL_VERSION};
pub use orchestrator::{
    run_fleet, FleetConfig, FleetReport, FleetRun, FleetTarget, StrategyCells, TargetReport,
};
