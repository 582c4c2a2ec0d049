//! In-tree determinism toolkit for the Chimera workspace.
//!
//! The whole point of this reproduction is determinism you can trust, so its
//! own test and bench infrastructure must be deterministic *and* hermetic:
//! no crates.io dependencies, no network at build time, identical behaviour
//! on every machine. This crate supplies the three pieces the workspace
//! previously pulled from `rand`, `proptest`, and `criterion`:
//!
//! * [`rng`] — a seeded PRNG (SplitMix64 seeding, xoshiro256++ core) with
//!   `gen_range` / `shuffle` / `choose` helpers. Used by the runtime for
//!   scheduling jitter and simulated I/O, and by the property harness.
//! * [`prop`] — a minimal property-testing harness: composable generators,
//!   a fixed-iteration driver, greedy choice-tape shrinking, and failure
//!   output that prints a `CHIMERA_TESTKIT_SEED=<n>` line which replays the
//!   exact failing case.
//! * [`bench`] — a `std::time::Instant` micro-bench runner (warmup + N
//!   timed iterations, min/median/p95/max report) so the bench suite runs
//!   as plain binaries.
//! * [`corrupt`] — the one hostile-input suite every on-disk container
//!   codec runs: truncations, byte flips, random soup and seeded
//!   corruption of valid encodings, with named errors and no panics.
//!
//! Everything in here is `std`-only by design. Keep it that way.

#![warn(missing_docs)]

pub mod bench;
pub mod corrupt;
pub mod prop;
pub mod rng;

pub use bench::{BenchStats, Runner};
pub use corrupt::{corruption_suite, Codec};
pub use prop::{check, sample_with_seed, Config, Gen, Source};
pub use rng::{RandomSource, Rng, SplitMix64};
