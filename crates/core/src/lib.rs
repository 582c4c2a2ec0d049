//! **Chimera** — hybrid program analysis for deterministic record & replay
//! (reproduction of Lee, Chen, Flinn, Narayanasamy, PLDI 2012).
//!
//! Chimera makes an arbitrary multithreaded program deterministically
//! replayable by transforming it into a *data-race-free-under-weak-locks*
//! program: a sound static race detector finds every potential race, and
//! each one is guarded by a weak-lock whose granularity is chosen by
//! profiling (function-level clique locks for never-concurrent code) and
//! symbolic bounds analysis (ranged loop-locks for partitioned array
//! work). Recording then only needs inputs, program-synchronization order,
//! and weak-lock order.
//!
//! This crate is the facade over the workspace:
//!
//! | layer | crate |
//! |---|---|
//! | C-like front end + IR | [`chimera_minic`] |
//! | points-to analyses | [`chimera_pta`] |
//! | static race detector | [`chimera_relay`] |
//! | symbolic bounds | [`chimera_bounds`] |
//! | profiler | [`chimera_profile`] |
//! | instrumenter | [`chimera_instrument`] |
//! | virtual machine | [`chimera_runtime`] |
//! | record/replay | [`chimera_replay`] |
//! | benchmarks | [`chimera_workloads`] |
//! | hostile sweep (`chimera explore`) | [`chimera_fleet`] |
//! | evidence-driven demotion | [`chimera_plan`] |
//!
//! # Quickstart
//!
//! ```
//! use chimera::{analyze, measure, PipelineConfig};
//! use chimera_minic::compile;
//! use chimera_runtime::ExecConfig;
//!
//! // A racy program: unsynchronized read-modify-write on `g`.
//! let program = compile(
//!     "int g;
//!      void w(int v) { int i; int x;
//!          for (i = 0; i < 50; i = i + 1) { x = g; g = x + v; } }
//!      int main() { int t; t = spawn(w, 1); w(2); join(t); print(g); return 0; }",
//! )
//! .unwrap();
//!
//! // Detect races, profile, instrument with weak-locks...
//! let analysis = analyze(&program, &PipelineConfig::default());
//! assert!(analysis.instrumented.weak_locks > 0);
//!
//! // ...then record once and replay under different timing: identical.
//! let m = measure(&analysis, &ExecConfig::default(), 42);
//! assert!(m.deterministic);
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod pipeline;

pub use experiment::{
    ablation_row, analyze_workload, fig5_overheads, fig6_fractions, fig7_breakdown,
    fig8_scalability, figure5_configs, profile_sensitivity, profile_workload, table2_row,
    threshold_sweep, AblationRow, Breakdown, Table2Row,
};
pub use pipeline::{
    analyze, analyze_with_profile, certify_drf, measure, measure_trials, Analysis,
    DrfCertificate, Measurement, PipelineConfig, TrialSummary,
};

pub use chimera_fleet::{
    run_fleet, CellKey, CellOutcome, FleetConfig, FleetReport, FleetRun, FleetTarget, Grid,
    Journal, ScheduleObserver, SeedOutcome,
};

pub use chimera_plan::{
    apply_plan, demote, gather_evidence, verify_under_plan, CertifiedPlan, Evidence, GatherConfig,
    Thresholds,
};

// Re-export the member crates for one-stop access.
pub use chimera_bounds as bounds;
pub use chimera_drd as drd;
pub use chimera_fleet as fleet;
pub use chimera_instrument as instrument;
pub use chimera_instrument::OptSet;
pub use chimera_minic as minic;
pub use chimera_plan as planning;
pub use chimera_profile as profile;
pub use chimera_pta as pta;
pub use chimera_relay as relay;
pub use chimera_replay as replay;
pub use chimera_runtime as runtime;
pub use chimera_workloads as workloads;

/// Write a command-line report's text to standard output. A closed
/// standard output (its reader, such as `head`, has exited) ends the
/// report: the process exits with status 0 and writes nothing to
/// standard error. Any other write error exits with status 1, naming it.
/// The binaries print through [`out!`] and [`outln!`], which call this.
pub fn emit(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error writing to standard output: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`emit`]: a closed standard output ends the process
/// quietly instead of panicking.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}
