//! Fleet orchestrator throughput: a ≥1,000-cell grid (nine paper
//! workloads × three strategies × 38 seeds) executed serially vs
//! work-stealing across all host cores (DESIGN.md §14).
//!
//! The number that matters is **cells per second** and the
//! steal-vs-serial speedup: cells are pulled from a shared index by
//! `par_map` workers, so on an N-core host the grid should
//! finish close to N× faster than `--jobs 1` (the acceptance bar is ≥2×
//! on a multi-core host — on a single-core container the honest ratio is
//! ~1× and each row records `host_cores` so readers can tell which they
//! are looking at). Every grid run, warmups included, asserts a clean
//! grid, and the reports of all runs in both modes are asserted
//! identical: a throughput number for a run that changed its answers
//! would be meaningless.
//!
//! Runs as a plain binary on `chimera-testkit`'s bench runner:
//! `cargo bench --bench fleet_throughput [filter]`. Five grid runs per
//! mode by default (`CHIMERA_BENCH_SAMPLES=n` for `n`); rows `serial` and
//! `steal` carry the exact `jobs` (the workers `par_map` ran) and
//! `cells`. To refresh the committed data:
//! `CHIMERA_BENCH_JSON=$PWD/BENCH_fleet.json cargo bench --bench
//! fleet_throughput` (an absolute path: the bench runs in `crates/bench/`).

use chimera::fleet::{run_fleet, FleetConfig, FleetTarget, Grid};
use chimera::{analyze, PipelineConfig};
use chimera_runtime::{worker_count, SchedStrategy};
use chimera_testkit::bench::Runner;

const SEEDS_PER_CELL_ROW: u64 = 38; // 9 workloads × 3 strategies × 38 = 1026

fn main() {
    let targets: Vec<FleetTarget> = chimera::workloads::all()
        .iter()
        .map(|w| {
            let p = w
                .compile(&w.profile_params(0))
                .expect("paper workload compiles");
            let a = analyze(&p, &PipelineConfig::default());
            FleetTarget::instrumented(w.name, a.instrumented.clone())
        })
        .collect();

    let cfg = |jobs: usize| FleetConfig {
        grid: Grid {
            strategies: vec![
                SchedStrategy::ClockJitter,
                SchedStrategy::pct(3),
                SchedStrategy::preempt_bound(),
            ],
            seeds: (1..=SEEDS_PER_CELL_ROW).collect(),
            jobs,
            ..Grid::default()
        },
        ..FleetConfig::default()
    };

    let mut runner = Runner::from_args();
    let mut group = runner.group("fleet");
    group.sample_size(5);
    let mut reports: Vec<String> = Vec::new();
    let mut medians = Vec::new();
    for (name, jobs) in [("serial", 1), ("steal", 0)] {
        let mut cells = 0u64;
        let row = group.bench(name, || {
            let run = run_fleet(&targets, &cfg(jobs)).expect("in-memory fleet cannot fail");
            assert!(
                run.report.passed(),
                "grid must be clean before its speed means anything: {}",
                run.report.to_json()
            );
            assert_eq!(run.executed, run.report.grid, "in-memory run executes every cell");
            cells = run.report.grid;
            reports.push(run.report.to_json());
        });
        if let Some(row) = row {
            let workers = worker_count(jobs, cells as usize);
            println!(
                "fleet/{name}: {cells} cells, {:.1} cells/s at the median, {workers} worker(s)",
                cells as f64 / row.median.as_secs_f64()
            );
            row.exact("jobs", workers).exact("cells", cells);
            medians.push(row.median);
        }
    }
    group.finish();
    // Worker count must never leak into outcomes.
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "serial and work-stealing grids disagreed"
    );
    if let [serial, steal] = medians[..] {
        println!(
            "work-stealing speedup: {:.2}x over serial at the median \
             (≥2x expected on multi-core hosts)",
            serial.as_secs_f64() / steal.as_secs_f64()
        );
    }
    runner.finish();
}
