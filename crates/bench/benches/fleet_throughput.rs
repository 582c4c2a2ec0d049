//! Fleet orchestrator throughput: a ≥1,000-cell grid (nine paper
//! workloads × three strategies × 38 seeds) executed serially vs
//! work-stealing across all host cores (DESIGN.md §14).
//!
//! The number that matters is **cells per second** and the
//! steal-vs-serial speedup: cells are pulled from a shared index by
//! `par_map` workers, so on an N-core host the grid should
//! finish close to N× faster than `--jobs 1` (the acceptance bar is ≥2×
//! on a multi-core host — on a single-core container the honest ratio is
//! ~1× and the JSON records `host_cores` so readers can tell which they
//! are looking at). Outcome aggregates from both runs are asserted
//! identical first: a throughput number for a run that changed its
//! answers would be meaningless.
//!
//! Runs as a plain binary: `cargo bench --bench fleet_throughput`. Five
//! grid runs per mode by default (`CHIMERA_BENCH_SAMPLES=n` for `n`);
//! each row records the best, median and 95th-percentile grid time, and
//! cells/s from the best. To refresh the committed data:
//! `CHIMERA_BENCH_JSON=$PWD/BENCH_fleet.json cargo bench --bench
//! fleet_throughput` (an absolute path: the bench runs in `crates/bench/`).

use chimera::fleet::{run_fleet, FleetConfig, FleetTarget, Grid};
use chimera::{analyze, PipelineConfig};
use chimera_runtime::SchedStrategy;
use std::time::Instant;

const SEEDS_PER_CELL_ROW: u64 = 38; // 9 workloads × 3 strategies × 38 = 1026

fn env_n(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn main() {
    let samples = env_n("CHIMERA_BENCH_SAMPLES", 5);
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

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

    // Untimed warmup so the serial row (measured first) is not penalized
    // with cold caches relative to the steal row.
    for _ in 0..env_n("CHIMERA_BENCH_WARMUP", 1) {
        let warm = run_fleet(&targets, &cfg(0)).expect("warmup fleet");
        std::hint::black_box(&warm);
    }

    let modes: [(&str, usize); 2] = [("serial", 1), ("steal", 0)];
    let mut rows = Vec::new();
    let mut jsons: Vec<String> = Vec::new();
    for (name, jobs) in modes {
        let mut times = Vec::with_capacity(samples);
        let mut grid = 0u64;
        for _ in 0..samples {
            let started = Instant::now();
            let run = run_fleet(&targets, &cfg(jobs)).expect("in-memory fleet cannot fail");
            times.push(started.elapsed().as_nanos() as u64);
            grid = run.report.grid;
            assert!(
                run.report.passed(),
                "grid must be clean before its speed means anything: {}",
                run.report.to_json()
            );
            assert_eq!(run.executed, grid, "in-memory run executes every cell");
            jsons.push(run.report.to_json());
        }
        times.sort_unstable();
        let best_ns = times[0];
        let median_ns = times[times.len() / 2];
        let p95_ns = times[(times.len() * 95).div_ceil(100) - 1];
        let cells_per_sec = grid as f64 * 1e9 / best_ns as f64;
        let workers = if jobs == 0 { host_cores } else { jobs };
        println!(
            "fleet/{name}: {grid} cells in {:.2}s best, {:.2}s median, {:.2}s p95 \
             ({cells_per_sec:.1} cells/s, {workers} worker(s))",
            best_ns as f64 / 1e9,
            median_ns as f64 / 1e9,
            p95_ns as f64 / 1e9,
        );
        rows.push((
            name,
            workers,
            [best_ns, median_ns, p95_ns],
            grid,
            cells_per_sec,
        ));
    }
    // Worker count must never leak into outcomes.
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "serial and work-stealing grids disagreed"
    );

    let speedup = rows[1].4 / rows[0].4;
    println!(
        "work-stealing speedup: {speedup:.2}x over serial on {host_cores} core(s) \
         (≥2x expected on multi-core hosts)"
    );

    if let Some(path) = std::env::var_os("CHIMERA_BENCH_JSON") {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"fleet_throughput\",\n");
        s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
        s.push_str(&format!("  \"grid_cells\": {},\n", rows[0].3));
        s.push_str(&format!("  \"samples\": {samples},\n"));
        s.push_str(&format!("  \"speedup\": {speedup:.4},\n"));
        s.push_str("  \"rows\": [\n");
        for (i, (name, workers, [ns, median, p95], cells, cps)) in rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"fleet/{name}\", \"jobs\": {workers}, \"elapsed_ns\": {ns}, \
                 \"median_ns\": {median}, \"p95_ns\": {p95}, \
                 \"cells\": {cells}, \"cells_per_sec\": {cps:.1}}}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        match std::fs::write(&path, s) {
            Ok(()) => eprintln!("wrote {}", path.to_string_lossy()),
            Err(e) => eprintln!("CHIMERA_BENCH_JSON write failed: {e}"),
        }
    }
}
