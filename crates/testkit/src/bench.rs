//! A `std::time::Instant` micro-benchmark runner.
//!
//! Replaces criterion for this workspace's purposes: each benchmark is a
//! closure timed for a few warmup iterations and then N samples; the
//! report prints min / median / p95 / max per benchmark as an aligned
//! table. Bench targets are plain binaries (`harness = false`), so they
//! build and run offline with nothing but std.
//!
//! ```no_run
//! let mut runner = chimera_testkit::bench::Runner::from_args();
//! let mut group = runner.group("parsing");
//! group.bench("small", || { /* work */ });
//! group.finish();
//! runner.finish();
//! ```
//!
//! Environment knobs: `CHIMERA_BENCH_SAMPLES` (default 15) and
//! `CHIMERA_BENCH_WARMUP` (default 3) override the per-bench iteration
//! counts — CI smoke runs set both to 1. A single CLI argument acts as a
//! substring filter on `group/id` names, like criterion's. Setting
//! `CHIMERA_BENCH_JSON=<path>` additionally writes the results as a JSON
//! array to `<path>` — committed scaling data (e.g. `BENCH_pta.json`) is
//! produced this way, and CI smoke runs, which leave the variable unset,
//! never clobber it.

use std::time::{Duration, Instant};

/// Timing summary for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Full benchmark name (`group/id`).
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// 95th-percentile sample.
    pub p95: Duration,
    /// Slowest sample.
    pub max: Duration,
}

/// Compute stats from raw samples (must be non-empty).
fn stats_of(name: &str, mut samples: Vec<Duration>) -> BenchStats {
    samples.sort_unstable();
    let n = samples.len();
    let pick = |q_num: usize, q_den: usize| {
        let idx = (n - 1) * q_num / q_den;
        samples[idx]
    };
    BenchStats {
        name: name.to_string(),
        samples: n,
        min: samples[0],
        median: pick(1, 2),
        p95: pick(95, 100),
        max: samples[n - 1],
    }
}

/// Top-level bench driver: collects results from groups and prints the
/// report in [`Runner::finish`].
pub struct Runner {
    filter: Option<String>,
    samples: usize,
    warmup: usize,
    results: Vec<BenchStats>,
}

impl Runner {
    /// Build from `std::env::args` (first free argument = substring
    /// filter) and the `CHIMERA_BENCH_*` environment.
    pub fn from_args() -> Runner {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        Runner::new(filter)
    }

    /// Build with an explicit filter.
    pub fn new(filter: Option<String>) -> Runner {
        let env_n = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(default)
        };
        Runner {
            filter,
            samples: env_n("CHIMERA_BENCH_SAMPLES", 15),
            warmup: env_n("CHIMERA_BENCH_WARMUP", 3),
            results: Vec::new(),
        }
    }

    /// Start a named group of benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            runner: self,
            name: name.to_string(),
            samples_override: None,
        }
    }

    /// Print the aligned report for every benchmark run so far, and write
    /// the JSON report if `CHIMERA_BENCH_JSON` names a path.
    pub fn finish(self) {
        if self.results.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        if let Some(path) = std::env::var_os("CHIMERA_BENCH_JSON") {
            let json = json_report(&self.results);
            match std::fs::write(&path, json) {
                Ok(()) => eprintln!("wrote {}", path.to_string_lossy()),
                Err(e) => eprintln!("CHIMERA_BENCH_JSON write failed: {e}"),
            }
        }
        let mut rows = vec![vec![
            "benchmark".to_string(),
            "samples".to_string(),
            "min".to_string(),
            "median".to_string(),
            "p95".to_string(),
            "max".to_string(),
        ]];
        for r in &self.results {
            rows.push(vec![
                r.name.clone(),
                r.samples.to_string(),
                fmt_duration(r.min),
                fmt_duration(r.median),
                fmt_duration(r.p95),
                fmt_duration(r.max),
            ]);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
            .collect();
        for (ri, row) in rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(c, cell)| {
                    if c == 0 {
                        format!("{cell:<width$}", width = widths[c])
                    } else {
                        format!("{cell:>width$}", width = widths[c])
                    }
                })
                .collect();
            println!("{}", line.join("  "));
            if ri == 0 {
                let dashes: Vec<String> =
                    widths.iter().map(|w| "-".repeat(*w)).collect();
                println!("{}", dashes.join("  "));
            }
        }
    }
}

/// A named group; benchmark ids are reported as `group/id`.
pub struct Group<'a> {
    runner: &'a mut Runner,
    name: String,
    samples_override: Option<usize>,
}

impl Group<'_> {
    /// Override the sample count for this group (mirrors criterion's
    /// `sample_size`; the environment still wins for CI smoke runs).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if std::env::var_os("CHIMERA_BENCH_SAMPLES").is_none() && n > 0 {
            self.samples_override = Some(n);
        }
        self
    }

    /// Time `f`: warmup iterations, then the configured samples.
    pub fn bench(&mut self, id: &str, mut f: impl FnMut()) {
        let full = format!("{}/{id}", self.name);
        if let Some(filter) = &self.runner.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let samples = self.samples_override.unwrap_or(self.runner.samples);
        for _ in 0..self.runner.warmup {
            f();
        }
        let timed: Vec<Duration> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed()
            })
            .collect();
        let stats = stats_of(&full, timed);
        eprintln!(
            "{}: median {} over {} sample(s)",
            stats.name,
            fmt_duration(stats.median),
            stats.samples
        );
        self.runner.results.push(stats);
    }

    /// No-op terminator kept for call-site symmetry with criterion.
    pub fn finish(&mut self) {}
}

/// Render results as a stable, human-diffable JSON array (one object per
/// benchmark, durations in nanoseconds, each row tagged with the host's
/// `available_parallelism` so a reader can tell which kind of host
/// produced it). Hand-rolled: the workspace is
/// hermetic, so no serde — names contain only `[A-Za-z0-9_/.-]` in
/// practice, but escape quotes and backslashes anyway.
pub fn json_report(results: &[BenchStats]) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let name = r.name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"host_cores\": {}, \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}}}{}\n",
            name,
            host_cores,
            r.samples,
            r.min.as_nanos(),
            r.median.as_nanos(),
            r.p95.as_nanos(),
            r.max.as_nanos(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_order_and_percentiles() {
        let samples: Vec<Duration> =
            (1..=100).rev().map(Duration::from_micros).collect();
        let s = stats_of("g/x", samples);
        assert_eq!(s.min, Duration::from_micros(1));
        assert_eq!(s.max, Duration::from_micros(100));
        assert_eq!(s.median, Duration::from_micros(50));
        assert_eq!(s.p95, Duration::from_micros(95));
        assert_eq!(s.samples, 100);
    }

    #[test]
    fn single_sample_stats() {
        let s = stats_of("g/one", vec![Duration::from_millis(3)]);
        assert_eq!(s.min, s.median);
        assert_eq!(s.p95, s.max);
    }

    #[test]
    fn runner_times_and_filters() {
        let mut runner = Runner::new(Some("keep".to_string()));
        runner.samples = 2;
        runner.warmup = 1;
        let mut ran = 0u32;
        {
            let mut g = runner.group("g");
            g.bench("keep_me", || ran += 1);
        }
        // warmup(1) + samples(2)
        assert_eq!(ran, 3);
        let mut skipped = 0u32;
        {
            let mut g = runner.group("g");
            g.bench("other", || skipped += 1);
        }
        assert_eq!(skipped, 0);
        assert_eq!(runner.results.len(), 1);
        assert!(runner.results[0].name == "g/keep_me");
    }

    #[test]
    fn json_report_is_well_formed() {
        let results = vec![
            stats_of("g/a", vec![Duration::from_micros(5), Duration::from_micros(9)]),
            stats_of("g/\"b\"", vec![Duration::from_nanos(42)]),
        ];
        let json = json_report(&results);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert!(json.contains("\"name\": \"g/a\""));
        assert!(json.contains("\"min_ns\": 5000"));
        assert_eq!(json.matches("\"host_cores\": ").count(), 2);
        assert!(json.contains("\"name\": \"g/\\\"b\\\"\""), "{json}");
        assert_eq!(json.matches('{').count(), 2);
        assert_eq!(json.matches("},").count(), 1, "all but last comma-separated");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
