//! A `std::time::Instant` micro-benchmark runner.
//!
//! Replaces criterion for this workspace's purposes: each benchmark is a
//! closure timed for a few warmup iterations and then N samples; the
//! report prints min / median / p95 / max per benchmark as an aligned
//! table. Bench targets are plain binaries (`harness = false`), so they
//! build and run offline with nothing but std.
//!
//! A row can also carry *exact* fields: deterministic facts about the
//! timed work (event counts, byte sizes, virtual-time makespans) that
//! repeat bit for bit, written beside the wall-clock figures but never
//! mixed into them. [`Group::bench`] returns the row it pushed, so a
//! filtered-out benchmark gets none.
//!
//! ```no_run
//! let mut runner = chimera_testkit::bench::Runner::from_args();
//! let mut group = runner.group("parsing");
//! if let Some(row) = group.bench("small", || { /* work */ }) {
//!     row.exact("tokens", 42);
//! }
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
    /// Exact fields, `(key, JSON number)`, in the order they were added.
    pub exact: Vec<(String, String)>,
}

impl BenchStats {
    /// Attach an exact field: a deterministic count, size or makespan of
    /// the timed work. `value` must render as a JSON number.
    pub fn exact(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.exact.push((key.to_string(), value.to_string()));
        self
    }
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
        exact: Vec::new(),
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
        let mut rows = vec![["benchmark", "samples", "min", "median", "p95", "max"]
            .map(String::from)
            .to_vec()];
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
        print!("{}", render_table(&rows));
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

    /// Time `f`: warmup iterations, then the configured samples. Returns
    /// the pushed row, for exact fields, or `None` when the filter skipped
    /// the benchmark.
    pub fn bench(&mut self, id: &str, mut f: impl FnMut()) -> Option<&mut BenchStats> {
        let full = format!("{}/{id}", self.name);
        if let Some(filter) = &self.runner.filter {
            if !full.contains(filter.as_str()) {
                return None;
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
        self.runner.results.last_mut()
    }

    /// No-op terminator kept for call-site symmetry with criterion.
    pub fn finish(&mut self) {}
}

/// Render results as a stable, human-diffable JSON array (one object per
/// benchmark, durations in nanoseconds, each row tagged with the host's
/// `available_parallelism` so a reader can tell which kind of host
/// produced it, and followed by the row's exact fields). Hand-rolled: the
/// workspace is hermetic, so no serde — names contain only
/// `[A-Za-z0-9_/.-]` in practice, but escape quotes and backslashes
/// anyway.
pub fn json_report(results: &[BenchStats]) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let name = r.name.replace('\\', "\\\\").replace('"', "\\\"");
        let exact: String = r
            .exact
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v}"))
            .collect();
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"host_cores\": {}, \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}{exact}}}{}\n",
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

/// Render rows as an aligned plain-text table, every column
/// right-aligned. The first row is the header, underlined with dashes.
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, r) in rows.iter().enumerate() {
        for (i, cell) in r.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(&"-".repeat(*w));
            }
            out.push('\n');
        }
    }
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
            let row = g.bench("keep_me", || ran += 1).expect("kept by the filter");
            row.exact("events", 7);
        }
        // warmup(1) + samples(2)
        assert_eq!(ran, 3);
        let mut skipped = 0u32;
        {
            let mut g = runner.group("g");
            assert!(g.bench("other", || skipped += 1).is_none());
        }
        assert_eq!(skipped, 0);
        assert_eq!(runner.results.len(), 1);
        assert!(runner.results[0].name == "g/keep_me");
        assert_eq!(runner.results[0].exact, [("events".to_string(), "7".to_string())]);
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut results = vec![
            stats_of("g/a", vec![Duration::from_micros(5), Duration::from_micros(9)]),
            stats_of("g/\"b\"", vec![Duration::from_nanos(42)]),
        ];
        results[0].exact("makespan", 17862).exact("ratio", format!("{:.3}", 1.5));
        let json = json_report(&results);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert!(json.contains("\"name\": \"g/a\""));
        assert!(json.contains("\"min_ns\": 5000"));
        assert!(
            json.contains("\"max_ns\": 9000, \"makespan\": 17862, \"ratio\": 1.500},"),
            "{json}"
        );
        assert_eq!(json.matches("\"host_cores\": ").count(), 2);
        assert!(json.contains("\"name\": \"g/\\\"b\\\"\""), "{json}");
        assert_eq!(json.matches('{').count(), 2);
        assert_eq!(json.matches("},").count(), 1, "all but last comma-separated");
    }

    #[test]
    fn table_aligns_columns() {
        let t = render_table(&[
            vec!["name".into(), "value".into()],
            vec!["a".into(), "1".into()],
            vec!["longer".into(), "22".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
