//! One benchmark run: repeated set-up, the timed closed loop, and the
//! metrics it reports.
//!
//! The loop has one client: a single thread issues jobs back to
//! back until `--seconds` have passed, always finishing at least one full
//! cycle of the workload's inputs. The library's own fan-out (`par_map`
//! in profiling and evidence gathering) may use more threads.

use crate::stats::{geomean, median, quantile};
use crate::trace::{call_times, layer_times, Tracer, JOB, PROBE};
use crate::workloads::{mix, probe, run_job, setup, virtuals, JobOut, Kind, Setup, Virtual};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// How a metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Measured on the host (wall clock, memory): varies run to run.
    Wall,
    /// Deterministic virtual-time result: same seed, same value.
    Virtual,
    /// Deterministic count or ratio of counts.
    Count,
}

impl MetricKind {
    /// Tag written to `--out` files.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Wall => "wall",
            MetricKind::Virtual => "virtual",
            MetricKind::Count => "count",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it is measured.
    pub kind: MetricKind,
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub traced: bool,
    /// Stop after this many jobs instead of after `seconds` (smoke runs).
    pub max_jobs: Option<u64>,
}

/// Everything a run produced.
pub struct Report {
    /// The options it ran with.
    pub opts: RunOpts,
    /// `available_parallelism` of the host.
    pub host_cores: usize,
    /// No job failed and every oracle passed.
    pub correct: bool,
    /// Jobs attempted in the timed loop.
    pub attempted: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Failure messages (oracles, jobs, probes).
    pub errors: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Traced run: per-layer busy/self/share table.
    pub layer_table: String,
    /// Traced run: Chrome trace-event JSON.
    pub trace_json: Option<String>,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p))))
}

/// Set up, then warm up: one job, or one job per input for
/// long-record-replay, whose analyzed programs every cycle reuses (the VM
/// decodes a program on its first run). hybrid-sweep's oracle has already
/// run every input.
fn setup_once(o: &RunOpts, rep: usize, tmp: &Path) -> Result<Setup, String> {
    guarded(|| {
        let s = setup(o.kind, o.seed, tmp)?;
        let warm = if o.kind == Kind::Long {
            s.inputs.len()
        } else {
            1
        };
        for j in 0..warm as u64 {
            let seed = mix(o.seed, u64::MAX - (rep as u64) * 64 - j);
            run_job(&s, j, seed, &mut Tracer::new(false))
                .map_err(|e| format!("warm-up job: {e}"))?;
        }
        Ok(s)
    })
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Execute one run.
pub fn run(o: &RunOpts, tmp: &Path) -> Report {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report {
        opts: *o,
        host_cores,
        correct: false,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        layer_table: String::new(),
        trace_json: None,
    };

    let mut setup_s = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        match setup_once(o, rep, tmp) {
            Ok(s) => ready = Some(s),
            Err(e) => {
                report.errors.push(format!("set-up: {e}"));
                return report;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = ready.expect("SETUP_REPS > 0");

    // A block is a run of jobs that are all traced or all untraced; the
    // traced run alternates them so traced and untraced job times come
    // from the same process and inputs. A traced block's probes run after
    // its last job, so they do not disturb the jobs they follow.
    let cycle = setup.inputs.len() as u64;
    let block = if o.max_jobs.is_some() { 1 } else { cycle };
    let min_jobs = if o.traced { 2 * block } else { cycle };
    let deadline = Duration::from_secs_f64(o.seconds);
    let mut tr = Tracer::new(o.traced);
    let mut off = Tracer::new(false);
    let mut job_ms: Vec<f64> = Vec::new();
    let mut virt: Vec<Virtual> = Vec::new();
    let mut to_probe: Vec<(u64, JobOut)> = Vec::new();
    let mut probe_failed = false;
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let done = match o.max_jobs {
            Some(n) => i >= n,
            None => i >= min_jobs && start.elapsed() >= deadline,
        };
        if done || i.is_multiple_of(block) {
            for (j, out) in to_probe.drain(..) {
                tr.begin(PROBE, j);
                if let Err(e) = guarded(|| probe(&setup, &out, &mut tr)) {
                    probe_failed = true;
                    let name = &out.input.name;
                    report
                        .errors
                        .push(format!("probe after job {j} ({name}): {e}"));
                }
                tr.end();
            }
        }
        if done {
            break;
        }
        let traced = o.traced && (i / block) % 2 == 1;
        let t = if traced { &mut tr } else { &mut off };
        t.begin(JOB, i);
        let t0 = Instant::now();
        let res = guarded(|| run_job(&setup, i, mix(o.seed, i), t));
        job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t.end();
        report.attempted += 1;
        // Untimed: the virtual-time pass over the first cycle.
        let res = res.and_then(|out| {
            if !o.traced && i < cycle {
                virt.push(guarded(|| virtuals(&out))?);
            }
            if traced {
                to_probe.push((i, out));
            }
            Ok(())
        });
        if let Err(e) = res {
            report.failed += 1;
            let name = &setup.inputs[(i % cycle) as usize].name;
            report.errors.push(format!("job {i} ({name}): {e}"));
        }
        i += 1;
    }
    report.correct = report.failed == 0 && !probe_failed;
    if o.traced {
        // Only whole blocks enter the overhead comparison.
        let whole = i / block * block;
        let mean_of = |want: u64| {
            let v: Vec<f64> = (0..whole)
                .filter(|j| (j / block) % 2 == want)
                .map(|j| job_ms[j as usize])
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let untraced_ms = mean_of(0);
        let overhead_pct = if untraced_ms > 0.0 {
            (mean_of(1) / untraced_ms - 1.0) * 100.0
        } else {
            0.0
        };
        let (metrics, table) = layer_metrics(&tr, overhead_pct);
        report.metrics = metrics;
        report.layer_table = table;
        report.trace_json = Some(tr.chrome_json());
    } else {
        report.metrics = e2e_metrics(&setup_s, &job_ms, cycle as usize, &virt);
    }
    report
}

/// Metrics in report order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, kind: MetricKind) {
        self.0.push(Metric {
            name,
            value,
            unit,
            kind,
        });
    }
}

/// The end-to-end metrics of an untraced run.
fn e2e_metrics(setup_s: &[f64], job_ms: &[f64], cycle: usize, virt: &[Virtual]) -> Vec<Metric> {
    use MetricKind::{Virtual as Virt, Wall};
    let mut m = Metrics::default();
    // Throughput over the median complete cycle: a burst of load from
    // outside the benchmark slows one cycle, not the reported rate.
    // (A smoke run completes no cycle and uses all its jobs.)
    let mut cycle_s: Vec<f64> = job_ms
        .chunks_exact(cycle)
        .map(|c| c.iter().sum::<f64>() / 1e3)
        .collect();
    if cycle_s.is_empty() {
        cycle_s.push(job_ms.iter().sum::<f64>() / 1e3);
    }
    let per_cycle = job_ms.len().min(cycle) as f64;
    let jobs_per_s = per_cycle / median(&cycle_s);
    let over = |f: fn(&Virtual) -> u64| -> f64 {
        let r: Vec<f64> = virt.iter().map(|v| f(v) as f64 / v.base as f64).collect();
        geomean(&r)
    };
    let bytes: usize = virt.iter().map(|v| v.log_bytes).sum();
    let events: usize = virt.iter().map(|v| v.log_events).sum();
    m.add("setup_s", median(setup_s), "s", Wall);
    m.add("jobs_per_s", jobs_per_s, "1/s", Wall);
    m.add("job_p50_ms", quantile(job_ms, 0.50), "ms", Wall);
    m.add("job_p95_ms", quantile(job_ms, 0.95), "ms", Wall);
    m.add("record_overhead_x", over(|v| v.record), "x", Virt);
    m.add("replay_overhead_x", over(|v| v.replay), "x", Virt);
    m.add(
        "log_bytes_per_event",
        bytes as f64 / events.max(1) as f64,
        "B",
        Virt,
    );
    m.add("planned_overhead_x", over(|v| v.planned), "x", Virt);
    m.add("peak_rss_mb", peak_rss_mb(), "MiB", Wall);
    m.0
}

/// The per-layer metrics of a traced run, and its layer table.
fn layer_metrics(tr: &Tracer, overhead_pct: f64) -> (Vec<Metric>, String) {
    use MetricKind::{Count, Wall};
    let mut m = Metrics::default();
    let spans = tr.spans();
    let calls = call_times(spans);
    let layers = layer_times(spans);
    let counts = tr.counts();
    let jobs = spans.iter().filter(|s| s.layer == JOB).count().max(1) as f64;
    let job_ns = layers.get(&(JOB, JOB)).map_or(0, |t| t.busy_ns) as f64;
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let n = |name: &str| calls.get(name).map_or(0, |c| c.0) as f64;
    let total_ms = |name: &str| calls.get(name).map_or(0, |c| c.1) as f64 / 1e6;
    let per_call = |name: &str| total_ms(name) / n(name).max(1.0);
    let per_job = |name: &str| total_ms(name) / jobs;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let codec_ms = [
        "Evidence::save",
        "Evidence::load",
        "CertifiedPlan::save",
        "CertifiedPlan::load",
    ]
    .iter()
    .map(|k| total_ms(k))
    .sum::<f64>();

    m.add("minic.busy_ms", per_job("compile"), "ms", Wall);
    m.add(
        "minic.source_lines",
        ratio(c("minic.lines"), n("compile")),
        "lines",
        Count,
    );
    m.add(
        "minic.ir_instrs",
        ratio(c("minic.ir_instrs"), n("compile")),
        "instrs",
        Count,
    );
    m.add(
        "minic.klines_per_s",
        ratio(c("minic.lines"), total_ms("compile")),
        "klines/s",
        Wall,
    );
    m.add("pta.andersen_ms", per_call("Andersen::analyze"), "ms", Wall);
    m.add(
        "pta.steensgaard_ms",
        per_call("Steensgaard::analyze"),
        "ms",
        Wall,
    );
    m.add(
        "pta.objects",
        ratio(c("pta.objects"), n("ObjectTable::build")),
        "count",
        Count,
    );
    m.add("relay.busy_ms", per_job("detect_races"), "ms", Wall);
    m.add(
        "relay.race_pairs",
        ratio(c("relay.race_pairs"), n("detect_races")),
        "count",
        Count,
    );
    m.add(
        "relay.pairs_per_ms",
        ratio(c("relay.race_pairs"), total_ms("detect_races")),
        "pairs/ms",
        Wall,
    );
    m.add(
        "relay.lockset_ms",
        per_call("LocksetAnalysis::run"),
        "ms",
        Wall,
    );
    m.add("relay.find_races_ms", per_call("find_races"), "ms", Wall);
    m.add("profile.busy_ms", per_job("profile_runs"), "ms", Wall);
    m.add("profile.runs", c("profile.runs") / jobs, "count", Count);
    m.add(
        "profile.concurrent_pairs",
        c("profile.concurrent_pairs") / jobs,
        "count",
        Count,
    );
    m.add("instrument.plan_ms", per_call("plan"), "ms", Wall);
    m.add("instrument.apply_ms", per_call("apply"), "ms", Wall);
    m.add(
        "instrument.weak_locks",
        ratio(c("instrument.weak_locks"), n("plan")),
        "count",
        Count,
    );
    for name in [
        "instrument.sites_instr",
        "instrument.sites_bb",
        "instrument.sites_loop",
        "instrument.sites_func",
    ] {
        m.add(name, ratio(c(name), n("plan")), "count", Count);
    }
    let instrs = c("runtime.instrs");
    m.add("runtime.busy_ms", per_job("execute"), "ms", Wall);
    m.add(
        "runtime.instrs",
        ratio(instrs, n("execute")),
        "instrs",
        Count,
    );
    m.add(
        "runtime.minstr_per_s",
        ratio(instrs, total_ms("execute")) / 1e3,
        "Minstr/s",
        Wall,
    );
    m.add(
        "runtime.fused_ratio",
        ratio(c("runtime.fused"), instrs),
        "ratio",
        Count,
    );
    m.add(
        "runtime.batched_ratio",
        ratio(c("runtime.batched"), instrs),
        "ratio",
        Count,
    );
    m.add(
        "runtime.spec_commit_ratio",
        ratio(c("runtime.spec"), instrs),
        "ratio",
        Count,
    );
    m.add(
        "runtime.sched_preemptions",
        ratio(c("plan.preemptions"), c("plan.cells")),
        "count",
        Count,
    );
    let records = n("record");
    m.add("replay.record_ms", per_call("record"), "ms", Wall);
    m.add(
        "replay.record_minstr_per_s",
        ratio(c("replay.record_instrs"), total_ms("record")) / 1e3,
        "Minstr/s",
        Wall,
    );
    m.add("replay.encode_ms", per_call("to_bytes"), "ms", Wall);
    m.add("replay.decode_ms", per_call("from_bytes"), "ms", Wall);
    m.add("replay.replay_ms", per_call("replay"), "ms", Wall);
    m.add(
        "replay.verify_ms",
        per_call("verify_determinism"),
        "ms",
        Wall,
    );
    m.add(
        "replay.log_events",
        ratio(c("replay.log_events"), records),
        "count",
        Count,
    );
    m.add(
        "replay.log_bytes",
        ratio(c("replay.log_bytes"), records),
        "B",
        Count,
    );
    m.add(
        "replay.weak_wait_vcycles",
        ratio(c("replay.weak_wait"), records),
        "vcycles",
        Count,
    );
    m.add(
        "replay.weak_log_vcycles",
        ratio(c("replay.weak_log"), records),
        "vcycles",
        Count,
    );
    m.add("drd.detect_ms", per_call("detect"), "ms", Wall);
    m.add("drd.races", c("drd.races") / jobs, "count", Count);
    m.add("fleet.run_cell_ms", per_call("run_cell"), "ms", Wall);
    let gathers = n("gather_evidence");
    m.add(
        "fleet.cells",
        ratio(c("plan.cells"), gathers),
        "count",
        Count,
    );
    m.add("plan.gather_ms", per_call("gather_evidence"), "ms", Wall);
    m.add(
        "plan.cells_per_s",
        ratio(c("plan.cells"), total_ms("gather_evidence")) * 1e3,
        "cells/s",
        Wall,
    );
    m.add(
        "plan.evidence_bytes",
        ratio(c("plan.evidence_bytes"), gathers),
        "B",
        Count,
    );
    m.add("plan.codec_ms", ratio(codec_ms, gathers), "ms", Wall);
    m.add("plan.demote_ms", per_call("demote"), "ms", Wall);
    m.add("plan.apply_ms", per_call("apply_plan"), "ms", Wall);
    m.add("plan.verify_ms", per_call("verify_under_plan"), "ms", Wall);
    m.add(
        "plan.demoted_ratio",
        ratio(c("plan.demoted"), c("plan.static_pairs")),
        "ratio",
        Count,
    );
    m.add(
        "plan.contradicted_ratio",
        ratio(c("plan.contradicted"), n("verify_under_plan")),
        "ratio",
        Count,
    );

    let layer_order = [
        "minic",
        "profile",
        "relay",
        "instrument",
        "runtime",
        "replay",
        "plan",
    ];
    let in_jobs: f64 = layer_order
        .iter()
        .map(|l| layers.get(&(JOB, *l)).map_or(0, |t| t.self_ns) as f64)
        .sum();
    m.add(
        "trace.coverage_pct",
        ratio(in_jobs, job_ns) * 100.0,
        "%",
        Wall,
    );
    m.add("trace.overhead_pct", overhead_pct, "%", Wall);
    m.add("trace.jobs", jobs, "count", Wall);

    let mut t = format!(
        "{:<11} {:>12} {:>12} {:>8} {:>14}\n",
        "layer", "busy ms/job", "self ms/job", "share", "probe ms/job"
    );
    let probe_layers = ["pta", "drd", "fleet"];
    for l in layer_order.iter().chain(&probe_layers) {
        let job = layers.get(&(JOB, *l)).copied().unwrap_or_default();
        let pr = layers.get(&(PROBE, *l)).map_or(0, |t| t.busy_ns);
        let _ = writeln!(
            t,
            "{:<11} {:>12.3} {:>12.3} {:>7.2}% {:>14.3}",
            l,
            job.busy_ns as f64 / 1e6 / jobs,
            job.self_ns as f64 / 1e6 / jobs,
            ratio(job.self_ns as f64, job_ns) * 100.0,
            pr as f64 / 1e6 / jobs
        );
    }
    let glue = layers.get(&(JOB, JOB)).map_or(0, |t| t.self_ns) as f64;
    let _ = writeln!(
        t,
        "{:<11} {:>12} {:>12.3} {:>7.2}%",
        "(job self)",
        "",
        glue / 1e6 / jobs,
        ratio(glue, job_ns) * 100.0
    );
    (m.0, t)
}
