//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each public call a job makes
//! (the library itself is not instrumented). Each job opens a root span of
//! layer `job`; calls inside it are its children. Probes run after the job
//! span closes, under a root span of layer `probe`, so their time never
//! counts as job time. Spans stay in memory and are written once, as
//! Chrome trace-event JSON (Perfetto and `chrome://tracing` open it).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root-span layer of a job.
pub const JOB: &str = "job";
/// Root-span layer of the probes that follow a job.
pub const PROBE: &str = "probe";

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call (`detect_races`, `Andersen::analyze`, ...).
    pub name: &'static str,
    /// Layer the call belongs to.
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counters when enabled; otherwise every method is a
/// pass-through.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            root: None,
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Recorded spans; a root span precedes its children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Add `v` to counter `key`, recorded where the work happens.
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(key).or_insert(0.0) += v;
        }
    }

    /// Counter totals.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a root span (`JOB` or `PROBE`) for `job`.
    pub fn begin(&mut self, layer: &'static str, job: u64) {
        if self.on {
            let start_ns = self.now();
            self.spans.push(Span {
                name: layer,
                layer,
                start_ns,
                end_ns: start_ns,
                parent: None,
                job,
            });
            self.root = Some(self.spans.len() - 1);
        }
    }

    /// Close the open root span.
    pub fn end(&mut self) {
        if let Some(i) = self.root.take() {
            self.spans[i].end_ns = self.now();
        }
    }

    /// Run `f` as a call of `layer` named `name`.
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let (parent, job) = match self.root {
            Some(r) => (Some(r), self.spans[r].job),
            None => (None, 0),
        };
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            job,
        });
        out
    }

    /// Chrome trace-event JSON of every span.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                if i == 0 { "" } else { "," },
                sp.name,
                sp.layer,
                sp.start_ns as f64 / 1e3,
                sp.dur() as f64 / 1e3,
                sp.job
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Time a layer spent, summed over spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-layer busy and self time, split by the root each span sits under
/// (`JOB` or `PROBE`). Root spans themselves are keyed by their own layer.
pub fn layer_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child_ns[p] += sp.dur();
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), LayerTime> = BTreeMap::new();
    for (i, sp) in spans.iter().enumerate() {
        let root = sp.parent.map_or(sp.layer, |p| spans[p].layer);
        let t = out.entry((root, sp.layer)).or_default();
        t.busy_ns += sp.dur();
        t.self_ns += sp.dur().saturating_sub(child_ns[i]);
    }
    out
}

/// Per-call-name count and total duration.
pub fn call_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for sp in spans {
        let e = out.entry(sp.name).or_default();
        e.0 += 1;
        e.1 += sp.dur();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_probes_stay_outside_jobs() {
        let mut t = Tracer::new(true);
        t.begin(JOB, 7);
        t.call("relay", "detect_races", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        t.begin(PROBE, 7);
        t.call("pta", "Andersen::analyze", || ());
        t.end();
        let lt = layer_times(t.spans());
        let job = lt[&(JOB, JOB)];
        let relay = lt[&(JOB, "relay")];
        assert!(relay.busy_ns >= 2_000_000);
        assert_eq!(relay.busy_ns, relay.self_ns);
        assert_eq!(job.self_ns, job.busy_ns - relay.busy_ns);
        assert!(lt.contains_key(&(PROBE, "pta")));
        assert!(t.spans().iter().all(|s| s.job == 7));
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\"") && json.contains("\"cat\":\"relay\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin(JOB, 1);
        assert_eq!(t.call("relay", "x", || 5), 5);
        t.end();
        assert!(t.spans().is_empty());
    }
}
