//! Log-format benchmark: v2 (journal-dictionary chunks with checkpoints)
//! on every paper workload, against the byte counts of the retired v1
//! format (explicit per-object sections).
//!
//! For each workload the instrumented program is recorded once at the
//! default config and serialized. The v1 encoder is gone, so its sizes
//! for these exact recordings are frozen in [`V1_BYTES`]; recording at
//! the default config is deterministic, so the comparison stays exact.
//! Note the asymmetry: the v2 container additionally carries the
//! state-hash checkpoints and the chunk checksums — it must *still* come
//! in at or under v1's bytes/event, and this bench hard-asserts that on
//! every workload.
//!
//! Recording is timed twice — checkpointing off (`record_with(.., 0)`)
//! and on (`record`, every `CHUNK_EVENTS`) — to bound the digest-folding
//! overhead.
//!
//! Runs as a plain binary: `cargo bench --bench replay_format`.
//! `CHIMERA_BENCH_SAMPLES` / `CHIMERA_BENCH_WARMUP` control iterations;
//! `CHIMERA_BENCH_JSON=<path>` writes the committed `BENCH_replay.json`
//! (see EXPERIMENTS.md).

use chimera::{analyze_workload, OptSet};
use chimera_replay::{record, record_with};
use chimera_runtime::ExecConfig;
use chimera_workloads::all;
use std::time::Instant;

/// Bytes of each workload's default-config recording in the retired v1
/// format, as last measured by its encoder (BENCH_replay.json).
const V1_BYTES: [(&str, usize); 9] = [
    ("aget", 567),
    ("pfscan", 651),
    ("pbzip2", 549),
    ("knot", 280),
    ("apache", 329),
    ("ocean", 90),
    ("water", 94),
    ("fft", 70),
    ("radix", 57),
];

fn env_n(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Median wall time of `samples` runs of `f`, in nanoseconds.
fn median_ns(samples: usize, warmup: usize, mut f: impl FnMut()) -> u128 {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<u128> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

struct Row {
    name: &'static str,
    events: usize,
    chunks: usize,
    checkpoints: usize,
    v1_bytes: usize,
    v2_bytes: usize,
    record_plain_ns: u128,
    record_ckpt_ns: u128,
}

fn main() {
    let samples = env_n("CHIMERA_BENCH_SAMPLES", 15);
    let warmup = env_n("CHIMERA_BENCH_WARMUP", 3);
    let exec = ExecConfig::default();
    let mut rows = Vec::new();

    for w in all() {
        let analysis = analyze_workload(&w, 2, &OptSet::all(), 2, &exec);
        let p = &analysis.instrumented;
        let rec = record(p, &exec);
        let events = rec.logs.journal.len();
        assert!(events > 0, "{}: recording produced no ordered events", w.name);
        let v1 = V1_BYTES
            .iter()
            .find(|&&(name, _)| name == w.name)
            .map(|&(_, bytes)| bytes)
            .unwrap_or_else(|| panic!("{}: no frozen v1 size", w.name));
        let v2 = rec.logs.to_bytes();
        // The acceptance gate: v2 must not regress density on any
        // workload, despite carrying checkpoints and checksums v1 lacks.
        assert!(
            v2.len() <= v1,
            "{}: v2 encoding ({} B) larger than v1 ({} B) over {} events",
            w.name,
            v2.len(),
            v1,
            events
        );
        let record_plain_ns = median_ns(samples, warmup, || {
            record_with(p, &exec, 0);
        });
        let record_ckpt_ns = median_ns(samples, warmup, || {
            record(p, &exec);
        });
        let row = Row {
            name: w.name,
            events,
            chunks: rec.logs.chunk_count(),
            checkpoints: rec.logs.checkpoints.len(),
            v1_bytes: v1,
            v2_bytes: v2.len(),
            record_plain_ns,
            record_ckpt_ns,
        };
        println!(
            "replay_format/{:<8} {:>6} events {:>3} chunk(s): v1 {:>7} B ({:.2} B/ev), \
             v2 {:>7} B ({:.2} B/ev), ratio {:.2}x; record {:.2}ms plain, {:.2}ms ckpt",
            row.name,
            row.events,
            row.chunks,
            row.v1_bytes,
            row.v1_bytes as f64 / events as f64,
            row.v2_bytes,
            row.v2_bytes as f64 / events as f64,
            row.v1_bytes as f64 / row.v2_bytes as f64,
            record_plain_ns as f64 / 1e6,
            record_ckpt_ns as f64 / 1e6,
        );
        rows.push(row);
    }

    if let Some(path) = std::env::var_os("CHIMERA_BENCH_JSON") {
        let mut json = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "  {{\"name\": \"replay_format/{}\", \"events\": {}, \"chunks\": {}, \
                 \"checkpoints\": {}, \"v1_bytes\": {}, \"v2_bytes\": {}, \
                 \"v1_bytes_per_event\": {:.3}, \"v2_bytes_per_event\": {:.3}, \
                 \"record_plain_ns\": {}, \"record_ckpt_ns\": {}}}{}\n",
                r.name,
                r.events,
                r.chunks,
                r.checkpoints,
                r.v1_bytes,
                r.v2_bytes,
                r.v1_bytes as f64 / r.events as f64,
                r.v2_bytes as f64 / r.events as f64,
                r.record_plain_ns,
                r.record_ckpt_ns,
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        json.push_str("]\n");
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {}", path.to_string_lossy()),
            Err(e) => eprintln!("CHIMERA_BENCH_JSON write failed: {e}"),
        }
    }
}
