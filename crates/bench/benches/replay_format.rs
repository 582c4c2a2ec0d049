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
//! Recording is timed twice — checkpointing off (`record_with(.., 0)`,
//! row `<workload>/plain`) and on (row `<workload>/ckpt`) — to bound the
//! digest-folding overhead. The workloads' journals hold 15–140 events,
//! so none reaches `CHUNK_EVENTS`, the interval `record` uses: the
//! `ckpt` row checkpoints every [`CKPT_EVERY`] events instead, which
//! every journal crosses. Both rows carry the default recording's exact
//! sizes (`events`, `chunks`, `v1_bytes`, `v2_bytes` and the bytes per
//! event) and `checkpoints`, the checkpoint count of the recording the
//! row times: 0 on `plain`, and asserted above 0 on `ckpt`.
//!
//! Runs as a plain binary on `chimera-testkit`'s bench runner:
//! `cargo bench --bench replay_format [filter]`. To refresh the committed
//! data: `CHIMERA_BENCH_JSON=$PWD/BENCH_replay.json cargo bench --bench
//! replay_format` (an absolute path: the bench runs in `crates/bench/`).

use chimera::{analyze_workload, OptSet};
use chimera_replay::{record, record_with};
use chimera_runtime::ExecConfig;
use chimera_testkit::bench::Runner;
use chimera_workloads::all;

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

/// The `ckpt` row's checkpoint interval, below the smallest workload
/// journal (15 events).
const CKPT_EVERY: u64 = 8;

fn main() {
    let exec = ExecConfig::default();
    let mut runner = Runner::from_args();
    let mut group = runner.group("replay_format");
    for w in all() {
        let analysis = analyze_workload(&w, 2, &OptSet::all(), 2, &exec);
        let p = &analysis.instrumented;
        let logs = record(p, &exec).logs;
        let events = logs.journal.len();
        assert!(events > 0, "{}: recording produced no ordered events", w.name);
        let v1 = V1_BYTES
            .iter()
            .find(|&&(name, _)| name == w.name)
            .map(|&(_, bytes)| bytes)
            .unwrap_or_else(|| panic!("{}: no frozen v1 size", w.name));
        let v2 = logs.to_bytes().len();
        // The acceptance gate: v2 must not regress density on any
        // workload, despite carrying checkpoints and checksums v1 lacks.
        assert!(
            v2 <= v1,
            "{}: v2 encoding ({v2} B) larger than v1 ({v1} B) over {events} events",
            w.name
        );
        let per_event = |bytes: usize| format!("{:.3}", bytes as f64 / events as f64);
        println!(
            "replay_format/{:<8} {events:>6} events {:>3} chunk(s): v1 {v1:>7} B ({} B/ev), \
             v2 {v2:>7} B ({} B/ev), ratio {:.2}x",
            w.name,
            logs.chunk_count(),
            per_event(v1),
            per_event(v2),
            v1 as f64 / v2 as f64,
        );
        for (id, ckpt_every) in [("plain", 0), ("ckpt", CKPT_EVERY)] {
            let checkpoints = record_with(p, &exec, ckpt_every).logs.checkpoints.len();
            assert!(
                (ckpt_every == 0) == (checkpoints == 0),
                "{}/{id}: {checkpoints} checkpoint(s) at interval {ckpt_every}",
                w.name
            );
            if let Some(row) = group.bench(&format!("{}/{id}", w.name), || {
                record_with(p, &exec, ckpt_every);
            }) {
                row.exact("events", events)
                    .exact("chunks", logs.chunk_count())
                    .exact("checkpoints", checkpoints)
                    .exact("v1_bytes", v1)
                    .exact("v2_bytes", v2)
                    .exact("v1_bytes_per_event", per_event(v1))
                    .exact("v2_bytes_per_event", per_event(v2));
            }
        }
    }
    group.finish();
    runner.finish();
}
