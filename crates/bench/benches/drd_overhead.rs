//! Dynamic race detection overhead: the FastTrack detector attached to
//! the VM vs plain detached execution (DESIGN.md §9 "Dynamic race
//! detection").
//!
//! Two workload groups bound the cost from both ends of the access mix:
//!
//! * **memory-bound** (`radix`, `ocean`): every load/store now builds an
//!   event and walks a shadow cell — the worst case for the per-access
//!   epoch checks.
//! * **sync-heavy** (`pfscan`, `apache`): accesses are sparse but every
//!   mutex/condvar edge joins vector clocks — the worst case for the HB
//!   bookkeeping.
//!
//! The detached baseline uses the same config; with no subscriber the
//! event mask gates access events off entirely, so the delta is the full
//! attached cost (pinned semantically by `tests/vm_differential.rs`).
//! Attached, the flat VM still batch-commits the ops between accesses
//! and single-steps each access; the segment rounds stay off.
//!
//! Runs as a plain binary on `chimera-testkit`'s bench runner:
//! `cargo bench --bench drd_overhead [filter]`. To refresh the committed
//! data: `CHIMERA_BENCH_JSON=$PWD/BENCH_drd.json cargo bench --bench
//! drd_overhead` (an absolute path: the bench runs in `crates/bench/`).

use chimera_runtime::{execute, ExecConfig, Jitter};
use chimera_testkit::bench::Runner;
use chimera_workloads::{by_name, Params};

const MEMORY_BOUND: &[&str] = &["radix", "ocean"];
const SYNC_HEAVY: &[&str] = &["pfscan", "apache"];

fn main() {
    let mut runner = Runner::from_args();
    for (family, names) in [("memory", MEMORY_BOUND), ("sync", SYNC_HEAVY)] {
        for name in names {
            let w = by_name(name).expect("paper workload exists");
            let p = w
                .compile(&Params {
                    workers: 4,
                    scale: 4,
                })
                .expect("workload compiles");
            // Jitter off for the same reason as interp_scaling: the
            // schedule perturbations are identical attached or detached
            // and only add variance around the dispatch delta.
            let cfg = ExecConfig {
                seed: 42,
                jitter: Jitter::none(),
                ..ExecConfig::default()
            };
            // One untimed attached run for the report — and to fail
            // loudly here if a workload stops exiting cleanly or stops
            // being dynamically race-free.
            let run = chimera_drd::detect(&p, &cfg);
            assert!(run.result.outcome.is_exit(), "{name}: {:?}", run.result.outcome);
            eprintln!(
                "{family}/{name}: {} mem ops, {} dynamic racy pair(s)",
                run.result.stats.mem_ops,
                run.report.pairs.len(),
            );
            let mut group = runner.group("drd_overhead");
            group.sample_size(10);
            group.bench(&format!("detached/{family}/{name}"), || {
                let r = execute(&p, &cfg);
                std::hint::black_box(&r);
            });
            group.bench(&format!("attached/{family}/{name}"), || {
                let r = chimera_drd::detect(&p, &cfg);
                std::hint::black_box(&r);
            });
            group.finish();
        }
    }
    runner.finish();
}
