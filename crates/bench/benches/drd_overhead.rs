//! Dynamic race detection overhead: the FastTrack detector attached to
//! the VM vs plain detached execution (DESIGN.md §10 "Dynamic race
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
//! Attached, the flat VM's hot runs retire the accesses too and send each
//! one to the detector as they commit it; only the segment rounds stay
//! off. A third row per workload runs the detector under PCT (depth 3,
//! span sized to the detached run), where the hot runs go up to the
//! scheduler's next change point.
//!
//! Every row carries two exact fields: `mem_ops`, the loads and stores
//! its execution retired, and `racy_pairs`, what FastTrack reports on
//! that execution (a detached row is the attached row's execution
//! without the detector).
//!
//! Runs as a plain binary on `chimera-testkit`'s bench runner:
//! `cargo bench --bench drd_overhead [filter]`. To refresh the committed
//! data: `CHIMERA_BENCH_JSON=$PWD/BENCH_drd.json cargo bench --bench
//! drd_overhead` (an absolute path: the bench runs in `crates/bench/`).

use chimera_fleet::resolve_strategy;
use chimera_runtime::{execute, ExecConfig, Jitter, SchedStrategy};
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
            let pct = ExecConfig {
                sched: resolve_strategy(SchedStrategy::pct(3), execute(&p, &cfg).stats.instrs),
                ..cfg
            };
            let mut group = runner.group("drd_overhead");
            group.sample_size(10);
            for (id, cfg, attached) in [
                ("detached", cfg, false),
                ("attached", cfg, true),
                ("attached-pct", pct, true),
            ] {
                // One untimed attached run for the exact fields — and to
                // fail loudly here if a workload stops exiting cleanly.
                let run = chimera_drd::detect(&p, &cfg);
                assert!(
                    run.result.outcome.is_exit(),
                    "{name}: {:?}",
                    run.result.outcome
                );
                let row = group.bench(&format!("{id}/{family}/{name}"), || {
                    if attached {
                        std::hint::black_box(chimera_drd::detect(&p, &cfg));
                    } else {
                        std::hint::black_box(execute(&p, &cfg));
                    }
                });
                if let Some(row) = row {
                    row.exact("mem_ops", run.result.stats.mem_ops)
                        .exact("racy_pairs", run.report.pairs.len());
                }
            }
            group.finish();
        }
    }
    runner.finish();
}
