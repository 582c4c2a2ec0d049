//! Adversarial-scheduler overhead: executing instrumented workloads under
//! the PCT and preemption-bounded strategies vs the clock-jitter baseline
//! (DESIGN.md §11).
//!
//! The baseline runs the ready-queue loop (batch commit between
//! scheduling points, and the speculative segment rounds).
//! The non-baseline strategies run the strategy loop, which consults the
//! scheduler once per decision and batch-commits the picked thread's hot
//! ops up to the scheduler's horizon, single-stepping every access while
//! preemption-bounded scheduling still classifies boundaries. This bench
//! prices that seam — the delta between `jitter` and the others is what
//! `chimera explore` pays per run, and a regression here means the
//! strategy loop grew work the hot path doesn't have.
//!
//! Three workloads bound the mix: `pfscan` (sync-heavy, boundaries
//! everywhere), `radix` (memory-bound: long hot stretches, where the
//! baseline also runs the segment rounds and preemption-bounded
//! scheduling single-steps every access), `water` (barrier phases,
//! frequent scheduler decisions either way).
//!
//! Runs as a plain binary on `chimera-testkit`'s bench runner:
//! `cargo bench --bench sched_explore [filter]`. To refresh the committed
//! data: `CHIMERA_BENCH_JSON=$PWD/BENCH_sched.json cargo bench --bench
//! sched_explore` (an absolute path: the bench runs in `crates/bench/`).

use chimera::{analyze, PipelineConfig};
use chimera_runtime::{execute, ExecConfig, Jitter, SchedStrategy};
use chimera_testkit::bench::Runner;
use chimera_workloads::{by_name, Params};

const WORKLOADS: &[&str] = &["pfscan", "radix", "water"];

fn main() {
    let mut runner = Runner::from_args();
    for name in WORKLOADS {
        let w = by_name(name).expect("paper workload exists");
        let p = w
            .compile(&Params {
                workers: 4,
                scale: 3,
            })
            .expect("workload compiles");
        let a = analyze(&p, &PipelineConfig::default());
        // Jitter off so the jitter id prices the bare burst loop and the
        // deltas are scheduler-seam cost, not perturbation variance.
        let cfg = ExecConfig {
            seed: 42,
            jitter: Jitter::none(),
            ..ExecConfig::default()
        };
        let baseline = execute(&a.instrumented, &cfg);
        assert!(
            baseline.outcome.is_exit(),
            "{name}: {:?}",
            baseline.outcome
        );
        let strategies = [
            SchedStrategy::ClockJitter,
            chimera::fleet::resolve_strategy(SchedStrategy::pct(3), baseline.stats.instrs),
            SchedStrategy::preempt_bound(),
        ];
        let mut group = runner.group("sched_explore");
        group.sample_size(10);
        for sched in strategies {
            let run_cfg = ExecConfig { sched, ..cfg };
            // Untimed check: every strategy must still exit cleanly.
            let r = execute(&a.instrumented, &run_cfg);
            assert!(
                r.outcome.is_exit(),
                "{name}/{}: {:?}",
                sched.name(),
                r.outcome
            );
            eprintln!(
                "{name}/{}: {} instrs, {} preemption(s)",
                sched.name(),
                r.stats.instrs,
                r.stats.sched_preemptions
            );
            group.bench(&format!("{name}/{}", sched.name()), || {
                let r = execute(&a.instrumented, &run_cfg);
                std::hint::black_box(&r);
            });
        }
        group.finish();
    }
    runner.finish();
}
