//! Attached instrumentation overhead, before and after the certified
//! plan: the paper's 53x → 1.39x arc (§6) reproduced on the same four
//! workloads the other overhead benches pin — `radix`/`ocean`
//! (memory-bound) and `pfscan`/`apache` (sync-heavy).
//!
//! For each workload the full hybrid loop runs inline: analyze →
//! `gather_evidence` (the default hostile sweep) → `demote` →
//! `apply_plan`. Overhead is measured two ways:
//!
//! * **virtual time** (primary): the VM's deterministic `makespan` of the
//!   full-instrumented and plan-instrumented programs over the
//!   uninstrumented baseline — noise-free, so the committed
//!   `BENCH_plan.json` numbers are reproducible bit-for-bit;
//! * **wall clock** (secondary): interpreter time per variant on
//!   `chimera-testkit`'s bench runner, rows `<workload>/base`, `/full` and
//!   `/planned`, each carrying its variant's exact `weak_locks`,
//!   `makespan` and `overhead_x` (makespan over the baseline's) beside
//!   the plan's `static_pairs`, `demoted` and `kept`.
//!
//! The bench *asserts* the demotion payoff: planned makespan ≤ full
//! makespan on every workload, and strictly below on at least three of
//! the four (fully-demoted workloads run the original program verbatim,
//! so their attached overhead is exactly 1.0x).
//!
//! To refresh the committed data:
//! `CHIMERA_BENCH_JSON=$PWD/BENCH_plan.json cargo bench --bench
//! instr_overhead` (an absolute path: the bench runs in `crates/bench/`).

use chimera::{analyze, demote, gather_evidence, OptSet, PipelineConfig};
use chimera_plan::{apply_plan, GatherConfig, Thresholds};
use chimera_runtime::{execute, ExecConfig, Jitter};
use chimera_testkit::bench::Runner;
use chimera_workloads::{by_name, Params};

const WORKLOADS: &[&str] = &["radix", "ocean", "pfscan", "apache"];

fn main() {
    // Jitter off: the makespan comparison is then a pure function of the
    // instruction streams, not of perturbation draws.
    let cfg = ExecConfig {
        seed: 42,
        jitter: Jitter::none(),
        ..ExecConfig::default()
    };

    let mut runner = Runner::from_args();
    let mut group = runner.group("instr_overhead");
    let mut strictly_below = 0usize;
    for name in WORKLOADS {
        let w = by_name(name).expect("paper workload exists");
        let p = w
            .compile(&Params {
                workers: 4,
                scale: 4,
            })
            .expect("workload compiles");
        let a = analyze(&p, &PipelineConfig::default());
        let statics: Vec<_> = a.races.pairs.iter().map(|p| (p.a, p.b)).collect();
        let ev = gather_evidence(
            name,
            &a.program,
            &a.instrumented,
            &statics,
            &GatherConfig {
                exec: cfg,
                ..GatherConfig::default()
            },
        );
        let plan = demote(&ev, &Thresholds::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (planned, _) =
            apply_plan(&a.program, &a.races, &a.profile, &OptSet::all(), &plan)
                .unwrap_or_else(|e| panic!("{name}: {e}"));

        let variants = [
            ("base", &a.program),
            ("full", &a.instrumented),
            ("planned", &planned),
        ];
        let makespans = variants.map(|(id, p)| {
            let r = execute(p, &cfg);
            assert!(r.outcome.is_exit(), "{name}/{id}: {:?}", r.outcome);
            r.makespan
        });
        let [base, full, pl] = makespans;
        assert!(
            pl <= full,
            "{name}: certified plan made the program slower ({pl} > {full})"
        );
        strictly_below += usize::from(pl < full);
        println!(
            "instr_overhead/{name}: {}/{} pair(s) demoted, weak-locks {} -> {}, \
             makespan x{:.3} full vs x{:.3} planned",
            plan.demotions.len(),
            plan.evidence.static_pairs.len(),
            a.instrumented.weak_locks,
            planned.weak_locks,
            full as f64 / base as f64,
            pl as f64 / base as f64,
        );
        for ((id, p), makespan) in variants.into_iter().zip(makespans) {
            if let Some(row) = group.bench(&format!("{name}/{id}"), || {
                std::hint::black_box(execute(p, &cfg));
            }) {
                row.exact("static_pairs", plan.evidence.static_pairs.len())
                    .exact("demoted", plan.demotions.len())
                    .exact("kept", plan.kept.len())
                    .exact("weak_locks", p.weak_locks)
                    .exact("makespan", makespan)
                    .exact("overhead_x", format!("{:.4}", makespan as f64 / base as f64));
            }
        }
    }
    group.finish();

    println!(
        "certified-plan overhead strictly below full instrumentation on \
         {strictly_below}/{} workloads",
        WORKLOADS.len()
    );
    assert!(
        strictly_below >= 3,
        "demotion payoff regressed: only {strictly_below} workload(s) got faster"
    );
    runner.finish();
}
