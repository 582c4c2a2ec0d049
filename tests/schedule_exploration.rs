//! Schedule exploration (the adversarial counterpart of
//! `drf_equivalence.rs`): Chimera's replay guarantee must survive hostile
//! scheduling, not just the clock-ordered baseline with jitter. The
//! sweeps run through `chimera::run_fleet`, the orchestrator behind
//! `chimera explore`.
//!
//! Three angles:
//!
//! 1. All nine paper workloads sweep {jitter, PCT, preemption-bounded} ×
//!    seeds: every recording replays identically under a different seed
//!    of the same hostile strategy, the weak-lock single-holder invariant
//!    holds under a supervisor probe, instrumented runs stay dynamically
//!    race-free, and no dynamic race on the uninstrumented program
//!    escapes RELAY's static pairs.
//! 2. The genuinely racy corpus diverges *somewhere* in the same sweep
//!    when left uninstrumented — evidence the adversarial strategies
//!    actually explore schedules that expose races, i.e. that the clean
//!    sweep in (1) is meaningful.
//! 3. Per `(strategy, seed)`, the flat and reference interpreters stay
//!    bit-identical, so `vm_differential.rs`'s pinning extends to the
//!    new scheduler seam.

use chimera::{analyze, run_fleet, FleetConfig, FleetReport, FleetTarget, Grid, PipelineConfig};
use chimera_minic::compile;
use chimera_runtime::{execute_mode, ExecConfig, InterpMode, SchedStrategy};
use chimera_workloads::all;

/// Sweep `targets` over {jitter, PCT, preemption-bounded} × `seeds`.
fn sweep(targets: &[FleetTarget], seeds: Vec<u64>, check_drd: bool) -> FleetReport {
    let cfg = FleetConfig {
        grid: Grid {
            strategies: vec![
                SchedStrategy::ClockJitter,
                SchedStrategy::pct(3),
                SchedStrategy::preempt_bound(),
            ],
            seeds,
            exec: ExecConfig::default(),
            jobs: 0,
        },
        check_drd,
        ..FleetConfig::default()
    };
    run_fleet(targets, &cfg)
        .expect("an in-memory sweep cannot fail")
        .report
}

#[test]
fn workloads_certify_replay_under_adversarial_schedules() {
    let targets: Vec<FleetTarget> = all()
        .iter()
        .map(|w| {
            let p = w.compile(&w.profile_params(0)).expect("workload compiles");
            analyze(&p, &PipelineConfig::default()).fleet_target(w.name)
        })
        .collect();
    let r = sweep(&targets, vec![1, 2], true);
    for t in &r.targets {
        for st in &t.strategies {
            eprintln!(
                "{:8} {:>13}: orders={} prefixes={} preemptions={}",
                t.name, st.strategy, st.distinct_orders, st.distinct_prefixes, st.preemptions
            );
        }
        let clean = t
            .strategies
            .iter()
            .all(|s| s.outcomes.iter().all(|(_, o)| o.clean()));
        assert!(
            clean,
            "{}: adversarial sweep found problems:\n{}",
            t.name,
            r.to_json()
        );
        let divergences: u64 = t.strategies.iter().map(|s| s.divergences).sum();
        let violations: u64 = t.strategies.iter().map(|s| s.violations).sum();
        assert_eq!(divergences, 0, "{}", t.name);
        assert_eq!(violations, 0, "{}", t.name);
        // The sweep must actually perturb schedules, not replay the
        // baseline three times under different names.
        let perturbed: u64 = t
            .strategies
            .iter()
            .filter(|s| s.strategy != "jitter")
            .map(|s| s.preemptions)
            .sum();
        assert!(perturbed > 0, "{}: no perturbations injected", t.name);
    }
}

#[test]
fn racy_corpus_diverges_somewhere_in_the_sweep() {
    // The uninstrumented racy corpus from drf_equivalence.rs: replaying a
    // racy program's recording under a different hostile seed must break
    // for at least one (strategy, seed) cell per program — the schedules
    // being explored are hostile enough to expose each race.
    let corpus: &[(&str, &str)] = &[
        (
            "counter",
            "int g;
             void w(int v) { int i; int x;
                 for (i = 0; i < 120; i = i + 1) { x = g; g = x + v; } }
             int main() { int t; t = spawn(w, 1); w(2); join(t);
                 print(g); return 0; }",
        ),
        (
            "scatter",
            "int arr[16]; int sum;
             void w(int v) { int i;
                 for (i = 0; i < 64; i = i + 1) {
                     arr[i & 15] = arr[i & 15] + v;
                 } }
             int main() { int a; int b; int i;
                 a = spawn(w, 1); b = spawn(w, 3);
                 join(a); join(b);
                 for (i = 0; i < 16; i = i + 1) { sum = sum + arr[i]; }
                 print(sum); return 0; }",
        ),
        (
            "missing-barrier",
            "int buf[8]; int out;
             void producer(int v) { int i;
                 for (i = 0; i < 8; i = i + 1) { buf[i] = v + i; } }
             void consumer(int v) { int i;
                 for (i = 0; i < 8; i = i + 1) { out = out + buf[i]; } }
             int main() { int p; int c;
                 p = spawn(producer, 10); c = spawn(consumer, 0);
                 join(p); join(c); print(out); return 0; }",
        ),
    ];
    let targets: Vec<FleetTarget> = corpus
        .iter()
        .map(|(name, src)| FleetTarget::raw(name, compile(src).expect("corpus program compiles")))
        .collect();
    let r = sweep(&targets, vec![1, 2, 3], false);
    for t in &r.targets {
        let divergences: u64 = t.strategies.iter().map(|s| s.divergences).sum();
        assert!(
            divergences > 0,
            "{}: hostile sweep failed to expose the race:\n{}",
            t.name,
            r.to_json()
        );
        eprintln!(
            "{:16} divergent cells: {}",
            t.name,
            t.strategies
                .iter()
                .map(|s| format!("{}={}", s.strategy, s.divergences))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

#[test]
fn instrumented_corpus_stays_clean_in_the_same_sweep() {
    // The flip side: once weak-lock instrumented, the exact corpus that
    // diverged above must survive the identical sweep.
    let racy = "int g;
        void w(int v) { int i; int x;
            for (i = 0; i < 120; i = i + 1) { x = g; g = x + v; } }
        int main() { int t; t = spawn(w, 1); w(2); join(t);
            print(g); return 0; }";
    let p = compile(racy).unwrap();
    let a = analyze(&p, &PipelineConfig::default());
    assert!(a.instrumented.weak_locks > 0);
    let r = sweep(&[a.fleet_target("counter")], vec![1, 2, 3], true);
    assert!(r.passed(), "{}", r.to_json());
}

#[test]
fn modes_stay_bit_identical_per_strategy_and_seed() {
    // The scheduler seam must not fork the two interpreter paths: for
    // every workload × strategy × seed, the instrumented program's flat
    // and reference executions agree field for field (stats include the
    // injected-preemption count).
    for w in all() {
        let p = w.compile(&w.profile_params(0)).expect("workload compiles");
        let a = analyze(&p, &PipelineConfig::default());
        let baseline = chimera_runtime::execute(&a.instrumented, &ExecConfig::default());
        for sched in [
            SchedStrategy::ClockJitter,
            chimera::fleet::resolve_strategy(SchedStrategy::pct(3), baseline.stats.instrs),
            SchedStrategy::preempt_bound(),
        ] {
            for seed in [1u64, 17] {
                let cfg = ExecConfig {
                    seed,
                    sched,
                    ..ExecConfig::default()
                };
                let flat = execute_mode(&a.instrumented, &cfg, InterpMode::Flat);
                let refr = execute_mode(&a.instrumented, &cfg, InterpMode::Reference);
                assert_eq!(flat.outcome, refr.outcome, "{} {}", w.name, sched.name());
                assert_eq!(flat.output, refr.output, "{} {}", w.name, sched.name());
                assert_eq!(
                    flat.state_hash,
                    refr.state_hash,
                    "{} {}",
                    w.name,
                    sched.name()
                );
                assert_eq!(flat.makespan, refr.makespan, "{} {}", w.name, sched.name());
                assert_eq!(flat.stats, refr.stats, "{} {}", w.name, sched.name());
            }
        }
    }
}
