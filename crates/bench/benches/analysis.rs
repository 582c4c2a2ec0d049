//! Benches for the static side of the pipeline: RELAY-style race
//! detection, points-to analyses, symbolic bounds, profiling, and planning
//! — the costs that §7.1 claims are scalable.
//!
//! Runs as a plain binary on `chimera-testkit`'s bench runner:
//! `cargo bench --bench analysis [filter]`. `CHIMERA_BENCH_SAMPLES` /
//! `CHIMERA_BENCH_WARMUP` control the iteration counts.
//!
//! The `static_chain` group times the three static stages one layer at a
//! time on generated threaded pointer chains, the shape where they
//! dominate a whole job; `BENCH_static.json` holds its committed rows (see
//! EXPERIMENTS.md for the refresh command).

use chimera::OptSet;
use chimera_minic::cfg::{Cfg, Dominators};
use chimera_minic::loops::LoopForest;
use chimera_profile::profile_runs;
use chimera_pta::{Andersen, ObjectTable, Steensgaard};
use chimera_relay::detect_races;
use chimera_runtime::ExecConfig;
use chimera_testkit::bench::Runner;
use chimera_testkit::rng::Rng;
use chimera_workloads::chain::{chain_source, ChainShape};
use chimera_workloads::{all, by_name};

fn bench_compile(runner: &mut Runner) {
    let mut group = runner.group("frontend_compile");
    for w in all() {
        let src = w.source(&w.eval_params(4));
        group.bench(w.name, || {
            chimera_minic::compile(&src).expect("valid workload");
        });
    }
    group.finish();
}

fn bench_points_to(runner: &mut Runner) {
    let w = by_name("apache").expect("apache exists");
    let p = w.compile(&w.eval_params(4)).unwrap();
    let objects = ObjectTable::build(&p);
    let mut group = runner.group("points_to");
    group.bench("andersen", || {
        Andersen::analyze(&p, &objects);
    });
    group.bench("steensgaard", || {
        Steensgaard::analyze(&p, &objects);
    });
    group.finish();
}

fn bench_race_detection(runner: &mut Runner) {
    let mut group = runner.group("relay_detect");
    group.sample_size(20);
    for w in all() {
        let p = w.compile(&w.eval_params(4)).unwrap();
        group.bench(w.name, || {
            detect_races(&p);
        });
    }
    group.finish();
}

fn bench_bounds(runner: &mut Runner) {
    let w = by_name("radix").expect("radix exists");
    let p = w.compile(&w.eval_params(4)).unwrap();
    let f = p.func_by_name("slave_sort").unwrap();
    let cfg = Cfg::new(f);
    let dom = Dominators::new(f, &cfg);
    let forest = LoopForest::new(f, &cfg, &dom);
    let mut group = runner.group("symbolic_bounds");
    group.bench("slave_sort", || {
        for i in 0..forest.loops.len() {
            let _ = chimera_bounds::loop_access_bounds(f, &forest, i);
        }
    });
    group.finish();
}

fn bench_plan(runner: &mut Runner) {
    let exec = ExecConfig::default();
    let w = by_name("water").expect("water exists");
    let p = w.compile(&w.eval_params(4)).unwrap();
    let races = detect_races(&p);
    let prof = profile_runs(&p, &exec, &[1, 2]);
    let mut group = runner.group("instrument_plan");
    group.bench("water", || {
        chimera_instrument::plan(&p, &races, &prof, &OptSet::all());
    });
    group.finish();
}

/// RELAY, profiling (seeds 1 and 2) and planning on threaded pointer
/// chains of 60, 140 and 220 functions: two alias classes, three spawned
/// threads, an indirect call every fifth link of class 0, and a seeded
/// half of the stores under the class mutex.
fn bench_static_chain(runner: &mut Runner) {
    let exec = ExecConfig::default();
    let mut group = runner.group("static_chain");
    group.sample_size(20);
    for funcs in [60usize, 140, 220] {
        let shape = ChainShape {
            funcs,
            classes: 2,
            indirect_every: 5,
            threads: 3,
        };
        let mut rng = Rng::seed_from_u64(funcs as u64);
        let src = chain_source(&shape, |_, _| rng.gen_bool());
        let p = chimera_minic::compile(&src).expect("chain compiles");
        let races = detect_races(&p);
        let prof = profile_runs(&p, &exec, &[1, 2]);
        group.bench(&format!("detect_races/{funcs}"), || {
            std::hint::black_box(detect_races(&p));
        });
        group.bench(&format!("profile_runs/{funcs}"), || {
            std::hint::black_box(profile_runs(&p, &exec, &[1, 2]));
        });
        group.bench(&format!("plan/{funcs}"), || {
            std::hint::black_box(chimera_instrument::plan(&p, &races, &prof, &OptSet::all()));
        });
    }
    group.finish();
}

fn main() {
    let mut runner = Runner::from_args();
    bench_compile(&mut runner);
    bench_points_to(&mut runner);
    bench_race_detection(&mut runner);
    bench_bounds(&mut runner);
    bench_plan(&mut runner);
    bench_static_chain(&mut runner);
    runner.finish();
}
