//! Threshold behavior as properties: coverage just below a threshold
//! refuses demotion with the right code, just above it demotes — and the
//! flip is deterministic, so the testkit shrinker can walk any failure
//! down to the exact boundary.
//!
//! Evidence is gathered once (the sweep is the expensive part) and
//! subsampled per case: keeping only the cells of the first `k` seeds
//! and `m` strategies is exactly the evidence a smaller sweep would have
//! produced, because cells are independent.

use chimera_instrument::{instrument, OptSet};
use chimera_minic::compile;
use chimera_plan::{demote, gather_evidence, Evidence, GatherConfig, Thresholds};
use chimera_profile::profile_runs;
use chimera_relay::detect_races;
use chimera_runtime::ExecConfig;
use chimera_testkit::prop::{check_config, pair, ranged, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};

const PARTITIONED: &str = include_str!("../../../fixtures/partitioned_sum.mc");

/// Full-coverage evidence: 3 strategies × 5 seeds on the demotable
/// fixture, every cell clean.
fn base_evidence() -> Evidence {
    let program = compile(PARTITIONED).unwrap();
    let races = detect_races(&program);
    let profile = profile_runs(&program, &ExecConfig::default(), &[0, 1]);
    let (instrumented, _) = instrument(&program, &races, &profile, &OptSet::all());
    let statics: Vec<_> = races.pairs.iter().map(|p| (p.a, p.b)).collect();
    let cfg = GatherConfig {
        seeds: vec![1, 2, 3, 4, 5],
        ..GatherConfig::default()
    };
    let ev = gather_evidence("partitioned_sum", &program, &instrumented, &statics, &cfg);
    assert_eq!(ev.cells.len(), 15);
    assert!(ev.cells.iter().all(|c| c.clean), "base sweep must be clean");
    assert!(ev.confirmed_racy.is_empty());
    ev
}

/// The evidence a `k`-seed × `m`-strategy sweep would have produced.
fn subsample(ev: &Evidence, k_seeds: u64, m_strategies: usize) -> Evidence {
    let mut strategy_order = Vec::new();
    for c in &ev.cells {
        if !strategy_order.contains(&c.strategy) {
            strategy_order.push(c.strategy);
        }
    }
    let allowed = &strategy_order[..m_strategies.min(strategy_order.len())];
    let mut sub = ev.clone();
    sub.cells = ev
        .cells
        .iter()
        .filter(|c| c.seed <= k_seeds && allowed.contains(&c.strategy))
        .copied()
        .collect();
    sub
}

#[test]
fn demotion_flips_deterministically_at_both_thresholds() {
    let ev = base_evidence();
    let cases = Config::from_env().with_cases(64);
    let gen = pair(
        pair(ranged(1u64..=5), ranged(1usize..=3)),
        pair(ranged(1u32..=6), ranged(1u32..=4)),
    );
    check_config(
        &cases,
        "demotion threshold flip",
        &gen,
        |&((k, m), (min_seeds, min_strategies))| {
            let sub = subsample(&ev, k, m);
            let t = Thresholds {
                min_seeds,
                min_strategies,
            };
            let first = demote(&sub, &t);
            let second = demote(&sub, &t);
            if first != second {
                return Err("demotion verdict is nondeterministic".into());
            }
            let expect_ok = k >= min_seeds as u64 && m >= min_strategies as usize;
            match first {
                Ok(plan) => {
                    if !expect_ok {
                        return Err(format!(
                            "demotion granted below threshold (k={k} m={m} t={t:?})"
                        ));
                    }
                    if plan.demotions.len() != ev.static_pairs.len() {
                        return Err("clean evidence must demote every pair".into());
                    }
                    Ok(())
                }
                Err(refusal) => {
                    if expect_ok {
                        return Err(format!("demotion refused above threshold: {refusal}"));
                    }
                    // Seeds are checked before strategies; the code must
                    // name the first violated threshold.
                    let want = if k < min_seeds as u64 {
                        "insufficient-seeds"
                    } else {
                        "insufficient-strategies"
                    };
                    if refusal.code() != want {
                        return Err(format!(
                            "wrong refusal {}, wanted {want} (k={k} m={m} t={t:?})",
                            refusal.code()
                        ));
                    }
                    Ok(())
                }
            }
        },
    );
}

#[test]
fn shrinking_reproduces_the_seed_boundary() {
    // A deliberately wrong property — "no seed count ever demotes under
    // min_seeds=3" — fails exactly for k ≥ 3, so the shrinker must land
    // on the boundary case k = 3 as the minimal input.
    let ev = base_evidence();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        check_config(
            &Config::from_env().with_cases(64),
            "expected boundary failure",
            &ranged(1u64..=5),
            |&k| {
                let sub = subsample(&ev, k, 3);
                match demote(&sub, &Thresholds::default()) {
                    Err(_) => Ok(()),
                    Ok(_) => Err(format!("{k} seed(s) demoted", k = k)),
                }
            },
        )
    }));
    let msg = match outcome {
        Ok(()) => panic!("the wrong property unexpectedly passed"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message"),
    };
    assert!(
        msg.contains("minimal input: 3"),
        "shrinking did not stop at the k=3 boundary:\n{msg}"
    );
    assert!(msg.contains("CHIMERA_TESTKIT_SEED="), "{msg}");
}

#[test]
fn strategy_boundary_shrinks_to_its_edge_too() {
    let ev = base_evidence();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        check_config(
            &Config::from_env().with_cases(64),
            "expected strategy boundary failure",
            &ranged(1usize..=3),
            |&m| {
                let sub = subsample(&ev, 5, m);
                match demote(&sub, &Thresholds::default()) {
                    Err(_) => Ok(()),
                    Ok(_) => Err(format!("{m} strateg(ies) demoted")),
                }
            },
        )
    }));
    let msg = match outcome {
        Ok(()) => panic!("the wrong property unexpectedly passed"),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries a message"),
    };
    assert!(
        msg.contains("minimal input: 2"),
        "shrinking did not stop at the m=2 boundary:\n{msg}"
    );
}
