//! Orchestrator-level guarantees: resume idempotence (a budgeted run
//! completed by `--resume` is byte-identical to the one-shot run and
//! re-executes nothing), a report that other grids in the same directory
//! cannot move, worker-count independence, determinism double-runs,
//! raw-target flagging, schedule coverage under the adversarial
//! strategies, per-cell report rows, and loud failure on corrupt state.

use chimera_fleet::{run_fleet, CellOutcome, FleetConfig, FleetTarget, Grid, Journal};
use chimera_minic::compile;
use std::path::PathBuf;

const LOCKED: &str = "int g; lock_t m;
    void w(int n) { int i; for (i = 0; i < 30; i = i + 1) {
        lock(&m); g = g + n; unlock(&m); } }
    int main() { int t1; int t2;
        t1 = spawn(w, 1); t2 = spawn(w, 2); w(3);
        join(t1); join(t2); print(g); return 0; }";

const RACY: &str = "int g;
    void w(int v) { int i; int x;
        for (i = 0; i < 80; i = i + 1) { x = g; g = x + v; } }
    int main() { int t; t = spawn(w, 1); w(2); join(t); print(g); return 0; }";

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chimera-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn locked_target() -> FleetTarget {
    FleetTarget::instrumented("locked", compile(LOCKED).unwrap())
}

fn racy_raw_target() -> FleetTarget {
    FleetTarget::raw("racy", compile(RACY).unwrap())
}

#[test]
fn budget_plus_resume_matches_one_shot_byte_for_byte() {
    let targets = vec![locked_target(), racy_raw_target()];
    // 2 targets × 3 strategies × 3 seeds = 18 cells.
    let one_shot_dir = tempdir("oneshot");
    let one_shot = run_fleet(
        &targets,
        &FleetConfig {
            dir: Some(one_shot_dir.clone()),
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(one_shot.report.grid, 18);
    assert_eq!(one_shot.executed, 18);
    assert_eq!(one_shot.report.covered, 18);

    // Same grid, but stop after 7 cells, then resume to completion.
    let split_dir = tempdir("split");
    let first = run_fleet(
        &targets,
        &FleetConfig {
            dir: Some(split_dir.clone()),
            max_cells: Some(7),
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(first.executed, 7);
    assert_eq!(first.truncated, 11);
    assert_eq!(first.report.covered, 7);

    let second = run_fleet(
        &targets,
        &FleetConfig {
            dir: Some(split_dir.clone()),
            resume: true,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(second.journal_hits, 7, "resume must skip the budgeted prefix");
    assert_eq!(second.executed, 11, "resume must run exactly the remainder");
    assert_eq!(second.report.covered, 18);

    // The report is a pure function of the grid: the split run's final
    // report renders the same bytes as the one-shot run's.
    assert_eq!(second.report.to_json(), one_shot.report.to_json());
    // And the persisted journals agree too.
    assert_eq!(
        Journal::load(&split_dir).unwrap(),
        Journal::load(&one_shot_dir).unwrap()
    );
}

#[test]
fn immediate_resume_executes_zero_cells() {
    let targets = vec![locked_target()];
    let dir = tempdir("idem");
    let cfg = FleetConfig {
        dir: Some(dir.clone()),
        resume: true,
        ..FleetConfig::default()
    };
    let first = run_fleet(&targets, &cfg).unwrap();
    assert_eq!(first.executed, 9);
    let again = run_fleet(&targets, &cfg).unwrap();
    assert_eq!(again.executed, 0, "identical grid must be a pure journal hit");
    assert_eq!(again.journal_hits, 9);
    assert_eq!(again.report.to_json(), first.report.to_json());
}

#[test]
fn other_grids_in_the_directory_never_change_the_report() {
    // The report is a function of this grid's outcomes alone: a directory
    // that already journaled another target's grid must render the same
    // bytes as a fresh one, resumed or not.
    let sweep = |dir: &PathBuf, resume: bool| {
        run_fleet(
            &[locked_target()],
            &FleetConfig {
                dir: Some(dir.clone()),
                resume,
                ..FleetConfig::default()
            },
        )
        .unwrap()
    };
    let fresh = sweep(&tempdir("pure-fresh"), false);
    let shared = tempdir("pure-shared");
    run_fleet(
        &[racy_raw_target()],
        &FleetConfig {
            dir: Some(shared.clone()),
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let after_other = sweep(&shared, false);
    assert_eq!(after_other.report.to_json(), fresh.report.to_json());
    let resumed = sweep(&shared, true);
    assert_eq!(resumed.executed, 0);
    assert_eq!(resumed.report.to_json(), fresh.report.to_json());
    assert_eq!(resumed.journal_total, 18, "both grids stay journaled");
}

#[test]
fn worker_count_never_changes_the_report() {
    let targets = vec![locked_target(), racy_raw_target()];
    let jobs = |jobs| FleetConfig {
        grid: Grid {
            jobs,
            ..Grid::default()
        },
        ..FleetConfig::default()
    };
    let serial = run_fleet(&targets, &jobs(1)).unwrap();
    let parallel = run_fleet(&targets, &jobs(4)).unwrap();
    assert_eq!(serial.report.to_json(), parallel.report.to_json());
}

#[test]
fn check_determinism_passes_on_a_clean_program() {
    let run = run_fleet(
        &[locked_target()],
        &FleetConfig {
            check_determinism: true,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(run.report.nondeterministic, 0);
    assert!(run.report.passed(), "{}", run.report.to_json());
}

#[test]
fn determinism_check_gets_its_own_journal_identity() {
    // The same grid with and without --check-determinism must not share
    // journal entries: the outcome means something different.
    let targets = vec![locked_target()];
    let dir = tempdir("detkey");
    let plain = run_fleet(
        &targets,
        &FleetConfig {
            dir: Some(dir.clone()),
            resume: true,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(plain.executed, 9);
    let checked = run_fleet(
        &targets,
        &FleetConfig {
            dir: Some(dir.clone()),
            resume: true,
            check_determinism: true,
            ..FleetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        checked.executed, 9,
        "determinism-checked cells must not alias unchecked ones"
    );
    assert_eq!(checked.journal_hits, 0);
}

#[test]
fn raw_divergence_is_flagged_but_does_not_fail() {
    let run = run_fleet(&[racy_raw_target()], &FleetConfig::default()).unwrap();
    assert!(run.report.divergences > 0, "{}", run.report.to_json());
    assert!(run.report.flagged > 0);
    assert!(
        run.report.passed(),
        "expected divergence must not fail the fleet"
    );

    // The same program swept as an instrumented target fails loudly.
    let strict = FleetTarget::instrumented("racy", compile(RACY).unwrap());
    let run = run_fleet(&[strict], &FleetConfig::default()).unwrap();
    assert!(run.report.divergences > 0);
    assert!(!run.report.passed(), "unexpected divergence must fail");
}

#[test]
fn adversarial_strategies_explore_distinct_orders() {
    // Needs synchronization traffic: the order hash is over sync and
    // weak-lock events, so a lock-free program has a schedule-invariant
    // stream no matter how wildly the interleaving varies.
    let run = run_fleet(
        &[FleetTarget::raw("contended", compile(LOCKED).unwrap())],
        &FleetConfig {
            grid: Grid {
                seeds: vec![1, 2, 3, 4],
                ..Grid::default()
            },
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let rows = &run.report.targets[0].strategies;
    let adversarial_orders = rows
        .iter()
        .filter(|s| s.strategy != "jitter")
        .map(|s| s.distinct_orders)
        .max()
        .unwrap();
    assert!(
        adversarial_orders > 1,
        "adversarial sweep collapsed to one schedule: {}",
        run.report.to_json()
    );
    let preempts: u64 = rows.iter().map(|s| s.preemptions).sum();
    assert!(
        preempts > 0,
        "no perturbations injected: {}",
        run.report.to_json()
    );
}

#[test]
fn corrupt_journal_stops_a_resume_loudly() {
    let dir = tempdir("corrupt");
    std::fs::write(dir.join("journal.chfj"), b"CHFJ\x01garbage").unwrap();
    let err = run_fleet(
        &[locked_target()],
        &FleetConfig {
            dir: Some(dir),
            resume: true,
            ..FleetConfig::default()
        },
    )
    .unwrap_err();
    assert!(err.contains("journal"), "{err}");
}

#[test]
fn hoisted_strategy_resolution_pins_report_byte_identity() {
    // The orchestrator resolves each strategy once per target; the
    // pre-hoist code recomputed `resolve_strategy` deeper in the grid
    // loop. Resolution is a pure function of (strategy, baseline
    // instrs), so the hoist must not move a single byte of the report —
    // pin that by rebuilding every row and every per-cell outcome with
    // per-cell resolution through the same shared cell body.
    use chimera_fleet::cell::{resolve_strategy, run_cell};
    use chimera_runtime::execute;
    use std::collections::BTreeSet;

    let target = locked_target();
    let cfg = FleetConfig::default();
    let run = run_fleet(&[locked_target()], &cfg).unwrap();

    let baseline = execute(&target.program, &cfg.grid.exec);
    for (si, &strat) in cfg.grid.strategies.iter().enumerate() {
        let row = &run.report.targets[0].strategies[si];
        let mut orders = BTreeSet::new();
        let mut prefixes = BTreeSet::new();
        let (mut divergences, mut violations, mut preemptions) = (0u64, 0u64, 0u64);
        for &seed in &cfg.grid.seeds {
            let o = run_cell(
                &target.program,
                None,
                resolve_strategy(strat, baseline.stats.instrs),
                seed,
                &cfg.grid.exec,
                cfg.check_drd,
            );
            assert!(
                row.outcomes
                    .contains(&(seed, CellOutcome::from_seed(&o, None))),
                "cell (strategy {si}, seed {seed}) drifted after hoisting"
            );
            orders.insert(o.order_hash);
            prefixes.insert(o.prefix_hash);
            divergences += o.diverged() as u64;
            violations += o.violations.len() as u64;
            preemptions += o.preemptions;
        }
        assert_eq!(row.cells, cfg.grid.seeds.len() as u64);
        assert_eq!(row.outcomes.len(), cfg.grid.seeds.len());
        assert_eq!(row.divergences, divergences);
        assert_eq!(row.violations, violations);
        assert_eq!(row.preemptions, preemptions);
        assert_eq!(row.distinct_orders, orders.len());
        assert_eq!(row.distinct_prefixes, prefixes.len());
    }
}
