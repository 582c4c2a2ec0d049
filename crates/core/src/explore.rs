//! Schedule exploration: certify record/replay under hostile interleavings.
//!
//! Chimera's claim is *schedule-independence*: once a program is
//! weak-lock-instrumented, recording its sync and weak-lock order pins
//! down the execution no matter how adversarially the scheduler behaves.
//! The baseline VM only exercises clock-ordered schedules with bounded
//! jitter, which leaves the claim under-tested. This module sweeps each
//! program across the pluggable
//! [`SchedStrategy`](chimera_runtime::SchedStrategy) seam — clock-jitter
//! baseline, PCT randomized priorities (Burckhardt et al., ASPLOS 2010),
//! and preemption-bounded switching at weak-lock and shared-access
//! boundaries — and for every `(strategy, seed)` cell it:
//!
//! 1. records the instrumented program and replays it under a *different*
//!    seed of the *same* hostile strategy, requiring observable
//!    equivalence;
//! 2. re-runs the recorded schedule with a [`SingleHolderProbe`]
//!    attached, requiring the weak-lock single-holder invariant;
//! 3. optionally cross-checks the FastTrack detector: instrumented runs
//!    must be race-free and every dynamic race on the *uninstrumented*
//!    program must appear among RELAY's static pairs.
//!
//! The report also measures how much of the schedule space the sweep
//! actually visited: distinct sync-order hashes (whole runs) and distinct
//! 32-event order prefixes, plus the number of injected perturbations.
//! A sweep where every seed collapses to one order hash is not evidence
//! of anything; the harness makes that visible instead of silent.
//!
//! The per-cell body and the sweep itself live in [`chimera_fleet::cell`]
//! ([`run_cell`], [`Grid::sweep`]) and are shared with the fleet
//! orchestrator (`chimera fleet`) and evidence gathering, so a fleet
//! finding is always reproducible by a one-process explore sweep of the
//! same cell.

use crate::pipeline::Analysis;
use chimera_fleet::json_str;
use chimera_minic::ir::Program;
use std::collections::BTreeSet;

pub use chimera_fleet::cell::{
    resolve_strategy, run_cell, Grid, ScheduleObserver, SeedOutcome, StaticPairs, PREFIX_EVENTS,
};

/// What to sweep: the hostile grid, and whether to cross-check FastTrack.
#[derive(Debug, Clone, Default)]
pub struct ExploreConfig {
    /// Strategies × seeds on a base execution configuration, and the
    /// worker count. The report is bit-identical at every `jobs` setting.
    pub grid: Grid,
    /// Also run the FastTrack detector per cell (slower; adds the
    /// DRF/static cross-check columns).
    pub check_drd: bool,
}

/// All seeds of one strategy, plus coverage aggregates.
#[derive(Debug, Clone, Default)]
pub struct StrategyReport {
    /// Strategy name (`jitter` / `pct` / `preempt-bound`).
    pub strategy: String,
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<SeedOutcome>,
    /// Distinct full-order hashes across seeds.
    pub distinct_orders: usize,
    /// Distinct 32-event order prefixes across seeds.
    pub distinct_prefixes: usize,
    /// Total perturbations injected across seeds.
    pub preemptions: u64,
    /// Cells whose replay diverged.
    pub divergences: usize,
    /// Total single-holder violations.
    pub violations: usize,
}

/// The full sweep for one program.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Program name (workload or file stem).
    pub program: String,
    /// Whether the swept program was weak-lock instrumented (divergence
    /// is a failure) or a raw racy program (divergence is the point).
    pub instrumented: bool,
    /// One entry per strategy, in configuration order.
    pub strategies: Vec<StrategyReport>,
}

impl ExploreReport {
    /// Every cell clean: replays equivalent, invariant held, DRD agreed.
    pub fn clean(&self) -> bool {
        self.strategies
            .iter()
            .all(|s| s.outcomes.iter().all(SeedOutcome::clean))
    }

    /// Total diverged cells across the sweep.
    pub fn divergences(&self) -> usize {
        self.strategies.iter().map(|s| s.divergences).sum()
    }

    /// Total single-holder violations across the sweep.
    pub fn violations(&self) -> usize {
        self.strategies.iter().map(|s| s.violations).sum()
    }

    /// At least one cell diverged (what a racy uninstrumented program is
    /// expected to show somewhere in the sweep).
    pub fn any_divergence(&self) -> bool {
        self.divergences() > 0
    }

    /// Render the schedule-coverage report as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"program\": {},\n", json_str(&self.program)));
        s.push_str(&format!("  \"instrumented\": {},\n", self.instrumented));
        s.push_str(&format!("  \"clean\": {},\n", self.clean()));
        s.push_str(&format!("  \"divergences\": {},\n", self.divergences()));
        s.push_str(&format!("  \"violations\": {},\n", self.violations()));
        s.push_str("  \"strategies\": [\n");
        for (i, st) in self.strategies.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"strategy\": {},\n", json_str(&st.strategy)));
            s.push_str(&format!("      \"seeds\": {},\n", st.outcomes.len()));
            s.push_str(&format!(
                "      \"distinct_orders\": {},\n",
                st.distinct_orders
            ));
            s.push_str(&format!(
                "      \"distinct_prefixes\": {},\n",
                st.distinct_prefixes
            ));
            s.push_str(&format!("      \"preemptions\": {},\n", st.preemptions));
            s.push_str(&format!("      \"divergences\": {},\n", st.divergences));
            s.push_str(&format!("      \"violations\": {},\n", st.violations));
            s.push_str("      \"outcomes\": [\n");
            for (j, o) in st.outcomes.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"seed\": {}, \"replay_complete\": {}, \"equivalent\": {}, \
                     \"violations\": {}, \"preemptions\": {}, \"forced_releases\": {}, \
                     \"sync_events\": {}, \"order_hash\": \"{:#018x}\", \
                     \"prefix_hash\": \"{:#018x}\"{}{}}}{}\n",
                    o.seed,
                    o.replay_complete,
                    o.equivalent,
                    o.violations.len(),
                    o.preemptions,
                    o.forced_releases,
                    o.sync_events,
                    o.order_hash,
                    o.prefix_hash,
                    o.drd_races
                        .map_or(String::new(), |n| format!(", \"drd_races\": {n}")),
                    o.drd_unpredicted.as_ref().map_or(String::new(), |u| {
                        format!(", \"drd_unpredicted\": {}", u.len())
                    }),
                    if j + 1 < st.outcomes.len() { "," } else { "" },
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.strategies.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Sweep an analyzed (instrumented) program. Divergences, single-holder
/// violations, instrumented dynamic races, and statically-unpredicted
/// dynamic races are all failures; [`ExploreReport::clean`] is the
/// verdict.
pub fn explore(name: &str, analysis: &Analysis, cfg: &ExploreConfig) -> ExploreReport {
    let statics: StaticPairs = analysis.races.pairs.iter().map(|p| (p.a, p.b)).collect();
    sweep(
        name,
        &analysis.instrumented,
        Some((&analysis.program, &statics)),
        true,
        cfg,
    )
}

/// Sweep a raw (uninstrumented) program. A racy program is *expected* to
/// diverge for some cell — [`ExploreReport::any_divergence`] is the
/// interesting predicate here, and divergence is not counted as unclean
/// behavior of the harness itself.
pub fn explore_uninstrumented(name: &str, program: &Program, cfg: &ExploreConfig) -> ExploreReport {
    sweep(name, program, None, false, cfg)
}

fn sweep(
    name: &str,
    program: &Program,
    drd_cross: Option<(&Program, &StaticPairs)>,
    instrumented: bool,
    cfg: &ExploreConfig,
) -> ExploreReport {
    let mut strategies: Vec<StrategyReport> = cfg
        .grid
        .strategies
        .iter()
        .map(|s| StrategyReport {
            strategy: s.name().to_string(),
            ..StrategyReport::default()
        })
        .collect();
    for (cell, o) in cfg.grid.sweep(program, drd_cross, cfg.check_drd) {
        strategies[cell.strategy].outcomes.push(o);
    }
    for st in &mut strategies {
        st.distinct_orders = st
            .outcomes
            .iter()
            .map(|o| o.order_hash)
            .collect::<BTreeSet<_>>()
            .len();
        st.distinct_prefixes = st
            .outcomes
            .iter()
            .map(|o| o.prefix_hash)
            .collect::<BTreeSet<_>>()
            .len();
        st.preemptions = st.outcomes.iter().map(|o| o.preemptions).sum();
        st.divergences = st.outcomes.iter().filter(|o| o.diverged()).count();
        st.violations = st.outcomes.iter().map(|o| o.violations.len()).sum();
    }
    ExploreReport {
        program: name.to_string(),
        instrumented,
        strategies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze, PipelineConfig};
    use chimera_minic::compile;
    use chimera_runtime::{execute, SchedStrategy};

    const RACY: &str = "int g;
        void w(int v) { int i; int x;
            for (i = 0; i < 80; i = i + 1) { x = g; g = x + v; } }
        int main() { int t; t = spawn(w, 1); w(2); join(t); print(g); return 0; }";

    fn seeds_cfg(seeds: Vec<u64>) -> ExploreConfig {
        ExploreConfig {
            grid: Grid {
                seeds,
                ..Grid::default()
            },
            ..ExploreConfig::default()
        }
    }

    fn small_cfg() -> ExploreConfig {
        seeds_cfg(vec![1, 2])
    }

    #[test]
    fn instrumented_racy_program_survives_adversarial_sweep() {
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let cfg = ExploreConfig {
            check_drd: true,
            ..small_cfg()
        };
        let r = explore("racy", &a, &cfg);
        assert!(r.clean(), "{}", r.to_json());
        assert_eq!(r.strategies.len(), 3);
        for st in &r.strategies {
            assert_eq!(st.outcomes.len(), 2);
        }
    }

    #[test]
    fn uninstrumented_racy_program_diverges_somewhere() {
        let p = compile(RACY).unwrap();
        let cfg = seeds_cfg(vec![1, 2, 3]);
        let r = explore_uninstrumented("racy", &p, &cfg);
        assert!(
            r.any_divergence(),
            "adversarial sweep failed to expose the race: {}",
            r.to_json()
        );
        // Divergence means the *replay* broke, not the invariant probe.
        assert_eq!(r.violations(), 0, "{}", r.to_json());
    }

    #[test]
    fn adversarial_strategies_explore_distinct_orders() {
        // Needs synchronization traffic: the order hash is over sync and
        // weak-lock events, so a lock-free program has a schedule-invariant
        // stream no matter how wildly the interleaving varies.
        let contended = "int g; lock_t m;
            void w(int n) { int i; for (i = 0; i < 40; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
            int main() { int t1; int t2;
                t1 = spawn(w, 1); t2 = spawn(w, 2); w(3);
                join(t1); join(t2); print(g); return 0; }";
        let p = compile(contended).unwrap();
        let cfg = seeds_cfg(vec![1, 2, 3, 4]);
        let r = explore_uninstrumented("contended", &p, &cfg);
        let adversarial_orders: usize = r
            .strategies
            .iter()
            .filter(|s| s.strategy != "jitter")
            .map(|s| s.distinct_orders)
            .max()
            .unwrap();
        assert!(
            adversarial_orders > 1,
            "adversarial sweep collapsed to one schedule: {}",
            r.to_json()
        );
        let preempts: u64 = r.strategies.iter().map(|s| s.preemptions).sum();
        assert!(preempts > 0, "no perturbations injected: {}", r.to_json());
    }

    #[test]
    fn sweep_is_deterministic() {
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let r1 = explore("racy", &a, &small_cfg());
        let r2 = explore("racy", &a, &small_cfg());
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn parallel_sweep_report_is_byte_identical_to_serial() {
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let jobs_cfg = |jobs| {
            let mut cfg = small_cfg();
            cfg.grid.jobs = jobs;
            cfg
        };
        let serial = explore("racy", &a, &jobs_cfg(1));
        let parallel = explore("racy", &a, &jobs_cfg(3));
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn report_json_shape_is_stable() {
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let r = explore("racy", &a, &small_cfg());
        let j = r.to_json();
        for key in [
            "\"program\"",
            "\"instrumented\"",
            "\"clean\"",
            "\"strategies\"",
            "\"distinct_orders\"",
            "\"distinct_prefixes\"",
            "\"order_hash\"",
            "\"preemptions\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(json_str("a\"b\\c\nd").contains("\\\""));
    }

    #[test]
    fn hoisted_strategy_resolution_pins_per_cell_report() {
        // The sweep now resolves each strategy once per program; the
        // pre-hoist code resolved inside the per-seed loop. Resolution is
        // a pure function of (strategy, baseline instrs), so the report
        // must be byte-identical — pin that by rebuilding every outcome
        // with per-cell resolution and comparing debug renderings.
        let p = compile(RACY).unwrap();
        let a = analyze(&p, &PipelineConfig::default());
        let cfg = ExploreConfig {
            check_drd: true,
            ..small_cfg()
        };
        let r = explore("racy", &a, &cfg);
        let statics: StaticPairs = a.races.pairs.iter().map(|p| (p.a, p.b)).collect();
        let instrs = execute(&a.instrumented, &cfg.grid.exec).stats.instrs;
        for (si, &strat) in cfg.grid.strategies.iter().enumerate() {
            for (sj, &seed) in cfg.grid.seeds.iter().enumerate() {
                let o = run_cell(
                    &a.instrumented,
                    Some((&a.program, &statics)),
                    resolve_strategy(strat, instrs),
                    seed,
                    &cfg.grid.exec,
                    cfg.check_drd,
                );
                assert_eq!(
                    format!("{:?}", r.strategies[si].outcomes[sj]),
                    format!("{o:?}"),
                    "cell (strategy {si}, seed {seed}) drifted after hoisting"
                );
            }
        }
    }

    #[test]
    fn pct_auto_span_resolves_to_baseline_instrs() {
        assert_eq!(
            resolve_strategy(SchedStrategy::pct(3), 12_345),
            SchedStrategy::Pct {
                depth: 3,
                span: 12_345
            }
        );
        let fixed = SchedStrategy::Pct {
            depth: 2,
            span: 77,
        };
        assert_eq!(resolve_strategy(fixed, 12_345), fixed);
        assert_eq!(
            resolve_strategy(SchedStrategy::ClockJitter, 9),
            SchedStrategy::ClockJitter
        );
    }
}
