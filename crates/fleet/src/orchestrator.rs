//! The fleet orchestrator: thousands of exploration cells, work-stealing
//! execution, a persistent run journal, and incremental resume. It is the
//! one front end of the hostile sweep: `chimera explore` builds its
//! targets and prints its report.
//!
//! The grid is `targets × strategies × seeds`, materialized in a
//! canonical order (target-major, then each target's [`Grid::cells`]:
//! strategy, then seed). Execution fans the *pending* cells (grid minus
//! journal hits) out over [`chimera_runtime::par_map`], whose workers
//! pull cells from a shared atomic index — work-stealing at cell
//! granularity, so a straggler delays only itself — and return results
//! in grid order, so every aggregate below is independent of worker
//! count and OS scheduling; `jobs = 1` is the serial path.
//!
//! Every cell outcome lands in the [`Journal`] keyed by
//! [`CellKey`]; `resume` skips journaled cells and reuses their stored
//! outcomes, which makes the final report — per-strategy aggregates and
//! one row per covered cell, both read back from the journal — a pure
//! function of the grid: a budgeted run plus a `--resume` completion is
//! byte-identical to the one-shot run, and cells other grids journaled
//! in the same directory never enter it. Without a directory the journal
//! lives in memory only and nothing is written.
//!
//! With `check_determinism`, each cell is executed twice and the two
//! runs' `Machine::fold_ordered` state hashes (plus order hashes and
//! stats) are diffed, kimberlite-VOPR-style: any disagreement marks the
//! cell nondeterministic — evidence that the analysis pipeline itself,
//! not just the program under test, broke its own determinism contract.

use crate::cell::{exec_digest, program_digest, run_cell, CellKey, Grid, GridCell, StaticPairs};
use crate::journal::{CellOutcome, Journal};
use chimera_minic::ir::Program;
use chimera_runtime::par_map;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// One program the fleet sweeps.
#[derive(Debug, Clone)]
pub struct FleetTarget {
    /// Display name (workload or file stem).
    pub name: String,
    /// The program to sweep (typically the weak-lock-instrumented one).
    pub program: Program,
    /// For the FastTrack cross-check: the original (uninstrumented)
    /// program and RELAY's static race pairs.
    pub cross: Option<(Program, StaticPairs)>,
    /// True for raw racy programs: replay divergence is the *expected*
    /// finding (flagged, not failed). False for instrumented programs,
    /// where any divergence fails the fleet.
    pub expect_divergence: bool,
}

impl FleetTarget {
    /// An instrumented target: divergence anywhere is a failure.
    pub fn instrumented(name: &str, program: Program) -> FleetTarget {
        FleetTarget {
            name: name.to_string(),
            program,
            cross: None,
            expect_divergence: false,
        }
    }

    /// A raw (uninstrumented) target: divergence is the point.
    pub fn raw(name: &str, program: Program) -> FleetTarget {
        FleetTarget {
            name: name.to_string(),
            program,
            cross: None,
            expect_divergence: true,
        }
    }
}

/// What to sweep and how to run it.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Strategies × seeds on the base execution configuration, and the
    /// worker count for cell execution.
    pub grid: Grid,
    /// Run the FastTrack cross-check per cell.
    pub check_drd: bool,
    /// Run every cell twice and diff state/order hashes.
    pub check_determinism: bool,
    /// Execute at most this many *new* cells this invocation (a budget;
    /// the rest of the grid stays pending for the next `--resume`).
    pub max_cells: Option<u64>,
    /// Directory holding `journal.chfj`. `None` keeps the journal in
    /// memory only.
    pub dir: Option<PathBuf>,
    /// Skip cells already present in the journal (incremental mode).
    /// When false, journaled cells re-execute and their entries are
    /// overwritten.
    pub resume: bool,
}

/// Per-(target, strategy) aggregates over every covered cell, and the
/// cells themselves.
#[derive(Debug, Clone, Default)]
pub struct StrategyCells {
    /// Strategy name.
    pub strategy: String,
    /// Cells with an outcome (executed now or journaled earlier).
    pub cells: u64,
    /// Cells whose replay diverged.
    pub divergences: u64,
    /// Total single-holder violations.
    pub violations: u64,
    /// Cells whose determinism double-run disagreed.
    pub nondeterministic: u64,
    /// Total strategy perturbations.
    pub preemptions: u64,
    /// Total weak-lock forced releases.
    pub forced_releases: u64,
    /// Total FastTrack races (when `--drd`).
    pub drd_races: u64,
    /// Total statically-unpredicted dynamic races (when `--drd`).
    pub drd_unpredicted: u64,
    /// Distinct full order hashes.
    pub distinct_orders: usize,
    /// Distinct 32-event prefixes.
    pub distinct_prefixes: usize,
    /// Every covered cell's record seed and outcome, in seed order.
    pub outcomes: Vec<(u64, CellOutcome)>,
}

impl StrategyCells {
    /// Fill the aggregates from [`StrategyCells::outcomes`].
    fn tally(&mut self) {
        let os = || self.outcomes.iter().map(|(_, o)| o);
        self.cells = os().count() as u64;
        self.divergences = os().filter(|o| o.diverged()).count() as u64;
        self.violations = os().map(|o| u64::from(o.violations)).sum();
        self.nondeterministic = os().filter(|o| o.deterministic == Some(false)).count() as u64;
        self.preemptions = os().map(|o| o.preemptions).sum();
        self.forced_releases = os().map(|o| o.forced_releases).sum();
        self.drd_races = os().map(|o| u64::from(o.drd_races.unwrap_or(0))).sum();
        self.drd_unpredicted = os()
            .map(|o| u64::from(o.drd_unpredicted.unwrap_or(0)))
            .sum();
        self.distinct_orders = os().map(|o| o.order_hash).collect::<BTreeSet<_>>().len();
        self.distinct_prefixes = os().map(|o| o.prefix_hash).collect::<BTreeSet<_>>().len();
    }
}

/// All strategies of one target.
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// Target name.
    pub name: String,
    /// Whether divergence was expected (raw racy target).
    pub expect_divergence: bool,
    /// One row per strategy, in configuration order.
    pub strategies: Vec<StrategyCells>,
}

/// The grid-wide fleet report. Every field is a pure function of the
/// grid's cell outcomes — never of which invocation executed them, how
/// many workers ran, or what was resumed — so resumed and one-shot runs
/// of the same grid render byte-identical JSON.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-target aggregates.
    pub targets: Vec<TargetReport>,
    /// Planned grid size (targets × strategies × seeds).
    pub grid: u64,
    /// Cells with outcomes (≤ grid when a budget truncated the run).
    pub covered: u64,
    /// Distinct full order hashes across the whole grid.
    pub distinct_orders: usize,
    /// Distinct 32-event prefixes across the whole grid.
    pub distinct_prefixes: usize,
    /// Total diverged cells.
    pub divergences: u64,
    /// Total single-holder violations.
    pub violations: u64,
    /// Total nondeterministic cells.
    pub nondeterministic: u64,
    /// Flagged cells: divergences on expected-divergence targets plus
    /// every nondeterministic cell — the findings worth reading.
    pub flagged: u64,
}

impl FleetReport {
    /// No unexpected divergence, no violation, no nondeterminism, no
    /// dynamic race on any instrumented target. Expected-divergence
    /// targets may diverge freely (that evidence is [`FleetReport::flagged`],
    /// not failure).
    pub fn passed(&self) -> bool {
        self.nondeterministic == 0
            && self.violations == 0
            && self.targets.iter().all(|t| {
                t.expect_divergence
                    || t.strategies
                        .iter()
                        .all(|s| s.divergences == 0 && s.drd_races == 0 && s.drd_unpredicted == 0)
            })
    }

    /// Render as JSON (stable key order, deterministic).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"grid\": {},\n", self.grid));
        s.push_str(&format!("  \"covered\": {},\n", self.covered));
        s.push_str(&format!("  \"passed\": {},\n", self.passed()));
        s.push_str(&format!("  \"flagged\": {},\n", self.flagged));
        s.push_str(&format!("  \"divergences\": {},\n", self.divergences));
        s.push_str(&format!("  \"violations\": {},\n", self.violations));
        s.push_str(&format!(
            "  \"nondeterministic\": {},\n",
            self.nondeterministic
        ));
        s.push_str(&format!(
            "  \"distinct_orders\": {},\n",
            self.distinct_orders
        ));
        s.push_str(&format!(
            "  \"distinct_prefixes\": {},\n",
            self.distinct_prefixes
        ));
        s.push_str("  \"targets\": [\n");
        for (i, t) in self.targets.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"program\": {},\n", json_str(&t.name)));
            s.push_str(&format!(
                "      \"expect_divergence\": {},\n",
                t.expect_divergence
            ));
            s.push_str("      \"strategies\": [\n");
            for (j, st) in t.strategies.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"strategy\": {}, \"cells\": {}, \"divergences\": {}, \
                     \"violations\": {}, \"nondeterministic\": {}, \"preemptions\": {}, \
                     \"forced_releases\": {}, \"drd_races\": {}, \"drd_unpredicted\": {}, \
                     \"distinct_orders\": {}, \"distinct_prefixes\": {}, \"outcomes\": [",
                    json_str(&st.strategy),
                    st.cells,
                    st.divergences,
                    st.violations,
                    st.nondeterministic,
                    st.preemptions,
                    st.forced_releases,
                    st.drd_races,
                    st.drd_unpredicted,
                    st.distinct_orders,
                    st.distinct_prefixes,
                ));
                for (k, (seed, o)) in st.outcomes.iter().enumerate() {
                    s.push_str(if k == 0 { "\n" } else { ",\n" });
                    s.push_str(&format!(
                        "          {{\"seed\": {seed}, \"replay_complete\": {}, \"equivalent\": {}, \
                         \"violations\": {}, \"preemptions\": {}, \"forced_releases\": {}, \
                         \"sync_events\": {}, \"order_hash\": \"{:#018x}\", \
                         \"prefix_hash\": \"{:#018x}\"",
                        o.replay_complete,
                        o.equivalent,
                        o.violations,
                        o.preemptions,
                        o.forced_releases,
                        o.sync_events,
                        o.order_hash,
                        o.prefix_hash,
                    ));
                    if let Some(n) = o.drd_races {
                        s.push_str(&format!(", \"drd_races\": {n}"));
                    }
                    if let Some(n) = o.drd_unpredicted {
                        s.push_str(&format!(", \"drd_unpredicted\": {n}"));
                    }
                    if let Some(det) = o.deterministic {
                        s.push_str(&format!(", \"deterministic\": {det}"));
                    }
                    s.push('}');
                }
                if !st.outcomes.is_empty() {
                    s.push_str("\n        ");
                }
                let sep = if j + 1 < t.strategies.len() { "," } else { "" };
                s.push_str(&format!("]}}{sep}\n"));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.targets.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Render `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything one invocation did: the grid-wide report plus this run's
/// incremental accounting (how much work resume actually saved).
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The grid-wide report (invocation-independent).
    pub report: FleetReport,
    /// Cells executed by *this* invocation.
    pub executed: u64,
    /// Cells skipped because the journal already had them.
    pub journal_hits: u64,
    /// Cells left unexecuted by the `max_cells` budget.
    pub truncated: u64,
    /// Journal size after this run.
    pub journal_total: u64,
}

struct Cell {
    target: usize,
    cell: GridCell,
    key: CellKey,
}

/// Execute the fleet: build the grid, skip journaled cells, run the rest
/// work-stealing, persist the journal, and aggregate the grid-wide report.
///
/// # Errors
///
/// A corrupt or unreadable journal (named-section parse errors), and
/// persistence failures. Cell execution itself cannot fail —
/// a diverging or violating cell is a *result*, not an error.
pub fn run_fleet(targets: &[FleetTarget], cfg: &FleetConfig) -> Result<FleetRun, String> {
    if let Some(dir) = &cfg.dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut journal = match &cfg.dir {
        Some(dir) => Journal::load(dir)?,
        None => Journal::default(),
    };

    // --- Build the grid in canonical order. -------------------------------
    let edig = exec_digest(&cfg.grid.exec, cfg.check_drd, cfg.check_determinism);
    let mut grid: Vec<Cell> = Vec::new();
    for (ti, target) in targets.iter().enumerate() {
        let pdig = program_digest(&target.program);
        for cell in cfg.grid.cells(&target.program) {
            // Keyed on the *unresolved* strategy: resolution is a
            // deterministic function of (program, exec), both already in
            // the key.
            let key = CellKey::new(pdig, cfg.grid.strategies[cell.strategy], cell.seed, edig);
            grid.push(Cell {
                target: ti,
                cell,
                key,
            });
        }
    }

    // --- Partition into journal hits and pending work. --------------------
    let mut pending: Vec<&Cell> = grid
        .iter()
        .filter(|c| !(cfg.resume && journal.get(&c.key).is_some()))
        .collect();
    let journal_hits = (grid.len() - pending.len()) as u64;
    let truncated = match cfg.max_cells {
        Some(max) => {
            let cut = pending.len().saturating_sub(max as usize);
            pending.truncate(max as usize);
            cut as u64
        }
        None => 0,
    };

    // --- Work-stealing execution, results in grid order. ------------------
    let new_outcomes: Vec<CellOutcome> = par_map(&pending, cfg.grid.jobs, |c| {
        let target = &targets[c.target];
        let cross = target.cross.as_ref().map(|(p, s)| (p, s));
        let run = || {
            run_cell(
                &target.program,
                cross,
                c.cell.sched,
                c.cell.seed,
                &cfg.grid.exec,
                cfg.check_drd,
            )
        };
        let o = run();
        // Kimberlite's --check-determinism: run the cell again and diff
        // the fold_ordered state hash plus every schedule observable. One
        // bit of disagreement means the pipeline itself is
        // nondeterministic.
        let det = cfg.check_determinism.then(|| {
            let o2 = run();
            o.state_hash == o2.state_hash
                && o.order_hash == o2.order_hash
                && o.prefix_hash == o2.prefix_hash
                && o.sync_events == o2.sync_events
                && o.equivalent == o2.equivalent
                && o.preemptions == o2.preemptions
        });
        CellOutcome::from_seed(&o, det)
    });
    let executed = new_outcomes.len() as u64;
    for (c, &o) in pending.iter().zip(&new_outcomes) {
        journal.insert(c.key, o);
    }

    // --- Persist. ---------------------------------------------------------
    if let Some(dir) = &cfg.dir {
        journal.save(dir)?;
    }

    // --- Aggregate the grid-wide report. ----------------------------------
    let mut target_reports: Vec<TargetReport> = targets
        .iter()
        .map(|t| TargetReport {
            name: t.name.clone(),
            expect_divergence: t.expect_divergence,
            strategies: cfg
                .grid
                .strategies
                .iter()
                .map(|s| StrategyCells {
                    strategy: s.name().to_string(),
                    ..StrategyCells::default()
                })
                .collect(),
        })
        .collect();
    let mut global_orders = BTreeSet::new();
    let mut global_prefixes = BTreeSet::new();
    let mut flagged = 0u64;
    for c in &grid {
        let Some(&o) = journal.get(&c.key) else {
            continue; // budget-truncated cell: no outcome yet
        };
        target_reports[c.target].strategies[c.cell.strategy]
            .outcomes
            .push((c.cell.seed, o));
        global_orders.insert(o.order_hash);
        global_prefixes.insert(o.prefix_hash);
        if (targets[c.target].expect_divergence && o.diverged())
            || o.deterministic == Some(false)
        {
            flagged += 1;
        }
    }
    for t in &mut target_reports {
        t.strategies.iter_mut().for_each(StrategyCells::tally);
    }
    let rows = || target_reports.iter().flat_map(|t| &t.strategies);
    let report = FleetReport {
        divergences: rows().map(|s| s.divergences).sum(),
        violations: rows().map(|s| s.violations).sum(),
        nondeterministic: rows().map(|s| s.nondeterministic).sum(),
        covered: rows().map(|s| s.cells).sum(),
        grid: grid.len() as u64,
        targets: target_reports,
        distinct_orders: global_orders.len(),
        distinct_prefixes: global_prefixes.len(),
        flagged,
    };
    Ok(FleetRun {
        report,
        executed,
        journal_hits,
        truncated,
        journal_total: journal.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    #[test]
    fn report_json_shape_is_stable() {
        let p = compile(
            "int g;
             void w(int v) { int i; int x;
                 for (i = 0; i < 80; i = i + 1) { x = g; g = x + v; } }
             int main() { int t; t = spawn(w, 1); w(2); join(t); print(g); return 0; }",
        )
        .unwrap();
        let cfg = FleetConfig {
            grid: Grid {
                seeds: vec![1, 2],
                ..Grid::default()
            },
            check_drd: true,
            check_determinism: true,
            ..FleetConfig::default()
        };
        let j = run_fleet(&[FleetTarget::raw("racy", p)], &cfg)
            .unwrap()
            .report
            .to_json();
        for key in [
            "\"grid\"",
            "\"covered\"",
            "\"passed\"",
            "\"program\"",
            "\"expect_divergence\"",
            "\"strategies\"",
            "\"distinct_orders\"",
            "\"distinct_prefixes\"",
            "\"outcomes\"",
            "\"seed\": 2",
            "\"replay_complete\"",
            "\"order_hash\"",
            "\"prefix_hash\"",
            "\"preemptions\"",
            "\"drd_races\"",
            "\"deterministic\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(json_str("a\"b\\c\nd").contains("\\\""));
    }
}
