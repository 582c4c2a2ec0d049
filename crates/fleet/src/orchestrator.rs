//! The fleet orchestrator: thousands of exploration cells, work-stealing
//! execution, global schedule dedup, a persistent corpus, and
//! incremental resume.
//!
//! The grid is `targets × strategies × seeds`, materialized in a
//! canonical order (target-major, then strategy, then seed). Execution
//! fans the *pending* cells (grid minus journal hits) out over
//! [`chimera_runtime::par_map`] in chunked batches: workers pull
//! batches from a shared atomic index — work-stealing at batch
//! granularity — so a straggler cell only delays its own batch, and
//! results are reassembled in grid order so every aggregate below is
//! independent of worker count and OS scheduling. `CHIMERA_SERIAL=1`
//! forces the serial path.
//!
//! Every cell outcome lands in the [`Journal`] keyed by
//! [`CellKey`]; `resume` skips journaled cells and reuses their stored
//! outcomes, which makes the final report a pure function of the grid —
//! a budgeted run plus a `--resume` completion is byte-identical to the
//! one-shot run. Interesting cells (new order-hash coverage,
//! divergences, near-divergences, preemption-heavy runs, probe
//! violations, determinism failures) are appended to the [`Corpus`].
//!
//! With `check_determinism`, each cell is executed twice and the two
//! runs' `Machine::fold_ordered` state hashes (plus order hashes and
//! stats) are diffed, kimberlite-VOPR-style: any disagreement marks the
//! cell nondeterministic — evidence that the analysis pipeline itself,
//! not just the program under test, broke its own determinism contract.

use crate::cell::{
    exec_digest, program_digest, resolve_strategy, run_cell, CellKey, StaticPairs,
};
use crate::corpus::{Corpus, CorpusEntry, Interest, PREEMPT_HEAVY_MIN};
use crate::journal::{CellOutcome, Journal};
use chimera_minic::ir::Program;
use chimera_runtime::{execute, par_map, ExecConfig, SchedStrategy};
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
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scheduling strategies (PCT `span: 0` auto-sizes per target).
    pub strategies: Vec<SchedStrategy>,
    /// Record seeds per (target, strategy).
    pub seeds: Vec<u64>,
    /// Base execution configuration (`seed`/`sched` overridden per cell).
    pub exec: ExecConfig,
    /// Run the FastTrack cross-check per cell.
    pub check_drd: bool,
    /// Run every cell twice and diff state/order hashes.
    pub check_determinism: bool,
    /// Worker threads for cell execution: 0 = auto
    /// (`available_parallelism`), 1 = serial, N = exactly N.
    pub jobs: usize,
    /// Cells per work-stealing batch: 0 = auto-size from the pending
    /// count and worker count.
    pub batch: usize,
    /// Execute at most this many *new* cells this invocation (a budget;
    /// the rest of the grid stays pending for the next `--resume`).
    pub max_cells: Option<u64>,
    /// Directory holding `journal.chfj` + `corpus.chfc`. `None` keeps
    /// both in memory only.
    pub dir: Option<PathBuf>,
    /// Skip cells already present in the journal (incremental mode).
    /// When false, journaled cells re-execute and their entries are
    /// overwritten.
    pub resume: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            strategies: vec![
                SchedStrategy::ClockJitter,
                SchedStrategy::pct(3),
                SchedStrategy::preempt_bound(),
            ],
            seeds: vec![1, 2, 3],
            exec: ExecConfig::default(),
            check_drd: false,
            check_determinism: false,
            jobs: 0,
            batch: 0,
            max_cells: None,
            dir: None,
            resume: false,
        }
    }
}

/// Per-(target, strategy) aggregates over every covered cell.
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
    /// Corpus size after this run.
    pub corpus_total: u64,
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
        s.push_str(&format!("  \"corpus_total\": {},\n", self.corpus_total));
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
                     \"distinct_orders\": {}, \"distinct_prefixes\": {}}}{}\n",
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
                    if j + 1 < t.strategies.len() { "," } else { "" },
                ));
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
    /// Corpus entries added by this invocation.
    pub corpus_added: u64,
    /// Journal size after this run.
    pub journal_total: u64,
}

struct Cell {
    target: usize,
    strategy: usize,
    seed: u64,
    key: CellKey,
    sched: SchedStrategy,
}

/// Execute the fleet: build the grid, skip journaled cells, run the rest
/// work-stealing, classify interesting outcomes into the corpus, persist
/// both containers, and aggregate the grid-wide report.
///
/// # Errors
///
/// Corrupt or unreadable journal/corpus files (named-section parse
/// errors), and persistence failures. Cell execution itself cannot fail —
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
    let mut corpus = match &cfg.dir {
        Some(dir) => Corpus::load(dir)?,
        None => Corpus::default(),
    };

    // --- Build the grid in canonical order. -------------------------------
    let edig = exec_digest(&cfg.exec, cfg.check_drd, cfg.check_determinism);
    let mut grid: Vec<Cell> = Vec::new();
    for (ti, target) in targets.iter().enumerate() {
        let pdig = program_digest(&target.program);
        // One baseline run per target sizes PCT auto-spans; resolve each
        // strategy once per target (resolution is a pure function of the
        // strategy and the baseline instruction count, so per-cell
        // recomputation could never differ — it was just wasted work).
        let baseline = execute(&target.program, &cfg.exec);
        let resolved: Vec<SchedStrategy> = cfg
            .strategies
            .iter()
            .map(|&s| resolve_strategy(s, baseline.stats.instrs))
            .collect();
        for (si, &strat) in cfg.strategies.iter().enumerate() {
            for &seed in &cfg.seeds {
                grid.push(Cell {
                    target: ti,
                    strategy: si,
                    seed,
                    // Keyed on the *unresolved* strategy: resolution is a
                    // deterministic function of (program, exec), both
                    // already in the key.
                    key: CellKey::new(pdig, strat, seed, edig),
                    sched: resolved[si],
                });
            }
        }
    }

    // --- Partition into journal hits and pending work. --------------------
    let mut pending: Vec<usize> = Vec::new();
    let mut journal_hits = 0u64;
    for (i, c) in grid.iter().enumerate() {
        if cfg.resume && journal.get(&c.key).is_some() {
            journal_hits += 1;
        } else {
            pending.push(i);
        }
    }
    let truncated = match cfg.max_cells {
        Some(max) => {
            let cut = pending.len().saturating_sub(max as usize);
            pending.truncate(max as usize);
            cut as u64
        }
        None => 0,
    };

    // --- Work-stealing execution over chunked batches. --------------------
    // Workers pull whole batches from par_map's shared index; small
    // batches amortize the steal without serializing behind stragglers.
    let workers = if cfg.jobs == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        cfg.jobs
    };
    let batch = if cfg.batch != 0 {
        cfg.batch
    } else {
        (pending.len() / (workers.max(1) * 4)).clamp(1, 32)
    };
    let batches: Vec<&[usize]> = pending.chunks(batch).collect();
    let per_batch: Vec<Vec<(usize, CellOutcome)>> = par_map(&batches, cfg.jobs, |chunk| {
        chunk
            .iter()
            .map(|&i| {
                let c = &grid[i];
                let target = &targets[c.target];
                let cross = target.cross.as_ref().map(|(p, s)| (p, s));
                let o = run_cell(
                    &target.program,
                    cross,
                    c.sched,
                    c.seed,
                    &cfg.exec,
                    cfg.check_drd,
                );
                let det = if cfg.check_determinism {
                    // Kimberlite's --check-determinism: run the cell
                    // again and diff the fold_ordered state hash plus
                    // every schedule observable. One bit of disagreement
                    // means the pipeline itself is nondeterministic.
                    let o2 = run_cell(
                        &target.program,
                        cross,
                        c.sched,
                        c.seed,
                        &cfg.exec,
                        cfg.check_drd,
                    );
                    Some(
                        o.state_hash == o2.state_hash
                            && o.order_hash == o2.order_hash
                            && o.prefix_hash == o2.prefix_hash
                            && o.sync_events == o2.sync_events
                            && o.equivalent == o2.equivalent
                            && o.preemptions == o2.preemptions,
                    )
                } else {
                    None
                };
                (i, CellOutcome::from_seed(&o, det))
            })
            .collect()
    });
    // par_map returns batches in input order and batches preserve
    // their internal order, so this is grid order.
    let new_outcomes: Vec<(usize, CellOutcome)> = per_batch.into_iter().flatten().collect();
    let executed = new_outcomes.len() as u64;
    for &(i, o) in &new_outcomes {
        journal.insert(grid[i].key, o);
    }

    // --- Classify newly executed cells into the corpus (grid order, so
    // NEW_ORDER attribution is invocation-independent). -------------------
    let mut corpus_added = 0u64;
    for &(i, o) in &new_outcomes {
        let c = &grid[i];
        let mut interest = Interest::default();
        if !corpus.covers_order(o.order_hash) {
            interest = interest.or(Interest::NEW_ORDER);
        }
        if o.diverged() {
            interest = interest.or(Interest::DIVERGENT);
        }
        if !o.diverged() && o.forced_releases > 0 {
            interest = interest.or(Interest::NEAR_DIVERGENCE);
        }
        if o.preemptions >= PREEMPT_HEAVY_MIN {
            interest = interest.or(Interest::PREEMPT_HEAVY);
        }
        if o.violations > 0 {
            interest = interest.or(Interest::VIOLATION);
        }
        if o.deterministic == Some(false) {
            interest = interest.or(Interest::NONDETERMINISTIC);
        }
        if !interest.is_empty()
            && corpus.add(CorpusEntry {
                key: c.key,
                program: targets[c.target].name.clone(),
                interest,
                order_hash: o.order_hash,
                prefix_hash: o.prefix_hash,
                state_hash: o.state_hash,
                preemptions: o.preemptions,
                forced_releases: o.forced_releases,
                sync_events: o.sync_events,
            })
        {
            corpus_added += 1;
        }
    }

    // --- Persist. ---------------------------------------------------------
    if let Some(dir) = &cfg.dir {
        journal.save(dir)?;
        corpus.save(dir)?;
    }

    // --- Aggregate the grid-wide report. ----------------------------------
    let mut target_reports: Vec<TargetReport> = targets
        .iter()
        .map(|t| TargetReport {
            name: t.name.clone(),
            expect_divergence: t.expect_divergence,
            strategies: cfg
                .strategies
                .iter()
                .map(|s| StrategyCells {
                    strategy: s.name().to_string(),
                    ..StrategyCells::default()
                })
                .collect(),
        })
        .collect();
    let mut row_orders: Vec<Vec<BTreeSet<u64>>> = targets
        .iter()
        .map(|_| cfg.strategies.iter().map(|_| BTreeSet::new()).collect())
        .collect();
    let mut row_prefixes = row_orders.clone();
    let mut global_orders = BTreeSet::new();
    let mut global_prefixes = BTreeSet::new();
    let mut covered = 0u64;
    let mut flagged = 0u64;
    for c in &grid {
        let Some(o) = journal.get(&c.key) else {
            continue; // budget-truncated cell: no outcome yet
        };
        covered += 1;
        let row = &mut target_reports[c.target].strategies[c.strategy];
        row.cells += 1;
        row.divergences += u64::from(o.diverged());
        row.violations += u64::from(o.violations);
        row.nondeterministic += u64::from(o.deterministic == Some(false));
        row.preemptions += o.preemptions;
        row.forced_releases += o.forced_releases;
        row.drd_races += u64::from(o.drd_races.unwrap_or(0));
        row.drd_unpredicted += u64::from(o.drd_unpredicted.unwrap_or(0));
        row_orders[c.target][c.strategy].insert(o.order_hash);
        row_prefixes[c.target][c.strategy].insert(o.prefix_hash);
        global_orders.insert(o.order_hash);
        global_prefixes.insert(o.prefix_hash);
        if (targets[c.target].expect_divergence && o.diverged())
            || o.deterministic == Some(false)
        {
            flagged += 1;
        }
    }
    for (ti, t) in target_reports.iter_mut().enumerate() {
        for (si, row) in t.strategies.iter_mut().enumerate() {
            row.distinct_orders = row_orders[ti][si].len();
            row.distinct_prefixes = row_prefixes[ti][si].len();
        }
    }
    let report = FleetReport {
        divergences: target_reports
            .iter()
            .flat_map(|t| &t.strategies)
            .map(|s| s.divergences)
            .sum(),
        violations: target_reports
            .iter()
            .flat_map(|t| &t.strategies)
            .map(|s| s.violations)
            .sum(),
        nondeterministic: target_reports
            .iter()
            .flat_map(|t| &t.strategies)
            .map(|s| s.nondeterministic)
            .sum(),
        targets: target_reports,
        grid: grid.len() as u64,
        covered,
        distinct_orders: global_orders.len(),
        distinct_prefixes: global_prefixes.len(),
        flagged,
        corpus_total: corpus.len() as u64,
    };
    Ok(FleetRun {
        report,
        executed,
        journal_hits,
        truncated,
        corpus_added,
        journal_total: journal.len() as u64,
    })
}
