//! The demotion pass: dynamic evidence shrinks the static plan.
//!
//! This is the paper's 53x → 1.39x arc made explicit (§6): RELAY is sound
//! but imprecise, so most weak-locks guard pairs that never race. Once a
//! hostile schedule sweep plus FastTrack has failed to produce a race on
//! a pair across enough seeds and strategies, the pair is **demoted** —
//! its weak-lock serialization is dropped and the accesses run
//! unsynchronized. Guo et al.'s complete-race-detection replay (see
//! PAPERS.md) is the precedent: spend detection work once, save replay
//! overhead forever after.
//!
//! Demotion is refused — with a named error, not a weaker plan — when the
//! evidence does not clear the bar: no certificate, any unclean cell, too
//! few distinct seeds or strategies, or a statically-unpredicted dynamic
//! race (which would mean RELAY missed something and *nothing* about the
//! static set can be trusted). A racy pair that FastTrack confirmed on
//! the uninstrumented program is never demoted; it is carried in `kept`.
//!
//! The output is a [`CertifiedPlan`] (`.chpl`, the `CHPL` container of
//! DESIGN.md §12): the evidence and the thresholds, nothing derived from
//! them. Decoding re-runs [`demote`], so the demoted and kept lists are
//! recomputed, never read, and a plan decodes only if its own evidence
//! certifies it under its own thresholds. Any later divergence under the
//! thinner plan is attributed to the demoted pair it contradicts
//! ([`CertifiedPlan::contradicted_by`]), and the evidence cells can be
//! re-run.

use crate::evidence::Evidence;
use chimera_drd::detect;
use chimera_fleet::cell::{program_digest, replay_seed};
use chimera_instrument::{instrument, instrument_demoted, DemotedSet, OptSet, Plan};
use chimera_minic::ir::{AccessId, Program};
use chimera_profile::ProfileData;
use chimera_relay::RaceReport;
use chimera_replay::wire::{
    push_frame, push_varint, read_file, read_frame_with, write_atomic, Format,
};
use chimera_replay::{record, replay, verify_determinism};
use chimera_runtime::ExecConfig;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Certified-plan container magic.
pub const PLAN_MAGIC: &[u8; 4] = b"CHPL";
/// Certified-plan container format version.
pub const PLAN_VERSION: u64 = 2;
/// File extension for certified plans.
pub const PLAN_EXT: &str = "chpl";

const FORMAT: Format = Format {
    name: "plan",
    magic: PLAN_MAGIC,
    version: PLAN_VERSION,
};

/// Coverage thresholds demotion must clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Minimum distinct record seeds the sweep must have covered.
    pub min_seeds: u32,
    /// Minimum distinct scheduling strategies.
    pub min_strategies: u32,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            min_seeds: 3,
            min_strategies: 2,
        }
    }
}

/// Why demotion was refused. Every variant renders with a stable
/// kebab-case code (`demotion refused (<code>): ...`) so scripts and
/// tests can match on the cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// The evidence carries no DRD segment certificate (the certifying
    /// instrumented run raced, or evidence predates certification).
    NoCertificate {
        /// Program the evidence covers.
        program: String,
    },
    /// Some sweep cells diverged, violated the single-holder invariant,
    /// or raced while instrumented.
    UncleanEvidence {
        /// Indices of the unclean cells.
        cells: Vec<usize>,
    },
    /// Fewer distinct record seeds than `--min-seeds`.
    InsufficientSeeds {
        /// Distinct seeds covered.
        seeds: usize,
        /// The threshold.
        min: u32,
    },
    /// Fewer distinct strategies than `--min-strategies`.
    InsufficientStrategies {
        /// Distinct strategies covered.
        strategies: usize,
        /// The threshold.
        min: u32,
    },
    /// FastTrack saw dynamic races RELAY did not predict — the static
    /// set is unsound for this program and cannot anchor demotion.
    UnpredictedRaces {
        /// The statically-unpredicted dynamic pairs.
        pairs: Vec<(AccessId, AccessId)>,
    },
}

impl Refusal {
    /// The stable kebab-case refusal code.
    pub fn code(&self) -> &'static str {
        match self {
            Refusal::NoCertificate { .. } => "no-certificate",
            Refusal::UncleanEvidence { .. } => "unclean-evidence",
            Refusal::InsufficientSeeds { .. } => "insufficient-seeds",
            Refusal::InsufficientStrategies { .. } => "insufficient-strategies",
            Refusal::UnpredictedRaces { .. } => "unpredicted-races",
        }
    }
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "demotion refused ({}): ", self.code())?;
        match self {
            Refusal::NoCertificate { program } => write!(
                f,
                "no DRD segment certificate for '{program}' — the certifying \
                 instrumented run was not race-free"
            ),
            Refusal::UncleanEvidence { cells } => write!(
                f,
                "{} sweep cell(s) {:?} diverged, violated the single-holder \
                 invariant, or raced while instrumented",
                cells.len(),
                cells
            ),
            Refusal::InsufficientSeeds { seeds, min } => write!(
                f,
                "{seeds} distinct seed(s) swept < --min-seeds {min}"
            ),
            Refusal::InsufficientStrategies { strategies, min } => write!(
                f,
                "{strategies} distinct strateg(ies) swept < --min-strategies {min}"
            ),
            Refusal::UnpredictedRaces { pairs } => {
                write!(
                    f,
                    "{} dynamic race(s) not statically predicted:",
                    pairs.len()
                )?;
                for (a, b) in pairs {
                    write!(f, " ({a}, {b})")?;
                }
                write!(f, " — the static pair set is unsound for this program")
            }
        }
    }
}

impl std::error::Error for Refusal {}

/// A certified instrumentation plan: the evidence and the thresholds it
/// clears, plus the partition of the static pairs that [`demote`]
/// derives from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedPlan {
    /// The evidence the plan is certified on: the program and
    /// instrumentation digests, RELAY's static pairs, the sweep cells
    /// (each re-runnable via `run_cell`) and the DRD certificate.
    pub evidence: Evidence,
    /// The coverage thresholds the evidence clears.
    pub thresholds: Thresholds,
    /// Demoted static pairs, sorted.
    pub demotions: Vec<(AccessId, AccessId)>,
    /// Pairs kept instrumented (dynamically confirmed racy), sorted.
    pub kept: Vec<(AccessId, AccessId)>,
}

/// A dynamic observation that contradicts a demotion: the named pair was
/// certified race-free by the plan's evidence but raced anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contradiction {
    /// The demoted pair that raced.
    pub pair: (AccessId, AccessId),
    /// How many evidence cells had justified its demotion.
    pub cells: usize,
}

impl std::fmt::Display for Contradiction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "certified plan contradicted: demoted pair ({}, {}) raced dynamically; \
             its demotion was justified by {} evidence cell(s)",
            self.pair.0, self.pair.1, self.cells
        )
    }
}

/// Decide demotions from evidence, or refuse with a named error.
///
/// The rules (DESIGN.md §15):
/// 1. the evidence must carry a DRD certificate,
/// 2. no dynamic race may be statically unpredicted,
/// 3. every sweep cell must be clean,
/// 4. distinct seeds ≥ `min_seeds` and distinct strategies ≥
///    `min_strategies`,
/// 5. then every static pair FastTrack never confirmed racy on the
///    uninstrumented program is demoted; confirmed-racy pairs are kept.
pub fn demote(ev: &Evidence, t: &Thresholds) -> Result<CertifiedPlan, Refusal> {
    if ev.certificate.is_none() {
        return Err(Refusal::NoCertificate {
            program: ev.program.clone(),
        });
    }
    if !ev.unpredicted.is_empty() {
        return Err(Refusal::UnpredictedRaces {
            pairs: ev.unpredicted.clone(),
        });
    }
    let unclean: Vec<usize> = (0..ev.cells.len()).filter(|&i| !ev.cells[i].clean).collect();
    if !unclean.is_empty() {
        return Err(Refusal::UncleanEvidence { cells: unclean });
    }
    let seeds = ev.distinct(|c| c.seed);
    if seeds < t.min_seeds as usize {
        return Err(Refusal::InsufficientSeeds {
            seeds,
            min: t.min_seeds,
        });
    }
    let strategies = ev.distinct(|c| c.strategy);
    if strategies < t.min_strategies as usize {
        return Err(Refusal::InsufficientStrategies {
            strategies,
            min: t.min_strategies,
        });
    }

    // Every clean cell's FastTrack pass covered the whole execution, so
    // every cell is a justifying witness for every demoted pair.
    let racy: BTreeSet<(AccessId, AccessId)> = ev.confirmed_racy.iter().copied().collect();
    Ok(CertifiedPlan {
        evidence: ev.clone(),
        thresholds: *t,
        demotions: ev
            .static_pairs
            .iter()
            .filter(|p| !racy.contains(p))
            .copied()
            .collect(),
        kept: ev.confirmed_racy.clone(),
    })
}

impl CertifiedPlan {
    /// If any dynamically-racy pair is one this plan demoted, return the
    /// contradiction naming that pair and its justifying cell count.
    pub fn contradicted_by(&self, dynamic_pairs: &[(AccessId, AccessId)]) -> Option<Contradiction> {
        let dynamic: BTreeSet<_> = dynamic_pairs.iter().copied().collect();
        self.demotions
            .iter()
            .find(|p| dynamic.contains(p))
            .map(|&pair| Contradiction {
                pair,
                cells: self.evidence.cells.len(),
            })
    }

    /// One-line human summary; the coverage numbers are computed from
    /// the evidence cells.
    pub fn describe(&self) -> String {
        let ev = &self.evidence;
        format!(
            "{}: {} of {} static pair(s) demoted ({} kept) on {} cell(s) \
             [{} seed(s) × {} strateg(ies), {} distinct order(s), {} preemption(s)]",
            ev.program,
            self.demotions.len(),
            ev.static_pairs.len(),
            self.kept.len(),
            ev.cells.len(),
            ev.distinct(|c| c.seed),
            ev.distinct(|c| c.strategy),
            ev.distinct(|c| c.order_hash),
            ev.cells.iter().map(|c| c.preemptions).sum::<u64>(),
        )
    }

    /// Serialize to the `.chpl` container format: the envelope, one
    /// thresholds frame, then the `.chev` frames of the evidence.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = FORMAT.start();
        let mut thresholds = Vec::new();
        push_varint(&mut thresholds, self.thresholds.min_seeds as u64);
        push_varint(&mut thresholds, self.thresholds.min_strategies as u64);
        push_frame(&mut out, &thresholds);
        self.evidence.push_body(&mut out);
        out
    }

    /// Decode a `.chpl` container and re-certify it: the evidence is
    /// decoded with every check of the `.chev` decoder, and then
    /// [`demote`] runs on it under the stored thresholds. Errors start
    /// with `plan` and the offending section; evidence that no longer
    /// certifies fails with its refusal (`plan: demotion refused (...)`).
    pub fn from_bytes(bytes: &[u8]) -> Result<CertifiedPlan, String> {
        let mut r = FORMAT.open(bytes)?;
        let [min_seeds, min_strategies] =
            read_frame_with(&mut r, |t| Ok([t.varint_u32()?, t.varint_u32()?]))
                .map_err(|e| format!("plan thresholds: {e}"))?;
        let evidence = Evidence::read_body(&mut r).map_err(|e| format!("plan {e}"))?;
        FORMAT.finish(&r)?;
        let thresholds = Thresholds {
            min_seeds,
            min_strategies,
        };
        demote(&evidence, &thresholds).map_err(|e| format!("plan: {e}"))
    }

    /// Write the plan to `path` (atomic replace).
    pub fn save(&self, path: &Path) -> Result<PathBuf, String> {
        write_atomic(path, &self.to_bytes())?;
        Ok(path.to_path_buf())
    }

    /// Load a `.chpl` file.
    pub fn load(path: &Path) -> Result<CertifiedPlan, String> {
        read_file(path, None, CertifiedPlan::from_bytes)
    }
}

/// Apply a certified plan: check it actually certifies this program and
/// this instrumentation, then instrument with the demoted pairs stripped.
///
/// Three named mismatches refuse application: `plan-mismatch
/// (program-digest)` when the program differs from the certified one,
/// `plan-mismatch (static-pairs)` when RELAY's pair set changed, and
/// `plan-mismatch (instrumented-digest)` when the full instrumentation
/// the evidence swept differs (e.g. a different optimization set).
pub fn apply_plan(
    original: &Program,
    races: &RaceReport,
    profile: &ProfileData,
    opts: &OptSet,
    plan: &CertifiedPlan,
) -> Result<(Program, Plan), String> {
    let ev = &plan.evidence;
    let pdig = program_digest(original);
    if pdig != ev.program_digest {
        return Err(format!(
            "plan-mismatch (program-digest): plan certifies program {:#018x}, \
             this program is {pdig:#018x}",
            ev.program_digest
        ));
    }
    let static_now: Vec<(AccessId, AccessId)> = races.pairs.iter().map(|p| (p.a, p.b)).collect();
    if static_now != ev.static_pairs {
        return Err(format!(
            "plan-mismatch (static-pairs): plan certifies {} static pair(s), \
             analysis now reports {}",
            ev.static_pairs.len(),
            static_now.len()
        ));
    }
    let (full, _) = instrument(original, races, profile, opts);
    let fdig = program_digest(&full);
    if fdig != ev.instrumented_digest {
        return Err(format!(
            "plan-mismatch (instrumented-digest): plan evidence swept \
             instrumentation {:#018x}, this configuration produces {fdig:#018x} \
             (different optimization set?)",
            ev.instrumented_digest
        ));
    }
    let demoted: DemotedSet = plan.demotions.iter().copied().collect();
    Ok(instrument_demoted(original, races, profile, opts, &demoted))
}

/// Check an execution of the plan-instrumented program against the plan:
/// FastTrack must stay race-free and record/replay must stay
/// deterministic. Any contradiction names the demoted pair it refutes
/// (via [`CertifiedPlan::contradicted_by`]) together with the number of
/// evidence cells that had justified the demotion.
pub fn verify_under_plan(
    planned: &Program,
    plan: &CertifiedPlan,
    exec: &ExecConfig,
) -> Result<(), String> {
    // FastTrack under the given seed and under the derived hostile-replay
    // seed: a race on a demoted pair is a direct contradiction.
    let hostile_seed = replay_seed(exec.seed);
    for seed in [exec.seed, hostile_seed] {
        let run = detect(planned, &ExecConfig { seed, ..*exec });
        if !run.report.is_race_free() {
            if let Some(c) = plan.contradicted_by(&run.report.pairs) {
                return Err(format!("{c} (seed {seed})"));
            }
            return Err(format!(
                "dynamic race under certified plan on non-demoted pair(s) {:?} \
                 (seed {seed}) — kept instrumentation is insufficient",
                run.report.pairs
            ));
        }
    }
    // Record, hostile-replay, verify — the thinner plan must still pin
    // the execution.
    let rec = record(planned, exec);
    let rep = replay(
        planned,
        &rec.logs,
        &ExecConfig {
            seed: hostile_seed,
            ..*exec
        },
    );
    let verdict = verify_determinism(&rec.result, &rep.result);
    if !(rep.complete && verdict.equivalent) {
        let suspects: Vec<String> = plan
            .demotions
            .iter()
            .map(|(a, b)| format!("({a}, {b})"))
            .collect();
        return Err(format!(
            "replay diverged under certified plan: {}; suspect demoted pair(s): [{}]",
            verdict.differences.join("; "),
            suspects.join(", ")
        ));
    }
    Ok(())
}
