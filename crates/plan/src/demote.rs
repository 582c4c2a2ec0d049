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
//! DESIGN.md §12) holding the demotion decisions *and* the complete
//! evidence cells that justified them, so any later divergence under the
//! thinner plan can be attributed to the demoted pair it contradicts
//! ([`CertifiedPlan::contradicted_by`]) and the justifying cells can be
//! re-run.

use crate::evidence::{
    push_cell, push_cert, push_pairs, read_cells, read_cert, read_pairs, read_u32s, Evidence,
    EvidenceCell,
};
use chimera_drd::{detect, SegmentCertificate};
use chimera_fleet::cell::{program_digest, replay_seed};
use chimera_instrument::{instrument, instrument_demoted, DemotedSet, OptSet, Plan};
use chimera_minic::ir::{AccessId, Program};
use chimera_profile::ProfileData;
use chimera_relay::RaceReport;
use chimera_replay::wire::{
    push_frame, push_str, push_varint, read_file, read_frame_with, read_str, write_atomic, Format,
    Reader,
};
use chimera_replay::{record, replay, verify_determinism};
use chimera_runtime::ExecConfig;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Certified-plan container magic.
pub const PLAN_MAGIC: &[u8; 4] = b"CHPL";
/// Certified-plan container format version.
pub const PLAN_VERSION: u64 = 1;
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

/// One demoted pair plus the evidence cells that justified it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Demotion {
    /// The demoted static pair (normalized `a ≤ b`).
    pub pair: (AccessId, AccessId),
    /// Indices into [`CertifiedPlan::cells`] of the sweep cells whose
    /// FastTrack pass covered this pair race-free.
    pub cells: Vec<u32>,
}

/// A certified instrumentation plan: which static pairs are demoted, on
/// what evidence, under which thresholds — replayable and checksummed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedPlan {
    /// Program name.
    pub program: String,
    /// Digest of the uninstrumented program the plan applies to.
    pub program_digest: u64,
    /// Digest of the *full* instrumentation the evidence swept — applying
    /// the plan re-derives and checks this, so a plan certified against a
    /// different optimization set is refused.
    pub instrumented_digest: u64,
    /// The seed threshold the evidence cleared.
    pub min_seeds: u32,
    /// The strategy threshold the evidence cleared.
    pub min_strategies: u32,
    /// Distinct seeds actually covered.
    pub seeds_covered: u32,
    /// Distinct strategies actually covered.
    pub strategies_covered: u32,
    /// Distinct full order hashes across the sweep.
    pub distinct_orders: u32,
    /// Distinct 32-event order prefixes across the sweep.
    pub distinct_prefixes: u32,
    /// Total scheduling perturbations injected across the sweep.
    pub preemptions: u64,
    /// RELAY's full static pair set (demoted ∪ kept, exactly).
    pub static_pairs: Vec<(AccessId, AccessId)>,
    /// Demoted pairs with their justifying cells, sorted by pair.
    pub demotions: Vec<Demotion>,
    /// Pairs kept instrumented (dynamically confirmed racy), sorted.
    pub kept: Vec<(AccessId, AccessId)>,
    /// The evidence cells, verbatim — each re-runnable via `run_cell`
    /// with the recorded (strategy, seed) against this program.
    pub cells: Vec<EvidenceCell>,
    /// DRD certificate binding the attested race-free instrumented run.
    pub certificate: SegmentCertificate,
}

/// A dynamic observation that contradicts a demotion: the named pair was
/// certified race-free by the plan's evidence but raced anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contradiction {
    /// The demoted pair that raced.
    pub pair: (AccessId, AccessId),
    /// The evidence cells that had justified its demotion.
    pub cells: Vec<u32>,
}

impl std::fmt::Display for Contradiction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "certified plan contradicted: demoted pair ({}, {}) raced dynamically; \
             its demotion was justified by {} evidence cell(s) {:?}",
            self.pair.0,
            self.pair.1,
            self.cells.len(),
            self.cells
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
    let certificate = ev.certificate.ok_or_else(|| Refusal::NoCertificate {
        program: ev.program.clone(),
    })?;
    if !ev.unpredicted.is_empty() {
        return Err(Refusal::UnpredictedRaces {
            pairs: ev.unpredicted.clone(),
        });
    }
    let unclean = ev.unclean_cells();
    if !unclean.is_empty() {
        return Err(Refusal::UncleanEvidence { cells: unclean });
    }
    let seeds = ev.distinct_seeds();
    if seeds < t.min_seeds as usize {
        return Err(Refusal::InsufficientSeeds {
            seeds,
            min: t.min_seeds,
        });
    }
    let strategies = ev.distinct_strategies();
    if strategies < t.min_strategies as usize {
        return Err(Refusal::InsufficientStrategies {
            strategies,
            min: t.min_strategies,
        });
    }

    // Every clean cell's FastTrack pass covered the whole execution, so
    // every cell is a justifying witness for every demoted pair.
    let all_cells: Vec<u32> = (0..ev.cells.len() as u32).collect();
    let racy: BTreeSet<(AccessId, AccessId)> = ev.confirmed_racy.iter().copied().collect();
    let demotions: Vec<Demotion> = ev
        .static_pairs
        .iter()
        .filter(|p| !racy.contains(p))
        .map(|&pair| Demotion {
            pair,
            cells: all_cells.clone(),
        })
        .collect();

    Ok(CertifiedPlan {
        program: ev.program.clone(),
        program_digest: ev.program_digest,
        instrumented_digest: ev.instrumented_digest,
        min_seeds: t.min_seeds,
        min_strategies: t.min_strategies,
        seeds_covered: seeds as u32,
        strategies_covered: strategies as u32,
        distinct_orders: ev.distinct_orders() as u32,
        distinct_prefixes: ev.distinct_prefixes() as u32,
        preemptions: ev.total_preemptions(),
        static_pairs: ev.static_pairs.clone(),
        demotions,
        kept: ev.confirmed_racy.clone(),
        cells: ev.cells.clone(),
        certificate,
    })
}

impl CertifiedPlan {
    /// The demoted pairs as a set, for the instrumenter.
    pub fn demoted_set(&self) -> DemotedSet {
        self.demotions.iter().map(|d| d.pair).collect()
    }

    /// If any dynamically-racy pair is one this plan demoted, return the
    /// contradiction naming that pair and its justifying cells.
    pub fn contradicted_by(
        &self,
        dynamic_pairs: &[(AccessId, AccessId)],
    ) -> Option<Contradiction> {
        let dynamic: BTreeSet<_> = dynamic_pairs.iter().copied().collect();
        self.demotions
            .iter()
            .find(|d| dynamic.contains(&d.pair))
            .map(|d| Contradiction {
                pair: d.pair,
                cells: d.cells.clone(),
            })
    }

    /// One-line human summary.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} of {} static pair(s) demoted ({} kept) on {} cell(s) \
             [{} seed(s) × {} strateg(ies), {} distinct order(s), {} preemption(s)]",
            self.program,
            self.demotions.len(),
            self.static_pairs.len(),
            self.kept.len(),
            self.cells.len(),
            self.seeds_covered,
            self.strategies_covered,
            self.distinct_orders,
            self.preemptions,
        )
    }

    /// Serialize to the `.chpl` container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = FORMAT.start();
        let mut header = Vec::new();
        push_str(&mut header, &self.program);
        header.extend_from_slice(&self.program_digest.to_le_bytes());
        header.extend_from_slice(&self.instrumented_digest.to_le_bytes());
        for v in [
            self.min_seeds as u64,
            self.min_strategies as u64,
            self.seeds_covered as u64,
            self.strategies_covered as u64,
            self.distinct_orders as u64,
            self.distinct_prefixes as u64,
            self.preemptions,
            self.static_pairs.len() as u64,
            self.demotions.len() as u64,
            self.kept.len() as u64,
            self.cells.len() as u64,
        ] {
            push_varint(&mut header, v);
        }
        push_frame(&mut out, &header);

        let mut statics = Vec::new();
        push_pairs(&mut statics, &self.static_pairs);
        push_frame(&mut out, &statics);

        let mut demotions = Vec::new();
        for d in &self.demotions {
            push_varint(&mut demotions, d.pair.0 .0 as u64);
            push_varint(&mut demotions, d.pair.1 .0 as u64);
            push_varint(&mut demotions, d.cells.len() as u64);
            for &c in &d.cells {
                push_varint(&mut demotions, c as u64);
            }
        }
        push_frame(&mut out, &demotions);

        let mut kept = Vec::new();
        push_pairs(&mut kept, &self.kept);
        push_frame(&mut out, &kept);

        let mut cells = Vec::new();
        for c in &self.cells {
            push_cell(&mut cells, c);
        }
        push_frame(&mut out, &cells);

        let mut cert = Vec::new();
        push_cert(&mut cert, &self.certificate);
        push_frame(&mut out, &cert);
        out
    }

    /// Decode a `.chpl` container, verifying magic, version, every frame
    /// checksum, the demoted/kept partition of the static pairs, cell
    /// index ranges, strategy codes, and the certificate digest. Errors
    /// start with the offending section — a byte-edited plan never
    /// decodes.
    pub fn from_bytes(bytes: &[u8]) -> Result<CertifiedPlan, String> {
        let mut r = FORMAT.open(bytes)?;
        let (program, digests, thresholds, coverage, preemptions, counts) =
            read_frame_with(&mut r, |h| {
                let program = read_str(h)?;
                let digests = [h.u64_raw()?, h.u64_raw()?];
                let thresholds = read_u32s::<2>(h)?;
                let coverage = read_u32s::<4>(h)?;
                let preemptions = h.varint()?;
                let counts = read_u32s::<4>(h)?;
                Ok((program, digests, thresholds, coverage, preemptions, counts))
            })
            .map_err(|e| format!("plan header: {e}"))?;
        let [program_digest, instrumented_digest] = digests;
        let [min_seeds, min_strategies] = thresholds;
        let [seeds_covered, strategies_covered, distinct_orders, distinct_prefixes] = coverage;
        let [n_static, n_demotions, n_kept, n_cells] = counts.map(|n| n as usize);

        let static_pairs = read_frame_with(&mut r, |s| read_pairs(s, n_static))
            .map_err(|e| format!("plan static pairs: {e}"))?;
        let static_set: BTreeSet<_> = static_pairs.iter().copied().collect();
        let demotions = read_frame_with(&mut r, |d| {
            read_demotions(d, n_demotions, &static_set, n_cells)
        })
        .map_err(|e| format!("plan demotions: {e}"))?;
        let kept = read_frame_with(&mut r, |k| read_pairs(k, n_kept))
            .map_err(|e| format!("plan kept pairs: {e}"))?;
        // The demoted and kept sets must partition the static set exactly:
        // a forged plan cannot silently drop a pair from both, nor demote
        // a pair while also claiming to keep it.
        let demoted_set: BTreeSet<_> = demotions.iter().map(|x| x.pair).collect();
        for pair in &kept {
            if !static_set.contains(pair) {
                return Err(format!(
                    "plan kept pairs: pair ({}, {}) is not a static pair",
                    pair.0, pair.1
                ));
            }
            if demoted_set.contains(pair) {
                return Err(format!(
                    "plan kept pairs: pair ({}, {}) is both demoted and kept",
                    pair.0, pair.1
                ));
            }
        }
        if demoted_set.len() + kept.len() != static_pairs.len() {
            return Err(format!(
                "plan partition: {} demoted + {} kept != {} static pair(s)",
                demoted_set.len(),
                kept.len(),
                static_pairs.len()
            ));
        }

        let cells = read_frame_with(&mut r, |c| read_cells(c, n_cells))
            .map_err(|e| format!("plan cells: {e}"))?;
        let certificate =
            read_frame_with(&mut r, read_cert).map_err(|e| format!("plan certificate: {e}"))?;
        FORMAT.finish(&r)?;
        Ok(CertifiedPlan {
            program,
            program_digest,
            instrumented_digest,
            min_seeds,
            min_strategies,
            seeds_covered,
            strategies_covered,
            distinct_orders,
            distinct_prefixes,
            preemptions,
            static_pairs,
            demotions,
            kept,
            cells,
            certificate,
        })
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

/// Read `n` demotions: each pair must be a static pair, in strictly
/// ascending order, with sorted justifying cell indices below `n_cells`.
fn read_demotions(
    d: &mut Reader,
    n: usize,
    static_set: &BTreeSet<(AccessId, AccessId)>,
    n_cells: usize,
) -> Result<Vec<Demotion>, String> {
    let mut demotions: Vec<Demotion> = Vec::with_capacity(n.min(4096));
    for i in 0..n {
        let demotion = read_demotion(d, static_set, n_cells, demotions.last())
            .map_err(|e| format!("demotion {i}: {e}"))?;
        demotions.push(demotion);
    }
    Ok(demotions)
}

fn read_demotion(
    d: &mut Reader,
    static_set: &BTreeSet<(AccessId, AccessId)>,
    n_cells: usize,
    prev: Option<&Demotion>,
) -> Result<Demotion, String> {
    let a = d.varint_u32()?;
    let b = d.varint_u32()?;
    let pair = (AccessId(a), AccessId(b));
    if !static_set.contains(&pair) {
        return Err(format!("pair ({a}, {b}) is not a static pair"));
    }
    if prev.is_some_and(|p| pair <= p.pair) {
        return Err("demotions not sorted/deduplicated".into());
    }
    let nc = d.varint_u32()? as usize;
    let mut cells: Vec<u32> = Vec::with_capacity(nc.min(4096));
    for _ in 0..nc {
        let c = d.varint_u32()?;
        if c as usize >= n_cells {
            return Err(format!(
                "justifying cell index {c} out of range ({n_cells} cell(s))"
            ));
        }
        if cells.last().is_some_and(|&p| c <= p) {
            return Err("justifying cells not sorted".into());
        }
        cells.push(c);
    }
    Ok(Demotion { pair, cells })
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
    let pdig = program_digest(original);
    if pdig != plan.program_digest {
        return Err(format!(
            "plan-mismatch (program-digest): plan certifies program {:#018x}, \
             this program is {pdig:#018x}",
            plan.program_digest
        ));
    }
    let static_now: Vec<(AccessId, AccessId)> =
        races.pairs.iter().map(|p| (p.a, p.b)).collect();
    if static_now != plan.static_pairs {
        return Err(format!(
            "plan-mismatch (static-pairs): plan certifies {} static pair(s), \
             analysis now reports {}",
            plan.static_pairs.len(),
            static_now.len()
        ));
    }
    let (full, _) = instrument(original, races, profile, opts);
    let fdig = program_digest(&full);
    if fdig != plan.instrumented_digest {
        return Err(format!(
            "plan-mismatch (instrumented-digest): plan evidence swept \
             instrumentation {:#018x}, this configuration produces {fdig:#018x} \
             (different optimization set?)",
            plan.instrumented_digest
        ));
    }
    Ok(instrument_demoted(
        original,
        races,
        profile,
        opts,
        &plan.demoted_set(),
    ))
}

/// Check an execution of the plan-instrumented program against the plan:
/// FastTrack must stay race-free and record/replay must stay
/// deterministic. Any contradiction names the demoted pair it refutes
/// (via [`CertifiedPlan::contradicted_by`]) together with the evidence
/// cells that had justified the demotion.
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
            .map(|d| format!("({}, {})", d.pair.0, d.pair.1))
            .collect();
        return Err(format!(
            "replay diverged under certified plan: {}; suspect demoted pair(s): [{}]",
            verdict.differences.join("; "),
            suspects.join(", ")
        ));
    }
    Ok(())
}
