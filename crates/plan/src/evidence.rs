//! Dynamic evidence: what the hostile schedule sweep actually observed,
//! packaged as a checksummed, replayable container.
//!
//! Chimera's hybrid loop needs a durable artifact between "we swept the
//! instrumented program across adversarial schedules" and "we demoted
//! these weak-locks": the **evidence file** (`.chev`). One file covers
//! one program and records
//!
//! * RELAY's static race-pair set (the demotion candidates),
//! * the pairs FastTrack dynamically *confirmed* racy on the
//!   uninstrumented program (union across every swept cell — these can
//!   never be demoted),
//! * one [`EvidenceCell`] per `(strategy, seed)` cell of the sweep with
//!   its schedule-coverage fingerprint (order/prefix hashes, preemption
//!   counts) and cleanliness verdict, and
//! * a DRD [`SegmentCertificate`] over the instrumented program binding
//!   the attested race-free execution.
//!
//! Every cell is replayable: the strategy is stored *unresolved* (PCT
//! auto-span as written), so `run_cell` with the recorded
//! `(strategy, seed)` against the same program and exec config re-derives
//! the exact run — the same convention the fleet journal uses.
//!
//! The byte format follows the replay-v2 container idiom (DESIGN.md §12):
//! 4-byte magic, varint version, then checksummed varint-framed sections.
//! Decoding hostile bytes must fail with an error naming the section —
//! never panic, never accept a half-file.

use chimera_drd::{detect, SegmentCertificate};
use chimera_fleet::cell::{
    program_digest, resolve_strategy, run_cell, strategy_code, strategy_from_code, StaticPairs,
};
use chimera_fleet::wire::{
    push_frame, push_str, push_varint, read_frame, read_str, write_atomic, Reader,
};
use chimera_minic::ir::{AccessId, Program};
use chimera_runtime::{execute, par_map, ExecConfig, SchedStrategy};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Evidence container magic.
pub const EVIDENCE_MAGIC: &[u8; 4] = b"CHEV";
/// Evidence container format version.
pub const EVIDENCE_VERSION: u64 = 1;
/// File extension for evidence containers.
pub const EVIDENCE_EXT: &str = "chev";

/// One `(strategy, seed)` cell of the hostile sweep, as witnessed.
///
/// `strategy` is the *unresolved* [`strategy_code`] triple, so the cell
/// can be re-run byte-identically against the same program and exec
/// config (PCT auto-span resolution is a pure function of both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvidenceCell {
    /// Unresolved strategy encoding (`strategy_code`).
    pub strategy: (u8, u64, u64),
    /// The record seed.
    pub seed: u64,
    /// Replay was complete and equivalent, the single-holder invariant
    /// held, and FastTrack saw zero races on the instrumented program.
    pub clean: bool,
    /// FNV-1a hash of the full sync/weak order stream.
    pub order_hash: u64,
    /// Hash of the first 32 order events.
    pub prefix_hash: u64,
    /// Scheduling perturbations injected during the recorded schedule.
    pub preemptions: u64,
    /// Weak-lock forced releases during recording.
    pub forced_releases: u64,
    /// Final memory state hash of the recorded run.
    pub state_hash: u64,
    /// Dynamic racy pairs FastTrack saw on the *instrumented* program in
    /// this cell (must be 0 for a clean cell).
    pub drd_races: u64,
}

impl EvidenceCell {
    /// The cell's strategy, decoded (fails on a corrupted code).
    pub fn strategy(&self) -> Result<SchedStrategy, String> {
        strategy_from_code(self.strategy.0, self.strategy.1, self.strategy.2)
    }
}

/// The full dynamic-evidence record for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Program name (workload or file stem).
    pub program: String,
    /// FNV-1a digest of the *uninstrumented* program.
    pub program_digest: u64,
    /// FNV-1a digest of the fully instrumented program the sweep ran.
    pub instrumented_digest: u64,
    /// RELAY's static race pairs (normalized, sorted, deduplicated).
    pub static_pairs: Vec<(AccessId, AccessId)>,
    /// Static pairs FastTrack confirmed racy on the uninstrumented
    /// program in at least one cell — never demotable.
    pub confirmed_racy: Vec<(AccessId, AccessId)>,
    /// Dynamic races *not* predicted statically (a RELAY soundness alarm;
    /// any entry here refuses demotion outright).
    pub unpredicted: Vec<(AccessId, AccessId)>,
    /// One record per swept `(strategy, seed)` cell, in grid order.
    pub cells: Vec<EvidenceCell>,
    /// DRD certificate over the instrumented program at the base seed
    /// (`None` if that run raced — nothing is certifiable then).
    pub certificate: Option<SegmentCertificate>,
}

/// What to sweep when gathering evidence.
#[derive(Debug, Clone)]
pub struct GatherConfig {
    /// Strategies (PCT `span: 0` auto-sizes; stored unresolved).
    pub strategies: Vec<SchedStrategy>,
    /// Record seeds.
    pub seeds: Vec<u64>,
    /// Base execution configuration.
    pub exec: ExecConfig,
    /// Worker threads (0 = auto, 1 = serial; `CHIMERA_SERIAL=1` wins).
    pub jobs: usize,
}

impl Default for GatherConfig {
    fn default() -> Self {
        GatherConfig {
            strategies: vec![
                SchedStrategy::ClockJitter,
                SchedStrategy::pct(3),
                SchedStrategy::preempt_bound(),
            ],
            seeds: vec![1, 2, 3],
            exec: ExecConfig::default(),
            jobs: 0,
        }
    }
}

/// Sweep the instrumented program across `strategies × seeds` and record
/// everything demotion needs: per-cell replay verdicts and coverage
/// fingerprints, FastTrack verdicts on both program variants, and the
/// segment certificate.
///
/// Strategy resolution is hoisted to once per strategy (it is a pure
/// function of the baseline instruction count). The result is a pure
/// function of the inputs — bit-identical at any `jobs` setting.
pub fn gather_evidence(
    name: &str,
    original: &Program,
    instrumented: &Program,
    static_pairs: &[(AccessId, AccessId)],
    cfg: &GatherConfig,
) -> Evidence {
    let statics: StaticPairs = static_pairs.iter().copied().collect();
    let baseline = execute(instrumented, &cfg.exec);
    let instrs = baseline.stats.instrs;
    // One resolution per strategy, not per (strategy, seed) cell.
    let resolved: Vec<(SchedStrategy, SchedStrategy)> = cfg
        .strategies
        .iter()
        .map(|&s| (s, resolve_strategy(s, instrs)))
        .collect();
    let combos: Vec<(SchedStrategy, SchedStrategy, u64)> = resolved
        .iter()
        .flat_map(|&(raw, res)| cfg.seeds.iter().map(move |&seed| (raw, res, seed)))
        .collect();
    let results = par_map(&combos, cfg.jobs, |&(raw, res, seed)| {
        let outcome = run_cell(instrumented, None, res, seed, &cfg.exec, false);
        let run_cfg = ExecConfig {
            seed,
            sched: res,
            ..cfg.exec
        };
        // FastTrack both ways: the instrumented program must be race-free
        // (DRF-under-weak-locks), and the uninstrumented program's dynamic
        // races are the confirmed-racy set that blocks demotion.
        let inst = detect(instrumented, &run_cfg);
        let orig = detect(original, &run_cfg);
        (raw, outcome, inst.report.pairs.len(), orig.report.pairs)
    });

    let mut cells = Vec::with_capacity(results.len());
    let mut racy: BTreeSet<(AccessId, AccessId)> = BTreeSet::new();
    let mut unpred: BTreeSet<(AccessId, AccessId)> = BTreeSet::new();
    for (raw, o, inst_pairs, orig_pairs) in results {
        cells.push(EvidenceCell {
            strategy: strategy_code(raw),
            seed: o.seed,
            clean: o.replay_complete
                && o.equivalent
                && o.violations.is_empty()
                && inst_pairs == 0,
            order_hash: o.order_hash,
            prefix_hash: o.prefix_hash,
            preemptions: o.preemptions,
            forced_releases: o.forced_releases,
            state_hash: o.state_hash,
            drd_races: inst_pairs as u64,
        });
        for p in orig_pairs {
            if statics.contains(&p) {
                racy.insert(p);
            } else {
                unpred.insert(p);
            }
        }
    }

    let certificate = detect(instrumented, &cfg.exec).certificate(&cfg.exec);
    let mut static_sorted: Vec<(AccessId, AccessId)> = statics.into_iter().collect();
    static_sorted.dedup();
    Evidence {
        program: name.to_string(),
        program_digest: program_digest(original),
        instrumented_digest: program_digest(instrumented),
        static_pairs: static_sorted,
        confirmed_racy: racy.into_iter().collect(),
        unpredicted: unpred.into_iter().collect(),
        cells,
        certificate,
    }
}

impl Evidence {
    /// Distinct record seeds across cells.
    pub fn distinct_seeds(&self) -> usize {
        self.cells.iter().map(|c| c.seed).collect::<BTreeSet<_>>().len()
    }

    /// Distinct (unresolved) strategies across cells.
    pub fn distinct_strategies(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.strategy)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Distinct full-order hashes across cells (schedule diversity).
    pub fn distinct_orders(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.order_hash)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Distinct 32-event order prefixes across cells.
    pub fn distinct_prefixes(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.prefix_hash)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Total scheduling perturbations injected across the sweep.
    pub fn total_preemptions(&self) -> u64 {
        self.cells.iter().map(|c| c.preemptions).sum()
    }

    /// Indices of cells that were not clean.
    pub fn unclean_cells(&self) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.clean)
            .map(|(i, _)| i)
            .collect()
    }

    /// Serialize to the `.chev` container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(EVIDENCE_MAGIC);
        push_varint(&mut out, EVIDENCE_VERSION);

        let mut header = Vec::new();
        push_str(&mut header, &self.program);
        header.extend_from_slice(&self.program_digest.to_le_bytes());
        header.extend_from_slice(&self.instrumented_digest.to_le_bytes());
        push_varint(&mut header, self.static_pairs.len() as u64);
        push_varint(&mut header, self.confirmed_racy.len() as u64);
        push_varint(&mut header, self.unpredicted.len() as u64);
        push_varint(&mut header, self.cells.len() as u64);
        header.push(self.certificate.is_some() as u8);
        push_frame(&mut out, &header);

        let mut pairs = Vec::new();
        for set in [&self.static_pairs, &self.confirmed_racy, &self.unpredicted] {
            push_pairs(&mut pairs, set);
        }
        push_frame(&mut out, &pairs);

        let mut cells = Vec::new();
        for c in &self.cells {
            push_cell(&mut cells, c);
        }
        push_frame(&mut out, &cells);

        if let Some(cert) = &self.certificate {
            let mut body = Vec::new();
            push_cert(&mut body, cert);
            push_frame(&mut out, &body);
        }
        out
    }

    /// Decode a `.chev` container, verifying magic, version, every frame
    /// checksum, pair normalization/membership, strategy codes, and the
    /// certificate digest. Errors name the offending section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Evidence, String> {
        let mut r = Reader::new(bytes);
        if r.take(4, "evidence magic")? != EVIDENCE_MAGIC {
            return Err("evidence magic: not a .chev container".into());
        }
        let version = r.varint("evidence version")?;
        if version != EVIDENCE_VERSION {
            return Err(format!("evidence version: unsupported version {version}"));
        }

        let header = read_frame(&mut r, "evidence header")?;
        let mut h = Reader::new(header);
        let program = read_str(&mut h, "evidence header")?;
        let program_digest = h.u64_raw("evidence header")?;
        let instrumented_digest = h.u64_raw("evidence header")?;
        let n_static = h.varint_u32("evidence header")? as usize;
        let n_racy = h.varint_u32("evidence header")? as usize;
        let n_unpred = h.varint_u32("evidence header")? as usize;
        let n_cells = h.varint_u32("evidence header")? as usize;
        let has_cert = h.take(1, "evidence header")?[0];
        if has_cert > 1 {
            return Err("evidence header: invalid certificate flag".into());
        }
        if h.remaining() != 0 {
            return Err("evidence header: trailing bytes".into());
        }

        let pairs = read_frame(&mut r, "evidence pairs")?;
        let mut p = Reader::new(pairs);
        let static_pairs = read_pairs(&mut p, n_static, "evidence pairs (static)")?;
        let confirmed_racy = read_pairs(&mut p, n_racy, "evidence pairs (racy)")?;
        let unpredicted = read_pairs(&mut p, n_unpred, "evidence pairs (unpredicted)")?;
        if p.remaining() != 0 {
            return Err("evidence pairs: trailing bytes".into());
        }
        let static_set: BTreeSet<_> = static_pairs.iter().copied().collect();
        for pair in &confirmed_racy {
            if !static_set.contains(pair) {
                return Err(format!(
                    "evidence pairs (racy): pair ({}, {}) is not among the static pairs",
                    pair.0, pair.1
                ));
            }
        }
        for pair in &unpredicted {
            if static_set.contains(pair) {
                return Err(format!(
                    "evidence pairs (unpredicted): pair ({}, {}) is statically predicted",
                    pair.0, pair.1
                ));
            }
        }

        let cells_frame = read_frame(&mut r, "evidence cells")?;
        let mut c = Reader::new(cells_frame);
        let mut cells = Vec::with_capacity(n_cells.min(4096));
        for i in 0..n_cells {
            cells.push(read_cell(&mut c, &format!("evidence cell {i}"))?);
        }
        if c.remaining() != 0 {
            return Err("evidence cells: trailing bytes".into());
        }

        let certificate = if has_cert == 1 {
            let body = read_frame(&mut r, "evidence certificate")?;
            let mut b = Reader::new(body);
            let cert = read_cert(&mut b, "evidence certificate")?;
            if b.remaining() != 0 {
                return Err("evidence certificate: trailing bytes".into());
            }
            Some(cert)
        } else {
            None
        };

        if r.remaining() != 0 {
            return Err(format!(
                "evidence container: {} trailing byte(s)",
                r.remaining()
            ));
        }
        Ok(Evidence {
            program,
            program_digest,
            instrumented_digest,
            static_pairs,
            confirmed_racy,
            unpredicted,
            cells,
            certificate,
        })
    }

    /// Write this evidence to `dir/<name>.chev` (atomic replace).
    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let stem: String = self
            .program
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let path = dir.join(format!("{stem}.{EVIDENCE_EXT}"));
        write_atomic(&path, &self.to_bytes())?;
        Ok(path)
    }

    /// Load one `.chev` file.
    pub fn load(path: &Path) -> Result<Evidence, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Evidence::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Scan `dir` for the evidence file whose `program_digest` matches —
    /// the digest, not the file name, is the identity (names are only a
    /// convenience).
    pub fn find(dir: &Path, program_digest: u64) -> Result<Evidence, String> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read evidence dir {}: {e}", dir.display()))?;
        let mut scanned = 0usize;
        for entry in entries {
            let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EVIDENCE_EXT) {
                continue;
            }
            scanned += 1;
            let ev = Evidence::load(&path)?;
            if ev.program_digest == program_digest {
                return Ok(ev);
            }
        }
        Err(format!(
            "no evidence for program digest {program_digest:#018x} in {} \
             ({scanned} .chev file(s) scanned); run `chimera explore --evidence` \
             or `chimera fleet --evidence` on this program first",
            dir.display()
        ))
    }
}

// --- Shared section encoders (also used by the certified-plan container).

pub(crate) fn push_pairs(out: &mut Vec<u8>, pairs: &[(AccessId, AccessId)]) {
    for &(a, b) in pairs {
        push_varint(out, a.0 as u64);
        push_varint(out, b.0 as u64);
    }
}

pub(crate) fn read_pairs(
    r: &mut Reader,
    n: usize,
    what: &str,
) -> Result<Vec<(AccessId, AccessId)>, String> {
    let mut pairs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let a = r.varint_u32(what)?;
        let b = r.varint_u32(what)?;
        if a > b {
            return Err(format!("{what}: unnormalized pair ({a}, {b})"));
        }
        let pair = (AccessId(a), AccessId(b));
        if let Some(&last) = pairs.last() {
            if pair <= last {
                return Err(format!("{what}: pairs not sorted/deduplicated"));
            }
        }
        pairs.push(pair);
    }
    Ok(pairs)
}

pub(crate) fn push_cell(out: &mut Vec<u8>, c: &EvidenceCell) {
    out.push(c.strategy.0);
    push_varint(out, c.strategy.1);
    push_varint(out, c.strategy.2);
    push_varint(out, c.seed);
    out.push(c.clean as u8);
    out.extend_from_slice(&c.order_hash.to_le_bytes());
    out.extend_from_slice(&c.prefix_hash.to_le_bytes());
    push_varint(out, c.preemptions);
    push_varint(out, c.forced_releases);
    out.extend_from_slice(&c.state_hash.to_le_bytes());
    push_varint(out, c.drd_races);
}

pub(crate) fn read_cell(r: &mut Reader, what: &str) -> Result<EvidenceCell, String> {
    let code = r.take(1, what)?[0];
    let a = r.varint(what)?;
    let b = r.varint(what)?;
    // Validate the code decodes to a real strategy.
    strategy_from_code(code, a, b).map_err(|e| format!("{what}: {e}"))?;
    let seed = r.varint(what)?;
    let clean = r.take(1, what)?[0];
    if clean > 1 {
        return Err(format!("{what}: invalid clean flag"));
    }
    let order_hash = r.u64_raw(what)?;
    let prefix_hash = r.u64_raw(what)?;
    let preemptions = r.varint(what)?;
    let forced_releases = r.varint(what)?;
    let state_hash = r.u64_raw(what)?;
    let drd_races = r.varint(what)?;
    Ok(EvidenceCell {
        strategy: (code, a, b),
        seed,
        clean: clean == 1,
        order_hash,
        prefix_hash,
        preemptions,
        forced_releases,
        state_hash,
        drd_races,
    })
}

pub(crate) fn push_cert(out: &mut Vec<u8>, cert: &SegmentCertificate) {
    push_varint(out, cert.seed);
    push_varint(out, cert.threads);
    push_varint(out, cert.instrs);
    push_varint(out, cert.sync_ops);
    out.extend_from_slice(&cert.state_hash.to_le_bytes());
    out.extend_from_slice(&cert.digest.to_le_bytes());
}

pub(crate) fn read_cert(r: &mut Reader, what: &str) -> Result<SegmentCertificate, String> {
    let seed = r.varint(what)?;
    let threads = r.varint(what)?;
    let instrs = r.varint(what)?;
    let sync_ops = r.varint(what)?;
    let state_hash = r.u64_raw(what)?;
    let digest = r.u64_raw(what)?;
    SegmentCertificate::from_parts(seed, threads, instrs, sync_ops, state_hash, digest)
        .map_err(|e| format!("{what}: {e}"))
}
