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
//! On disk it is the `CHEV` container (DESIGN.md §12): header, pairs,
//! cells and (optional) certificate frames. A certified plan (`.chpl`)
//! carries the same frames after its thresholds.

use chimera_drd::{detect, SegmentCertificate};
use chimera_fleet::cell::{program_digest, strategy_code, strategy_from_code, Grid, StaticPairs};
use chimera_minic::ir::{AccessId, Program};
use chimera_replay::wire::{
    push_frame, push_str, push_varint, read_file, read_frame_with, read_str, write_atomic, Format,
    Reader,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Evidence container magic.
pub const EVIDENCE_MAGIC: &[u8; 4] = b"CHEV";
/// Evidence container format version.
pub const EVIDENCE_VERSION: u64 = 1;
/// File extension for evidence containers.
pub const EVIDENCE_EXT: &str = "chev";

const FORMAT: Format = Format {
    name: "evidence",
    magic: EVIDENCE_MAGIC,
    version: EVIDENCE_VERSION,
};

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
    /// Dynamic racy pairs FastTrack saw on this cell's recording of the
    /// *instrumented* program (must be 0 for a clean cell).
    pub drd_races: u64,
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

/// What to sweep when gathering evidence: the shared hostile [`Grid`]
/// (strategies, seeds, exec, jobs) and its one default. Strategies are
/// stored in the evidence unresolved.
pub type GatherConfig = Grid;

/// Sweep the instrumented program across `strategies × seeds` and record
/// everything demotion needs: per-cell replay verdicts and coverage
/// fingerprints, FastTrack verdicts on both program variants, and the
/// segment certificate.
///
/// The sweep is [`Grid::sweep`] with the FastTrack cross-check on: each
/// cell's race count on its recording of the instrumented program and
/// the uninstrumented run's racy pairs, split into statically confirmed
/// and unpredicted. The result is a pure function of the inputs —
/// bit-identical at any `jobs` setting.
pub fn gather_evidence(
    name: &str,
    original: &Program,
    instrumented: &Program,
    static_pairs: &[(AccessId, AccessId)],
    cfg: &GatherConfig,
) -> Evidence {
    let statics: StaticPairs = static_pairs.iter().copied().collect();
    let mut cells = Vec::with_capacity(cfg.strategies.len() * cfg.seeds.len());
    let mut racy: BTreeSet<(AccessId, AccessId)> = BTreeSet::new();
    let mut unpred: BTreeSet<(AccessId, AccessId)> = BTreeSet::new();
    for (cell, o) in cfg.sweep(instrumented, Some((original, &statics)), true) {
        cells.push(EvidenceCell {
            strategy: strategy_code(cfg.strategies[cell.strategy]),
            seed: o.seed,
            clean: o.clean(),
            order_hash: o.order_hash,
            prefix_hash: o.prefix_hash,
            preemptions: o.preemptions,
            forced_releases: o.forced_releases,
            state_hash: o.state_hash,
            drd_races: o.drd_races.expect("swept with check_drd") as u64,
        });
        racy.extend(o.drd_confirmed.expect("swept with a cross-check program"));
        unpred.extend(o.drd_unpredicted.expect("swept with a cross-check program"));
    }

    let certificate = detect(instrumented, &cfg.exec).certificate(&cfg.exec);
    Evidence {
        program: name.to_string(),
        program_digest: program_digest(original),
        instrumented_digest: program_digest(instrumented),
        static_pairs: statics.into_iter().collect(),
        confirmed_racy: racy.into_iter().collect(),
        unpredicted: unpred.into_iter().collect(),
        cells,
        certificate,
    }
}

impl Evidence {
    /// How many distinct values `key` takes across the cells: record
    /// seeds, (unresolved) strategies, order hashes.
    pub fn distinct<K: Ord>(&self, key: impl Fn(&EvidenceCell) -> K) -> usize {
        self.cells.iter().map(key).collect::<BTreeSet<_>>().len()
    }

    /// Serialize to the `.chev` container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = FORMAT.start();
        self.push_body(&mut out);
        out
    }

    /// Append the frames that follow the `.chev` envelope: header, pairs,
    /// cells and (when certified) certificate. The `.chpl` container
    /// carries the same frames after its thresholds.
    pub(crate) fn push_body(&self, out: &mut Vec<u8>) {
        let mut header = Vec::new();
        push_str(&mut header, &self.program);
        header.extend_from_slice(&self.program_digest.to_le_bytes());
        header.extend_from_slice(&self.instrumented_digest.to_le_bytes());
        push_varint(&mut header, self.static_pairs.len() as u64);
        push_varint(&mut header, self.confirmed_racy.len() as u64);
        push_varint(&mut header, self.unpredicted.len() as u64);
        push_varint(&mut header, self.cells.len() as u64);
        header.push(self.certificate.is_some() as u8);
        push_frame(out, &header);

        let mut pairs = Vec::new();
        for set in [&self.static_pairs, &self.confirmed_racy, &self.unpredicted] {
            push_pairs(&mut pairs, set);
        }
        push_frame(out, &pairs);

        let mut cells = Vec::new();
        for c in &self.cells {
            push_cell(&mut cells, c);
        }
        push_frame(out, &cells);

        if let Some(cert) = &self.certificate {
            let mut body = Vec::new();
            push_cert(&mut body, cert);
            push_frame(out, &body);
        }
    }

    /// Decode a `.chev` container, verifying magic, version, every frame
    /// checksum, pair normalization/membership, strategy codes, and the
    /// certificate digest. Errors start with the offending section.
    pub fn from_bytes(bytes: &[u8]) -> Result<Evidence, String> {
        let mut r = FORMAT.open(bytes)?;
        let ev = Evidence::read_body(&mut r)?;
        FORMAT.finish(&r)?;
        Ok(ev)
    }

    /// Read the frames [`Evidence::push_body`] wrote. Errors start with
    /// `evidence` and the offending section.
    pub(crate) fn read_body(r: &mut Reader) -> Result<Evidence, String> {
        let (program, [program_digest, instrumented_digest], counts, has_cert) =
            read_frame_with(r, |h| {
                let program = read_str(h)?;
                let digests = [h.u64_raw()?, h.u64_raw()?];
                let counts = [h.varint_u32()?, h.varint_u32()?, h.varint_u32()?, h.varint_u32()?];
                let has_cert = match h.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err("invalid certificate flag".into()),
                };
                Ok((program, digests, counts, has_cert))
            })
            .map_err(|e| format!("evidence header: {e}"))?;
        let [n_static, n_racy, n_unpred, n_cells] = counts.map(|n| n as usize);

        let [static_pairs, confirmed_racy, unpredicted] = read_frame_with(r, |p| {
            Ok([
                read_pairs(p, n_static)?,
                read_pairs(p, n_racy)?,
                read_pairs(p, n_unpred)?,
            ])
        })
        .map_err(|e| format!("evidence pairs: {e}"))?;
        let static_set: BTreeSet<_> = static_pairs.iter().collect();
        if let Some((a, b)) = confirmed_racy.iter().find(|p| !static_set.contains(p)) {
            return Err(format!(
                "evidence pairs (racy): pair ({a}, {b}) is not among the static pairs"
            ));
        }
        if let Some((a, b)) = unpredicted.iter().find(|p| static_set.contains(p)) {
            return Err(format!(
                "evidence pairs (unpredicted): pair ({a}, {b}) is statically predicted"
            ));
        }

        let cells = read_frame_with(r, |c| read_cells(c, n_cells))
            .map_err(|e| format!("evidence cells: {e}"))?;
        let certificate = if has_cert {
            Some(
                read_frame_with(r, read_cert)
                    .map_err(|e| format!("evidence certificate: {e}"))?,
            )
        } else {
            None
        };
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
        read_file(path, None, Evidence::from_bytes)
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
             on this program first",
            dir.display()
        ))
    }
}

// --- Section encoders.

fn push_pairs(out: &mut Vec<u8>, pairs: &[(AccessId, AccessId)]) {
    for &(a, b) in pairs {
        push_varint(out, a.0 as u64);
        push_varint(out, b.0 as u64);
    }
}

fn read_pairs(r: &mut Reader, n: usize) -> Result<Vec<(AccessId, AccessId)>, String> {
    let mut pairs = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let a = r.varint_u32()?;
        let b = r.varint_u32()?;
        if a > b {
            return Err(format!("unnormalized pair ({a}, {b})"));
        }
        let pair = (AccessId(a), AccessId(b));
        if pairs.last().is_some_and(|&last| pair <= last) {
            return Err("pairs not sorted/deduplicated".into());
        }
        pairs.push(pair);
    }
    Ok(pairs)
}

fn push_cell(out: &mut Vec<u8>, c: &EvidenceCell) {
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

/// Read `n` cells written by [`push_cell`]; errors name the cell index.
fn read_cells(r: &mut Reader, n: usize) -> Result<Vec<EvidenceCell>, String> {
    let mut cells = Vec::with_capacity(n.min(4096));
    for i in 0..n {
        cells.push(read_cell(r).map_err(|e| format!("cell {i}: {e}"))?);
    }
    Ok(cells)
}

fn read_cell(r: &mut Reader) -> Result<EvidenceCell, String> {
    let code = r.u8()?;
    let a = r.varint()?;
    let b = r.varint()?;
    // Validate the code decodes to a real strategy.
    strategy_from_code(code, a, b)?;
    let seed = r.varint()?;
    let clean = r.u8()?;
    if clean > 1 {
        return Err("invalid clean flag".into());
    }
    let order_hash = r.u64_raw()?;
    let prefix_hash = r.u64_raw()?;
    let preemptions = r.varint()?;
    let forced_releases = r.varint()?;
    let state_hash = r.u64_raw()?;
    let drd_races = r.varint()?;
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

fn push_cert(out: &mut Vec<u8>, cert: &SegmentCertificate) {
    push_varint(out, cert.seed);
    push_varint(out, cert.threads);
    push_varint(out, cert.instrs);
    push_varint(out, cert.sync_ops);
    out.extend_from_slice(&cert.state_hash.to_le_bytes());
    out.extend_from_slice(&cert.digest.to_le_bytes());
}

fn read_cert(r: &mut Reader) -> Result<SegmentCertificate, String> {
    let seed = r.varint()?;
    let threads = r.varint()?;
    let instrs = r.varint()?;
    let sync_ops = r.varint()?;
    let state_hash = r.u64_raw()?;
    let digest = r.u64_raw()?;
    SegmentCertificate::from_parts(seed, threads, instrs, sync_ops, state_hash, digest)
}
