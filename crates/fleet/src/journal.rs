//! The run **journal**: which cells have already been executed, and what
//! they observed.
//!
//! Keyed by [`CellKey`] (program digest × strategy × seed × exec-config
//! digest), the journal is what makes fleet invocations *incremental*:
//! `--resume` skips every cell whose key is present and reuses its stored
//! outcome, so extending a grid (more seeds, more programs) only pays for
//! the new cells, and re-running an identical grid executes nothing. The
//! stored [`CellOutcome`] carries every field the fleet report
//! aggregates, which is what makes a resumed report *byte-identical* to
//! the one-shot run — the report cannot tell a journal hit from a fresh
//! execution.
//!
//! On disk it is the `CHFJ` container (DESIGN.md §12): a header frame
//! (entry count, label), then one frame per entry.

use crate::cell::{CellKey, SeedOutcome};
use chimera_replay::wire::{
    push_frame, push_str, push_varint, read_file, read_frame_with, read_str, write_atomic, Format,
    Reader,
};
use std::collections::BTreeMap;
use std::path::Path;

/// Journal container version this build writes.
pub const JOURNAL_VERSION: u64 = 1;
/// File name inside the fleet directory.
pub const JOURNAL_FILE: &str = "journal.chfj";

const FORMAT: Format = Format {
    name: "journal",
    magic: b"CHFJ",
    version: JOURNAL_VERSION,
};

const F_REPLAY_COMPLETE: u8 = 1;
const F_EQUIVALENT: u8 = 1 << 1;
const F_HAS_DET: u8 = 1 << 2;
const F_DETERMINISTIC: u8 = 1 << 3;
const F_HAS_DRD: u8 = 1 << 4;
const F_HAS_UNPREDICTED: u8 = 1 << 5;

/// The journal-persistable projection of a cell's outcome.
///
/// String payloads ([`SeedOutcome::differences`], `violations`) are
/// reduced to counts: the fleet report aggregates counts, and dropping
/// the prose keeps thousand-cell journals small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOutcome {
    /// Replay consumed every log entry.
    pub replay_complete: bool,
    /// Record and replay observably equivalent.
    pub equivalent: bool,
    /// `--check-determinism` verdict: `None` when the check was off,
    /// otherwise whether the double-run state/order hashes matched.
    pub deterministic: Option<bool>,
    /// Verifier difference count.
    pub differences: u32,
    /// Single-holder violation count.
    pub violations: u32,
    /// Perturbations injected by the strategy.
    pub preemptions: u64,
    /// Weak-lock forced releases during recording.
    pub forced_releases: u64,
    /// FNV-1a over the full sync/weak order stream.
    pub order_hash: u64,
    /// 32-event order-prefix hash.
    pub prefix_hash: u64,
    /// Final memory state hash of the recorded run.
    pub state_hash: u64,
    /// Order events observed.
    pub sync_events: u64,
    /// FastTrack races on the swept program (when `--drd`).
    pub drd_races: Option<u32>,
    /// Dynamic races RELAY missed statically (when `--drd` with a
    /// cross-check target).
    pub drd_unpredicted: Option<u32>,
}

impl CellOutcome {
    /// Project a fresh [`SeedOutcome`] (plus the optional determinism
    /// double-run verdict) into journal form.
    pub fn from_seed(o: &SeedOutcome, deterministic: Option<bool>) -> CellOutcome {
        CellOutcome {
            replay_complete: o.replay_complete,
            equivalent: o.equivalent,
            deterministic,
            differences: o.differences.len() as u32,
            violations: o.violations.len() as u32,
            preemptions: o.preemptions,
            forced_releases: o.forced_releases,
            order_hash: o.order_hash,
            prefix_hash: o.prefix_hash,
            state_hash: o.state_hash,
            sync_events: o.sync_events,
            drd_races: o.drd_races.map(|n| n as u32),
            drd_unpredicted: o.drd_unpredicted.as_ref().map(|u| u.len() as u32),
        }
    }

    /// Mirror of [`SeedOutcome::clean`] over the persisted counts, with
    /// the determinism verdict folded in.
    pub fn clean(&self) -> bool {
        self.replay_complete
            && self.equivalent
            && self.violations == 0
            && self.deterministic != Some(false)
            && self.drd_races.unwrap_or(0) == 0
            && self.drd_unpredicted.unwrap_or(0) == 0
    }

    /// Mirror of [`SeedOutcome::diverged`].
    pub fn diverged(&self) -> bool {
        !(self.replay_complete && self.equivalent)
    }
}

/// Executed-cell journal: a persistent `CellKey → CellOutcome` map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// Executed cells. `BTreeMap` so serialization order is canonical —
    /// two journals with equal contents are byte-identical on disk.
    pub entries: BTreeMap<CellKey, CellOutcome>,
    /// Free-form label of the build/grid that wrote the file (shown in
    /// errors and listings; not part of any key).
    pub label: String,
}

impl Journal {
    /// Number of journaled cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a cell.
    pub fn get(&self, key: &CellKey) -> Option<&CellOutcome> {
        self.entries.get(key)
    }

    /// Insert (or overwrite) a cell outcome.
    pub fn insert(&mut self, key: CellKey, outcome: CellOutcome) {
        self.entries.insert(key, outcome);
    }

    /// Serialize to the versioned `CHFJ` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = FORMAT.start();
        let mut header = Vec::new();
        push_varint(&mut header, self.entries.len() as u64);
        push_str(&mut header, &self.label);
        push_frame(&mut out, &header);
        for (key, o) in &self.entries {
            let mut body = Vec::new();
            encode_key(&mut body, key);
            let mut flags = 0u8;
            if o.replay_complete {
                flags |= F_REPLAY_COMPLETE;
            }
            if o.equivalent {
                flags |= F_EQUIVALENT;
            }
            if let Some(det) = o.deterministic {
                flags |= F_HAS_DET;
                if det {
                    flags |= F_DETERMINISTIC;
                }
            }
            if o.drd_races.is_some() {
                flags |= F_HAS_DRD;
            }
            if o.drd_unpredicted.is_some() {
                flags |= F_HAS_UNPREDICTED;
            }
            body.push(flags);
            push_varint(&mut body, u64::from(o.differences));
            push_varint(&mut body, u64::from(o.violations));
            push_varint(&mut body, o.preemptions);
            push_varint(&mut body, o.forced_releases);
            body.extend_from_slice(&o.order_hash.to_le_bytes());
            body.extend_from_slice(&o.prefix_hash.to_le_bytes());
            body.extend_from_slice(&o.state_hash.to_le_bytes());
            push_varint(&mut body, o.sync_events);
            if let Some(n) = o.drd_races {
                push_varint(&mut body, u64::from(n));
            }
            if let Some(n) = o.drd_unpredicted {
                push_varint(&mut body, u64::from(n));
            }
            push_frame(&mut out, &body);
        }
        out
    }

    /// Parse a buffer produced by [`Journal::to_bytes`].
    ///
    /// # Errors
    ///
    /// Every error starts with the failing section (`journal header`,
    /// `journal entry N`): bad magic, unsupported version, truncation,
    /// checksum mismatch, trailing bytes, or a duplicate key — never a
    /// panic on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Journal, String> {
        let mut r = FORMAT.open(bytes)?;
        let (n, label) = read_frame_with(&mut r, |h| Ok((h.varint_u32()?, read_str(h)?)))
            .map_err(|e| format!("journal header: {e}"))?;
        let mut journal = Journal {
            entries: BTreeMap::new(),
            label,
        };
        for i in 0..n {
            let (key, outcome) = read_frame_with(&mut r, decode_entry)
                .map_err(|e| format!("journal entry {i}: {e}"))?;
            if journal.entries.insert(key, outcome).is_some() {
                return Err(format!("journal entry {i}: duplicate cell key"));
            }
        }
        FORMAT.finish(&r)?;
        Ok(journal)
    }

    /// Load the journal from `dir`, or an empty journal when the file
    /// does not exist yet.
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found, and every [`Journal::from_bytes`]
    /// parse failure (a corrupt journal must stop a `--resume` run loudly,
    /// not silently re-execute the world).
    pub fn load(dir: &Path) -> Result<Journal, String> {
        read_file(
            &dir.join(JOURNAL_FILE),
            Some(Journal::default()),
            Journal::from_bytes,
        )
    }

    /// Atomically persist the journal into `dir` (which must exist).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/rename failure.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        write_atomic(&dir.join(JOURNAL_FILE), &self.to_bytes())
    }
}

fn encode_key(out: &mut Vec<u8>, key: &CellKey) {
    out.extend_from_slice(&key.program.to_le_bytes());
    out.push(key.strat);
    push_varint(out, key.strat_a);
    push_varint(out, key.strat_b);
    push_varint(out, key.seed);
    out.extend_from_slice(&key.exec.to_le_bytes());
}

fn decode_entry(r: &mut Reader) -> Result<(CellKey, CellOutcome), String> {
    let key = decode_key(r)?;
    let flags = r.u8()?;
    let mut outcome = CellOutcome {
        replay_complete: flags & F_REPLAY_COMPLETE != 0,
        equivalent: flags & F_EQUIVALENT != 0,
        deterministic: (flags & F_HAS_DET != 0).then_some(flags & F_DETERMINISTIC != 0),
        differences: r.varint_u32()?,
        violations: r.varint_u32()?,
        preemptions: r.varint()?,
        forced_releases: r.varint()?,
        order_hash: r.u64_raw()?,
        prefix_hash: r.u64_raw()?,
        state_hash: r.u64_raw()?,
        sync_events: r.varint()?,
        drd_races: None,
        drd_unpredicted: None,
    };
    if flags & F_HAS_DRD != 0 {
        outcome.drd_races = Some(r.varint_u32()?);
    }
    if flags & F_HAS_UNPREDICTED != 0 {
        outcome.drd_unpredicted = Some(r.varint_u32()?);
    }
    Ok((key, outcome))
}

fn decode_key(r: &mut Reader) -> Result<CellKey, String> {
    let program = r.u64_raw()?;
    let strat = r.u8()?;
    if strat > 2 {
        return Err(format!("unknown strategy code {strat}"));
    }
    let strat_a = r.varint()?;
    let strat_b = r.varint()?;
    let seed = r.varint()?;
    let exec = r.u64_raw()?;
    Ok(CellKey {
        program,
        strat,
        strat_a,
        strat_b,
        seed,
        exec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_runtime::SchedStrategy;

    fn sample() -> Journal {
        let mut j = Journal {
            label: "test grid".into(),
            ..Journal::default()
        };
        for seed in 0..5u64 {
            j.insert(
                CellKey::new(0xabcd, SchedStrategy::pct(3), seed, 0x1234),
                CellOutcome {
                    replay_complete: true,
                    equivalent: seed % 2 == 0,
                    deterministic: if seed == 0 { None } else { Some(seed != 3) },
                    differences: (seed % 2) as u32,
                    violations: 0,
                    preemptions: seed * 7,
                    forced_releases: seed,
                    order_hash: 0x1111 * (seed + 1),
                    prefix_hash: 0x2222 * (seed + 1),
                    state_hash: 0x3333 * (seed + 1),
                    sync_events: 40 + seed,
                    drd_races: if seed == 4 { Some(2) } else { None },
                    drd_unpredicted: None,
                },
            );
        }
        j
    }

    #[test]
    fn load_of_missing_file_is_empty() {
        let dir = std::env::temp_dir().join(format!("chfj-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Journal::load(&dir).unwrap().is_empty());
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("chfj-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = sample();
        j.save(&dir).unwrap();
        assert_eq!(Journal::load(&dir).unwrap(), j);
    }

    #[test]
    fn outcome_clean_mirrors_seed_semantics() {
        let mut o = CellOutcome {
            replay_complete: true,
            equivalent: true,
            deterministic: Some(true),
            differences: 0,
            violations: 0,
            preemptions: 0,
            forced_releases: 0,
            order_hash: 1,
            prefix_hash: 1,
            state_hash: 1,
            sync_events: 1,
            drd_races: None,
            drd_unpredicted: None,
        };
        assert!(o.clean() && !o.diverged());
        o.deterministic = Some(false);
        assert!(!o.clean());
        o.deterministic = None;
        o.equivalent = false;
        assert!(!o.clean() && o.diverged());
    }
}
