//! The **seed corpus**: interesting schedules worth revisiting.
//!
//! A fleet sweep's residue is not its report — it is the set of cells
//! that taught us something: schedules with *new order-hash coverage*,
//! runs that came close to breaking replay (weak-lock forced releases),
//! preemption-heavy interleavings, single-holder violations, replay
//! divergences, and determinism-check failures. The corpus persists
//! those cells (by key, with their coverage hashes) so later invocations
//! can (a) dedup coverage against everything any previous run visited
//! and (b) re-run exactly the cells that mattered, fuzzer-style.
//!
//! On disk it is the `CHFC` container (DESIGN.md §12): a header frame
//! (entry count), then one frame per entry.

use crate::cell::CellKey;
use crate::journal::{decode_key, encode_key};
use chimera_replay::wire::{
    push_frame, push_str, push_varint, read_file, read_frame_with, read_str, write_atomic, Format,
    Reader,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Corpus container version this build writes.
pub const CORPUS_VERSION: u64 = 1;
/// File name inside the fleet directory.
pub const CORPUS_FILE: &str = "corpus.chfc";

const FORMAT: Format = Format {
    name: "corpus",
    magic: b"CHFC",
    version: CORPUS_VERSION,
};

/// Why a cell entered the corpus (bitflags; a cell can be interesting
/// for several reasons at once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest(pub u8);

impl Interest {
    /// First cell ever to produce its full order hash.
    pub const NEW_ORDER: Interest = Interest(1);
    /// Replay diverged from the recording (racy evidence).
    pub const DIVERGENT: Interest = Interest(1 << 1);
    /// Replay held, but only after weak-lock forced releases — the
    /// schedule pressed the instrumentation to its timeout boundary.
    pub const NEAR_DIVERGENCE: Interest = Interest(1 << 2);
    /// At least [`PREEMPT_HEAVY_MIN`] injected perturbations.
    pub const PREEMPT_HEAVY: Interest = Interest(1 << 3);
    /// The single-holder probe reported violations.
    pub const VIOLATION: Interest = Interest(1 << 4);
    /// A `--check-determinism` double-run disagreed with itself.
    pub const NONDETERMINISTIC: Interest = Interest(1 << 5);

    /// Union of two interest sets.
    pub fn or(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Does this set contain `flag`?
    pub fn has(self, flag: Interest) -> bool {
        self.0 & flag.0 != 0
    }

    /// Nothing interesting.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Comma-joined human-readable flag names.
    pub fn describe(self) -> String {
        let mut parts = Vec::new();
        for (flag, name) in [
            (Interest::NEW_ORDER, "new-order"),
            (Interest::DIVERGENT, "divergent"),
            (Interest::NEAR_DIVERGENCE, "near-divergence"),
            (Interest::PREEMPT_HEAVY, "preempt-heavy"),
            (Interest::VIOLATION, "violation"),
            (Interest::NONDETERMINISTIC, "nondeterministic"),
        ] {
            if self.has(flag) {
                parts.push(name);
            }
        }
        parts.join(",")
    }
}

/// Perturbation count at which a run counts as preemption-heavy.
pub const PREEMPT_HEAVY_MIN: u64 = 16;

/// One interesting cell, with enough context to re-run it (`key`,
/// `seed`) and to dedup future coverage against it (`order_hash`,
/// `prefix_hash`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Durable cell identity.
    pub key: CellKey,
    /// Human-readable program name at the time of capture.
    pub program: String,
    /// Why the cell was kept.
    pub interest: Interest,
    /// Full sync/weak order-stream hash.
    pub order_hash: u64,
    /// 32-event order-prefix hash.
    pub prefix_hash: u64,
    /// Final memory state hash of the recorded run.
    pub state_hash: u64,
    /// Perturbations the strategy injected.
    pub preemptions: u64,
    /// Weak-lock forced releases during recording.
    pub forced_releases: u64,
    /// Order events observed.
    pub sync_events: u64,
}

/// Persistent set of interesting cells plus the coverage index over them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// Entries in capture order (stable across save/load).
    pub entries: Vec<CorpusEntry>,
    /// Index: every order hash any entry covers.
    orders: BTreeSet<u64>,
    /// Index: every 32-event prefix hash any entry covers.
    prefixes: BTreeSet<u64>,
    /// Index: keys already present (an entry per cell, at most once).
    keys: BTreeSet<CellKey>,
}

impl Corpus {
    /// Number of corpus entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the corpus has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Has any entry covered this full order hash?
    pub fn covers_order(&self, order_hash: u64) -> bool {
        self.orders.contains(&order_hash)
    }

    /// Has any entry covered this prefix hash?
    pub fn covers_prefix(&self, prefix_hash: u64) -> bool {
        self.prefixes.contains(&prefix_hash)
    }

    /// Distinct order hashes across all entries.
    pub fn distinct_orders(&self) -> usize {
        self.orders.len()
    }

    /// Distinct prefix hashes across all entries.
    pub fn distinct_prefixes(&self) -> usize {
        self.prefixes.len()
    }

    /// Insert an entry unless its key is already present. Returns whether
    /// the entry was added. Coverage indexes update either way the entry
    /// is present afterwards.
    pub fn add(&mut self, entry: CorpusEntry) -> bool {
        if !self.keys.insert(entry.key) {
            return false;
        }
        self.orders.insert(entry.order_hash);
        self.prefixes.insert(entry.prefix_hash);
        self.entries.push(entry);
        true
    }

    /// Serialize to the versioned `CHFC` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = FORMAT.start();
        let mut header = Vec::new();
        push_varint(&mut header, self.entries.len() as u64);
        push_frame(&mut out, &header);
        for e in &self.entries {
            let mut body = Vec::new();
            encode_key(&mut body, &e.key);
            push_str(&mut body, &e.program);
            body.push(e.interest.0);
            body.extend_from_slice(&e.order_hash.to_le_bytes());
            body.extend_from_slice(&e.prefix_hash.to_le_bytes());
            body.extend_from_slice(&e.state_hash.to_le_bytes());
            push_varint(&mut body, e.preemptions);
            push_varint(&mut body, e.forced_releases);
            push_varint(&mut body, e.sync_events);
            push_frame(&mut out, &body);
        }
        out
    }

    /// Parse a buffer produced by [`Corpus::to_bytes`].
    ///
    /// # Errors
    ///
    /// Every error starts with the failing section (`corpus header`,
    /// `corpus entry N`): bad magic, unsupported version, truncation,
    /// checksum mismatch, trailing bytes, or a duplicate key — never a
    /// panic on hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Corpus, String> {
        let mut r = FORMAT.open(bytes)?;
        let n = read_frame_with(&mut r, |h| h.varint_u32())
            .map_err(|e| format!("corpus header: {e}"))?;
        let mut corpus = Corpus::default();
        for i in 0..n {
            let entry = read_frame_with(&mut r, decode_entry)
                .map_err(|e| format!("corpus entry {i}: {e}"))?;
            if !corpus.add(entry) {
                return Err(format!("corpus entry {i}: duplicate cell key"));
            }
        }
        FORMAT.finish(&r)?;
        Ok(corpus)
    }

    /// Load the corpus from `dir`, or an empty corpus when the file does
    /// not exist yet.
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found, and every [`Corpus::from_bytes`]
    /// parse failure.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        read_file(
            &dir.join(CORPUS_FILE),
            Some(Corpus::default()),
            Corpus::from_bytes,
        )
    }

    /// Atomically persist the corpus into `dir` (which must exist).
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/rename failure.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        write_atomic(&dir.join(CORPUS_FILE), &self.to_bytes())
    }
}

fn decode_entry(r: &mut Reader) -> Result<CorpusEntry, String> {
    Ok(CorpusEntry {
        key: decode_key(r)?,
        program: read_str(r)?,
        interest: Interest(r.u8()?),
        order_hash: r.u64_raw()?,
        prefix_hash: r.u64_raw()?,
        state_hash: r.u64_raw()?,
        preemptions: r.varint()?,
        forced_releases: r.varint()?,
        sync_events: r.varint()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_runtime::SchedStrategy;

    fn entry(seed: u64, order: u64) -> CorpusEntry {
        CorpusEntry {
            key: CellKey::new(0xfeed, SchedStrategy::preempt_bound(), seed, 0xc0de),
            program: "pfscan".into(),
            interest: Interest::NEW_ORDER.or(Interest::PREEMPT_HEAVY),
            order_hash: order,
            prefix_hash: order ^ 0xff,
            state_hash: 7,
            preemptions: 20,
            forced_releases: 1,
            sync_events: 99,
        }
    }

    #[test]
    fn corpus_round_trips_and_indexes_coverage() {
        let mut c = Corpus::default();
        assert!(c.add(entry(1, 100)));
        assert!(c.add(entry(2, 200)));
        assert!(!c.add(entry(2, 300)), "same key must dedup");
        assert_eq!(c.len(), 2);
        assert!(c.covers_order(100) && c.covers_order(200) && !c.covers_order(300));
        assert_eq!(c.distinct_orders(), 2);
        assert_eq!(c.distinct_prefixes(), 2);

        let back = Corpus::from_bytes(&c.to_bytes()).expect("round trip");
        assert_eq!(back, c);
        assert!(back.covers_prefix(100 ^ 0xff));
    }

    #[test]
    fn interest_flags_describe_themselves() {
        let i = Interest::DIVERGENT
            .or(Interest::NONDETERMINISTIC)
            .or(Interest::NEAR_DIVERGENCE);
        let s = i.describe();
        assert!(s.contains("divergent") && s.contains("nondeterministic"));
        assert!(i.has(Interest::NEAR_DIVERGENCE));
        assert!(!i.has(Interest::VIOLATION));
        assert!(Interest::default().is_empty());
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("chfc-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut c = Corpus::default();
        c.add(entry(5, 55));
        c.save(&dir).unwrap();
        assert_eq!(Corpus::load(&dir).unwrap(), c);
        // Missing file = empty corpus.
        let empty = std::env::temp_dir().join(format!("chfc-none-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(Corpus::load(&empty).unwrap().is_empty());
    }
}
