//! Replay-log data structures, binary encoding, and compressed-size
//! estimation.
//!
//! Chimera's recorder produces two families of logs (paper Table 2):
//!
//! * **DRF logs** — enough to replay a data-race-free program: every
//!   nondeterministic input, and the happens-before order of the program's
//!   own synchronization operations.
//! * **Weak-lock logs** — the acquisition order of every weak-lock the
//!   instrumenter added (one stream per granularity class), plus any forced
//!   releases with their precise preemption points.
//!
//! The wire format is version 2 of the `CHIM` container (DESIGN.md §12):
//! the globally-ordered event stream is split into [`CHUNK_EVENTS`]-sized
//! frames, each with a self-describing length and an FNV-1a checksum,
//! dictionary/delta/bit-packed encoding of `(object, thread)` pairs, and
//! periodic state-hash [`Checkpoint`]s so a divergence can be localized by
//! bisection instead of a full re-run.
//!
//! The paper reports gzip-compressed sizes; we report sizes from a binary
//! varint encoding plus an order-0 entropy estimate standing in for gzip
//! (DESIGN.md §2). The estimate is position-independent (pure symbol
//! frequencies), which makes it monotone under log growth.

use chimera_minic::ir::{LockGranularity, WeakLockId};
use std::collections::{BTreeMap, BTreeSet};

/// A recorded nondeterministic input: the `seq`-th input consumed by
/// `thread`.
pub type InputKey = (u32, u64);

/// Events per v2 chunk frame (the bisection granularity).
pub const CHUNK_EVENTS: usize = 256;

const FLAG_JOURNAL: u8 = 1;
const FLAG_EXPLICIT: u8 = 2;
const FLAG_CHECKPOINTS: u8 = 4;

/// Dictionary bitmap bits (one per [`ObjKey`] group, in variant order).
const DICT_MUTEX: u8 = 1;
const DICT_COND: u8 = 1 << 1;
const DICT_SPAWN: u8 = 1 << 2;
const DICT_OUTPUT: u8 = 1 << 3;
const DICT_INPUT: u8 = 1 << 4;
const DICT_WEAK: u8 = 1 << 5;
const DICT_FORCED: u8 = 1 << 6;
/// High bit of the dictionary bitmap: combo table stored as a delta pair
/// list instead of per-object thread masks.
const COMBO_PAIRS: u8 = 1 << 7;

/// Granularity-exception code meaning "this dictionary lock has no
/// granularity entry" (codes 0–3 are [`LockGranularity`] values).
const GRAN_ABSENT: u64 = 4;

/// One entry of the globally-ordered event journal: the commit order of
/// every replay-ordered operation, across all objects. This is the stream
/// v2 chunks, checksums, and bisects over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JournalEvent {
    /// `thread` acquired the program mutex at `addr`.
    Mutex {
        /// Acquiring thread.
        thread: u32,
        /// Mutex address.
        addr: i64,
    },
    /// `thread` was woken on the condvar at `addr`.
    Cond {
        /// Woken thread.
        thread: u32,
        /// Condvar address.
        addr: i64,
    },
    /// `thread` spawned a child.
    Spawn {
        /// Parent thread.
        thread: u32,
    },
    /// `thread` committed an output syscall.
    Output {
        /// Writing thread.
        thread: u32,
    },
    /// `thread` consumed a nondeterministic input (payload lives in
    /// [`ReplayLogs::inputs`]).
    Input {
        /// Reading thread.
        thread: u32,
    },
    /// `thread` acquired the weak-lock `lock`.
    Weak {
        /// Acquiring thread.
        thread: u32,
        /// Instrumenter-assigned weak-lock.
        lock: WeakLockId,
    },
    /// The timeout manager forcibly revoked `lock` from `thread`.
    Forced {
        /// The holder the lock was taken from.
        thread: u32,
        /// Holder's retired-instruction count at the preemption point.
        icount: u64,
        /// Whether the holder was parked when preempted.
        parked: bool,
        /// The revoked weak-lock.
        lock: WeakLockId,
    },
}

impl JournalEvent {
    /// The thread that committed this event.
    pub fn thread(&self) -> u32 {
        match *self {
            JournalEvent::Mutex { thread, .. }
            | JournalEvent::Cond { thread, .. }
            | JournalEvent::Spawn { thread }
            | JournalEvent::Output { thread }
            | JournalEvent::Input { thread }
            | JournalEvent::Weak { thread, .. }
            | JournalEvent::Forced { thread, .. } => thread,
        }
    }
}

/// A periodic recorder checkpoint: the running schedule digest after the
/// first `events` journal entries. Replays recompute the same digest at the
/// same boundaries; the first mismatching checkpoint brackets a divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of journal events covered by this checkpoint.
    pub events: u64,
    /// The schedule digest (see `chimera_runtime` checkpoint hook).
    pub state_hash: u64,
}

/// All logs produced by one recorded execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayLogs {
    /// Input payloads keyed by (thread, per-thread input sequence).
    pub inputs: BTreeMap<InputKey, Vec<i64>>,
    /// Per-mutex acquisition order (thread ids).
    pub mutex_order: BTreeMap<i64, Vec<u32>>,
    /// Per-condvar wakeup delivery order (thread ids of the woken).
    pub cond_order: BTreeMap<i64, Vec<u32>>,
    /// Global spawn order (parent thread ids).
    pub spawn_order: Vec<u32>,
    /// Global output-syscall order (writing thread ids).
    pub output_order: Vec<u32>,
    /// Per-weak-lock acquisition order (thread ids).
    pub weak_order: BTreeMap<WeakLockId, Vec<u32>>,
    /// Granularity of each weak-lock seen (for per-class counting).
    pub weak_gran: BTreeMap<WeakLockId, LockGranularity>,
    /// Forced releases: (holder thread, retired-instruction count, parked
    /// flag, lock), in commit order.
    pub forced: Vec<(u32, u64, bool, WeakLockId)>,
    /// Count of program sync events logged (mutex + barrier + cond + spawn
    /// + join).
    pub sync_log_entries: u64,
    /// Count of input events logged.
    pub input_log_entries: u64,
    /// The globally-ordered event journal. Empty for hand-built
    /// per-object maps; the per-object order maps above remain the
    /// replayer's source of truth either way.
    pub journal: Vec<JournalEvent>,
    /// Recorder checkpoints at chunk boundaries (v2).
    pub checkpoints: Vec<Checkpoint>,
}

/// A mid-log decode: the journal suffix starting at a chunk boundary,
/// plus the checkpoint anchoring it (if the recorder emitted one there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSuffix {
    /// First chunk included in the suffix.
    pub chunk: usize,
    /// Journal events preceding (and excluded from) this suffix.
    pub start_events: u64,
    /// The checkpoint at exactly `start_events`, when one exists.
    pub anchor: Option<Checkpoint>,
    /// The decoded journal events from `start_events` onward.
    pub journal: Vec<JournalEvent>,
    /// Checkpoints strictly after `start_events`.
    pub checkpoints: Vec<Checkpoint>,
}

/// Dictionary key for one ordered object: a per-object order stream,
/// reduced to a sortable id. Order matters: groups are serialized in this
/// enum's variant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ObjKey {
    Mutex(i64),
    Cond(i64),
    Spawn,
    Output,
    Input,
    Weak(u32),
    Forced(u32),
}

fn obj_thread(ev: &JournalEvent) -> (ObjKey, u32) {
    match *ev {
        JournalEvent::Mutex { thread, addr } => (ObjKey::Mutex(addr), thread),
        JournalEvent::Cond { thread, addr } => (ObjKey::Cond(addr), thread),
        JournalEvent::Spawn { thread } => (ObjKey::Spawn, thread),
        JournalEvent::Output { thread } => (ObjKey::Output, thread),
        JournalEvent::Input { thread } => (ObjKey::Input, thread),
        JournalEvent::Weak { thread, lock } => (ObjKey::Weak(lock.0), thread),
        JournalEvent::Forced { thread, lock, .. } => (ObjKey::Forced(lock.0), thread),
    }
}

/// Per-object order streams, derived or stored (the replayer's view).
#[derive(Debug, Default, PartialEq, Eq)]
struct Orders {
    mutex: BTreeMap<i64, Vec<u32>>,
    cond: BTreeMap<i64, Vec<u32>>,
    spawn: Vec<u32>,
    output: Vec<u32>,
    weak: BTreeMap<WeakLockId, Vec<u32>>,
    forced: Vec<(u32, u64, bool, WeakLockId)>,
}

fn derived_orders(journal: &[JournalEvent]) -> Orders {
    let mut o = Orders::default();
    for ev in journal {
        match *ev {
            JournalEvent::Mutex { thread, addr } => {
                o.mutex.entry(addr).or_default().push(thread)
            }
            JournalEvent::Cond { thread, addr } => {
                o.cond.entry(addr).or_default().push(thread)
            }
            JournalEvent::Spawn { thread } => o.spawn.push(thread),
            JournalEvent::Output { thread } => o.output.push(thread),
            JournalEvent::Input { .. } => {}
            JournalEvent::Weak { thread, lock } => {
                o.weak.entry(lock).or_default().push(thread)
            }
            JournalEvent::Forced {
                thread,
                icount,
                parked,
                lock,
            } => o.forced.push((thread, icount, parked, lock)),
        }
    }
    o
}

impl ReplayLogs {
    /// Number of weak-lock log entries for one granularity class — the
    /// paper's "instr. log" / "basic blk. log" / "loop log" / "func. log"
    /// columns of Table 2.
    pub fn weak_entries(&self, g: LockGranularity) -> u64 {
        self.weak_order
            .iter()
            .filter(|(l, _)| self.weak_gran.get(l) == Some(&g))
            .map(|(_, v)| v.len() as u64)
            .sum()
    }

    /// Total input words recorded.
    pub fn input_words(&self) -> u64 {
        self.inputs.values().map(|v| v.len() as u64).sum()
    }

    // ---- push API: keeps the journal and the per-object maps in sync ----

    /// Append a mutex acquisition to the journal and the per-mutex stream.
    pub fn push_mutex(&mut self, addr: i64, thread: u32) {
        self.journal.push(JournalEvent::Mutex { thread, addr });
        self.mutex_order.entry(addr).or_default().push(thread);
    }

    /// Append a condvar wakeup.
    pub fn push_cond(&mut self, addr: i64, thread: u32) {
        self.journal.push(JournalEvent::Cond { thread, addr });
        self.cond_order.entry(addr).or_default().push(thread);
    }

    /// Append a spawn.
    pub fn push_spawn(&mut self, thread: u32) {
        self.journal.push(JournalEvent::Spawn { thread });
        self.spawn_order.push(thread);
    }

    /// Append an output commit.
    pub fn push_output(&mut self, thread: u32) {
        self.journal.push(JournalEvent::Output { thread });
        self.output_order.push(thread);
    }

    /// Append an input payload; the per-thread sequence number is derived
    /// from the inputs already present.
    pub fn push_input(&mut self, thread: u32, data: Vec<i64>) {
        let seq = self
            .inputs
            .range((thread, 0)..=(thread, u64::MAX))
            .next_back()
            .map(|((_, s), _)| s + 1)
            .unwrap_or(0);
        self.inputs.insert((thread, seq), data);
        self.journal.push(JournalEvent::Input { thread });
    }

    /// Append a weak-lock acquisition.
    pub fn push_weak(&mut self, lock: WeakLockId, gran: LockGranularity, thread: u32) {
        self.journal.push(JournalEvent::Weak { thread, lock });
        self.weak_order.entry(lock).or_default().push(thread);
        self.weak_gran.insert(lock, gran);
    }

    /// Append a forced release.
    pub fn push_forced(&mut self, thread: u32, icount: u64, parked: bool, lock: WeakLockId) {
        self.journal.push(JournalEvent::Forced {
            thread,
            icount,
            parked,
            lock,
        });
        self.forced.push((thread, icount, parked, lock));
    }

    /// Record a checkpoint covering the first `events` journal entries.
    pub fn push_checkpoint(&mut self, events: u64, state_hash: u64) {
        self.checkpoints.push(Checkpoint { events, state_hash });
    }

    /// Number of v2 chunks this journal serializes to.
    pub fn chunk_count(&self) -> usize {
        self.journal.len().div_ceil(CHUNK_EVENTS)
    }

    fn stored_orders(&self) -> Orders {
        Orders {
            mutex: self.mutex_order.clone(),
            cond: self.cond_order.clone(),
            spawn: self.spawn_order.clone(),
            output: self.output_order.clone(),
            weak: self.weak_order.clone(),
            forced: self.forced.clone(),
        }
    }

    /// Serialize the input log to bytes (varint packed).
    pub fn encode_input_log(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for ((t, seq), data) in &self.inputs {
            push_varint(&mut out, *t as u64);
            push_varint(&mut out, *seq);
            push_varint(&mut out, data.len() as u64);
            for &v in data {
                push_varint(&mut out, zigzag(v));
            }
        }
        out
    }

    /// Serialize the order log (program sync + weak-locks + forced
    /// releases) to bytes. Thread ids are varints (ids ≥ 256 used to be
    /// truncated to one byte here and silently alias).
    pub fn encode_order_log(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (addr, threads) in &self.mutex_order {
            push_varint(&mut out, zigzag(*addr));
            push_varint(&mut out, threads.len() as u64);
            for t in threads {
                push_varint(&mut out, *t as u64);
            }
        }
        for (addr, threads) in &self.cond_order {
            push_varint(&mut out, zigzag(*addr));
            push_varint(&mut out, threads.len() as u64);
            for t in threads {
                push_varint(&mut out, *t as u64);
            }
        }
        push_varint(&mut out, self.spawn_order.len() as u64);
        for t in &self.spawn_order {
            push_varint(&mut out, *t as u64);
        }
        push_varint(&mut out, self.output_order.len() as u64);
        for t in &self.output_order {
            push_varint(&mut out, *t as u64);
        }
        for (lock, threads) in &self.weak_order {
            push_varint(&mut out, lock.0 as u64);
            push_varint(&mut out, threads.len() as u64);
            for t in threads {
                push_varint(&mut out, *t as u64);
            }
        }
        for (t, icount, parked, lock) in &self.forced {
            push_varint(&mut out, *t as u64);
            push_varint(&mut out, *icount);
            out.push(*parked as u8);
            push_varint(&mut out, lock.0 as u64);
        }
        out
    }

    /// Estimated compressed sizes in bytes: `(input_log, order_log)`.
    pub fn compressed_sizes(&self) -> (usize, usize) {
        (
            compressed_estimate(&self.encode_input_log()),
            compressed_estimate(&self.encode_order_log()),
        )
    }

    /// Serialize to the current (v2) wire format: a checksummed header,
    /// then the journal as chunked, checksummed, bit-packed frames.
    pub fn to_bytes(&self) -> Vec<u8> {
        let has_journal = !self.journal.is_empty();
        let explicit =
            !has_journal || derived_orders(&self.journal) != self.stored_orders();
        let mut header = Vec::new();
        let mut flags = 0u8;
        if has_journal {
            flags |= FLAG_JOURNAL;
        }
        if explicit {
            flags |= FLAG_EXPLICIT;
        }
        if !self.checkpoints.is_empty() {
            flags |= FLAG_CHECKPOINTS;
        }
        header.push(flags);
        encode_inputs(&mut header, &self.inputs);
        if !has_journal {
            // Standalone weak-lock granularities (delta-coded sorted ids).
            // Journal logs carry them inside the dictionary instead.
            push_varint(&mut header, self.weak_gran.len() as u64);
            let mut prev = 0u32;
            for (i, (lock, g)) in self.weak_gran.iter().enumerate() {
                let d = if i == 0 { lock.0 as u64 } else { (lock.0 - prev) as u64 };
                push_varint(&mut header, d);
                prev = lock.0;
                push_varint(&mut header, gran_code(*g));
            }
        }
        // Counters.
        push_varint(&mut header, self.sync_log_entries);
        push_varint(&mut header, self.input_log_entries);
        // Checkpoints (delta-coded event counts + raw digests), only when
        // any exist — the flag bit replaces an always-present count.
        if flags & FLAG_CHECKPOINTS != 0 {
            push_varint(&mut header, self.checkpoints.len() as u64);
            let mut prev_ev = 0u64;
            for cp in &self.checkpoints {
                push_varint(&mut header, cp.events.wrapping_sub(prev_ev));
                prev_ev = cp.events;
                header.extend_from_slice(&cp.state_hash.to_le_bytes());
            }
        }
        // Journal dictionary, combo table, and chunk frames.
        let mut tables = None;
        if has_journal {
            let objs: Vec<ObjKey> = self
                .journal
                .iter()
                .map(|e| obj_thread(e).0)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let obj_idx: BTreeMap<ObjKey, u32> = objs
                .iter()
                .enumerate()
                .map(|(i, k)| (*k, i as u32))
                .collect();
            let combos: Vec<(u32, u32)> = self
                .journal
                .iter()
                .map(|e| {
                    let (k, t) = obj_thread(e);
                    (obj_idx[&k], t)
                })
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let combo_idx: BTreeMap<(u32, u32), u32> = combos
                .iter()
                .enumerate()
                .map(|(i, c)| (*c, i as u32))
                .collect();
            encode_journal_tables(&mut header, &objs, &combos, &self.weak_gran);
            push_varint(&mut header, self.journal.len() as u64);
            let n_combos = combos.len();
            tables = Some((obj_idx, combo_idx, n_combos));
        }
        if explicit {
            encode_orders(&mut header, self);
        }
        let mut out = Vec::new();
        out.extend_from_slice(b"CHIM");
        push_varint(&mut out, 2); // format version
        push_varint(&mut out, header.len() as u64);
        out.extend_from_slice(&header);
        out.extend_from_slice(&fnv32(&header).to_le_bytes());
        if let Some((obj_idx, combo_idx, n_combos)) = tables {
            let multi = self.journal.len() > CHUNK_EVENTS;
            for chunk in self.journal.chunks(CHUNK_EVENTS) {
                let body = encode_chunk(chunk, multi, n_combos, &obj_idx, &combo_idx);
                push_varint(&mut out, body.len() as u64);
                out.extend_from_slice(&fnv32(&body).to_le_bytes());
                out.extend_from_slice(&body);
            }
        }
        out
    }

    /// Parse a buffer produced by [`ReplayLogs::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (bad magic,
    /// unsupported version, truncation, checksum mismatch). Chunk errors
    /// name the offending chunk.
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayLogs, String> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != b"CHIM" {
            return Err("bad magic".into());
        }
        let version = r.varint()?;
        if version != 2 {
            return Err(format!("unsupported log format version {version}"));
        }
        Self::decode_v2(&mut r)
    }

    fn decode_v2(r: &mut Reader) -> Result<ReplayLogs, String> {
        let (mut logs, tables, n_events, explicit) = decode_v2_header(r)?;
        if let Some((objs, combos)) = &tables {
            let n_chunks = chunk_count_for(r, n_events)?;
            let mut journal = Vec::new();
            for i in 0..n_chunks {
                let body = read_frame(r, i)?;
                let n_in = chunk_events(n_events, n_chunks, i);
                decode_chunk(i, body, n_in, n_chunks > 1, combos, objs, &mut journal)?;
            }
            if !explicit {
                let o = derived_orders(&journal);
                logs.mutex_order = o.mutex;
                logs.cond_order = o.cond;
                logs.spawn_order = o.spawn;
                logs.output_order = o.output;
                logs.weak_order = o.weak;
                logs.forced = o.forced;
            }
            logs.journal = journal;
        }
        if r.pos != r.bytes.len() {
            return Err("trailing garbage after log".into());
        }
        Ok(logs)
    }

    /// Decode the journal suffix starting at chunk boundary `chunk`,
    /// without verifying the checksums of (or even decoding) the skipped
    /// prefix — this is what lets bisection restart mid-log even when an
    /// earlier chunk is corrupt.
    ///
    /// # Errors
    ///
    /// Fails on container/header damage, a missing journal (explicit
    /// per-object orders only), an out-of-range chunk, or damage within
    /// the suffix itself.
    pub fn decode_from_checkpoint(bytes: &[u8], chunk: usize) -> Result<LogSuffix, String> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != b"CHIM" {
            return Err("bad magic".into());
        }
        let version = r.varint()?;
        if version != 2 {
            return Err(format!(
                "mid-log decode needs a v2 log, got version {version}"
            ));
        }
        let (logs, tables, n_events, _explicit) = decode_v2_header(&mut r)?;
        let Some((objs, combos)) = tables else {
            return Err("log has no journal (explicit per-object orders only)".into());
        };
        let n_chunks = chunk_count_for(&r, n_events)?;
        if chunk >= n_chunks {
            return Err(format!("chunk {chunk} out of range (log has {n_chunks})"));
        }
        for i in 0..chunk {
            // Skip without checksum verification: frame lengths alone
            // delimit the prefix.
            let len = r
                .varint()
                .map_err(|_| format!("chunk {i}: truncated"))? as usize;
            r.take(4).map_err(|_| format!("chunk {i}: truncated"))?;
            r.take(len).map_err(|_| format!("chunk {i}: truncated"))?;
        }
        let mut journal = Vec::new();
        for i in chunk..n_chunks {
            let body = read_frame(&mut r, i)?;
            let n_in = chunk_events(n_events, n_chunks, i);
            decode_chunk(i, body, n_in, n_chunks > 1, &combos, &objs, &mut journal)?;
        }
        if r.pos != r.bytes.len() {
            return Err("trailing garbage after log".into());
        }
        let start_events = (chunk * CHUNK_EVENTS) as u64;
        Ok(LogSuffix {
            chunk,
            start_events,
            anchor: logs
                .checkpoints
                .iter()
                .find(|c| c.events == start_events)
                .copied(),
            journal,
            checkpoints: logs
                .checkpoints
                .iter()
                .filter(|c| c.events > start_events)
                .copied()
                .collect(),
        })
    }

    /// Byte ranges `(start, end)` of each chunk *body* inside a v2 buffer
    /// (the 4-byte frame checksum sits immediately before `start`). For
    /// corruption tests and forensics tooling.
    ///
    /// # Errors
    ///
    /// Fails on container/header damage or truncated frames.
    pub fn chunk_spans(bytes: &[u8]) -> Result<Vec<(usize, usize)>, String> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != b"CHIM" {
            return Err("bad magic".into());
        }
        let version = r.varint()?;
        if version != 2 {
            return Err(format!("chunk spans need a v2 log, got version {version}"));
        }
        let (_logs, tables, n_events, _explicit) = decode_v2_header(&mut r)?;
        let mut spans = Vec::new();
        if tables.is_some() {
            let n_chunks = chunk_count_for(&r, n_events)?;
            for i in 0..n_chunks {
                let len = r
                    .varint()
                    .map_err(|_| format!("chunk {i}: truncated"))? as usize;
                r.take(4).map_err(|_| format!("chunk {i}: truncated"))?;
                let start = r.pos;
                r.take(len).map_err(|_| format!("chunk {i}: truncated"))?;
                spans.push((start, start + len));
            }
        }
        Ok(spans)
    }
}

/// Number of chunks implied by the header's event count, with a cheap
/// plausibility bound: every frame costs at least five bytes (length +
/// checksum), so a count the remaining buffer cannot possibly hold is
/// rejected before any decoding work.
fn chunk_count_for(r: &Reader, n_events: u64) -> Result<usize, String> {
    let n_chunks = n_events.div_ceil(CHUNK_EVENTS as u64);
    let remaining = r.bytes.len() - r.pos;
    if n_chunks > (remaining / 5 + 1) as u64 {
        return Err(format!(
            "chunk count {n_chunks} exceeds the remaining {remaining} bytes"
        ));
    }
    Ok(n_chunks as usize)
}

/// Events in chunk `i` of `n_chunks`: every chunk is full except the last.
fn chunk_events(n_events: u64, n_chunks: usize, i: usize) -> usize {
    if i + 1 < n_chunks {
        CHUNK_EVENTS
    } else {
        (n_events as usize) - CHUNK_EVENTS * (n_chunks - 1)
    }
}

/// Parse the v2 header: returns the partially-filled logs (inputs, grans,
/// counters, checkpoints, and per-object orders if explicit), the journal
/// tables, the event count, and the explicit-orders flag.
type HeaderTables = Option<(Vec<ObjKey>, Vec<(u32, u32)>)>;

fn decode_v2_header(
    r: &mut Reader,
) -> Result<(ReplayLogs, HeaderTables, u64, bool), String> {
    let header_len = r.varint().map_err(|e| format!("header: {e}"))? as usize;
    let header = r.take(header_len).map_err(|_| "header: truncated".to_string())?;
    let sum_bytes = r.take(4).map_err(|_| "header: truncated checksum".to_string())?;
    let sum = u32::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv32(header) != sum {
        return Err("header checksum mismatch".into());
    }
    let mut h = Reader {
        bytes: header,
        pos: 0,
    };
    let out = parse_header_body(&mut h).map_err(|e| format!("header: {e}"))?;
    if h.pos != header.len() {
        return Err("header: trailing bytes".into());
    }
    Ok(out)
}

fn parse_header_body(
    h: &mut Reader,
) -> Result<(ReplayLogs, HeaderTables, u64, bool), String> {
    let flags = h.take(1)?[0];
    if flags & !(FLAG_JOURNAL | FLAG_EXPLICIT | FLAG_CHECKPOINTS) != 0 {
        return Err(format!("unknown flags {flags:#x}"));
    }
    let has_journal = flags & FLAG_JOURNAL != 0;
    let explicit = flags & FLAG_EXPLICIT != 0;
    let mut logs = ReplayLogs::default();
    decode_inputs(h, &mut logs)?;
    if !has_journal {
        let n_gran = h.varint()?;
        let mut prev = 0u32;
        for i in 0..n_gran {
            let d = h.varint()?;
            let lock = decode_u32_delta(i == 0, prev, d, "weak-lock id")?;
            prev = lock;
            let g = gran_from_code(h.varint()?)?;
            logs.weak_gran.insert(WeakLockId(lock), g);
        }
    }
    logs.sync_log_entries = h.varint()?;
    logs.input_log_entries = h.varint()?;
    if flags & FLAG_CHECKPOINTS != 0 {
        let n_cp = h.varint()?;
        if n_cp == 0 {
            return Err("checkpoint flag set but zero checkpoints".into());
        }
        let mut prev_ev = 0u64;
        for _ in 0..n_cp {
            let d = h.varint()?;
            let events = prev_ev.wrapping_add(d);
            prev_ev = events;
            let hash = u64::from_le_bytes(
                h.take(8)
                    .map_err(|_| "truncated checkpoint digest".to_string())?
                    .try_into()
                    .unwrap(),
            );
            logs.checkpoints.push(Checkpoint {
                events,
                state_hash: hash,
            });
        }
    }
    let mut tables = None;
    let mut n_events = 0u64;
    if has_journal {
        let (objs, combos) = decode_journal_tables(h, &mut logs)?;
        n_events = h.varint()?;
        if n_events == 0 {
            return Err("journal flag set but zero events".into());
        }
        if combos.is_empty() {
            return Err("no combos for a non-empty journal".into());
        }
        tables = Some((objs, combos));
    }
    if explicit {
        let order_map = |h: &mut Reader| -> Result<BTreeMap<i64, Vec<u32>>, String> {
            let n = h.varint()?;
            let mut m = BTreeMap::new();
            for _ in 0..n {
                let addr = unzigzag(h.varint()?);
                let len = h.varint()? as usize;
                let mut v = Vec::with_capacity(len.min(1 << 20));
                for _ in 0..len {
                    v.push(h.u32_varint("thread id")?);
                }
                m.insert(addr, v);
            }
            Ok(m)
        };
        logs.mutex_order = order_map(h)?;
        logs.cond_order = order_map(h)?;
        let n = h.varint()? as usize;
        for _ in 0..n {
            logs.spawn_order.push(h.u32_varint("thread id")?);
        }
        let n = h.varint()? as usize;
        for _ in 0..n {
            logs.output_order.push(h.u32_varint("thread id")?);
        }
        let n_weak = h.varint()?;
        for _ in 0..n_weak {
            let lock = WeakLockId(h.u32_varint("weak-lock id")?);
            let len = h.varint()? as usize;
            let mut v = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                v.push(h.u32_varint("thread id")?);
            }
            logs.weak_order.insert(lock, v);
        }
        let n_forced = h.varint()?;
        for _ in 0..n_forced {
            let t = h.u32_varint("thread id")?;
            let icount = h.varint()?;
            let parked = h.take(1)?[0] != 0;
            let lock = WeakLockId(h.u32_varint("weak-lock id")?);
            logs.forced.push((t, icount, parked, lock));
        }
    }
    Ok((logs, tables, n_events, explicit))
}

/// Serialize the grouped input records: threads ascending, each with its
/// record count (low bit: non-contiguous sequence numbers), optional
/// explicit sequence deltas, then each payload with a byte-mode flag in
/// the low bit of its length (all words in `0..=255` stored raw).
fn encode_inputs(out: &mut Vec<u8>, inputs: &BTreeMap<InputKey, Vec<i64>>) {
    type ThreadGroup<'a> = (u32, Vec<(u64, &'a Vec<i64>)>);
    let mut by_thread: Vec<ThreadGroup> = Vec::new();
    for ((t, seq), data) in inputs {
        match by_thread.last_mut() {
            Some((lt, recs)) if lt == t => recs.push((*seq, data)),
            _ => by_thread.push((*t, vec![(*seq, data)])),
        }
    }
    push_varint(out, by_thread.len() as u64);
    let mut prev_t = 0u32;
    for (i, (t, recs)) in by_thread.iter().enumerate() {
        push_varint(out, if i == 0 { *t as u64 } else { (*t - prev_t) as u64 });
        prev_t = *t;
        // The recorder numbers each thread's inputs 0, 1, 2, …: encode
        // that common case as a single flag bit instead of per-record
        // sequence numbers.
        let contig = recs.iter().enumerate().all(|(j, (s, _))| *s == j as u64);
        push_varint(out, ((recs.len() as u64) << 1) | u64::from(!contig));
        if !contig {
            let mut prev_s = 0u64;
            for (j, (s, _)) in recs.iter().enumerate() {
                push_varint(out, if j == 0 { *s } else { s - prev_s });
                prev_s = *s;
            }
        }
        for (_, data) in recs {
            let byte_mode = !data.is_empty() && data.iter().all(|v| (0..=255).contains(v));
            push_varint(out, ((data.len() as u64) << 1) | u64::from(byte_mode));
            if byte_mode {
                for &v in data.iter() {
                    out.push(v as u8);
                }
            } else {
                for &v in data.iter() {
                    push_varint(out, zigzag(v));
                }
            }
        }
    }
}

fn decode_inputs(h: &mut Reader, logs: &mut ReplayLogs) -> Result<(), String> {
    let n_threads = h.varint()?;
    let mut prev_t = 0u32;
    for i in 0..n_threads {
        let d = h.varint()?;
        let t = decode_u32_delta(i == 0, prev_t, d, "input thread")?;
        prev_t = t;
        let v = h.varint()?;
        let count = v >> 1;
        let contig = v & 1 == 0;
        if count == 0 {
            return Err("empty input group".into());
        }
        let mut seqs = Vec::new();
        if !contig {
            let mut prev_s = 0u64;
            for j in 0..count {
                let d = h.varint()?;
                let s = if j == 0 {
                    d
                } else {
                    if d == 0 {
                        return Err("duplicate input seq".into());
                    }
                    prev_s
                        .checked_add(d)
                        .ok_or_else(|| "input seq overflow".to_string())?
                };
                prev_s = s;
                seqs.push(s);
            }
        }
        for j in 0..count {
            let seq = if contig { j } else { seqs[j as usize] };
            let v = h.varint()?;
            let len = (v >> 1) as usize;
            let byte_mode = v & 1 != 0;
            let mut data = Vec::with_capacity(len.min(1 << 20));
            if byte_mode {
                let raw = h.take(len)?;
                data.extend(raw.iter().map(|&b| b as i64));
            } else {
                for _ in 0..len {
                    data.push(unzigzag(h.varint()?));
                }
            }
            logs.inputs.insert((t, seq), data);
        }
    }
    Ok(())
}

fn encode_orders(out: &mut Vec<u8>, logs: &ReplayLogs) {
    let order_map = |out: &mut Vec<u8>, m: &BTreeMap<i64, Vec<u32>>| {
        push_varint(out, m.len() as u64);
        for (addr, threads) in m {
            push_varint(out, zigzag(*addr));
            push_varint(out, threads.len() as u64);
            for t in threads {
                push_varint(out, *t as u64);
            }
        }
    };
    order_map(out, &logs.mutex_order);
    order_map(out, &logs.cond_order);
    push_varint(out, logs.spawn_order.len() as u64);
    for t in &logs.spawn_order {
        push_varint(out, *t as u64);
    }
    push_varint(out, logs.output_order.len() as u64);
    for t in &logs.output_order {
        push_varint(out, *t as u64);
    }
    push_varint(out, logs.weak_order.len() as u64);
    for (lock, threads) in &logs.weak_order {
        push_varint(out, lock.0 as u64);
        push_varint(out, threads.len() as u64);
        for t in threads {
            push_varint(out, *t as u64);
        }
    }
    push_varint(out, logs.forced.len() as u64);
    for (t, icount, parked, lock) in &logs.forced {
        push_varint(out, *t as u64);
        push_varint(out, *icount);
        out.push(*parked as u8);
        push_varint(out, lock.0 as u64);
    }
}

/// Serialize the journal tables: a presence bitmap (one bit per [`ObjKey`]
/// group, in variant order, plus the combo-mode bit), the non-empty
/// groups delta-coded over their sorted ids, the weak-lock granularities
/// (2-bit codes for dictionary locks plus an exception list), and the
/// combo table as per-object thread masks or a delta pair list, whichever
/// is smaller.
fn encode_journal_tables(
    out: &mut Vec<u8>,
    objs: &[ObjKey],
    combos: &[(u32, u32)],
    weak_gran: &BTreeMap<WeakLockId, LockGranularity>,
) {
    let mutexes: Vec<i64> = objs
        .iter()
        .filter_map(|k| match k {
            ObjKey::Mutex(a) => Some(*a),
            _ => None,
        })
        .collect();
    let conds: Vec<i64> = objs
        .iter()
        .filter_map(|k| match k {
            ObjKey::Cond(a) => Some(*a),
            _ => None,
        })
        .collect();
    let weaks: Vec<u32> = objs
        .iter()
        .filter_map(|k| match k {
            ObjKey::Weak(l) => Some(*l),
            _ => None,
        })
        .collect();
    let forceds: Vec<u32> = objs
        .iter()
        .filter_map(|k| match k {
            ObjKey::Forced(l) => Some(*l),
            _ => None,
        })
        .collect();
    // Combo mode: per-object thread masks when every thread fits in a
    // u64 bitmask and that costs no more than the flat pair list.
    let mask_ok = combos.iter().all(|&(_, t)| t < 64);
    let masks: Vec<u64> = if mask_ok {
        let mut m = vec![0u64; objs.len()];
        for &(o, t) in combos {
            m[o as usize] |= 1 << t;
        }
        m
    } else {
        Vec::new()
    };
    let mut pair_bytes = Vec::new();
    encode_combo_pairs(&mut pair_bytes, combos);
    let mask_cost: usize = masks.iter().map(|&m| varint_len(m)).sum();
    let pairs = !mask_ok || pair_bytes.len() < mask_cost;
    let mut bitmap = 0u8;
    if !mutexes.is_empty() {
        bitmap |= DICT_MUTEX;
    }
    if !conds.is_empty() {
        bitmap |= DICT_COND;
    }
    if objs.contains(&ObjKey::Spawn) {
        bitmap |= DICT_SPAWN;
    }
    if objs.contains(&ObjKey::Output) {
        bitmap |= DICT_OUTPUT;
    }
    if objs.contains(&ObjKey::Input) {
        bitmap |= DICT_INPUT;
    }
    if !weaks.is_empty() {
        bitmap |= DICT_WEAK;
    }
    if !forceds.is_empty() {
        bitmap |= DICT_FORCED;
    }
    if pairs {
        bitmap |= COMBO_PAIRS;
    }
    out.push(bitmap);
    let group_i64 = |out: &mut Vec<u8>, keys: &[i64]| {
        push_varint(out, keys.len() as u64);
        let mut prev = 0i64;
        for (i, &k) in keys.iter().enumerate() {
            if i == 0 {
                push_varint(out, zigzag(k));
            } else {
                push_varint(out, (k - prev) as u64);
            }
            prev = k;
        }
    };
    let group_u32 = |out: &mut Vec<u8>, keys: &[u32]| {
        push_varint(out, keys.len() as u64);
        let mut prev = 0u32;
        for (i, &k) in keys.iter().enumerate() {
            if i == 0 {
                push_varint(out, k as u64);
            } else {
                push_varint(out, (k - prev) as u64);
            }
            prev = k;
        }
    };
    if !mutexes.is_empty() {
        group_i64(out, &mutexes);
    }
    if !conds.is_empty() {
        group_i64(out, &conds);
    }
    if !weaks.is_empty() {
        group_u32(out, &weaks);
    }
    if !forceds.is_empty() {
        group_u32(out, &forceds);
    }
    // Granularities for the dictionary's weak locks, packed two bits per
    // lock, plus exceptions: granularities for locks outside the
    // dictionary, and dictionary locks with no granularity at all.
    let codes: Vec<u32> = weaks
        .iter()
        .map(|w| {
            weak_gran
                .get(&WeakLockId(*w))
                .map_or(0, |g| gran_code(*g) as u32)
        })
        .collect();
    pack_bits(out, &codes, 2);
    let dict_weak: BTreeSet<u32> = weaks.iter().copied().collect();
    let mut exceptions: Vec<(u32, u64)> = weaks
        .iter()
        .filter(|w| !weak_gran.contains_key(&WeakLockId(**w)))
        .map(|w| (*w, GRAN_ABSENT))
        .collect();
    for (l, g) in weak_gran {
        if !dict_weak.contains(&l.0) {
            exceptions.push((l.0, gran_code(*g)));
        }
    }
    exceptions.sort_unstable();
    push_varint(out, exceptions.len() as u64);
    let mut prev = 0u32;
    for (i, (id, code)) in exceptions.iter().enumerate() {
        push_varint(out, if i == 0 { *id as u64 } else { (*id - prev) as u64 });
        prev = *id;
        push_varint(out, *code);
    }
    if pairs {
        out.extend_from_slice(&pair_bytes);
    } else {
        for m in &masks {
            push_varint(out, *m);
        }
    }
}

/// Combos as a flat list sorted by (object, thread): delta object index;
/// on a repeated object, delta the thread instead.
fn encode_combo_pairs(out: &mut Vec<u8>, combos: &[(u32, u32)]) {
    push_varint(out, combos.len() as u64);
    let (mut po, mut pt) = (0u32, 0u32);
    for (i, &(o, t)) in combos.iter().enumerate() {
        if i == 0 {
            push_varint(out, o as u64);
            push_varint(out, t as u64);
        } else {
            push_varint(out, (o - po) as u64);
            if o == po {
                push_varint(out, (t - pt) as u64);
            } else {
                push_varint(out, t as u64);
            }
        }
        po = o;
        pt = t;
    }
}

/// Decoded dictionary state: the object table and the (object index,
/// thread) combo alphabet, in encoding order.
type JournalTables = (Vec<ObjKey>, Vec<(u32, u32)>);

fn decode_journal_tables(h: &mut Reader, logs: &mut ReplayLogs) -> Result<JournalTables, String> {
    let bitmap = h.take(1)?[0];
    let mut objs = Vec::new();
    let group_i64 = |h: &mut Reader,
                     objs: &mut Vec<ObjKey>,
                     mk: fn(i64) -> ObjKey|
     -> Result<(), String> {
        let n = h.varint()?;
        if n == 0 {
            return Err("empty dictionary group".to_string());
        }
        let mut prev = 0i64;
        for i in 0..n {
            let v = h.varint()?;
            let k = if i == 0 {
                unzigzag(v)
            } else {
                if v == 0 {
                    return Err("duplicate dictionary key".to_string());
                }
                if v > i64::MAX as u64 {
                    return Err("dictionary key delta overflow".to_string());
                }
                prev.checked_add(v as i64)
                    .ok_or_else(|| "dictionary key overflow".to_string())?
            };
            prev = k;
            objs.push(mk(k));
        }
        Ok(())
    };
    if bitmap & DICT_MUTEX != 0 {
        group_i64(h, &mut objs, ObjKey::Mutex)?;
    }
    if bitmap & DICT_COND != 0 {
        group_i64(h, &mut objs, ObjKey::Cond)?;
    }
    if bitmap & DICT_SPAWN != 0 {
        objs.push(ObjKey::Spawn);
    }
    if bitmap & DICT_OUTPUT != 0 {
        objs.push(ObjKey::Output);
    }
    if bitmap & DICT_INPUT != 0 {
        objs.push(ObjKey::Input);
    }
    let group_u32 = |h: &mut Reader, keys: &mut Vec<u32>| -> Result<(), String> {
        let n = h.varint()?;
        if n == 0 {
            return Err("empty dictionary group".to_string());
        }
        let mut prev = 0u32;
        for i in 0..n {
            let d = h.varint()?;
            let k = decode_u32_delta(i == 0, prev, d, "weak-lock id")?;
            prev = k;
            keys.push(k);
        }
        Ok(())
    };
    let mut weaks = Vec::new();
    if bitmap & DICT_WEAK != 0 {
        group_u32(h, &mut weaks)?;
    }
    objs.extend(weaks.iter().map(|w| ObjKey::Weak(*w)));
    let mut forceds = Vec::new();
    if bitmap & DICT_FORCED != 0 {
        group_u32(h, &mut forceds)?;
    }
    objs.extend(forceds.iter().map(|f| ObjKey::Forced(*f)));
    // Granularities: packed codes for dictionary weaks, then exceptions.
    let codes = unpack_bits(h, weaks.len(), 2)?;
    for (w, c) in weaks.iter().zip(&codes) {
        logs.weak_gran.insert(WeakLockId(*w), gran_from_code(*c as u64)?);
    }
    let n_exc = h.varint()?;
    let mut prev = 0u32;
    for i in 0..n_exc {
        let d = h.varint()?;
        let id = decode_u32_delta(i == 0, prev, d, "gran exception id")?;
        prev = id;
        let code = h.varint()?;
        if code == GRAN_ABSENT {
            if logs.weak_gran.remove(&WeakLockId(id)).is_none() {
                return Err("gran-absent exception for unknown lock".into());
            }
        } else {
            let g = gran_from_code(code)?;
            if logs.weak_gran.insert(WeakLockId(id), g).is_some() {
                return Err("duplicate granularity".into());
            }
        }
    }
    // Combos.
    let mut combos = Vec::new();
    if bitmap & COMBO_PAIRS != 0 {
        let n_combos = h.varint()? as usize;
        combos.reserve(n_combos.min(1 << 16));
        let (mut po, mut pt) = (0u32, 0u32);
        for i in 0..n_combos {
            let (o, t) = if i == 0 {
                (h.u32_varint("combo object")?, h.u32_varint("combo thread")?)
            } else {
                let d_obj = h.varint()?;
                if d_obj == 0 {
                    let dt = h.varint()?;
                    if dt == 0 {
                        return Err("duplicate combo".into());
                    }
                    (po, checked_u32_add(pt, dt, "combo thread")?)
                } else {
                    (
                        checked_u32_add(po, d_obj, "combo object")?,
                        h.u32_varint("combo thread")?,
                    )
                }
            };
            if (o as usize) >= objs.len() {
                return Err(format!("combo object {o} out of range"));
            }
            combos.push((o, t));
            po = o;
            pt = t;
        }
    } else {
        for o in 0..objs.len() {
            let mask = h.varint()?;
            if mask == 0 {
                return Err("object with no combos".into());
            }
            for t in 0..64 {
                if mask & (1 << t) != 0 {
                    combos.push((o as u32, t));
                }
            }
        }
    }
    Ok((objs, combos))
}

/// Encoded length of `v` as a LEB128 varint.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn decode_u32_delta(first: bool, prev: u32, d: u64, what: &str) -> Result<u32, String> {
    if first {
        if d > u32::MAX as u64 {
            return Err(format!("{what} overflow"));
        }
        Ok(d as u32)
    } else {
        if d == 0 {
            return Err(format!("duplicate {what}"));
        }
        checked_u32_add(prev, d, what)
    }
}

fn checked_u32_add(base: u32, d: u64, what: &str) -> Result<u32, String> {
    (base as u64)
        .checked_add(d)
        .filter(|v| *v <= u32::MAX as u64)
        .map(|v| v as u32)
        .ok_or_else(|| format!("{what} overflow"))
}

fn encode_chunk(
    events: &[JournalEvent],
    multi: bool,
    n_combos: usize,
    obj_idx: &BTreeMap<ObjKey, u32>,
    combo_idx: &BTreeMap<(u32, u32), u32>,
) -> Vec<u8> {
    let mut body = Vec::new();
    let globals: Vec<u32> = events
        .iter()
        .map(|e| {
            let (k, t) = obj_thread(e);
            combo_idx[&(obj_idx[&k], t)]
        })
        .collect();
    let global_width = bit_width(n_combos as u32 - 1);
    let mut packed_global = true;
    if multi {
        // Multi-chunk logs choose per chunk between packing against the
        // global combo table (a leading 0) and a chunk-local alphabet (its
        // size, its members delta-coded, then narrower indices).
        let locals: Vec<u32> = globals
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let local_width = bit_width(locals.len() as u32 - 1);
        let mut local_list = Vec::new();
        push_varint(&mut local_list, locals.len() as u64);
        let mut prev = 0u32;
        for (i, &g) in locals.iter().enumerate() {
            push_varint(
                &mut local_list,
                if i == 0 { g as u64 } else { (g - prev) as u64 },
            );
            prev = g;
        }
        let packed = |w: u32| (events.len() * w as usize).div_ceil(8);
        if local_list.len() + packed(local_width) < 1 + packed(global_width) {
            packed_global = false;
            body.extend_from_slice(&local_list);
            let local_pos: BTreeMap<u32, u32> = locals
                .iter()
                .enumerate()
                .map(|(i, g)| (*g, i as u32))
                .collect();
            let idxs: Vec<u32> = globals.iter().map(|g| local_pos[g]).collect();
            pack_bits(&mut body, &idxs, local_width);
        } else {
            push_varint(&mut body, 0);
        }
    }
    if packed_global {
        pack_bits(&mut body, &globals, global_width);
    }
    // Forced extras: per-thread icount deltas reset each chunk (so any
    // chunk decodes standalone), plus the parked flag.
    let mut prev_ic: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events {
        if let JournalEvent::Forced {
            thread,
            icount,
            parked,
            ..
        } = ev
        {
            let p = prev_ic.get(thread).copied().unwrap_or(0);
            push_varint(&mut body, zigzag(icount.wrapping_sub(p) as i64));
            prev_ic.insert(*thread, *icount);
            body.push(*parked as u8);
        }
    }
    body
}

fn read_frame<'a>(r: &mut Reader<'a>, i: usize) -> Result<&'a [u8], String> {
    let len = r
        .varint()
        .map_err(|_| format!("chunk {i}: truncated"))? as usize;
    let sum_bytes = r.take(4).map_err(|_| format!("chunk {i}: truncated"))?;
    let sum = u32::from_le_bytes(sum_bytes.try_into().unwrap());
    let body = r.take(len).map_err(|_| format!("chunk {i}: truncated"))?;
    if fnv32(body) != sum {
        return Err(format!("chunk {i}: checksum mismatch"));
    }
    Ok(body)
}

fn decode_chunk(
    i: usize,
    body: &[u8],
    n_in: usize,
    multi: bool,
    combos: &[(u32, u32)],
    objs: &[ObjKey],
    out: &mut Vec<JournalEvent>,
) -> Result<(), String> {
    let chunk_err = |e: String| format!("chunk {i}: {e}");
    let mut b = Reader {
        bytes: body,
        pos: 0,
    };
    let n_local = if multi {
        b.varint().map_err(chunk_err)? as usize
    } else {
        0
    };
    let idxs = if n_local == 0 {
        // Global alphabet: indices straight into the combo table.
        let width = bit_width(combos.len() as u32 - 1);
        unpack_bits(&mut b, n_in, width).map_err(chunk_err)?
    } else {
        if n_local > n_in || n_local > combos.len() {
            return Err(format!("chunk {i}: bad local dictionary size {n_local}"));
        }
        let mut locals = Vec::with_capacity(n_local);
        let mut prev = 0u32;
        for j in 0..n_local {
            let d = b.varint().map_err(chunk_err)?;
            let g = decode_u32_delta(j == 0, prev, d, "combo index").map_err(chunk_err)?;
            if (g as usize) >= combos.len() {
                return Err(format!("chunk {i}: combo index {g} out of range"));
            }
            prev = g;
            locals.push(g);
        }
        let width = bit_width(n_local as u32 - 1);
        let packed = unpack_bits(&mut b, n_in, width).map_err(chunk_err)?;
        let mut idxs = Vec::with_capacity(n_in);
        for idx in packed {
            if idx as usize >= n_local {
                return Err(format!("chunk {i}: packed index {idx} out of range"));
            }
            idxs.push(locals[idx as usize]);
        }
        idxs
    };
    let mut prev_ic: BTreeMap<u32, u64> = BTreeMap::new();
    for idx in idxs {
        if idx as usize >= combos.len() {
            return Err(format!("chunk {i}: packed index {idx} out of range"));
        }
        let (o, thread) = combos[idx as usize];
        let ev = match objs[o as usize] {
            ObjKey::Mutex(addr) => JournalEvent::Mutex { thread, addr },
            ObjKey::Cond(addr) => JournalEvent::Cond { thread, addr },
            ObjKey::Spawn => JournalEvent::Spawn { thread },
            ObjKey::Output => JournalEvent::Output { thread },
            ObjKey::Input => JournalEvent::Input { thread },
            ObjKey::Weak(l) => JournalEvent::Weak {
                thread,
                lock: WeakLockId(l),
            },
            ObjKey::Forced(l) => {
                let p = prev_ic.get(&thread).copied().unwrap_or(0);
                let d = b.varint().map_err(chunk_err)?;
                let icount = p.wrapping_add(unzigzag(d) as u64);
                prev_ic.insert(thread, icount);
                let parked = b.take(1).map_err(chunk_err)?[0] != 0;
                JournalEvent::Forced {
                    thread,
                    icount,
                    parked,
                    lock: WeakLockId(l),
                }
            }
        };
        out.push(ev);
    }
    if b.pos != body.len() {
        return Err(format!("chunk {i}: trailing bytes in frame"));
    }
    Ok(())
}

/// Bits needed to represent `x` (0 for `x == 0`).
fn bit_width(x: u32) -> u32 {
    32 - x.leading_zeros()
}

/// LSB-first bit packer: `width` bits per value.
fn pack_bits(out: &mut Vec<u8>, vals: &[u32], width: u32) {
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &v in vals {
        acc |= (v as u64) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
}

fn unpack_bits(r: &mut Reader, n: usize, width: u32) -> Result<Vec<u32>, String> {
    if width == 0 {
        return Ok(vec![0; n]);
    }
    let total = (n * width as usize).div_ceil(8);
    let bytes = r.take(total)?;
    let mut vals = Vec::with_capacity(n);
    let mut acc = 0u64;
    let mut nbits = 0u32;
    let mut bi = 0usize;
    for _ in 0..n {
        while nbits < width {
            acc |= (bytes[bi] as u64) << nbits;
            bi += 1;
            nbits += 8;
        }
        vals.push((acc & ((1u64 << width) - 1)) as u32);
        acc >>= width;
        nbits -= width;
    }
    Ok(vals)
}

/// FNV-1a over a byte slice. A single flipped byte always changes the
/// digest: each step `h -> (h ^ b) * p` is injective for fixed `b`, and two
/// streams first differing at one byte leave different states there.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a (32-bit) over a byte slice — the container checksum. The
/// single-byte-flip guarantee of [`fnv64`] holds mod 2³² too: the prime is
/// odd, so each step `h -> (h ^ b) * p` stays injective on 32-bit states,
/// and a difference introduced at one byte survives every later step.
pub fn fnv32(bytes: &[u8]) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for &b in bytes {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

fn gran_code(g: LockGranularity) -> u64 {
    match g {
        LockGranularity::Function => 0,
        LockGranularity::Loop => 1,
        LockGranularity::BasicBlock => 2,
        LockGranularity::Instruction => 3,
    }
}

fn gran_from_code(c: u64) -> Result<LockGranularity, String> {
    Ok(match c {
        0 => LockGranularity::Function,
        1 => LockGranularity::Loop,
        2 => LockGranularity::BasicBlock,
        3 => LockGranularity::Instruction,
        other => return Err(format!("bad granularity code {other}")),
    })
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        // `n` can be an attacker-controlled u64; never add it to `pos`.
        if n > self.bytes.len() - self.pos {
            return Err("truncated log".into());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.take(1)?[0];
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err("varint overflow".into());
            }
        }
    }

    fn u32_varint(&mut self, what: &str) -> Result<u32, String> {
        let v = self.varint()?;
        if v > u32::MAX as u64 {
            return Err(format!("{what} overflow"));
        }
        Ok(v as u32)
    }
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// ZigZag-encode a signed value for varint packing.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// LEB128 varint.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Estimate the gzip-compressed size of `bytes`: the order-0 Shannon
/// entropy bound of the byte stream, plus a small header constant.
///
/// Position-independent by construction (only symbol frequencies matter),
/// so inserting bytes anywhere never shrinks the estimate — the
/// monotonicity the growth property test relies on. (An earlier RLE
/// pre-pass broke that: splitting a run could *reduce* the residual.)
pub fn compressed_estimate(bytes: &[u8]) -> usize {
    if bytes.is_empty() {
        return 0;
    }
    let mut freq = [0u64; 256];
    for &b in bytes {
        freq[b as usize] += 1;
    }
    let n = bytes.len() as f64;
    let mut bits = 0.0;
    for &f in freq.iter() {
        if f > 0 {
            let p = f as f64 / n;
            bits += -(p.log2()) * f as f64;
        }
    }
    (bits / 8.0).ceil() as usize + 18 // gzip header/trailer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_small_and_large() {
        let mut out = Vec::new();
        push_varint(&mut out, 0);
        push_varint(&mut out, 127);
        push_varint(&mut out, 128);
        push_varint(&mut out, u64::MAX);
        assert_eq!(out[0], 0);
        assert_eq!(out[1], 127);
        assert_eq!(out[2] & 0x80, 0x80);
        assert_eq!(out.len(), 1 + 1 + 2 + 10);
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn compressed_estimate_compresses_runs() {
        let uniform = vec![7u8; 10_000];
        let est = compressed_estimate(&uniform);
        assert!(est < 500, "run of one byte must compress well, got {est}");
        // Pseudo-random bytes compress poorly.
        let noisy: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        assert!(compressed_estimate(&noisy) > est * 10);
    }

    #[test]
    fn empty_log_sizes_are_zero() {
        let logs = ReplayLogs::default();
        let (i, _o) = logs.compressed_sizes();
        assert_eq!(i, 0);
    }

    #[test]
    fn weak_entries_split_by_granularity() {
        let mut logs = ReplayLogs::default();
        logs.weak_order.insert(WeakLockId(0), vec![0, 1, 0]);
        logs.weak_order.insert(WeakLockId(1), vec![1]);
        logs.weak_gran.insert(WeakLockId(0), LockGranularity::Loop);
        logs.weak_gran
            .insert(WeakLockId(1), LockGranularity::Function);
        assert_eq!(logs.weak_entries(LockGranularity::Loop), 3);
        assert_eq!(logs.weak_entries(LockGranularity::Function), 1);
        assert_eq!(logs.weak_entries(LockGranularity::BasicBlock), 0);
    }

    /// A hand-built log exercising every per-object section (explicit
    /// mode, no journal).
    fn rich_logs() -> ReplayLogs {
        let mut logs = ReplayLogs::default();
        logs.inputs.insert((0, 0), vec![5, -3, 1 << 40]);
        logs.inputs.insert((2, 7), vec![]);
        logs.mutex_order.insert(-9, vec![0, 1, 0, 2]);
        logs.cond_order.insert(44, vec![3]);
        logs.spawn_order = vec![0, 0, 1];
        logs.output_order = vec![2, 0];
        logs.weak_order.insert(WeakLockId(5), vec![1, 2]);
        logs.weak_gran.insert(WeakLockId(5), LockGranularity::Loop);
        logs.forced.push((1, 999, true, WeakLockId(5)));
        logs.sync_log_entries = 17;
        logs.input_log_entries = 3;
        logs
    }

    /// A push-built log exercising the journal path: 603 events spanning
    /// three chunks, with checkpoints at both interior chunk boundaries.
    fn journal_logs() -> ReplayLogs {
        let mut logs = ReplayLogs::default();
        for i in 0..600u32 {
            match i % 5 {
                0 => logs.push_mutex(-9, i % 3),
                1 => logs.push_mutex(44, (i % 4) + 1),
                2 => logs.push_weak(WeakLockId(7), LockGranularity::Loop, i % 2),
                3 => logs.push_output(i % 3),
                4 => logs.push_forced(i % 2, 1000 + i as u64 * 3, i % 4 == 0, WeakLockId(7)),
                _ => unreachable!(),
            }
            if (i + 1) % 256 == 0 {
                logs.push_checkpoint((i + 1) as u64, 0x1234_5678_9abc_def0 ^ i as u64);
            }
        }
        logs.push_input(0, vec![5, -3, 1 << 40]);
        logs.push_spawn(0);
        logs.push_cond(17, 2);
        logs.sync_log_entries = 601;
        logs.input_log_entries = 1;
        logs
    }

    #[test]
    fn serialization_round_trips() {
        let logs = rich_logs();
        let bytes = logs.to_bytes();
        let back = ReplayLogs::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, logs);
    }

    #[test]
    fn journal_serialization_round_trips() {
        let logs = journal_logs();
        assert_eq!(logs.chunk_count(), 3);
        let bytes = logs.to_bytes();
        let back = ReplayLogs::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, logs);
        assert_eq!(back.checkpoints.len(), 2);
    }

    #[test]
    fn thread_ids_above_255_round_trip() {
        let mut logs = ReplayLogs::default();
        for t in 0..300u32 {
            logs.push_mutex(5, t);
        }
        logs.push_spawn(300);
        logs.push_output(301);
        let back = ReplayLogs::from_bytes(&logs.to_bytes()).expect("round trip");
        assert_eq!(back, logs);
        // The old order-log encoding truncated ids to one byte, so thread
        // 300 silently aliased thread 44 (300 mod 256). Varints keep them
        // distinct.
        let a = ReplayLogs {
            spawn_order: vec![300],
            ..Default::default()
        };
        let b = ReplayLogs {
            spawn_order: vec![44],
            ..Default::default()
        };
        assert_ne!(a.encode_order_log(), b.encode_order_log());
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn inconsistent_orders_round_trip_via_explicit_sections() {
        let mut logs = journal_logs();
        logs.spawn_order.push(9); // maps no longer derivable from journal
        let back = ReplayLogs::from_bytes(&logs.to_bytes()).expect("round trip");
        assert_eq!(back, logs);
    }

    #[test]
    fn every_truncation_of_a_valid_log_errors() {
        // The parser consumes fields strictly sequentially and a valid
        // buffer parses to exactly its last byte, so *every* proper prefix
        // must run out mid-field and report truncation — never panic, and
        // never accept a half-log silently.
        let bytes = rich_logs().to_bytes();
        for len in 0..bytes.len() {
            let r = ReplayLogs::from_bytes(&bytes[..len]);
            assert!(
                r.is_err(),
                "prefix of {len}/{} bytes parsed Ok",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_truncation_of_a_journal_log_errors() {
        let bytes = journal_logs().to_bytes();
        for len in 0..bytes.len() {
            let r = ReplayLogs::from_bytes(&bytes[..len]);
            assert!(
                r.is_err(),
                "prefix of {len}/{} bytes parsed Ok",
                bytes.len()
            );
        }
    }

    #[test]
    fn single_byte_flips_are_detected() {
        // The version byte (offset 4) names the only accepted version,
        // and every byte after it is covered by the header checksum, a
        // frame checksum, or a frame delimiter — one flipped bit anywhere
        // must surface as an error.
        let bytes = journal_logs().to_bytes();
        for off in 4..bytes.len() {
            let mut b = bytes.clone();
            b[off] ^= 1;
            assert!(
                ReplayLogs::from_bytes(&b).is_err(),
                "flip at offset {off} decoded Ok"
            );
        }
        for bit in 0..8 {
            let mut b = bytes.clone();
            b[4] ^= 1 << bit;
            assert!(
                ReplayLogs::from_bytes(&b).is_err(),
                "version-byte flip of bit {bit} decoded Ok"
            );
        }
    }

    #[test]
    fn chunk_flips_name_the_offending_chunk() {
        let bytes = journal_logs().to_bytes();
        let spans = ReplayLogs::chunk_spans(&bytes).expect("spans");
        assert_eq!(spans.len(), 3);
        for (i, (s, e)) in spans.iter().enumerate() {
            // A flip inside the chunk body…
            let mut b = bytes.clone();
            b[(s + e) / 2] ^= 0xff;
            let err = ReplayLogs::from_bytes(&b).unwrap_err();
            assert!(err.contains(&format!("chunk {i}")), "body flip: {err}");
            // …and a flip inside the 4-byte frame checksum before it.
            let mut b = bytes.clone();
            b[s - 3] ^= 0x10;
            let err = ReplayLogs::from_bytes(&b).unwrap_err();
            assert!(err.contains(&format!("chunk {i}")), "checksum flip: {err}");
        }
    }

    #[test]
    fn hostile_chunk_lengths_error_not_panic() {
        // Hand-build a v2 container whose header promises a journal over
        // one mutex object used by one thread, then attach hostile frames.
        let base_header = |n_events: u64| {
            let mut header = vec![FLAG_JOURNAL];
            push_varint(&mut header, 0); // inputs: no threads
            push_varint(&mut header, 0); // sync_log_entries
            push_varint(&mut header, 0); // input_log_entries
            header.push(DICT_MUTEX); // dictionary bitmap, mask-mode combos
            push_varint(&mut header, 1); // one mutex…
            push_varint(&mut header, zigzag(3)); // …at addr 3
            push_varint(&mut header, 0); // no granularity exceptions
            push_varint(&mut header, 1 << 2); // combo mask: thread 2
            push_varint(&mut header, n_events);
            header
        };
        let container = |header: &[u8], frames: &[u8]| {
            let mut out = b"CHIM".to_vec();
            push_varint(&mut out, 2);
            push_varint(&mut out, header.len() as u64);
            out.extend_from_slice(header);
            out.extend_from_slice(&fnv32(header).to_le_bytes());
            out.extend_from_slice(frames);
            out
        };
        let frame = |body: &[u8]| {
            let mut f = Vec::new();
            push_varint(&mut f, body.len() as u64);
            f.extend_from_slice(&fnv32(body).to_le_bytes());
            f.extend_from_slice(body);
            f
        };
        let header = base_header(1);
        // Absurd frame length: must fail on the missing bytes, not
        // allocate for them.
        let mut f = Vec::new();
        push_varint(&mut f, u64::MAX);
        f.extend_from_slice(&[0; 4]);
        let err = ReplayLogs::from_bytes(&container(&header, &f)).unwrap_err();
        assert!(err.contains("chunk 0"), "{err}");
        // Absurd event count in the header: the implied chunk count can't
        // possibly fit the buffer and is rejected before any decoding.
        let huge = base_header(u64::MAX);
        let err = ReplayLogs::from_bytes(&container(&huge, &[])).unwrap_err();
        assert!(err.contains("chunk count"), "{err}");
        // Multi-chunk local alphabet larger than the combo table.
        let multi = base_header(CHUNK_EVENTS as u64 + 1);
        let mut body = Vec::new();
        push_varint(&mut body, 5); // local dictionary of 5 over 1 combo
        let err = ReplayLogs::from_bytes(&container(&multi, &frame(&body))).unwrap_err();
        assert!(err.contains("chunk 0"), "{err}");
        // Trailing bytes inside an otherwise valid frame.
        let err = ReplayLogs::from_bytes(&container(&header, &frame(&[0]))).unwrap_err();
        assert!(err.contains("chunk 0"), "{err}");
        // A mask granting no thread at all.
        let mut empty_mask = base_header(1);
        let at = empty_mask.len() - 2; // mask varint sits before n_events
        empty_mask[at] = 0;
        let err = ReplayLogs::from_bytes(&container(&empty_mask, &frame(&[]))).unwrap_err();
        assert!(err.contains("no combos"), "{err}");
        // Sanity: the well-formed frame for this header does decode. One
        // combo packs at width zero, so the body is empty.
        let logs = ReplayLogs::from_bytes(&container(&header, &frame(&[]))).expect("valid");
        assert_eq!(logs.journal, vec![JournalEvent::Mutex { thread: 2, addr: 3 }]);
        assert_eq!(logs.mutex_order[&3], vec![2]);
    }

    #[test]
    fn mid_log_decode_skips_damaged_prefix() {
        let logs = journal_logs();
        let bytes = logs.to_bytes();
        // Pristine: the suffix from chunk 1 is journal[256..], anchored at
        // the 256-event checkpoint.
        let suf = ReplayLogs::decode_from_checkpoint(&bytes, 1).expect("suffix");
        assert_eq!(suf.start_events, 256);
        assert_eq!(&suf.journal[..], &logs.journal[256..]);
        assert_eq!(suf.anchor, Some(logs.checkpoints[0]));
        assert_eq!(suf.checkpoints, vec![logs.checkpoints[1]]);
        // Damage chunk 0: the full decode names it; the mid-log decode
        // never reads it.
        let spans = ReplayLogs::chunk_spans(&bytes).expect("spans");
        let mut b = bytes.clone();
        b[spans[0].0 + 4] ^= 0xff;
        let err = ReplayLogs::from_bytes(&b).unwrap_err();
        assert!(err.contains("chunk 0"), "{err}");
        let suf2 = ReplayLogs::decode_from_checkpoint(&b, 1).expect("skip damage");
        assert_eq!(suf2.journal, suf.journal);
        // Damage inside the suffix still fails.
        let mut b = bytes.clone();
        b[spans[2].0 + 4] ^= 0xff;
        assert!(ReplayLogs::decode_from_checkpoint(&b, 1).is_err());
        // Out-of-range chunk.
        assert!(ReplayLogs::decode_from_checkpoint(&bytes, 9).is_err());
    }

    #[test]
    fn hostile_section_lengths_error_not_panic() {
        // Hand-built journal-less headers behind a valid checksum, so the
        // section parser itself meets the hostile lengths.
        let container = |header: &[u8]| {
            let mut out = b"CHIM".to_vec();
            push_varint(&mut out, 2);
            push_varint(&mut out, header.len() as u64);
            out.extend_from_slice(header);
            out.extend_from_slice(&fnv32(header).to_le_bytes());
            out
        };
        // Absurd input-thread count: must fail on the missing records, not
        // try to allocate for them.
        let mut h = vec![FLAG_EXPLICIT];
        push_varint(&mut h, u64::MAX);
        assert!(ReplayLogs::from_bytes(&container(&h)).is_err());
        // Absurd payload length inside one otherwise-valid input record.
        let mut h = vec![FLAG_EXPLICIT];
        push_varint(&mut h, 1); // one input thread…
        push_varint(&mut h, 0); // …thread 0
        push_varint(&mut h, 1 << 1); // one contiguous record
        push_varint(&mut h, u64::MAX - 1); // varint payload length
        assert!(ReplayLogs::from_bytes(&container(&h)).is_err());
        // Unknown weak-lock granularity code.
        let mut h = vec![FLAG_EXPLICIT];
        push_varint(&mut h, 0); // no input threads
        push_varint(&mut h, 1); // one granularity entry…
        push_varint(&mut h, 0); // …for lock 0
        push_varint(&mut h, 9); // bogus granularity
        let err = ReplayLogs::from_bytes(&container(&h)).unwrap_err();
        assert!(err.contains("granularity"), "{err}");
        // A varint that never terminates within 64 bits.
        let mut b = b"CHIM".to_vec();
        b.extend([0xff; 10]);
        let err = ReplayLogs::from_bytes(&b).unwrap_err();
        assert!(err.contains("varint overflow"), "{err}");
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(ReplayLogs::from_bytes(b"NOPE....").is_err());
        assert!(ReplayLogs::from_bytes(b"CH").is_err());
        // The retired v1 format is an unsupported version like any other.
        let mut v1 = ReplayLogs::default().to_bytes();
        v1[4] = 1;
        let err = ReplayLogs::from_bytes(&v1).unwrap_err();
        assert_eq!(err, "unsupported log format version 1");
        let mut ok = ReplayLogs::default().to_bytes();
        ok.truncate(5);
        // Truncated buffers must error, not panic.
        let _ = ReplayLogs::from_bytes(&ok);
    }

    #[test]
    fn unzigzag_inverts_zigzag() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    mod proptests {
        use super::*;
        use chimera_testkit::prop::{self, Gen, Source};
        use chimera_testkit::{prop_assert, prop_assert_eq};

        fn arb_logs() -> Gen<ReplayLogs> {
            fn order(s: &mut Source) -> BTreeMap<i64, Vec<u32>> {
                let n = s.int(0usize..4);
                (0..n)
                    .map(|_| {
                        let key = s.raw_u64() as i64;
                        let len = s.int(0usize..12);
                        (key, (0..len).map(|_| s.int(0u32..8)).collect())
                    })
                    .collect()
            }
            Gen::new(|s| {
                let n_inputs = s.int(0usize..6);
                let inputs = (0..n_inputs)
                    .map(|_| {
                        let key = (s.int(0u32..8), s.int(0u64..64));
                        let len = s.int(0usize..16);
                        (key, (0..len).map(|_| s.raw_u64() as i64).collect())
                    })
                    .collect();
                let mutex_order = order(s);
                let cond_order = order(s);
                let n_weak = s.int(0usize..4);
                let weak_order: BTreeMap<WeakLockId, Vec<u32>> = (0..n_weak)
                    .map(|_| {
                        let key = WeakLockId(s.int(0u32..16));
                        let len = s.int(0usize..12);
                        (key, (0..len).map(|_| s.int(0u32..8)).collect())
                    })
                    .collect();
                let n_forced = s.int(0usize..5);
                let forced = (0..n_forced)
                    .map(|_| {
                        (s.int(0u32..8), s.raw_u64(), s.bool(), WeakLockId(s.int(0u32..16)))
                    })
                    .collect();
                let weak_gran = weak_order
                    .keys()
                    .map(|l| (*l, LockGranularity::Loop))
                    .collect();
                ReplayLogs {
                    inputs,
                    mutex_order,
                    cond_order,
                    spawn_order: vec![0, 0],
                    output_order: vec![1],
                    weak_order,
                    weak_gran,
                    forced,
                    sync_log_entries: s.raw_u64(),
                    input_log_entries: s.raw_u64(),
                    journal: Vec::new(),
                    checkpoints: Vec::new(),
                }
            })
        }

        /// Push-built logs: journal and per-object maps consistent, so the
        /// encoder takes the dictionary/chunk path. Thread ids range past
        /// 255 to keep the truncation regression covered.
        fn arb_journal_logs() -> Gen<ReplayLogs> {
            Gen::new(|s| {
                let mut logs = ReplayLogs::default();
                let n = s.int(0usize..700);
                for _ in 0..n {
                    let t = s.int(0u32..600);
                    match s.int(0u32..7) {
                        0 => logs.push_mutex((s.raw_u64() % 64) as i64 - 32, t),
                        1 => logs.push_cond((s.raw_u64() % 64) as i64 - 32, t),
                        2 => logs.push_spawn(t),
                        3 => logs.push_output(t),
                        4 => {
                            let len = s.int(0usize..4);
                            let data = (0..len).map(|_| s.raw_u64() as i64).collect();
                            logs.push_input(t, data);
                        }
                        5 => logs.push_weak(
                            WeakLockId(s.int(0u32..16)),
                            LockGranularity::Loop,
                            t,
                        ),
                        6 => logs.push_forced(t, s.raw_u64(), s.bool(), WeakLockId(s.int(0u32..16))),
                        _ => unreachable!(),
                    }
                }
                let n_cp = s.int(0usize..4);
                for _ in 0..n_cp {
                    logs.push_checkpoint(s.raw_u64(), s.raw_u64());
                }
                logs.sync_log_entries = s.raw_u64();
                logs.input_log_entries = s.raw_u64();
                logs
            })
        }

        /// Arbitrary hand-built logs survive a serialize/parse round trip.
        #[test]
        fn to_bytes_from_bytes_round_trips() {
            prop::check("to_bytes_from_bytes_round_trips", &arb_logs(), |logs| {
                let back = ReplayLogs::from_bytes(&logs.to_bytes()).expect("valid buffer");
                prop_assert_eq!(&back, logs);
                Ok(())
            });
        }

        /// Push-built journal logs round-trip through the chunked path.
        #[test]
        fn journal_round_trips() {
            prop::check("journal_round_trips", &arb_journal_logs(), |logs| {
                let back = ReplayLogs::from_bytes(&logs.to_bytes()).expect("valid buffer");
                prop_assert_eq!(&back, logs);
                Ok(())
            });
        }

        /// Growing a log (fresh input records, fresh lock/mutex streams,
        /// appended forced entries) never shrinks the compressed-size
        /// estimate: the estimator is a pure symbol-frequency bound, and
        /// growth only inserts bytes.
        #[test]
        fn compressed_sizes_monotone_under_growth() {
            prop::check(
                "compressed_sizes_monotone_under_growth",
                &arb_journal_logs(),
                |logs| {
                    let mut cur = logs.clone();
                    let (mut pi, mut po) = cur.compressed_sizes();
                    for step in 0..8u32 {
                        let t = 10_000 + step;
                        match step % 4 {
                            0 => {
                                cur.inputs.insert((t, 0), vec![1, -2, 3]);
                            }
                            1 => {
                                cur.mutex_order
                                    .insert(1_000_000 + step as i64, vec![0, t, 1]);
                            }
                            2 => {
                                cur.weak_order.insert(WeakLockId(100_000 + step), vec![t]);
                            }
                            3 => {
                                cur.forced.push((t, 7, true, WeakLockId(3)));
                            }
                            _ => unreachable!(),
                        }
                        let (i, o) = cur.compressed_sizes();
                        prop_assert!(
                            i >= pi && o >= po,
                            "sizes shrank at step {}: ({}, {}) -> ({}, {})",
                            step,
                            pi,
                            po,
                            i,
                            o
                        );
                        pi = i;
                        po = o;
                    }
                    Ok(())
                },
            );
        }

        /// Random byte soup never panics the parser.
        #[test]
        fn from_bytes_never_panics() {
            let gen = prop::vec_of(prop::any_u8(), 0..256);
            prop::check("from_bytes_never_panics", &gen, |bytes| {
                let _ = ReplayLogs::from_bytes(bytes);
                Ok(())
            });
        }

        /// Structured corruption: start from a *valid* encoding of an
        /// arbitrary log, then flip a few bytes and possibly truncate.
        /// This drives the parser deep into real sections (random soup
        /// almost always dies at the magic), where it must still either
        /// error cleanly or produce a log that re-serializes.
        #[test]
        fn corrupted_valid_encodings_never_panic() {
            let gen = arb_logs().flat_map(|logs| {
                let bytes = logs.to_bytes();
                Gen::new(move |s| {
                    let mut b = bytes.clone();
                    let flips = s.int(1usize..5);
                    for _ in 0..flips {
                        let i = s.int(0usize..b.len());
                        b[i] = s.int(0u32..256) as u8;
                    }
                    if s.bool() {
                        let keep = s.int(0usize..b.len() + 1);
                        b.truncate(keep);
                    }
                    b
                })
            });
            prop::check("corrupted_valid_encodings_never_panic", &gen, |bytes| {
                if let Ok(parsed) = ReplayLogs::from_bytes(bytes) {
                    // Corruption may still decode (e.g. a flipped thread
                    // id); whatever comes back must round-trip its own
                    // re-encoding.
                    let again = ReplayLogs::from_bytes(&parsed.to_bytes()).expect("re-encode");
                    prop_assert_eq!(&again, &parsed);
                }
                Ok(())
            });
        }

        /// Same corruption drill against the chunked journal encoding.
        #[test]
        fn corrupted_journal_encodings_never_panic() {
            let gen = arb_journal_logs().flat_map(|logs| {
                let bytes = logs.to_bytes();
                Gen::new(move |s| {
                    let mut b = bytes.clone();
                    let flips = s.int(1usize..5);
                    for _ in 0..flips {
                        let i = s.int(0usize..b.len());
                        b[i] = s.int(0u32..256) as u8;
                    }
                    if s.bool() {
                        let keep = s.int(0usize..b.len() + 1);
                        b.truncate(keep);
                    }
                    b
                })
            });
            prop::check("corrupted_journal_encodings_never_panic", &gen, |bytes| {
                if let Ok(parsed) = ReplayLogs::from_bytes(bytes) {
                    let again = ReplayLogs::from_bytes(&parsed.to_bytes()).expect("re-encode");
                    prop_assert_eq!(&again, &parsed);
                }
                Ok(())
            });
        }
    }

    #[test]
    fn encoding_includes_all_inputs() {
        let mut logs = ReplayLogs::default();
        logs.inputs.insert((0, 0), vec![1, 2, 3]);
        logs.inputs.insert((1, 0), vec![250; 100]);
        let bytes = logs.encode_input_log();
        assert!(bytes.len() > 100);
        assert_eq!(logs.input_words(), 103);
    }
}
