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
//! The wire format is version 2 of the `CHIM` container, written and read
//! through [`crate::wire`] (DESIGN.md §12): the globally-ordered event
//! stream is split into [`CHUNK_EVENTS`]-sized checksummed frames,
//! dictionary/delta/bit-packed encoding of `(object, thread)` pairs, and
//! periodic state-hash [`Checkpoint`]s so a divergence can be localized by
//! bisection instead of a full re-run.
//!
//! The paper reports gzip-compressed sizes; we report sizes from a binary
//! varint encoding plus an order-0 entropy estimate standing in for gzip
//! (DESIGN.md §2). The estimate is position-independent (pure symbol
//! frequencies), which makes it monotone under log growth.

use crate::wire::{fnv32, push_frame, push_varint, read_frame, unzigzag, zigzag, Format, Reader};
use chimera_minic::ir::{LockGranularity, WeakLockId};
use std::collections::{BTreeMap, BTreeSet};

/// A recorded nondeterministic input: the `seq`-th input consumed by
/// `thread`.
pub type InputKey = (u32, u64);

/// Events per v2 chunk frame (the bisection granularity).
pub const CHUNK_EVENTS: usize = 256;

/// The `CHIM` container: every decode error starts with `log`.
const FORMAT: Format = Format {
    name: "log",
    magic: b"CHIM",
    version: 2,
};

/// Header flag bits; any other bit is an unknown-flag error. `0x2` must
/// stay unassigned: logs written with the retired explicit order sections
/// carry it, and have to fail by name rather than misparse.
const FLAG_JOURNAL: u8 = 1;
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
///
/// The journal is the one record of replay order: the replayer's
/// per-object queues, the order log of Table 2 and the container's chunks
/// are all read from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayLogs {
    /// Input payloads keyed by (thread, per-thread input sequence).
    pub inputs: BTreeMap<InputKey, Vec<i64>>,
    /// Granularity of each weak-lock seen (for per-class counting).
    pub weak_gran: BTreeMap<WeakLockId, LockGranularity>,
    /// Count of program sync events logged (mutex + barrier + cond + spawn
    /// + join).
    pub sync_log_entries: u64,
    /// Count of input events logged.
    pub input_log_entries: u64,
    /// The globally-ordered event journal.
    pub journal: Vec<JournalEvent>,
    /// Recorder checkpoints at chunk boundaries (v2).
    pub checkpoints: Vec<Checkpoint>,
}

/// Dictionary key for one ordered object, reduced to a sortable id.
/// Order matters: groups are serialized in this enum's variant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ObjKey {
    Mutex(i64),
    Cond(i64),
    Spawn,
    Output,
    Input,
    Weak(u32),
    Forced(u32),
}

pub(crate) fn obj_thread(ev: &JournalEvent) -> (ObjKey, u32) {
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

/// The journal projected per ordered object: each object's committing
/// threads in journal order, the queues replay enforces. The spawn and
/// output streams are global and always present, empty when the run
/// spawned or printed nothing. Inputs (fed by per-thread sequence number)
/// and forced releases (pinned by the holder's instruction count) have no
/// per-object order and stay out.
pub(crate) fn object_orders(journal: &[JournalEvent]) -> BTreeMap<ObjKey, Vec<u32>> {
    let mut orders = BTreeMap::from([(ObjKey::Spawn, Vec::new()), (ObjKey::Output, Vec::new())]);
    for ev in journal {
        if !matches!(ev, JournalEvent::Input { .. } | JournalEvent::Forced { .. }) {
            let (key, thread) = obj_thread(ev);
            orders.entry(key).or_default().push(thread);
        }
    }
    orders
}

impl ReplayLogs {
    /// Number of weak-lock log entries for one granularity class — the
    /// paper's "instr. log" / "basic blk. log" / "loop log" / "func. log"
    /// columns of Table 2.
    pub fn weak_entries(&self, g: LockGranularity) -> u64 {
        let in_class = |e: &&JournalEvent| {
            matches!(e, JournalEvent::Weak { lock, .. } if self.weak_gran.get(lock) == Some(&g))
        };
        self.journal.iter().filter(in_class).count() as u64
    }

    /// Total input words recorded.
    pub fn input_words(&self) -> u64 {
        self.inputs.values().map(|v| v.len() as u64).sum()
    }

    // ---- push API: one journal entry per ordered event ----

    /// Append a mutex acquisition.
    pub fn push_mutex(&mut self, addr: i64, thread: u32) {
        self.journal.push(JournalEvent::Mutex { thread, addr });
    }

    /// Append a condvar wakeup.
    pub fn push_cond(&mut self, addr: i64, thread: u32) {
        self.journal.push(JournalEvent::Cond { thread, addr });
    }

    /// Append a spawn.
    pub fn push_spawn(&mut self, thread: u32) {
        self.journal.push(JournalEvent::Spawn { thread });
    }

    /// Append an output commit.
    pub fn push_output(&mut self, thread: u32) {
        self.journal.push(JournalEvent::Output { thread });
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

    /// Append a weak-lock acquisition and note the lock's granularity.
    pub fn push_weak(&mut self, lock: WeakLockId, gran: LockGranularity, thread: u32) {
        self.journal.push(JournalEvent::Weak { thread, lock });
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
    }

    /// Record a checkpoint covering the first `events` journal entries.
    pub fn push_checkpoint(&mut self, events: u64, state_hash: u64) {
        self.checkpoints.push(Checkpoint { events, state_hash });
    }

    /// Number of v2 chunks this journal serializes to.
    pub fn chunk_count(&self) -> usize {
        self.journal.len().div_ceil(CHUNK_EVENTS)
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
    /// releases) to bytes: each object's stream from [`object_orders`],
    /// then the forced releases in commit order. Thread ids are varints
    /// (ids ≥ 256 used to be truncated to one byte here and silently
    /// alias).
    pub fn encode_order_log(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (key, threads) in &object_orders(&self.journal) {
            match *key {
                ObjKey::Mutex(addr) | ObjKey::Cond(addr) => push_varint(&mut out, zigzag(addr)),
                ObjKey::Weak(lock) => push_varint(&mut out, lock as u64),
                _ => {}
            }
            push_threads(&mut out, threads);
        }
        for ev in &self.journal {
            if let JournalEvent::Forced {
                thread,
                icount,
                parked,
                lock,
            } = *ev
            {
                push_varint(&mut out, thread as u64);
                push_varint(&mut out, icount);
                out.push(parked as u8);
                push_varint(&mut out, lock.0 as u64);
            }
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
        let mut header = Vec::new();
        let mut flags = 0u8;
        if has_journal {
            flags |= FLAG_JOURNAL;
        }
        if !self.checkpoints.is_empty() {
            flags |= FLAG_CHECKPOINTS;
        }
        header.push(flags);
        encode_inputs(&mut header, &self.inputs);
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
        let mut out = FORMAT.start();
        // The one exception to the frame layout: the v2 header carries its
        // checksum after the body instead of before it.
        push_varint(&mut out, header.len() as u64);
        out.extend_from_slice(&header);
        out.extend_from_slice(&fnv32(&header).to_le_bytes());
        if let Some((obj_idx, combo_idx, n_combos)) = tables {
            let multi = self.journal.len() > CHUNK_EVENTS;
            for chunk in self.journal.chunks(CHUNK_EVENTS) {
                push_frame(
                    &mut out,
                    &encode_chunk(chunk, multi, n_combos, &obj_idx, &combo_idx),
                );
            }
        }
        out
    }

    /// Parse a buffer produced by [`ReplayLogs::to_bytes`].
    ///
    /// # Errors
    ///
    /// Describes the first structural problem (bad magic, unsupported
    /// version, truncation, checksum mismatch), starting with `log` and
    /// the section: `log header: ...`, `log chunk 2: ...`.
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayLogs, String> {
        let Opened {
            mut logs,
            tables,
            n_events,
            n_chunks,
            mut r,
        } = open(bytes)?;
        if let Some((objs, combos)) = &tables {
            walk_chunks(&mut r, n_chunks, true, |i, _, body| {
                let n_in = chunk_events(n_events, n_chunks, i);
                decode_chunk(i, body, n_in, n_chunks > 1, combos, objs, &mut logs.journal)
            })?;
        }
        FORMAT.finish(&r)?;
        Ok(logs)
    }

    /// Byte ranges `(start, end)` of each chunk *body* inside a v2 buffer
    /// (the 4-byte frame checksum sits immediately before `start`), for
    /// corruption tests to aim at; chunk checksums are not verified.
    ///
    /// # Errors
    ///
    /// Fails on container/header damage or truncated frames.
    pub fn chunk_spans(bytes: &[u8]) -> Result<Vec<(usize, usize)>, String> {
        let Opened {
            n_chunks, mut r, ..
        } = open(bytes)?;
        let mut spans = Vec::with_capacity(n_chunks);
        walk_chunks(&mut r, n_chunks, false, |_, start, body| {
            spans.push((start, start + body.len()));
            Ok(())
        })?;
        Ok(spans)
    }
}

/// A log with its envelope and header decoded: the partially-filled logs
/// (inputs, granularities, counters, checkpoints), the journal tables, and
/// a reader at the first chunk frame.
struct Opened<'a> {
    logs: ReplayLogs,
    tables: Option<JournalTables>,
    n_events: u64,
    n_chunks: usize,
    r: Reader<'a>,
}

/// The prologue every decode shares: envelope, header, chunk count.
fn open(bytes: &[u8]) -> Result<Opened<'_>, String> {
    let mut r = FORMAT.open(bytes)?;
    let (logs, tables, n_events) = read_header(&mut r).map_err(|e| format!("log header: {e}"))?;
    let n_chunks = match tables {
        Some(_) => chunk_count_for(&r, n_events)?,
        None => 0,
    };
    Ok(Opened {
        logs,
        tables,
        n_events,
        n_chunks,
        r,
    })
}

/// The one walk over a log's chunk frames: checksum-verified when
/// `verify`, else delimited by their lengths alone. Calls
/// `f(i, body_start, body)` for every chunk.
fn walk_chunks<'a>(
    r: &mut Reader<'a>,
    n_chunks: usize,
    verify: bool,
    mut f: impl FnMut(usize, usize, &'a [u8]) -> Result<(), String>,
) -> Result<(), String> {
    for i in 0..n_chunks {
        let body = if verify {
            read_frame(r)
        } else {
            r.skip_frame()
        }
        .map_err(|e| format!("log chunk {i}: {e}"))?;
        f(i, r.pos() - body.len(), body)?;
    }
    Ok(())
}

/// Number of chunks implied by the header's event count, with a cheap
/// plausibility bound: every frame costs at least five bytes (length +
/// checksum), so a count the remaining buffer cannot possibly hold is
/// rejected before any decoding work.
fn chunk_count_for(r: &Reader, n_events: u64) -> Result<usize, String> {
    let n_chunks = n_events.div_ceil(CHUNK_EVENTS as u64);
    let remaining = r.remaining();
    if n_chunks > (remaining / 5 + 1) as u64 {
        return Err(format!(
            "log: chunk count {n_chunks} exceeds the remaining {remaining} bytes"
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

/// Read the v2 header — `varint(len) ++ body ++ fnv32(body)`, the one
/// frame whose checksum trails its body — and parse the body, which must
/// be consumed exactly. Returns the partially-filled logs, the journal
/// tables, and the event count.
fn read_header(r: &mut Reader) -> Result<(ReplayLogs, Option<JournalTables>, u64), String> {
    let len = r.varint()?;
    let header = r.take(usize::try_from(len).map_err(|_| "truncated")?)?;
    if fnv32(header) != r.u32_raw()? {
        return Err("checksum mismatch".into());
    }
    let mut h = Reader::new(header);
    let out = parse_header_body(&mut h)?;
    h.finish()?;
    Ok(out)
}

fn parse_header_body(h: &mut Reader) -> Result<(ReplayLogs, Option<JournalTables>, u64), String> {
    let flags = h.u8()?;
    if flags & !(FLAG_JOURNAL | FLAG_CHECKPOINTS) != 0 {
        return Err(format!("unknown flags {flags:#x}"));
    }
    let mut logs = ReplayLogs::default();
    decode_inputs(h, &mut logs)?;
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
            logs.checkpoints.push(Checkpoint {
                events,
                state_hash: h.u64_raw()?,
            });
        }
    }
    let mut tables = None;
    let mut n_events = 0u64;
    if flags & FLAG_JOURNAL != 0 {
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
    Ok((logs, tables, n_events))
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

/// Append a thread-id list: its length, then each id.
fn push_threads(out: &mut Vec<u8>, threads: &[u32]) {
    push_varint(out, threads.len() as u64);
    for &t in threads {
        push_varint(out, t as u64);
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
    let bitmap = h.u8()?;
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
                (h.varint_u32()?, h.varint_u32()?)
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
                        h.varint_u32()?,
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

fn decode_chunk(
    i: usize,
    body: &[u8],
    n_in: usize,
    multi: bool,
    combos: &[(u32, u32)],
    objs: &[ObjKey],
    out: &mut Vec<JournalEvent>,
) -> Result<(), String> {
    let chunk_err = |e: String| format!("log chunk {i}: {e}");
    let mut b = Reader::new(body);
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
            return Err(format!("log chunk {i}: bad local dictionary size {n_local}"));
        }
        let mut locals = Vec::with_capacity(n_local);
        let mut prev = 0u32;
        for j in 0..n_local {
            let d = b.varint().map_err(chunk_err)?;
            let g = decode_u32_delta(j == 0, prev, d, "combo index").map_err(chunk_err)?;
            if (g as usize) >= combos.len() {
                return Err(format!("log chunk {i}: combo index {g} out of range"));
            }
            prev = g;
            locals.push(g);
        }
        let width = bit_width(n_local as u32 - 1);
        let packed = unpack_bits(&mut b, n_in, width).map_err(chunk_err)?;
        let mut idxs = Vec::with_capacity(n_in);
        for idx in packed {
            if idx as usize >= n_local {
                return Err(format!("log chunk {i}: packed index {idx} out of range"));
            }
            idxs.push(locals[idx as usize]);
        }
        idxs
    };
    let mut prev_ic: BTreeMap<u32, u64> = BTreeMap::new();
    for idx in idxs {
        if idx as usize >= combos.len() {
            return Err(format!("log chunk {i}: packed index {idx} out of range"));
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
                let parked = b.u8().map_err(chunk_err)? != 0;
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
    b.finish().map_err(chunk_err)
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
        for t in [0, 1, 0] {
            logs.push_weak(WeakLockId(0), LockGranularity::Loop, t);
        }
        logs.push_weak(WeakLockId(1), LockGranularity::Function, 1);
        assert_eq!(logs.weak_entries(LockGranularity::Loop), 3);
        assert_eq!(logs.weak_entries(LockGranularity::Function), 1);
        assert_eq!(logs.weak_entries(LockGranularity::BasicBlock), 0);
    }

    /// A hand-built log with no journal: every input shape (threads,
    /// non-contiguous sequence numbers, byte-mode and varint payloads, an
    /// empty payload), counters and a checkpoint.
    fn journal_less_logs() -> ReplayLogs {
        let mut logs = ReplayLogs::default();
        logs.inputs.insert((0, 0), vec![5, -3, 1 << 40]);
        logs.inputs.insert((0, 1), vec![7, 255, 0]);
        logs.inputs.insert((2, 7), vec![]);
        logs.sync_log_entries = 17;
        logs.input_log_entries = 3;
        logs.push_checkpoint(0, 0x1234_5678_9abc_def0);
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

    /// A log container around a hand-built header (behind a valid
    /// checksum) and raw frame bytes.
    fn container(header: &[u8], frames: &[u8]) -> Vec<u8> {
        let mut out = FORMAT.start();
        push_varint(&mut out, header.len() as u64);
        out.extend_from_slice(header);
        out.extend_from_slice(&fnv32(header).to_le_bytes());
        out.extend_from_slice(frames);
        out
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
        let spawn_by = |t| {
            let mut logs = ReplayLogs::default();
            logs.push_spawn(t);
            logs
        };
        let (a, b) = (spawn_by(300), spawn_by(44));
        assert_ne!(a.encode_order_log(), b.encode_order_log());
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn explicit_flag_is_an_unknown_flag() {
        // A journal-less header, well formed but for its flags byte: 0x2
        // marked the deleted explicit order sections.
        let header = |flags: u8| {
            let mut h = vec![flags];
            push_varint(&mut h, 0); // no input threads
            push_varint(&mut h, 0); // sync_log_entries
            push_varint(&mut h, 0); // input_log_entries
            h
        };
        assert_eq!(
            ReplayLogs::from_bytes(&container(&header(0), &[])),
            Ok(ReplayLogs::default())
        );
        let err = ReplayLogs::from_bytes(&container(&header(2), &[])).unwrap_err();
        assert_eq!(err, "log header: unknown flags 0x2");
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
        let frame = |body: &[u8]| {
            let mut f = Vec::new();
            push_frame(&mut f, body);
            f
        };
        let header = base_header(1);
        // Absurd frame length: must fail on the missing bytes, not
        // allocate for them.
        let mut f = Vec::new();
        push_varint(&mut f, u64::MAX);
        f.extend_from_slice(&[0; 4]);
        let err = ReplayLogs::from_bytes(&container(&header, &f)).unwrap_err();
        assert_eq!(err, "log chunk 0: truncated");
        // Absurd event count in the header: the implied chunk count can't
        // possibly fit the buffer and is rejected before any decoding.
        let huge = base_header(u64::MAX);
        let err = ReplayLogs::from_bytes(&container(&huge, &[])).unwrap_err();
        assert!(err.starts_with("log: chunk count"), "{err}");
        // Multi-chunk local alphabet larger than the combo table.
        let multi = base_header(CHUNK_EVENTS as u64 + 1);
        let mut body = Vec::new();
        push_varint(&mut body, 5); // local dictionary of 5 over 1 combo
        let err = ReplayLogs::from_bytes(&container(&multi, &frame(&body))).unwrap_err();
        assert!(err.starts_with("log chunk 0: bad local dictionary"), "{err}");
        // Trailing bytes inside an otherwise valid frame.
        let err = ReplayLogs::from_bytes(&container(&header, &frame(&[0]))).unwrap_err();
        assert_eq!(err, "log chunk 0: 1 trailing byte(s)");
        // A mask granting no thread at all.
        let mut empty_mask = base_header(1);
        let at = empty_mask.len() - 2; // mask varint sits before n_events
        empty_mask[at] = 0;
        let err = ReplayLogs::from_bytes(&container(&empty_mask, &frame(&[]))).unwrap_err();
        assert_eq!(err, "log header: object with no combos");
        // Sanity: the well-formed frame for this header does decode. One
        // combo packs at width zero, so the body is empty.
        let logs = ReplayLogs::from_bytes(&container(&header, &frame(&[]))).expect("valid");
        assert_eq!(logs.journal, vec![JournalEvent::Mutex { thread: 2, addr: 3 }]);
    }

    #[test]
    fn hostile_section_lengths_error_not_panic() {
        // Hand-built headers behind a valid checksum, so the section
        // parser itself meets the hostile lengths.
        // Absurd input-thread count: must fail on the missing records, not
        // try to allocate for them.
        let mut h = vec![0];
        push_varint(&mut h, u64::MAX);
        assert!(ReplayLogs::from_bytes(&container(&h, &[])).is_err());
        // Absurd payload length inside one otherwise-valid input record.
        let mut h = vec![0];
        push_varint(&mut h, 1); // one input thread…
        push_varint(&mut h, 0); // …thread 0
        push_varint(&mut h, 1 << 1); // one contiguous record
        push_varint(&mut h, u64::MAX - 1); // varint payload length
        assert!(ReplayLogs::from_bytes(&container(&h, &[])).is_err());
        // Unknown weak-lock granularity code in the journal dictionary's
        // exception list.
        let mut h = vec![FLAG_JOURNAL];
        push_varint(&mut h, 0); // no input threads
        push_varint(&mut h, 0); // sync_log_entries
        push_varint(&mut h, 0); // input_log_entries
        h.push(DICT_MUTEX); // dictionary bitmap, mask-mode combos
        push_varint(&mut h, 1); // one mutex…
        push_varint(&mut h, zigzag(3)); // …at addr 3
        push_varint(&mut h, 1); // one granularity exception…
        push_varint(&mut h, 0); // …for lock 0
        push_varint(&mut h, 9); // bogus granularity
        let err = ReplayLogs::from_bytes(&container(&h, &[])).unwrap_err();
        assert_eq!(err, "log header: bad granularity code 9");
        // A varint that never terminates within 64 bits.
        let mut b = b"CHIM".to_vec();
        b.extend([0xff; 10]);
        let err = ReplayLogs::from_bytes(&b).unwrap_err();
        assert_eq!(err, "log version: varint overflow");
    }

    #[test]
    fn retired_v1_is_an_unsupported_version() {
        let mut v1 = ReplayLogs::default().to_bytes();
        v1[4] = 1;
        let err = ReplayLogs::from_bytes(&v1).unwrap_err();
        assert_eq!(err, "log version: unsupported version 1");
    }

    mod proptests {
        use super::*;
        use chimera_testkit::prop::{self, Gen};
        use chimera_testkit::{corruption_suite, prop_assert, Codec};

        const CODEC: Codec<ReplayLogs> = Codec {
            name: "log",
            decode: ReplayLogs::from_bytes,
            encode: ReplayLogs::to_bytes,
        };

        /// Journal-less logs: inputs, counters and checkpoints only.
        fn arb_journal_less_logs() -> Gen<ReplayLogs> {
            Gen::new(|s| {
                let n_inputs = s.int(0usize..6);
                let inputs = (0..n_inputs)
                    .map(|_| {
                        let key = (s.int(0u32..8), s.int(0u64..64));
                        let len = s.int(0usize..16);
                        (key, (0..len).map(|_| s.raw_u64() as i64).collect())
                    })
                    .collect();
                let n_cp = s.int(0usize..3);
                let checkpoints = (0..n_cp)
                    .map(|_| Checkpoint {
                        events: s.raw_u64(),
                        state_hash: s.raw_u64(),
                    })
                    .collect();
                ReplayLogs {
                    inputs,
                    sync_log_entries: s.raw_u64(),
                    input_log_entries: s.raw_u64(),
                    checkpoints,
                    ..ReplayLogs::default()
                }
            })
        }

        /// Push-built logs, which take the dictionary/chunk path. Thread
        /// ids range past 255 to keep the truncation regression covered.
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
                                for thread in [0, t, 1] {
                                    cur.push_mutex(1_000_000 + step as i64, thread);
                                }
                            }
                            2 => {
                                cur.push_weak(WeakLockId(100_000 + step), LockGranularity::Loop, t);
                            }
                            3 => cur.push_forced(t, 7, true, WeakLockId(3)),
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

        /// The shared hostile-input suite over journal-less logs.
        #[test]
        fn journal_less_logs_pass_the_corruption_suite() {
            corruption_suite(&CODEC, &journal_less_logs(), arb_journal_less_logs());
        }

        /// The same suite over push-built journal logs, whose pristine
        /// value spans three chunks with two checkpoints.
        #[test]
        fn journal_logs_pass_the_corruption_suite() {
            let logs = journal_logs();
            assert_eq!((logs.chunk_count(), logs.checkpoints.len()), (3, 2));
            corruption_suite(&CODEC, &logs, arb_journal_logs());
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
