//! The online FastTrack-style detector: shadow cells over the VM's flat
//! address space, per-thread vector clocks, and the [`Supervisor`] that
//! folds the machine's event stream into them.

use crate::vc::{Epoch, VectorClock};
use crate::{DrfReport, RaceKind, RaceWitness};
use chimera_minic::ir::{AccessId, Program};
use chimera_runtime::sync::AddrTable;
use chimera_runtime::{Event, EventKind, EventMask, Memory, Supervisor, SyncKind};
use std::collections::{BTreeMap, BTreeSet};

/// Read history of one variable: a single epoch in the common
/// totally-ordered case, promoted to a full vector clock only when two
/// concurrent reads are observed (FastTrack's key size optimization).
#[derive(Debug, Clone)]
enum ReadState {
    /// Last read, when all reads so far are totally ordered.
    Excl(Epoch, AccessId),
    /// Concurrent readers: per-thread read clocks plus the access site of
    /// each thread's last read (for witness provenance).
    Shared(Box<SharedRead>),
}

#[derive(Debug, Clone, Default)]
struct SharedRead {
    vc: VectorClock,
    /// `site[t]` is meaningful iff `vc[t] > 0`.
    site: Vec<AccessId>,
}

impl SharedRead {
    fn set(&mut self, t: u32, clock: u32, access: AccessId) {
        self.vc.set(t, clock);
        let i = t as usize;
        if self.site.len() <= i {
            self.site.resize(i + 1, AccessId(0));
        }
        self.site[i] = access;
    }
}

/// Shadow state of one memory cell. The default is a cell no access
/// touched yet.
#[derive(Debug, Clone)]
struct VarState {
    w: Epoch,
    w_site: AccessId,
    r: ReadState,
}

impl Default for VarState {
    fn default() -> VarState {
        VarState {
            w: Epoch::NONE,
            w_site: AccessId(0),
            r: ReadState::Excl(Epoch::NONE, AccessId(0)),
        }
    }
}

/// Cells per shadow page, as a power of two.
const PAGE_BITS: u32 = 8;

/// Shadow cells indexed by address: a page table whose pages are
/// allocated when first touched. The VM's address space is flat and
/// bump-allocated and no address is ever reused, so one access is one
/// lookup, memory grows with the pages touched, and stale shadow state
/// can never alias a new allocation into a false race.
#[derive(Debug, Default)]
struct Shadow {
    pages: Vec<Option<Box<[VarState]>>>,
}

impl Shadow {
    /// The shadow cell of `addr`: the default state until first touched.
    #[inline]
    fn cell(&mut self, addr: i64) -> &mut VarState {
        // The machine emits an access only after it committed, and a
        // committed access has a positive address.
        let a = usize::try_from(addr).expect("accessed addresses are positive");
        let (page, slot) = (a >> PAGE_BITS, a & ((1 << PAGE_BITS) - 1));
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let cells = self.pages[page]
            .get_or_insert_with(|| vec![VarState::default(); 1 << PAGE_BITS].into_boxed_slice());
        &mut cells[slot]
    }
}

/// The races found so far.
#[derive(Debug, Default)]
struct Found {
    /// Deduplicated racy pairs (normalized `a ≤ b`).
    pairs: BTreeSet<(AccessId, AccessId)>,
    /// First dynamic witness per pair, in detection order.
    witnesses: Vec<RaceWitness>,
    /// Total dynamic race observations (every racy access re-counts).
    races: u64,
}

impl Found {
    fn report(&mut self, w: RaceWitness) {
        self.races += 1;
        if self.pairs.insert(w.pair()) {
            self.witnesses.push(w);
        }
    }
}

/// Vector-clock state of one barrier.
///
/// Arrivals join into `gather`; when the epoch releases (the machine's
/// single `Sync { kind: Barrier }` event) `gather` becomes `released`, and
/// every thread resuming past the barrier joins `released`. At most one
/// released epoch is ever pending: no thread can arrive at epoch *n+1*
/// before every thread has resumed from epoch *n*.
#[derive(Debug, Clone, Default)]
struct BarrierVc {
    gather: VectorClock,
    released: VectorClock,
}

/// The online happens-before race detector. Attach it to an execution
/// with [`chimera_runtime::execute_supervised`] (or use [`crate::detect`]),
/// then call [`RaceDetector::into_report`].
///
/// Shadow cells live in a page table over the whole address space. The
/// sync-object tables mirror the VM's own: a dense `Vec` below the
/// static-global frontier (where sync objects live) spilling to a
/// `BTreeMap` above it — `AddrTable` from `chimera_runtime::sync`.
#[derive(Debug)]
pub struct RaceDetector {
    /// Per-thread vector clocks, indexed by `ThreadId`.
    vcs: Vec<VectorClock>,
    /// Shadow cell per touched memory address.
    shadow: Shadow,
    /// Lock vector clock per program mutex (keyed by cell address).
    mutexes: AddrTable<VectorClock>,
    /// Condition-variable clocks (signaler releases, waiter acquires).
    conds: AddrTable<VectorClock>,
    /// Barrier clocks.
    barriers: AddrTable<BarrierVc>,
    /// Weak-lock clocks, dense by `WeakLockId`. Ranged (loop-lock)
    /// acquisitions are treated at whole-lock granularity — conservative:
    /// it only *adds* happens-before edges.
    weak: Vec<VectorClock>,
    /// Final clocks of exited threads, consumed by join edges.
    exited: BTreeMap<u32, VectorClock>,
    found: Found,
}

impl RaceDetector {
    /// A detector sized for `program`: dense sync-object tables below the
    /// static-global frontier, dense weak-lock clocks below the
    /// instrumenter's lock count.
    pub fn new(program: &Program) -> RaceDetector {
        let frontier = Memory::new(program).frontier();
        let mut vcs = vec![VectorClock::new()];
        vcs[0].set(0, 1); // main's initial epoch is 1@0
        RaceDetector {
            vcs,
            shadow: Shadow::default(),
            mutexes: AddrTable::with_dense_limit(frontier),
            conds: AddrTable::with_dense_limit(frontier),
            barriers: AddrTable::with_dense_limit(frontier),
            weak: vec![VectorClock::new(); program.weak_locks as usize],
            exited: BTreeMap::new(),
            found: Found::default(),
        }
    }

    /// Finish and summarize.
    pub fn into_report(self) -> DrfReport {
        DrfReport {
            pairs: self.found.pairs.into_iter().collect(),
            witnesses: self.found.witnesses,
            races: self.found.races,
        }
    }

    fn ensure_thread(&mut self, t: u32) {
        let i = t as usize;
        if self.vcs.len() <= i {
            self.vcs.resize(i + 1, VectorClock::new());
        }
        if self.vcs[i].get(t) == 0 {
            self.vcs[i].set(t, 1);
        }
    }

    /// Advance `t`'s scalar clock (after every release operation, so
    /// distinct critical sections get distinct epochs).
    fn inc(&mut self, t: u32) {
        let c = self.vcs[t as usize].get(t);
        self.vcs[t as usize].set(t, c + 1);
    }

    fn read(&mut self, t: u32, addr: i64, access: AccessId, time: u64) {
        self.ensure_thread(t);
        let vt = &self.vcs[t as usize];
        let et = Epoch::new(t, vt.get(t));
        let vs = self.shadow.cell(addr);
        // Same-epoch fast path: repeated read with no intervening release.
        if matches!(vs.r, ReadState::Excl(e, _) if e == et) {
            return;
        }
        // Write-read race: the last write is not ordered before this read.
        if !vt.covers(vs.w) {
            self.found.report(RaceWitness {
                prior: vs.w_site,
                current: access,
                kind: RaceKind::WriteRead,
                addr,
                threads: (vs.w.tid(), t),
                time,
            });
        }
        match &mut vs.r {
            ReadState::Excl(e, site) => {
                let (pe, ps) = (*e, *site);
                if vt.covers(pe) {
                    // All reads so far are ordered before us: stay exclusive.
                    *e = et;
                    *site = access;
                } else {
                    // A concurrent read exists: promote to a read vector.
                    let mut sr = SharedRead::default();
                    sr.set(pe.tid(), pe.clock(), ps);
                    sr.set(t, et.clock(), access);
                    vs.r = ReadState::Shared(Box::new(sr));
                }
            }
            ReadState::Shared(sr) => {
                sr.set(t, et.clock(), access);
            }
        }
    }

    fn write(&mut self, t: u32, addr: i64, access: AccessId, time: u64) {
        self.ensure_thread(t);
        let vt = &self.vcs[t as usize];
        let et = Epoch::new(t, vt.get(t));
        let vs = self.shadow.cell(addr);
        // Same-epoch fast path: repeated write with no intervening release.
        if vs.w == et {
            return;
        }
        let mut race = |prior, kind, u| {
            self.found.report(RaceWitness {
                prior,
                current: access,
                kind,
                addr,
                threads: (u, t),
                time,
            })
        };
        // Write-write race.
        if !vt.covers(vs.w) {
            race(vs.w_site, RaceKind::WriteWrite, vs.w.tid());
        }
        // Read-write races against every unordered prior reader.
        match &vs.r {
            ReadState::Excl(e, site) => {
                if !e.is_none() && !vt.covers(*e) {
                    race(*site, RaceKind::ReadWrite, e.tid());
                }
            }
            ReadState::Shared(sr) => {
                for (u, cu) in sr.vc.iter() {
                    if cu > vt.get(u) {
                        race(sr.site[u as usize], RaceKind::ReadWrite, u);
                    }
                }
            }
        }
        vs.w = et;
        vs.w_site = access;
        // The write subsumes the (now ordered or already-reported) read
        // history; restart read tracking in the cheap exclusive form.
        vs.r = ReadState::Excl(Epoch::NONE, AccessId(0));
    }
}

impl Supervisor for RaceDetector {
    /// Everything that carries a happens-before edge, plus the access
    /// events themselves. Input/output/function events are irrelevant to
    /// the race relation and stay masked off.
    fn event_mask(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Load,
            EventKind::Store,
            EventKind::Sync,
            EventKind::SyncRelease,
            EventKind::BarrierResume,
            EventKind::WeakAcquire,
            EventKind::WeakRelease,
            EventKind::WeakForcedRelease,
            EventKind::Spawned,
            EventKind::Exited,
        ])
    }

    fn on_event(&mut self, ev: &Event) {
        match *ev {
            Event::Load {
                thread,
                addr,
                access,
                time,
            } => self.read(thread.0, addr, access, time),
            Event::Store {
                thread,
                addr,
                access,
                time,
            } => self.write(thread.0, addr, access, time),
            Event::Sync {
                thread, kind, addr, ..
            } => {
                let t = thread.0;
                self.ensure_thread(t);
                match kind {
                    SyncKind::Mutex => {
                        let src = self.mutexes.ensure(addr);
                        self.vcs[t as usize].join(src);
                    }
                    SyncKind::Cond => {
                        let src = self.conds.ensure(addr);
                        self.vcs[t as usize].join(src);
                    }
                    SyncKind::Join => {
                        // `addr` is the joined thread's id.
                        if let Some(vc) = self.exited.get(&(addr as u32)) {
                            self.vcs[t as usize].join(vc);
                        }
                    }
                    SyncKind::Barrier => {
                        // The epoch releases: the gathered arrivals become
                        // the clock every resume joins.
                        let b = self.barriers.ensure(addr);
                        b.released = std::mem::take(&mut b.gather);
                    }
                    // The spawn edge is carried by `Spawned`.
                    SyncKind::Spawn => {}
                }
            }
            Event::SyncRelease {
                thread, kind, addr, ..
            } => {
                let t = thread.0;
                self.ensure_thread(t);
                match kind {
                    SyncKind::Mutex => {
                        self.mutexes.ensure(addr).join(&self.vcs[t as usize]);
                    }
                    SyncKind::Cond => {
                        self.conds.ensure(addr).join(&self.vcs[t as usize]);
                    }
                    SyncKind::Barrier => {
                        let vt = &self.vcs[t as usize];
                        self.barriers.ensure(addr).gather.join(vt);
                    }
                    // The machine only emits mutex/cond/barrier releases.
                    SyncKind::Join | SyncKind::Spawn => {}
                }
                self.inc(t);
            }
            Event::BarrierResume { thread, addr, .. } => {
                let t = thread.0;
                self.ensure_thread(t);
                let src = &self.barriers.ensure(addr).released;
                self.vcs[t as usize].join(src);
            }
            Event::WeakAcquire { thread, lock, .. } => {
                let t = thread.0;
                self.ensure_thread(t);
                if let Some(vc) = self.weak.get(lock.index()) {
                    self.vcs[t as usize].join(vc);
                }
            }
            Event::WeakRelease { thread, lock, .. } => {
                self.weak_release(thread.0, lock.index());
            }
            Event::WeakForcedRelease { lock, holder, .. } => {
                self.weak_release(holder.0, lock.index());
            }
            Event::Spawned { parent, child, .. } => {
                self.ensure_thread(parent.0);
                self.ensure_thread(child.0);
                let mut vc = self.vcs[parent.0 as usize].clone();
                vc.set(child.0, 1);
                self.vcs[child.0 as usize] = vc;
                self.inc(parent.0);
            }
            Event::Exited { thread, .. } => {
                self.ensure_thread(thread.0);
                self.exited
                    .insert(thread.0, self.vcs[thread.0 as usize].clone());
            }
            _ => {}
        }
    }
}

impl RaceDetector {
    fn weak_release(&mut self, t: u32, lock: usize) {
        self.ensure_thread(t);
        if self.weak.len() <= lock {
            self.weak.resize(lock + 1, VectorClock::new());
        }
        self.weak[lock].join(&self.vcs[t as usize]);
        self.inc(t);
    }
}
