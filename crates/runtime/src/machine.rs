//! The virtual machine: a deterministic-when-seeded, virtual-time
//! multithreaded interpreter for MiniC IR.
//!
//! # Execution model
//!
//! Every thread has a local virtual clock. The scheduler always runs the
//! *ready thread with the smallest clock* (ties by thread id), which
//! simulates one core per thread — matching the paper's testbed, where 4–8
//! worker threads ran on an 8-core Xeon. Blocking (mutexes, barriers,
//! condvars, joins, weak-locks) transfers virtual time: a woken thread's
//! clock becomes `max(its clock, waker's clock)`, so serialization shows up
//! as makespan growth, i.e. lost parallelism — exactly the contention cost
//! Figure 7 of the paper decomposes.
//!
//! Scheduling nondeterminism comes from seeded cost jitter and I/O latency
//! (see [`crate::cost::Jitter`], [`crate::world::World`]): different seeds
//! order racing accesses differently, which is what makes record/replay
//! nontrivial.
//!
//! # Weak-locks
//!
//! [`Instr::WeakAcquire`]/[`Instr::WeakRelease`] get Chimera's semantics
//! (§2.3): single conflicting holder at a time, optional guarded address
//! ranges for loop-locks, and a timeout that forcibly preempts a holder
//! that is blocked while a waiter starves — preserving the single-holder
//! invariant that deterministic replay needs, without ever deadlocking the
//! program.

use crate::cost::{CostModel, Jitter};
use crate::event::{
    Event, EventKind, EventMask, NullSupervisor, OrderPoint, Supervisor, SyncKind, ThreadId,
};
use crate::flat::{flatten, static_costs, FlatFunc, FlatOp, FlatProgram};
use crate::memory::{MemTrap, Memory, RegionKind};
use crate::sched::SchedStrategy;
use crate::stats::ExecStats;
use crate::sync::{BlockReason, SyncTables, WeakHolder};
use crate::world::{IoModel, World};
use chimera_minic::ast::{BinOp, UnOp};
use chimera_minic::ir::{
    BlockId, Callee, FuncId, GlobalId, Instr, LocalId, LockGranularity, Operand, Program,
    Terminator, WeakLockId, MAX_CELLS,
};
use chimera_testkit::rng::Rng;
use std::sync::OnceLock;

/// Function-pointer values are encoded as `FUNC_PTR_BASE + FuncId`.
pub const FUNC_PTR_BASE: i64 = 1 << 40;

/// Everything configurable about one execution.
///
/// All-scalar and `Copy`: executions borrow the config they are given and
/// parallel trials share one instance instead of deep-cloning per run.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Seed for jitter and simulated input.
    pub seed: u64,
    /// Virtual-cycle costs.
    pub cost: CostModel,
    /// Timing jitter (scheduling nondeterminism).
    pub jitter: Jitter,
    /// I/O latency model.
    pub io: IoModel,
    /// Abort after this many retired instructions.
    pub max_steps: u64,
    /// Weak-lock starvation threshold in cycles before forced release.
    pub weak_timeout: u64,
    /// True while weak-lock timeouts may fire (recording); replay injects
    /// forced releases through the supervisor instead.
    pub timeout_enabled: bool,
    /// Charge log-write cost for program sync, weak-lock and input
    /// operations (recording).
    pub log: bool,
    /// Weak-lock acquires never block (used to isolate contention cost for
    /// the Fig. 7 breakdown).
    pub weak_always_succeed: bool,
    /// Keep the full event trace in the result.
    pub collect_trace: bool,
    /// Count basic-block executions (used by the profiler for loop-body
    /// size estimates, paper §5.3).
    pub count_blocks: bool,
    /// Scheduling strategy (the schedule-exploration seam, see
    /// [`crate::sched`]). The clock-ordered default keeps the flat VM's
    /// ready queue; adversarial strategies pick through their scheduler
    /// in both interpreter modes.
    pub sched: SchedStrategy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            seed: 0,
            cost: CostModel::default(),
            jitter: Jitter::default(),
            io: IoModel::default(),
            max_steps: 200_000_000,
            weak_timeout: 500_000,
            timeout_enabled: true,
            log: false,
            weak_always_succeed: false,
            collect_trace: false,
            count_blocks: false,
            sched: SchedStrategy::ClockJitter,
        }
    }
}

/// How an execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// All threads ran to completion; payload is `main`'s return value.
    Exited(i64),
    /// A thread trapped (memory error, division by zero, ...).
    Trap {
        /// Offending thread.
        thread: ThreadId,
        /// Description.
        message: String,
    },
    /// No thread can make progress.
    Deadlock {
        /// Blocked threads with their reasons.
        blocked: Vec<(ThreadId, String)>,
    },
    /// `max_steps` exceeded.
    StepLimit,
}

impl Outcome {
    /// True for a clean exit.
    pub fn is_exit(&self) -> bool {
        matches!(self, Outcome::Exited(_))
    }
}

/// The result of one execution.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// How it ended.
    pub outcome: Outcome,
    /// Program output as `(thread, value)` pairs in commit order.
    pub output: Vec<(ThreadId, i64)>,
    /// Hash of final live memory.
    pub state_hash: u64,
    /// Maximum thread clock at exit — total virtual runtime.
    pub makespan: u64,
    /// Counters.
    pub stats: ExecStats,
    /// Full event trace (empty unless `collect_trace`).
    pub trace: Vec<Event>,
    /// Per-function, per-block execution counts (empty unless
    /// `count_blocks`).
    pub block_counts: Vec<Vec<u64>>,
}

impl ExecResult {
    /// Output values of one thread, in order.
    pub fn output_of(&self, t: ThreadId) -> Vec<i64> {
        self.output
            .iter()
            .filter(|(th, _)| *th == t)
            .map(|(_, v)| *v)
            .collect()
    }
}

/// Which stepping implementation the machine runs.
///
/// Both modes produce byte-identical [`ExecResult`]s and traces (pinned by
/// the `vm_differential` suite); they differ only in speed. `Flat` is the
/// production path; `Reference` keeps the original block-structured,
/// clone-per-step loop alive as the guard-rail baseline and as the slow
/// side of the `interp_scaling` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterpMode {
    /// Pre-decoded hot loop: `(func, pc)` frames over flattened per-function
    /// code arrays, dense sync tables, scratch-buffer reuse, and a
    /// ready-queue scheduler (see DESIGN.md "VM internals").
    #[default]
    Flat,
    /// The original interpreter: per-step `Instr`/`Terminator` clones,
    /// spill-only (`BTreeMap`) sync tables, a full scheduler scan per step.
    Reference,
}

/// The process-wide default mode: `Flat`, unless `CHIMERA_VM_REFERENCE` is
/// set to a non-empty value other than `0` (read once, then cached).
fn default_mode() -> InterpMode {
    static MODE: OnceLock<InterpMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("CHIMERA_VM_REFERENCE") {
        Ok(v) if !v.is_empty() && v != "0" => InterpMode::Reference,
        _ => InterpMode::Flat,
    })
}

/// Run `program` under the null supervisor (plain execution).
pub fn execute(program: &Program, config: &ExecConfig) -> ExecResult {
    execute_supervised(program, config, &mut NullSupervisor)
}

/// Run `program` with a supervisor observing events and gating order
/// points — the entry point used by the recorder, the replayer, and the
/// profiler. Uses the flat interpreter unless overridden via the
/// `CHIMERA_VM_REFERENCE` environment variable.
pub fn execute_supervised(
    program: &Program,
    config: &ExecConfig,
    sup: &mut dyn Supervisor,
) -> ExecResult {
    execute_supervised_mode(program, config, sup, default_mode())
}

/// [`execute`] with an explicit interpreter mode.
pub fn execute_mode(program: &Program, config: &ExecConfig, mode: InterpMode) -> ExecResult {
    execute_supervised_mode(program, config, &mut NullSupervisor, mode)
}

/// [`execute_supervised`] with an explicit interpreter mode.
pub fn execute_supervised_mode(
    program: &Program,
    config: &ExecConfig,
    sup: &mut dyn Supervisor,
    mode: InterpMode,
) -> ExecResult {
    Machine::new(program, config, mode).run(sup)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeldWeak {
    lock: WeakLockId,
    range: Option<(i64, i64)>,
    gran: LockGranularity,
}

/// One activation. The position is a dense `(func, pc)` pair into the
/// flattened code (both interpreter modes share this representation; the
/// reference path maps `pc` back to `(block, ip)` via
/// [`crate::flat::FlatFunc::locate`]).
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    pc: u32,
    regs: Vec<i64>,
    frame_base: Option<i64>,
    ret_dst: Option<LocalId>,
    held_weak: Vec<HeldWeak>,
}

impl Frame {
    /// Operand read against this frame's registers. The flat hot loop
    /// resolves all of an op's operands through one borrow of the current
    /// frame rather than re-walking `threads[tid].frames.last()` per
    /// operand (see `Machine::val` for the per-call equivalent).
    #[inline]
    fn get(&self, op: Operand) -> i64 {
        match op {
            Operand::Const(c) => c,
            Operand::Local(l) => self.regs[l.index()],
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TState {
    Ready,
    Blocked(BlockReason),
    Done,
}

#[derive(Debug, Clone)]
struct Thr {
    id: ThreadId,
    clock: u64,
    icount: u64,
    frames: Vec<Frame>,
    state: TState,
    block_start: u64,
    barrier_pass: bool,
    /// 0 = not in cond protocol; 2 = woken, must reacquire mutex.
    cond_phase: u8,
    pending_reacquire: Vec<HeldWeak>,
    /// Locks handed to this thread by forced handoffs that its pending
    /// acquire(s) have not yet consumed. A set: several handoffs can land
    /// before the thread runs again.
    weak_granted: Vec<WeakLockId>,
    input_seq: u64,
}

/// Shift the front ready-queue key right to its sorted position after the
/// front thread's clock advanced (the queue is tiny — one entry per ready
/// thread — so a linear shift beats anything clever).
#[inline]
fn reposition_front(queue: &mut [(u64, u32)], k: (u64, u32)) {
    let mut i = 0;
    while i + 1 < queue.len() && queue[i + 1] < k {
        queue[i] = queue[i + 1];
        i += 1;
    }
    queue[i] = k;
}

/// Hot-op budget for one speculative segment (per thread, per round).
const SEG_CAP: u64 = 2048;

/// The first rounds' segment cap. A segment that reaches its cap doubles
/// it for the rounds that follow, up to [`SEG_CAP`], so a short run never
/// pays for trail room its rounds do not use.
const SEG_CAP_MIN: u64 = 64;

/// Backoff bounds for the round engine: a failed or trivial round puts
/// attempts on cooldown for `penalty` outer-loop iterations and doubles
/// the penalty up to the cap; a productive commit resets it. Keeps the
/// engine quiet through sync-heavy phases where rounds cannot pay off.
const SPEC_PENALTY_MIN: u64 = 16;
const SPEC_PENALTY_MAX: u64 = 65_536;

/// A round is productive when at least two threads committed in it and it
/// committed at least this many ops per participant. A smaller round is
/// a batch run with extra bookkeeping: it lets its commits stand and
/// puts the rounds on cooldown.
const SPEC_PRODUCTIVE_OPS: u64 = 32;

/// The memory seam of the hot-run executor ([`run_hot`]). Batch commit
/// passes [`Memory`] itself; a speculative segment passes [`DirectSeg`].
trait HotMem {
    fn global_base(&self, g: GlobalId) -> i64;
    fn load(&mut self, addr: i64) -> Result<i64, MemTrap>;
    fn store(&mut self, addr: i64, val: i64) -> Result<(), MemTrap>;
    /// Note the `i`-th retired constituent: its pc, and the old value of
    /// the register it wrote, if it wrote one. Only segments keep a trail.
    fn retire(&mut self, _i: u64, _pc: u32, _old: i64) {}
}

impl HotMem for Memory {
    #[inline(always)]
    fn global_base(&self, g: GlobalId) -> i64 {
        Memory::global_base(self, g)
    }

    #[inline(always)]
    fn load(&mut self, addr: i64) -> Result<i64, MemTrap> {
        Memory::load(self, addr)
    }

    #[inline(always)]
    fn store(&mut self, addr: i64, val: i64) -> Result<(), MemTrap> {
        Memory::store(self, addr, val)
    }
}

/// A round's cell stamps: `epoch << STAMP_EPOCH_SHIFT | kind | rank`,
/// the rank being the participant's index in the round. The kind says
/// whether one participant read the cell this round, several did, or one
/// wrote it. Cells are tracked one by one: the benched workloads
/// interleave per-thread data at cell distance (radix's 16-cell `rank`
/// slices, ocean's `residual[id]`), so anything coarser false-shares and
/// discards rounds that are race-free.
const STAMP_READ: u32 = 1 << RANK_BITS;
const STAMP_SHARED: u32 = 2 << RANK_BITS;
const STAMP_WRITTEN: u32 = 3 << RANK_BITS;
const STAMP_KIND: u32 = 3 << RANK_BITS;
const STAMP_EPOCH_SHIFT: u32 = RANK_BITS + 2;

/// Segment memory of a speculative round: writes go straight to
/// [`Memory`] with the old value pushed onto the round's undo log, every
/// access is stamped into the round's cell stamps, and retired
/// constituents go into the segment's part of the round's trail (pcs and
/// overwritten register values), which has room for every constituent a
/// segment can retire. An access that touches a cell another segment
/// wrote, or writes a cell another segment touched, flags the round as
/// conflicting.
struct DirectSeg<'a> {
    mem: &'a mut Memory,
    undo: &'a mut Vec<(i64, i64)>,
    pcs: &'a mut [u32],
    olds: &'a mut [i64],
    stamps: &'a mut [u32],
    /// `epoch << STAMP_EPOCH_SHIFT | rank`.
    me: u32,
    conflict: &'a mut bool,
}

impl DirectSeg<'_> {
    /// Stamp one access of this segment, flagging the round when the
    /// cell is one another participant wrote, or a write finds it touched
    /// by another.
    #[inline]
    fn stamp(&mut self, addr: i64, write: bool) {
        // A successful access proves `1 <= addr < frontier`, so the cell
        // is in range for the stamps sized at round start.
        let cell = &mut self.stamps[addr as usize];
        let s = *cell;
        let mine = self.me | if write { STAMP_WRITTEN } else { STAMP_READ };
        if s == self.me | STAMP_WRITTEN || s == mine {
            return;
        }
        if s >> STAMP_EPOCH_SHIFT != self.me >> STAMP_EPOCH_SHIFT {
            // First touch this round.
            *cell = mine;
            return;
        }
        match s & STAMP_KIND {
            // Only this participant read it: its write takes it over.
            STAMP_READ if s & !STAMP_KIND == self.me => *cell = mine,
            STAMP_READ | STAMP_SHARED if !write => {
                *cell = self.me >> STAMP_EPOCH_SHIFT << STAMP_EPOCH_SHIFT | STAMP_SHARED
            }
            _ => *self.conflict = true,
        }
    }
}

impl HotMem for DirectSeg<'_> {
    #[inline(always)]
    fn global_base(&self, g: GlobalId) -> i64 {
        self.mem.global_base(g)
    }

    #[inline]
    fn load(&mut self, addr: i64) -> Result<i64, MemTrap> {
        let v = self.mem.load(addr)?;
        self.stamp(addr, false);
        Ok(v)
    }

    #[inline]
    fn store(&mut self, addr: i64, val: i64) -> Result<(), MemTrap> {
        let old = self.mem.swap(addr, val)?;
        self.undo.push((addr, old));
        self.stamp(addr, true);
        Ok(())
    }

    #[inline(always)]
    fn retire(&mut self, i: u64, pc: u32, old: i64) {
        self.pcs[i as usize] = pc;
        self.olds[i as usize] = old;
    }
}

/// Why a hot run stopped.
#[derive(Debug, Default)]
enum HotEnd {
    /// Reached a [`FlatOp::Cold`] op, or an access under
    /// [`HotCtx::cold_access`].
    #[default]
    Cold,
    /// The thread's `(clock, id)` key reached the run's bound.
    Bound,
    /// Retired the round's segment cap (segments only).
    Cap,
    /// Step budget exhausted; the op at the limit has committed (batch
    /// commit only).
    Limit,
    /// A constituent trapped. A segment's trap discards its round, and
    /// the exact engine then reproduces it at its canonical point.
    Trap(String),
}

/// One hot run's accounting, returned by [`run_hot`].
#[derive(Debug, Default)]
struct HotRun {
    /// Ops retired (each counts one step and one instruction).
    ops: u64,
    /// Fused superinstructions dispatched.
    fused: u64,
    /// Loads + stores retired.
    mem_ops: u64,
    end: HotEnd,
}

/// Inputs of one hot run of thread `id`. A segment leaves `jitter`,
/// `blocks`, `cold_access` and `feed` inert, and its executor instance
/// never reads them.
struct HotCtx<'a> {
    func: &'a FlatFunc,
    fcosts: &'a [u64],
    id: u32,
    /// No op retires at or past this `(clock, id)` key. For batch commit
    /// it is the runner-up queue key; for a segment, the earliest key of a
    /// ready thread that must single-step next when the round began (its
    /// memory footprint is not validated against segments), or an end
    /// key of a segment that ran before it in the round. Both are capped
    /// by the weak-lock timeout deadline key `(deadline, 0)`, which is all
    /// that bounds a run a [`crate::sched::Scheduler`] picked.
    bound: Option<(u64, u32)>,
    /// Jitter source, when jitter is on.
    jitter: Option<(&'a mut Rng, Jitter)>,
    /// The running function's block counters, when counting.
    blocks: Option<&'a mut [u64]>,
    /// Ops the step limit (or the scheduler's horizon) still allows; for a
    /// segment, the segment cap.
    budget: u64,
    /// The scheduler classifies boundaries: a load or store then ends the
    /// run as cold (a fused one after its first half commits), and the
    /// machine single-steps it.
    cold_access: bool,
    /// The supervisor and its event mask, when it wants per-access
    /// `Load`/`Store` events: the run sends it each access it retires
    /// ([`feed_access`]).
    feed: Option<(&'a mut dyn Supervisor, EventMask)>,
}

/// The hot-run executor behind batch commit, the runs a scheduler picks
/// and the speculative segment rounds (DESIGN.md §13), and the only flat
/// code that retires a hot op: retire one thread's plain and fused
/// sidecar ops until a cold op, the `(clock, id)` bound, the step budget,
/// or — segments only — the segment cap. A fused pair commits twice, with
/// the budget and bound re-checked between its constituents (a mid-pair
/// stop rests at `pc + 1`, where the sidecar holds the plain second op);
/// the cap is only checked between whole ops.
///
/// `SEG` fixes the segment rules at compile time: no jitter draw, no
/// block counts, `budget` as the segment cap (checked between whole ops
/// only), and a trail entry per constituent. A segment's clock is its
/// jitter-free schedule; the round's merge draws the jitter, counts the
/// blocks and applies the step budget for the constituents it commits.
/// Always inlined: batch runs are often a single op, and an out-of-line
/// call per run measured slower (DESIGN.md §13).
#[inline(always)]
fn run_hot<M: HotMem, const SEG: bool>(
    ctx: HotCtx<'_>,
    frame: &mut Frame,
    clock: &mut u64,
    icount: &mut u64,
    mem: &mut M,
) -> HotRun {
    let HotCtx {
        func,
        fcosts,
        id,
        bound,
        mut jitter,
        mut blocks,
        budget,
        cold_access,
        mut feed,
    } = ctx;
    let mut run = HotRun::default();
    // The old value of the register the constituent in flight wrote (a
    // segment's trail keeps it).
    let mut old = 0;
    // One constituent's commit at `$pc`: identical arithmetic and RNG
    // draw order to `Machine::commit_ok`.
    macro_rules! commit {
        ($pc:expr) => {{
            let pc = $pc;
            let mut total = fcosts[pc];
            if SEG {
                mem.retire(run.ops, pc as u32, old);
            } else if let Some((rng, j)) = jitter.as_mut() {
                if rng.gen_range(0..j.period) == 0 {
                    total += rng.gen_range(0..=j.magnitude);
                }
            }
            run.ops += 1;
            *icount += 1;
            *clock += total;
        }};
    }
    // Register write; a segment's trail keeps the old value.
    macro_rules! set {
        ($reg:expr, $v:expr) => {{
            let v = $v;
            let r = $reg.index();
            if SEG {
                old = frame.regs[r];
            }
            frame.regs[r] = v;
        }};
    }
    // After every commit, between a fused op's constituents too.
    macro_rules! check {
        () => {{
            if !SEG && run.ops > budget {
                break HotEnd::Limit;
            }
            if bound.is_some_and(|b| (*clock, id) >= b) {
                break HotEnd::Bound;
            }
        }};
    }
    macro_rules! ok {
        ($r:expr) => {
            match $r {
                Ok(v) => v,
                Err(e) => break HotEnd::Trap(e.to_string()),
            }
        };
    }
    macro_rules! enter_block {
        ($b:expr) => {
            if !SEG {
                if let Some(counts) = blocks.as_deref_mut() {
                    counts[$b] += 1;
                }
            }
        };
    }
    // First constituent of the fused pair at `$pc`: write `$v` to `$reg`
    // and commit.
    macro_rules! first {
        ($pc:expr, $reg:expr, $v:expr) => {{
            set!($reg, $v);
            frame.pc += 1;
            commit!($pc);
            check!();
        }};
    }
    // An access the scheduler classifies ends the run before it
    // executes.
    macro_rules! access {
        () => {
            if !SEG && cold_access {
                break HotEnd::Cold;
            }
        };
    }
    // Send the access at code position `$pc` to cell `$a`, executed but
    // not yet committed, to a supervisor that wants it.
    macro_rules! feed {
        ($pc:expr, $a:expr) => {
            if !SEG {
                if let Some((sup, mask)) = feed.as_mut() {
                    feed_access(&mut **sup, *mask, func.code[$pc], ThreadId(id), $a, *clock);
                }
            }
        };
    }
    // Second constituent of the fused load or store at `$pc`, whose
    // first constituent computed address `$a`.
    macro_rules! then_load {
        ($pc:expr, $dst:expr, $a:expr) => {{
            access!();
            set!($dst, ok!(mem.load($a)));
            frame.pc += 1;
            run.mem_ops += 1;
            feed!($pc + 1, $a);
            commit!($pc + 1);
            run.fused += 1;
        }};
    }
    macro_rules! then_store {
        ($pc:expr, $a:expr, $val:expr) => {{
            access!();
            ok!(mem.store($a, frame.get($val)));
            frame.pc += 1;
            run.mem_ops += 1;
            feed!($pc + 1, $a);
            commit!($pc + 1);
            run.fused += 1;
        }};
    }
    const NO_SLOTS: &str = "frame has no slot area";

    // The bound is only checked after commits, so a thread whose
    // starting key already reaches it must not retire anything.
    run.end = if bound.is_some_and(|b| (*clock, id) >= b) {
        HotEnd::Bound
    } else {
        loop {
            let pc = frame.pc as usize;
            match func.fused[pc] {
                FlatOp::Copy { dst, src } => {
                    set!(dst, frame.get(src));
                    frame.pc += 1;
                    commit!(pc);
                }
                FlatOp::UnOp { dst, op, src } => {
                    set!(dst, eval_unop(op, frame.get(src)));
                    frame.pc += 1;
                    commit!(pc);
                }
                FlatOp::BinOp { dst, op, a, b } => {
                    set!(dst, ok!(eval_binop(op, frame.get(a), frame.get(b))));
                    frame.pc += 1;
                    commit!(pc);
                }
                FlatOp::AddrOfGlobal {
                    dst,
                    global,
                    offset,
                } => {
                    set!(dst, mem.global_base(global) + frame.get(offset));
                    frame.pc += 1;
                    commit!(pc);
                }
                FlatOp::AddrOfSlot {
                    dst,
                    slot_off,
                    offset,
                } => {
                    let base = ok!(frame.frame_base.ok_or(NO_SLOTS));
                    set!(dst, base + slot_off + frame.get(offset));
                    frame.pc += 1;
                    commit!(pc);
                }
                FlatOp::AddrOfFunc { dst, func } => {
                    set!(dst, FUNC_PTR_BASE + func.0 as i64);
                    frame.pc += 1;
                    commit!(pc);
                }
                FlatOp::PtrAdd { dst, base, offset } => {
                    set!(dst, frame.get(base).wrapping_add(frame.get(offset)));
                    frame.pc += 1;
                    commit!(pc);
                }
                FlatOp::Load { dst, addr, .. } => {
                    access!();
                    let a = frame.get(addr);
                    set!(dst, ok!(mem.load(a)));
                    frame.pc += 1;
                    run.mem_ops += 1;
                    feed!(pc, a);
                    commit!(pc);
                }
                FlatOp::Store { addr, val, .. } => {
                    access!();
                    let a = frame.get(addr);
                    ok!(mem.store(a, frame.get(val)));
                    frame.pc += 1;
                    run.mem_ops += 1;
                    feed!(pc, a);
                    commit!(pc);
                }
                FlatOp::Jump {
                    target_pc,
                    target_block,
                } => {
                    frame.pc = target_pc;
                    enter_block!(target_block.index());
                    commit!(pc);
                }
                FlatOp::Branch {
                    cond,
                    then_pc,
                    then_block,
                    else_pc,
                    else_block,
                } => {
                    let (t, b) = if frame.get(cond) != 0 {
                        (then_pc, then_block)
                    } else {
                        (else_pc, else_block)
                    };
                    frame.pc = t;
                    enter_block!(b.index());
                    commit!(pc);
                }
                FlatOp::FusedGlobalLoad {
                    addr_dst,
                    global,
                    offset,
                    dst,
                } => {
                    let a = mem.global_base(global) + frame.get(offset);
                    first!(pc, addr_dst, a);
                    then_load!(pc, dst, a);
                }
                FlatOp::FusedGlobalStore {
                    addr_dst,
                    global,
                    offset,
                    val,
                } => {
                    let a = mem.global_base(global) + frame.get(offset);
                    first!(pc, addr_dst, a);
                    then_store!(pc, a, val);
                }
                FlatOp::FusedSlotLoad {
                    addr_dst,
                    slot_off,
                    offset,
                    dst,
                } => {
                    let a = ok!(frame.frame_base.ok_or(NO_SLOTS)) + slot_off + frame.get(offset);
                    first!(pc, addr_dst, a);
                    then_load!(pc, dst, a);
                }
                FlatOp::FusedSlotStore {
                    addr_dst,
                    slot_off,
                    offset,
                    val,
                } => {
                    let a = ok!(frame.frame_base.ok_or(NO_SLOTS)) + slot_off + frame.get(offset);
                    first!(pc, addr_dst, a);
                    then_store!(pc, a, val);
                }
                FlatOp::FusedPtrLoad {
                    addr_dst,
                    base,
                    offset,
                    dst,
                } => {
                    let a = frame.get(base).wrapping_add(frame.get(offset));
                    first!(pc, addr_dst, a);
                    then_load!(pc, dst, a);
                }
                FlatOp::FusedPtrStore {
                    addr_dst,
                    base,
                    offset,
                    val,
                } => {
                    let a = frame.get(base).wrapping_add(frame.get(offset));
                    first!(pc, addr_dst, a);
                    then_store!(pc, a, val);
                }
                FlatOp::FusedCmpBranch {
                    dst,
                    op,
                    a,
                    b,
                    then_pc,
                    else_pc,
                } => {
                    let r = ok!(eval_binop(op, frame.get(a), frame.get(b)));
                    first!(pc, dst, r);
                    let t = if r != 0 { then_pc } else { else_pc };
                    frame.pc = t;
                    // Target blocks are dropped from the fused form;
                    // recover via the pc→block map.
                    enter_block!(func.pc_block[t as usize] as usize);
                    commit!(pc + 1);
                    run.fused += 1;
                }
                FlatOp::FusedOpAssign { tmp, op, a, b, dst } => {
                    let r = ok!(eval_binop(op, frame.get(a), frame.get(b)));
                    first!(pc, tmp, r);
                    set!(dst, r);
                    frame.pc += 1;
                    commit!(pc + 1);
                    run.fused += 1;
                }
                FlatOp::Cold => break HotEnd::Cold,
            }
            check!();
            if SEG && run.ops >= budget {
                break HotEnd::Cap;
            }
        }
    };
    run
}

/// Send the `Load` or `Store` at `op` to `sup`, if `mask` holds its
/// kind: the event `step_flat` sends for the access of `thread` to
/// `addr`, stamped with the thread's clock before the access commits.
/// Kept out of line, so runs without a feed keep [`run_hot`]'s loop as
/// small as it was.
#[inline(never)]
fn feed_access(
    sup: &mut dyn Supervisor,
    mask: EventMask,
    op: FlatOp,
    thread: ThreadId,
    addr: i64,
    time: u64,
) {
    let ev = match op {
        FlatOp::Load { access, .. } => Event::Load {
            thread,
            addr,
            access,
            time,
        },
        FlatOp::Store { access, .. } => Event::Store {
            thread,
            addr,
            access,
            time,
        },
        _ => unreachable!("only loads and stores are fed"),
    };
    if mask.contains(ev.kind()) {
        sup.on_event(&ev);
    }
}

/// A speculative segment: [`run_hot`] under the segment rules, against
/// [`DirectSeg`] memory.
///
/// Kept out of line: inlined into the scheduler's hot loop it slowed the
/// flat engine by ~5% (`interp_scaling` minima, radix/ocean/pfscan).
#[inline(never)]
fn run_segment(
    ctx: HotCtx<'_>,
    frame: &mut Frame,
    clock: &mut u64,
    icount: &mut u64,
    mem: &mut DirectSeg<'_>,
) -> HotRun {
    run_hot::<_, true>(ctx, frame, clock, icount, mem)
}

/// `UnOp` evaluation of the flat engine.
#[inline]
fn eval_unop(op: UnOp, v: i64) -> i64 {
    match op {
        UnOp::Neg => v.wrapping_neg(),
        UnOp::Not => (v == 0) as i64,
    }
}

/// `BinOp` evaluation of the flat engine; the error is the trap message
/// of a division or remainder by zero.
#[inline]
fn eval_binop(bop: BinOp, x: i64, y: i64) -> Result<i64, &'static str> {
    Ok(match bop {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err("division by zero");
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err("remainder by zero");
            }
            x.wrapping_rem(y)
        }
        BinOp::Shl => x.wrapping_shl((y & 63) as u32),
        BinOp::Shr => x.wrapping_shr((y & 63) as u32),
        BinOp::BitAnd => x & y,
        BinOp::BitOr => x | y,
        BinOp::BitXor => x ^ y,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::LogAnd => ((x != 0) && (y != 0)) as i64,
        BinOp::LogOr => ((x != 0) || (y != 0)) as i64,
    })
}

/// Per-execution state of the speculative segment-round engine: the cell
/// stamps, the round's trail, undo log and participants (buffers reused
/// from round to round; the merge keeps its state in the participants,
/// so it needs no buffer of its own), and the deterministic backoff that
/// keeps round attempts away from phases where they cannot pay off.
#[derive(Default)]
struct SpecState {
    /// Current round number (the high bits of every stamp it writes).
    epoch: u32,
    /// Per-cell access stamps, lazily sized to the address frontier.
    stamps: Vec<u32>,
    /// The round's trail, segment after segment: each retired
    /// constituent's pc and the old value of the register it wrote (when
    /// it wrote one; what it wrote and counts follows from the op at the
    /// pc). The first `used` entries are this round's.
    pcs: Vec<u32>,
    olds: Vec<i64>,
    used: usize,
    /// The segment cap, from [`SEG_CAP_MIN`] up to [`SEG_CAP`].
    cap: u64,
    /// The round's store log `(addr, old value)`, segment after segment.
    undo: Vec<(i64, i64)>,
    /// The round's participants, in thread-id order; a participant's rank
    /// is its index here.
    segs: Vec<Seg>,
    /// Outer-loop iterations to wait before the next round attempt.
    cooldown: u64,
    /// Cooldown charged by the next failed or trivial round (doubles up
    /// to a cap, resets on a productive commit).
    penalty: u64,
}

/// Bits of a cell stamp that hold the participant's rank: rounds take at
/// most `1 << RANK_BITS` threads.
const RANK_BITS: u32 = 8;

/// One participant of a round: its thread, its ranges of the round's
/// trail and undo log, its segment's counters, and how much of it the
/// merge committed.
struct Seg {
    tix: usize,
    fidx: usize,
    trail: (usize, usize),
    undo: (usize, usize),
    /// The segment's fused ops and memory ops.
    fused: u64,
    mem_ops: u64,
    /// Constituents the merge committed.
    kept: usize,
    /// The thread's clock after its committed constituents, jitter
    /// included (its pre-round clock until the merge runs).
    clock: u64,
    /// The thread's clock after its whole segment, with the jitter the
    /// merge has charged it so far.
    end: u64,
    /// The merge's current word (see [`commit_window`]): a bit per clock
    /// of the word at which the participant starts an op, and the trail
    /// index and clock of its first op past the word.
    word: (u64, usize, u64),
}

/// Is this sidecar op a fused pair?
fn is_fused(op: &FlatOp) -> bool {
    matches!(
        op,
        FlatOp::FusedGlobalLoad { .. }
            | FlatOp::FusedGlobalStore { .. }
            | FlatOp::FusedSlotLoad { .. }
            | FlatOp::FusedSlotStore { .. }
            | FlatOp::FusedPtrLoad { .. }
            | FlatOp::FusedPtrStore { .. }
            | FlatOp::FusedCmpBranch { .. }
            | FlatOp::FusedOpAssign { .. }
    )
}

/// The earlier of two optional bounds, `None` meaning unbounded.
fn earliest<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// An op of rank `r` is below a round's `stop` (see
/// [`Machine::merge_round`]) when it starts before this clock.
fn stop_clock(stop: (u64, usize), r: usize) -> u64 {
    stop.0 + u64::from(r < stop.1)
}

/// End a round's merge at its `stop`: each participant commits its
/// constituents that start below it, found by walking back from the end
/// of its segment. Returns how many committed.
fn walk_back(segs: &mut [Seg], pcs: &[u32], costs: &[Vec<u64>], stop: (u64, usize)) -> u64 {
    let mut ran = 0;
    for (r, g) in segs.iter_mut().enumerate() {
        let (fcosts, limit) = (&costs[g.fidx], stop_clock(stop, r));
        let first = g.trail.0 + g.kept;
        let (mut i, mut clock) = (g.trail.1, g.end);
        while i > first {
            let pre = clock - fcosts[pcs[i - 1] as usize];
            if pre < limit {
                break;
            }
            clock = pre;
            i -= 1;
        }
        ran += (i - first) as u64;
        g.kept = i - g.trail.0;
        g.clock = clock;
    }
    ran
}

/// Commit the next `want` ops of a merge window, in the order of their
/// jitter-free start keys `(clock, rank)`, and return the rank of the
/// participant that owns the last of them; or, when the round's `stop`
/// comes first, commit every op below it and return how many committed.
///
/// The window goes word by word. A word starts at the earliest next
/// start and covers at most 64 clocks: about twice the span of the ops
/// still wanted, by `rate` (the clocks a window spans per op it holds,
/// as a fraction). A narrower word leaves more windows a second word; a
/// wider one walks ops the next window walks again. Each participant
/// marks the clocks of the word at which it starts an op. A word holding
/// fewer ops than wanted commits whole. Otherwise a bisection over the
/// marks' popcounts finds the clock at which the last wanted op starts,
/// ties there go by rank, and each participant commits its marks below
/// that cut. When hot ops may cost nothing (`zero`), a participant can
/// start several ops at one clock; a word is then one clock wide and
/// counts each participant's starts in it.
fn commit_window(
    segs: &mut [Seg],
    pcs: &[u32],
    costs: &[Vec<u64>],
    stop: (u64, usize),
    want: u64,
    zero: bool,
    rate: (u64, u64),
) -> Result<usize, u64> {
    let mut need = want;
    loop {
        let next = segs
            .iter()
            .enumerate()
            .filter(|&(r, g)| g.trail.0 + g.kept < g.trail.1 && g.clock < stop_clock(stop, r));
        let Some(base) = next.map(|(_, g)| g.clock).min() else {
            return Err(want - need);
        };
        let width = if zero {
            1
        } else {
            (need.saturating_mul(rate.0) / rate.1.max(1)).saturating_mul(2).clamp(1, 64)
        };
        let mut total = 0;
        for (r, g) in segs.iter_mut().enumerate() {
            let (fcosts, limit) = (&costs[g.fidx], stop_clock(stop, r).min(base + width));
            let (mut i, mut clock, mut marks) = (g.trail.0 + g.kept, g.clock, 0u64);
            while i < g.trail.1 && clock < limit {
                marks |= 1 << (clock - base);
                clock += fcosts[pcs[i] as usize];
                i += 1;
            }
            total += (i - g.trail.0 - g.kept) as u64;
            g.word = (marks, i, clock);
        }
        if total < need {
            for g in segs.iter_mut() {
                (g.kept, g.clock) = (g.word.1 - g.trail.0, g.word.2);
            }
            need -= total;
            continue;
        }
        // Ops that start at the word's first `t` clocks.
        let under = |segs: &[Seg], t: u64| -> u64 {
            segs.iter()
                .map(|g| u64::from((g.word.0 & ((1 << t) - 1)).count_ones()))
                .sum()
        };
        let (mut t, mut hi) = (0, width);
        while hi - t > 1 {
            let mid = (t + hi) / 2;
            if under(segs, mid) < need {
                t = mid;
            } else {
                hi = mid;
            }
        }
        // The last `rest` wanted ops start at clock `base + t`, where they
        // go by rank; the last participant to take one owns the last.
        let (mut rest, mut owner) = (need - under(segs, t), 0);
        for (r, g) in segs.iter_mut().enumerate() {
            let (marks, i, clock) = g.word;
            let ahead = (i - g.trail.0 - g.kept) as u64;
            let below = u64::from((marks & ((1 << t) - 1)).count_ones());
            let at = match marks >> t & 1 {
                0 => 0,
                _ if zero => ahead.min(rest),
                _ => rest.min(1),
            };
            if at > 0 {
                owner = r;
            }
            rest -= at;
            let k = below + at;
            if k == ahead {
                (g.kept, g.clock) = (i - g.trail.0, clock);
            } else if k > 0 {
                g.kept += k as usize;
                if !zero {
                    // The participant's next mark past the committed ones.
                    let done = t + at;
                    g.clock = base + done + u64::from((marks >> done).trailing_zeros());
                }
            }
        }
        return Ok(owner);
    }
}

struct Machine<'p> {
    program: &'p Program,
    config: &'p ExecConfig,
    /// Hoisted copy of `config.cost` (it is `Copy` and read on every step).
    cost: CostModel,
    mode: InterpMode,
    /// The pre-decoded program (both modes position frames by flat pc).
    flat: FlatProgram,
    /// Per-function, per-pc static commit costs of the hot ops (flat mode
    /// only).
    costs: Vec<Vec<u64>>,
    mem: Memory,
    sync: SyncTables,
    threads: Vec<Thr>,
    world: World,
    rng: Rng,
    stats: ExecStats,
    output: Vec<(ThreadId, i64)>,
    trace: Vec<Event>,
    steps: u64,
    finished: Option<Outcome>,
    main_ret: i64,
    block_counts: Vec<Vec<u64>>,
    /// Event kinds the supervisor consumes (set once per run).
    mask: EventMask,
    /// Set whenever a wakeup/spawn may have changed which thread the
    /// scheduler would pick; sends the flat queue mode back to its scan.
    sched_dirty: bool,
    /// Scratch for call/spawn argument marshalling (reused across calls).
    argv: Vec<i64>,
    /// Scratch for `sys_write` payload staging (reused across syscalls).
    io_buf: Vec<i64>,
    /// Checkpoint every N replay-ordered events (0 = off; set once per run
    /// from [`Supervisor::checkpoint_interval`]).
    ckpt_interval: u64,
    /// Replay-ordered events committed so far (counted only when
    /// checkpointing is on).
    ordered_events: u64,
    /// Running FNV-1a digest of schedule-determined state (see
    /// [`Machine::fold_ordered`]).
    ckpt_digest: u64,
    /// Speculative segment-round engine state (flat queue mode only).
    spec: SpecState,
}

/// One FNV-1a fold of a 64-bit word (the checkpoint digest step).
#[inline]
fn fold64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

enum StepEnd {
    /// Instruction committed; charge this cost.
    Commit(u64),
    /// Thread blocked (no ip advance, no cost).
    Block(BlockReason),
    /// Fatal.
    Trap(String),
}

impl<'p> Machine<'p> {
    fn new(program: &'p Program, config: &'p ExecConfig, mode: InterpMode) -> Machine<'p> {
        let flat = flatten(program);
        let costs = match mode {
            InterpMode::Flat => flat
                .funcs
                .iter()
                .map(|f| static_costs(f, &config.cost))
                .collect(),
            InterpMode::Reference => Vec::new(),
        };
        let mem = Memory::new(program);
        // Dense sync tables: globals (where sync objects live) occupy the
        // bottom of the address space, so the frontier right after layout
        // bounds the dense region. The reference mode keeps the original
        // spill-only (`BTreeMap`) tables.
        let sync = match mode {
            InterpMode::Flat => SyncTables::with_dense_limits(mem.frontier(), program.weak_locks),
            InterpMode::Reference => SyncTables::default(),
        };
        let world = World::new(config.seed, config.io);
        let rng = Rng::seed_from_u64(config.seed);
        let mut m = Machine {
            program,
            config,
            cost: config.cost,
            mode,
            flat,
            costs,
            mem,
            sync,
            threads: Vec::new(),
            world,
            rng,
            stats: ExecStats::default(),
            output: Vec::new(),
            trace: Vec::new(),
            steps: 0,
            finished: None,
            main_ret: 0,
            block_counts: program
                .funcs
                .iter()
                .map(|f| vec![0u64; f.blocks.len()])
                .collect(),
            mask: EventMask::ALL,
            sched_dirty: false,
            argv: Vec::new(),
            io_buf: Vec::new(),
            ckpt_interval: 0,
            ordered_events: 0,
            ckpt_digest: 0xcbf2_9ce4_8422_2325,
            spec: SpecState {
                penalty: SPEC_PENALTY_MIN,
                cap: SEG_CAP_MIN,
                ..SpecState::default()
            },
        };
        let main = program.main();
        m.spawn_thread(main, &[], 0);
        m
    }

    fn spawn_thread(&mut self, func: FuncId, args: &[i64], clock: u64) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        let frame = self.make_frame(func, args, None);
        self.threads.push(Thr {
            id,
            clock,
            icount: 0,
            frames: vec![frame],
            state: TState::Ready,
            block_start: 0,
            barrier_pass: false,
            cond_phase: 0,
            pending_reacquire: Vec::new(),
            weak_granted: Vec::new(),
            input_seq: 0,
        });
        self.stats.threads += 1;
        self.sched_dirty = true;
        id
    }

    fn make_frame(&mut self, func: FuncId, args: &[i64], ret_dst: Option<LocalId>) -> Frame {
        let f = &self.program.funcs[func.index()];
        let layout = &self.flat.layouts[func.index()];
        let mut regs = vec![0i64; f.locals.len()];
        for (i, &p) in f.params.iter().enumerate() {
            regs[p.index()] = args.get(i).copied().unwrap_or(0);
        }
        let frame_base = if layout.frame_size > 0 {
            Some(self.mem.alloc(layout.frame_size, RegionKind::Frame(func)))
        } else {
            None
        };
        self.count_block(func, f.entry);
        Frame {
            func,
            pc: self.flat.funcs[func.index()].entry_pc,
            regs,
            frame_base,
            ret_dst,
            held_weak: Vec::new(),
        }
    }

    /// Deliver `ev` to the supervisor (if it is in the mask) and to the
    /// trace (if one is being collected). Construction of allocating
    /// events is additionally gated by [`Machine::wants`] on the flat path.
    fn emit(&mut self, sup: &mut dyn Supervisor, ev: Event) {
        let boundary = self.ckpt_interval != 0 && self.fold_ordered(&ev);
        if self.mask.contains(ev.kind()) {
            sup.on_event(&ev);
        }
        if self.config.collect_trace {
            self.trace.push(ev);
        }
        if boundary {
            sup.on_checkpoint(self.ordered_events, self.ckpt_digest);
        }
    }

    /// Fold a replay-ordered event into the running checkpoint digest;
    /// returns true when this event lands on a checkpoint boundary.
    ///
    /// Only *schedule-determined* state goes in: the event's kind, object,
    /// committing thread, payload words, and the committing thread's own
    /// retired-instruction count — plus, at boundaries, that thread's live
    /// registers. For a DRF (or weak-lock-instrumented) program these are
    /// functions of the enforced order and recorded inputs, so a
    /// conforming replay reproduces the digest exactly. Clocks, jitter, or
    /// a full-memory hash would not survive mid-run comparison: threads
    /// *between* their own sync points legitimately sit at different
    /// instructions under different schedules.
    fn fold_ordered(&mut self, ev: &Event) -> bool {
        let (tag, thread, obj): (u64, u32, u64) = match ev {
            Event::Sync { thread, kind, addr, .. } => match kind {
                SyncKind::Mutex => (1, thread.0, *addr as u64),
                SyncKind::Cond => (2, thread.0, *addr as u64),
                SyncKind::Spawn => (3, thread.0, 0),
                // Barrier releases and joins are deterministic given the
                // rest of the order; they are not replay-ordered.
                SyncKind::Barrier | SyncKind::Join => return false,
            },
            Event::Output { thread, .. } => (4, thread.0, 0),
            Event::Input { thread, .. } => (5, thread.0, 0),
            Event::WeakAcquire { thread, lock, .. } => (6, thread.0, lock.0 as u64),
            Event::WeakForcedRelease { lock, holder, .. } => (7, holder.0, lock.0 as u64),
            _ => return false,
        };
        let mut h = self.ckpt_digest;
        h = fold64(h, tag);
        h = fold64(h, thread as u64);
        h = fold64(h, obj);
        // Deliberately NOT folded: the committing thread's retired
        // instruction count. Barrier releases retire the wait instruction
        // once extra on whichever thread arrives last — unordered by
        // design — so icount is not a function of the replayed orders.
        match ev {
            Event::Output { data, .. } | Event::Input { data, .. } => {
                h = fold64(h, data.len() as u64);
                for &w in data {
                    h = fold64(h, w as u64);
                }
            }
            Event::WeakForcedRelease { icount, parked, .. } => {
                h = fold64(h, *icount);
                h = fold64(h, *parked as u64);
            }
            _ => {}
        }
        self.ordered_events += 1;
        let boundary = self.ordered_events.is_multiple_of(self.ckpt_interval);
        if boundary {
            // The committing thread sits at its own ordered event, so its
            // top frame's registers are schedule-determined here.
            if let Some(fr) = self.threads[thread as usize].frames.last() {
                h = fold64(h, fr.regs.len() as u64);
                for &r in &fr.regs {
                    h = fold64(h, r as u64);
                }
            }
        }
        self.ckpt_digest = h;
        boundary
    }

    /// Would an event of kind `k` be observed by anyone? When false, the
    /// flat path skips building the event (and any payload clone) entirely.
    /// Checkpointing forces construction of the replay-ordered kinds so
    /// every one of them reaches the digest fold.
    #[inline]
    fn wants(&self, k: EventKind) -> bool {
        self.config.collect_trace
            || self.mask.contains(k)
            || (self.ckpt_interval != 0
                && matches!(
                    k,
                    EventKind::Sync
                        | EventKind::Output
                        | EventKind::Input
                        | EventKind::WeakAcquire
                        | EventKind::WeakForcedRelease
                ))
    }

    /// Does the attached supervisor consume detector-feed events of kind
    /// `k` (`Load`/`Store`/`SyncRelease`/`BarrierResume`)? Unlike
    /// [`Machine::wants`], `collect_trace` does not force these on: they
    /// exist to feed a happens-before detector, and keeping them out of
    /// the trace preserves the byte-identical trace contract the
    /// differential and replay suites pin.
    #[inline]
    fn wants_hb(&self, k: EventKind) -> bool {
        self.mask.contains(k)
    }

    /// Deliver a detector-feed event. Never pushed into the collected
    /// trace (see [`Machine::wants_hb`]); callers check `wants_hb` first
    /// so the hot path pays one mask test and zero construction when no
    /// detector is attached.
    #[inline]
    fn emit_hb(&mut self, sup: &mut dyn Supervisor, ev: Event) {
        debug_assert!(self.mask.contains(ev.kind()));
        sup.on_event(&ev);
    }

    fn run(mut self, sup: &mut dyn Supervisor) -> ExecResult {
        self.mask = sup.event_mask();
        self.ckpt_interval = sup.checkpoint_interval();
        if self.config.collect_trace {
            self.trace.reserve(1024);
        }
        if self.mode == InterpMode::Reference && self.config.sched.is_baseline() {
            return self.run_reference(sup);
        }
        self.run_sched(sup)
    }

    /// The scheduling loop of every run but a baseline reference one.
    /// Each pass is one scan, which collects the ready `(clock, id)` keys
    /// in id order, the weak-lock timeout deadline and whether every
    /// thread is done, followed by the deadlock and timeout checks the
    /// reference loop makes before every step.
    ///
    /// A flat clock-ordered run whose supervisor injects no forced
    /// releases then sorts the keys into a ready queue for
    /// [`Self::run_queue`]. The schedule changes only at blocks, wakes
    /// and spawns, which set `sched_dirty` or are seen by the queue loop
    /// itself, and at the deadline: the earliest clock at which the
    /// timeout scan can force a weak-lock waiter. The front of the queue
    /// is always the scan's minimum, and every step runs below the
    /// deadline, so the schedule is bit-identical to the reference scan.
    ///
    /// Every other run picks through the run's [`Scheduler`] (see
    /// [`crate::sched`]; `ClockOrdered` for an injecting baseline), runs
    /// the picked thread, and lets the scheduler observe the retired
    /// steps (with a boundary classification read from the pre-decoded
    /// code, which both modes share). The reference interpreter takes one
    /// step per decision. The flat one runs the picked thread through the
    /// hot-run executor until the pick can change: no hot op blocks,
    /// wakes or spawns, so the ready set is fixed, and the run stops at a
    /// cold op, at the deadline key `(deadline, 0)`, at the step limit,
    /// and at the scheduler's [`Scheduler::horizon`]. A supervisor that
    /// injects forced releases may preempt any thread between any two
    /// steps, so while it does a run retires one constituent (budget 0,
    /// as at a horizon of 1) and the next pass polls it again. While the
    /// scheduler classifies boundaries, accesses are cold and
    /// single-stepped; a supervisor that wants per-access events gets
    /// them from the run itself. One `note_step` then
    /// covers the run: PCT changes priorities only at its change points,
    /// which the horizon lands on exactly, and preemption-bounded acts
    /// only at boundaries. A trap inside a run counts as a step and gets
    /// its `note_step`, as in the per-step loop.
    ///
    /// Strategies draw from their own salted RNG stream, so the jitter
    /// draws in [`Machine::commit_ok`] are untouched; the only difference
    /// from the baseline is *which* ready thread runs.
    ///
    /// [`Scheduler`]: crate::sched::Scheduler
    /// [`Scheduler::horizon`]: crate::sched::Scheduler::horizon
    fn run_sched(mut self, sup: &mut dyn Supervisor) -> ExecResult {
        let injects = sup.injects_forced_releases();
        let flat = self.mode == InterpMode::Flat;
        let queued = flat && !injects && self.config.sched.is_baseline();
        let mut sched = self.config.sched.build(self.config.seed);
        // A supervisor that wants per-access Load/Store happens-before
        // events (a race detector) must see each access in commit order:
        // hot runs send each one as they retire it, and the segment
        // rounds stay off.
        let feed = self.wants_hb(EventKind::Load) || self.wants_hb(EventKind::Store);
        let mut keys: Vec<(u64, u32)> = Vec::new();
        let outcome = loop {
            if let Some(outcome) = self.finished.take() {
                break outcome;
            }
            if injects {
                self.apply_injected_releases(sup);
            }

            keys.clear();
            let mut deadline: Option<u64> = None;
            let mut all_done = true;
            for t in &self.threads {
                match t.state {
                    TState::Ready => keys.push((t.clock, t.id.0)),
                    TState::Done => continue,
                    TState::Blocked(_) => {
                        deadline = earliest(deadline, self.weak_expiry(t));
                    }
                }
                all_done = false;
            }
            let chosen = if queued {
                keys.iter().min().map(|&(_, id)| id)
            } else {
                sched.track_threads(self.threads.len());
                sched.pick(&mut keys.iter().map(|&(clock, id)| (id, clock)))
            };
            let Some(tid0) = chosen else {
                if all_done {
                    break Outcome::Exited(self.main_ret);
                }
                if self.config.timeout_enabled && self.try_force_any(sup) {
                    continue;
                }
                break Outcome::Deadlock {
                    blocked: self.blocked_summary(),
                };
            };
            let tid = ThreadId(tid0);
            let now = self.threads[tid.index()].clock;
            if self.config.timeout_enabled && self.try_force_timed_out(sup, now) {
                continue;
            }

            if queued {
                keys.sort_unstable();
                self.sched_dirty = false;
                match self.run_queue(sup, &mut keys, deadline, feed) {
                    Some(outcome) => break outcome,
                    None => continue,
                }
            }
            let boundaries = sched.wants_boundaries();
            if flat && self.threads[tid.index()].pending_reacquire.is_empty() {
                let horizon = if injects {
                    1
                } else {
                    sched.horizon(self.steps)
                };
                let budget = self
                    .config
                    .max_steps
                    .saturating_sub(self.steps)
                    .min(horizon.saturating_sub(1));
                let run = self.hot_run(
                    tid0,
                    deadline.map(|d| (d, 0)),
                    budget,
                    boundaries,
                    feed.then_some(&mut *sup),
                );
                self.steps += run.ops;
                self.stats.instrs += run.ops;
                self.stats.mem_ops += run.mem_ops;
                self.stats.vm.fused_ops += run.fused;
                self.stats.vm.batched_ops += run.ops;
                self.stats.vm.batch_runs += u64::from(run.ops > 0);
                let at_cold = match run.end {
                    HotEnd::Cold => true,
                    HotEnd::Trap(message) => {
                        // The trapping op counts as a step.
                        self.trap(tid, message);
                        self.steps += 1;
                        false
                    }
                    _ => false,
                };
                if run.ops > 0 || !at_cold {
                    if self.steps > self.config.max_steps {
                        break Outcome::StepLimit;
                    }
                    // No step of the run sat at a boundary the scheduler
                    // wanted: accesses were cold while it wanted them.
                    sched.note_step(tid0, self.steps, false);
                    // The same pick would go on with the cold op; after
                    // the deadline, the horizon or a trap, pick again.
                    if !at_cold {
                        continue;
                    }
                }
            }

            let boundary = boundaries && self.at_boundary(tid);
            match self.mode {
                InterpMode::Flat => {
                    self.step_flat(sup, tid);
                }
                InterpMode::Reference => self.step_reference(sup, tid),
            }
            self.steps += 1;
            if self.steps > self.config.max_steps {
                break Outcome::StepLimit;
            }
            sched.note_step(tid.0, self.steps, boundary);
        };
        self.stats.sched_preemptions = sched.preemptions();
        self.finish(outcome)
    }

    /// One batch-commit hot run of thread `id` against machine memory
    /// (see [`run_hot`]), drawing jitter from the machine RNG, counting
    /// blocks when configured and sending each access to `feed`, the
    /// supervisor when it wants per-access events. The caller accounts
    /// for the returned run.
    #[inline(always)]
    fn hot_run(
        &mut self,
        id: u32,
        bound: Option<(u64, u32)>,
        budget: u64,
        cold_access: bool,
        feed: Option<&mut (dyn Supervisor + '_)>,
    ) -> HotRun {
        let jitter = self.config.jitter;
        // Disjoint field borrows: the thread's frame/clock/icount
        // mutably, everything else (`flat`, `costs`, `mem`, `rng`,
        // `block_counts`) through separate fields of `self`.
        let Thr {
            frames,
            clock,
            icount,
            ..
        } = &mut self.threads[id as usize];
        let frame = frames.last_mut().expect("live thread has frames");
        let fidx = frame.func.index();
        let ctx = HotCtx {
            func: &self.flat.funcs[fidx],
            fcosts: &self.costs[fidx],
            id,
            bound,
            jitter: (jitter.period > 0).then_some((&mut self.rng, jitter)),
            blocks: self
                .config
                .count_blocks
                .then(|| &mut self.block_counts[fidx][..]),
            budget,
            cold_access,
            feed: feed.map(|sup| (sup as &mut dyn Supervisor, self.mask)),
        };
        run_hot::<_, false>(ctx, frame, clock, icount, &mut self.mem)
    }

    /// Does `tid`'s next op sit at a shared-access site (`Load`/`Store`,
    /// which carry their static `AccessId`) or a weak-lock acquire/release
    /// site? Accesses are read from the pre-decoded code and weak-lock ops
    /// from the `Instr` a `Cold` op stands for; both interpreter modes
    /// share the frame position, so the answer is mode-independent. A
    /// pending forced reacquire counts as an acquire boundary (the step
    /// will execute the reacquire protocol instead of the op at `pc`).
    fn at_boundary(&self, tid: ThreadId) -> bool {
        let t = &self.threads[tid.index()];
        if !t.pending_reacquire.is_empty() {
            return true;
        }
        let Some(frame) = t.frames.last() else {
            return false;
        };
        let func = &self.flat.funcs[frame.func.index()];
        match func.code[frame.pc as usize] {
            FlatOp::Load { .. } | FlatOp::Store { .. } => true,
            FlatOp::Cold => {
                let (block, ip) = func.locate(frame.pc);
                self.program.funcs[frame.func.index()]
                    .block(block)
                    .instrs
                    .get(ip)
                    .is_some_and(Instr::is_weak_lock_op)
            }
            _ => false,
        }
    }

    /// The original scheduling loop: per step, poll every thread for
    /// injected releases, scan all threads for the minimum clock, scan for
    /// timed-out weak waiters, then execute one cloned instruction.
    fn run_reference(mut self, sup: &mut dyn Supervisor) -> ExecResult {
        loop {
            if let Some(outcome) = self.finished.take() {
                return self.finish(outcome);
            }
            // Supervisor-injected forced releases (replay of §2.3 events).
            self.apply_injected_releases(sup);

            // Pick the ready thread with the smallest clock.
            let chosen = self
                .threads
                .iter()
                .filter(|t| t.state == TState::Ready)
                .min_by_key(|t| (t.clock, t.id))
                .map(|t| t.id);

            let Some(tid) = chosen else {
                if self.threads.iter().all(|t| t.state == TState::Done) {
                    let ret = self.main_ret;
                    return self.finish(Outcome::Exited(ret));
                }
                // Nothing ready: a weak-lock waiter justifies a forced
                // release (the holder is itself blocked — §2.3's deadlock
                // scenario).
                if self.config.timeout_enabled && self.try_force_any(sup) {
                    continue;
                }
                return self.finish_deadlock();
            };

            // Starvation check against the global "now".
            if self.config.timeout_enabled {
                let now = self.threads[tid.index()].clock;
                if self.try_force_timed_out(sup, now) {
                    continue;
                }
            }

            self.step_reference(sup, tid);
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return self.finish(Outcome::StepLimit);
            }
        }
    }

    /// The earliest scheduler clock `now` at which
    /// [`Self::try_force_timed_out`] forces `t`, i.e. the first with
    /// `now - block_start > weak_timeout`. `None` unless timeouts are
    /// armed and `t` waits on a weak lock (or when that clock overflows,
    /// so no `now` reaches it).
    fn weak_expiry(&self, t: &Thr) -> Option<u64> {
        match t.state {
            TState::Blocked(BlockReason::Weak(..)) if self.config.timeout_enabled => t
                .block_start
                .checked_add(self.config.weak_timeout)?
                .checked_add(1),
            _ => None,
        }
    }

    /// Queue mode's engine (the clock-ordered branch of
    /// [`Self::run_sched`]): drives the schedule from a tight cross-thread
    /// loop that runs the front thread through the hot-run executor
    /// ([`run_hot`], inlined here) and the speculative rounds, and
    /// accumulates cost/clock/step accounting in locals, written back once
    /// on exit.
    ///
    /// Batch commit's legality (DESIGN.md §13): queue mode already
    /// excludes supervisor injection. Every op the executor retires is
    /// thread-local and non-blocking (sync, I/O, calls, heap, weak ops and
    /// returns fall out to [`Self::step_flat`]), so a retiring hot op's
    /// only obligations are the commit itself — identical RNG draws
    /// included — its access event when `feed` says a supervisor wants
    /// per-access events, the step budget, and the scheduling bound: the
    /// runner-up queue key or the weak-lock timeout `deadline` key
    /// `(deadline, 0)`, whichever is earlier. Once the front key reaches
    /// the deadline, control returns to the scan, which forces the
    /// timed-out waiter exactly where the reference loop does. A thread
    /// owing a forced reacquire (`pending_reacquire`) runs the reacquire
    /// protocol instead of its next op, so it is single-stepped through
    /// [`Self::step_flat`]. Access events go out in commit order, the
    /// order the per-step loop emits them in; checkpoint folds are inert
    /// for hot ops, and block counts are maintained by the executor. The
    /// observable execution is therefore bit-identical to the reference
    /// interpreter's per-step loop; only the [`VmPerf`] strategy counters
    /// differ.
    ///
    /// Returns `Some(outcome)` when the run ends the execution (step
    /// limit); `None` hands control back to the scheduler loop (queue
    /// empty, deadline reached, `finished` set, or `sched_dirty` after a
    /// cold op).
    fn run_queue(
        &mut self,
        sup: &mut dyn Supervisor,
        queue: &mut Vec<(u64, u32)>,
        mut deadline: Option<u64>,
        feed: bool,
    ) -> Option<Outcome> {
        let max_steps = self.config.max_steps;
        let mut steps = self.steps;
        let mut mem_ops = 0u64;
        let mut fused_ops = 0u64;
        let mut batch_runs = 0u64;
        let mut batched_ops = 0u64;
        // Speculative rounds additionally require no per-access feed: a
        // segment's accesses emit nothing.
        let rounds_ok = !feed;

        let result = loop {
            let Some(&(front, id)) = queue.first() else {
                break None;
            };
            if deadline.is_some_and(|d| front >= d) {
                // A weak-lock waiter timed out: the scan forces it.
                break None;
            }
            if rounds_ok && queue.len() >= 2 {
                if self.spec.cooldown > 0 {
                    self.spec.cooldown -= 1;
                } else if self.try_round(queue, &mut steps, deadline) {
                    continue;
                }
            }
            let tix = id as usize;
            // One uninterrupted same-thread run of hot ops, skipped when a
            // forced reacquire is owed. A run that ends at a cold op falls
            // through to the single step below, as does a skipped one.
            if self.threads[tix].pending_reacquire.is_empty() {
                let bound = earliest(queue.get(1).copied(), deadline.map(|d| (d, 0)));
                let budget = max_steps.saturating_sub(steps);
                let run = self.hot_run(id, bound, budget, false, feed.then_some(&mut *sup));
                steps += run.ops;
                batched_ops += run.ops;
                mem_ops += run.mem_ops;
                fused_ops += run.fused;
                if run.ops > 0 {
                    batch_runs += 1;
                }
                match run.end {
                    HotEnd::Cold => {}
                    HotEnd::Bound => {
                        reposition_front(queue, (self.threads[tix].clock, id));
                        continue;
                    }
                    HotEnd::Trap(message) => {
                        // The trapping op counts as a step, as it does in
                        // the reference loop.
                        self.trap(ThreadId(id), message);
                        steps += 1;
                        break (steps > max_steps).then_some(Outcome::StepLimit);
                    }
                    HotEnd::Limit => break Some(Outcome::StepLimit),
                    HotEnd::Cap => unreachable!("batch runs have no cap"),
                }
            }
            // Single-step the next op through the ordinary path —
            // byte-identical dispatch, including `StepEnd` accounting and
            // event emission.
            let next = self.step_flat(sup, ThreadId(id));
            steps += 1;
            if steps > max_steps {
                break Some(Outcome::StepLimit);
            }
            if self.finished.is_some() || self.sched_dirty {
                break None;
            }
            match next {
                None => {
                    // Blocked (a `Done` transition marks the scheduler
                    // dirty and breaks above). A new weak-lock waiter can
                    // bring the deadline forward.
                    let t = &self.threads[tix];
                    deadline = earliest(deadline, self.weak_expiry(t));
                    queue.remove(0);
                }
                Some(clock) => reposition_front(queue, (clock, id)),
            }
        };

        self.steps = steps;
        self.stats.instrs += batched_ops;
        self.stats.mem_ops += mem_ops;
        self.stats.vm.fused_ops += fused_ops;
        self.stats.vm.batch_runs += batch_runs;
        self.stats.vm.batched_ops += batched_ops;
        result
    }

    /// Attempt one speculative segment round: run every ready thread
    /// ahead through hot ops, jitter-free, to the round's bound, certify
    /// the segments pairwise race-free on cell-granular read/write sets,
    /// then commit exactly the prefix the clock-ordered scheduler would
    /// have run ([`Self::merge_round`]) and roll each thread's tail back.
    /// Only called without a per-access feed, so hot ops emit nothing.
    ///
    /// Returns `true` when the round committed ops (queue keys are the
    /// committed clocks); `false` leaves the machine bit-exactly as before
    /// the call, apart from backoff bookkeeping.
    fn try_round(
        &mut self,
        queue: &mut [(u64, u32)],
        steps: &mut u64,
        deadline: Option<u64>,
    ) -> bool {
        // Segments must stop strictly before the earliest key of a ready
        // thread already sitting at a cold op or owing a forced reacquire
        // (the queue is sorted, so the first such thread has the minimal
        // key; its own segment retires nothing), and before the weak-lock
        // timeout deadline.
        let single_steps = |&(_, id): &(u64, u32)| {
            let t = &self.threads[id as usize];
            let f = t.frames.last().expect("live thread has frames");
            !t.pending_reacquire.is_empty()
                || self.flat.funcs[f.func.index()].fused[f.pc as usize] == FlatOp::Cold
        };
        if single_steps(&queue[0]) {
            // No segment could commit anything: the front steps first.
            return false;
        }
        let cold = queue.iter().copied().find(single_steps);
        let budget = self.config.max_steps.saturating_sub(*steps);
        // How far a round can move a clock: every constituent at most
        // the dearest hot op plus the largest jitter draw.
        let reach = (SEG_CAP + 1)
            .saturating_mul(self.cost.instr + self.cost.mem + self.config.jitter.magnitude);
        let last = queue[queue.len() - 1].0;
        if budget == 0
            || queue.len() > 1 << RANK_BITS
            || last.saturating_add(reach) >> (64 - RANK_BITS) != 0
        {
            // The next op ends the run, the stamps cannot hold the ranks,
            // or the round's clocks come near overflow: no attempt.
            return false;
        }
        self.prepare_round();
        let bound0 = earliest(cold, deadline.map(|d| (d, 0)));
        let Some((total, kept)) = self.round_direct(queue, bound0, deadline, budget) else {
            self.stats.vm.spec_discards += 1;
            self.spec.cooldown = self.spec.penalty;
            self.spec.penalty = (self.spec.penalty * 2).min(SPEC_PENALTY_MAX);
            return false;
        };
        if kept >= 2 && total >= SPEC_PRODUCTIVE_OPS * queue.len() as u64 {
            self.spec.penalty = SPEC_PENALTY_MIN;
            self.spec.cooldown = 0;
        } else {
            // Legal but trivial: the exact batch engine handles this
            // phase with less overhead.
            self.spec.cooldown = self.spec.penalty;
            self.spec.penalty = (self.spec.penalty * 2).min(SPEC_PENALTY_MAX);
        }
        if total == 0 {
            return false;
        }
        *steps += total;
        self.stats.vm.spec_rounds += 1;
        true
    }

    /// Size the cell stamps for the current address frontier and open a
    /// new round epoch.
    fn prepare_round(&mut self) {
        let spec = &mut self.spec;
        let cells = self.mem.frontier() as usize;
        if spec.stamps.len() < cells {
            spec.stamps.resize(cells, 0);
        }
        spec.epoch += 1;
        if spec.epoch >> (32 - STAMP_EPOCH_SHIFT) != 0 {
            // Epoch wrap-around (one bump per round): clear every stamp so
            // stale ones can never alias the restarted epoch.
            spec.stamps.iter_mut().for_each(|s| *s = 0);
            spec.epoch = 1;
        }
    }

    /// Evaluate one round. Segments run one after another directly
    /// against memory, in thread-id order, with an undo log, a trail and
    /// the cell stamps. A speculative trap or a conflict discards the
    /// round whole: memory and every thread go back to where they were,
    /// and `None` is returned. Otherwise the merge commits the canonical
    /// prefix, each thread's tail is rolled back, and the number of
    /// committed ops and of threads that committed some is returned.
    ///
    /// Rolling back only tails is legal because the round is
    /// conflict-free: no segment read another's writes, so a tail's
    /// re-execution later reads what it read here, and the order in
    /// which conflict-free segments ran is immaterial to memory.
    fn round_direct(
        &mut self,
        queue: &mut [(u64, u32)],
        bound0: Option<(u64, u32)>,
        deadline: Option<u64>,
        budget: u64,
    ) -> Option<(u64, u64)> {
        // Moved out of `self` so the segment executor can borrow the
        // remaining fields of `self` disjointly.
        let mut spec = std::mem::take(&mut self.spec);
        spec.used = 0;
        spec.undo.clear();
        spec.segs.clear();
        queue.sort_unstable_by_key(|&(_, id)| id);
        // Set when two segments touch a cell one of them wrote.
        let mut conflict = false;
        let mut trapped = false;
        let mut grow = false;
        let mut bound = bound0;
        for &(clock0, id) in queue.iter() {
            let tix = id as usize;
            let Thr {
                frames,
                clock,
                icount,
                ..
            } = &mut self.threads[tix];
            let frame = frames.last_mut().expect("live thread has frames");
            let fidx = frame.func.index();
            let (trail0, undo0) = (spec.used, spec.undo.len());
            // A fused pair may straddle the cap.
            let room = trail0 + spec.cap as usize + 1;
            if spec.pcs.len() < room {
                spec.pcs.resize(room, 0);
                spec.olds.resize(room, 0);
            }
            let ctx = HotCtx {
                func: &self.flat.funcs[fidx],
                fcosts: &self.costs[fidx],
                id,
                bound,
                jitter: None,
                blocks: None,
                budget: spec.cap,
                cold_access: false,
                feed: None,
            };
            let mut seg = DirectSeg {
                mem: &mut self.mem,
                undo: &mut spec.undo,
                pcs: &mut spec.pcs[trail0..room],
                olds: &mut spec.olds[trail0..room],
                stamps: &mut spec.stamps,
                me: spec.epoch << STAMP_EPOCH_SHIFT | spec.segs.len() as u32,
                conflict: &mut conflict,
            };
            let run = run_segment(ctx, frame, clock, icount, &mut seg);
            // The merge stops by this thread's jitter-free end key at the
            // latest (exactly there with jitter off), so later segments
            // need not run past it.
            bound = earliest(bound, Some((*clock, id)));
            spec.used += run.ops as usize;
            if matches!(run.end, HotEnd::Cap) {
                grow = true;
            }
            spec.segs.push(Seg {
                tix,
                fidx,
                trail: (trail0, spec.used),
                undo: (undo0, spec.undo.len()),
                fused: run.fused,
                mem_ops: run.mem_ops,
                kept: 0,
                clock: clock0,
                end: *clock,
                word: (0, 0, 0),
            });
            // A speculative trap may be an artifact of reading another
            // segment's half-done state; either way the round is lost,
            // so the remaining segments need not run.
            trapped = matches!(run.end, HotEnd::Trap(_));
            if trapped || conflict {
                break;
            }
        }
        if grow {
            spec.cap = (spec.cap * 2).min(SEG_CAP);
        }
        let certified = !trapped && !conflict;
        if certified {
            self.merge_round(&mut spec, deadline, budget);
        }
        // In reverse, so a discarded round's overlapping stores unwind to
        // the oldest value.
        let (mut total, mut kept, mut mem_ops, mut fused) = (0, 0, 0, 0);
        for g in spec.segs.iter().rev() {
            let (ops, m, f) = self.settle(&spec, g);
            total += ops;
            kept += u64::from(ops > 0);
            mem_ops += m;
            fused += f;
        }
        for (k, g) in queue.iter_mut().zip(&spec.segs) {
            k.0 = g.clock;
        }
        queue.sort_unstable();
        self.spec = spec;
        if !certified {
            return None;
        }
        self.stats.instrs += total;
        self.stats.mem_ops += mem_ops;
        self.stats.vm.fused_ops += fused;
        self.stats.vm.spec_ops += total;
        self.stats.vm.spec_segments += kept;
        Some((total, kept))
    }

    /// Commit the canonical prefix of a certified round: the ops the
    /// clock-ordered scheduler runs from the round's start, with the
    /// jitter drawn exactly as [`Self::commit_ok`] draws it. The merge
    /// stops at the first thread whose next op did not run speculatively
    /// (a cold op, the segment cap, or the round's bound), at the
    /// weak-lock timeout deadline key, and once `budget` ops have
    /// committed. Every draw it makes is one the per-step scheduler would
    /// make at the same point, so the committed state is one the per-step
    /// scheduler passes through.
    ///
    /// The merge goes window by window, a window running up to the next
    /// firing jitter draw. It draws one `next_u64` per op until one is at
    /// most `u64::MAX / period`, which is when `gen_range(0..period)` maps
    /// it to 0, and then draws the magnitude. Until that draw every
    /// thread's clock follows its segment's jitter-free schedule, so the
    /// window's ops are the next ones in the order of their jitter-free
    /// start keys `(clock, id)`, and [`commit_window`] commits them by
    /// counting each participant's start clocks below the window's cut.
    /// The magnitude is charged to the thread that owns the firing op,
    /// which shifts the rest of its segment, and the next window begins.
    /// With jitter off, the whole budget is one window.
    ///
    /// A window that holds more ops than the round has left ends the
    /// merge at the round's stop, the earliest end key or the deadline
    /// key: each thread then commits exactly its constituents below the
    /// stop, found by walking back from its segment's end, and the draws
    /// are made for those ops only.
    ///
    /// Leaves each participant's committed constituents and clock in its
    /// [`Seg`].
    fn merge_round(&mut self, spec: &mut SpecState, deadline: Option<u64>, budget: u64) {
        let Jitter { period, magnitude } = self.config.jitter;
        // A raw draw at or below this is one `gen_range(0..period)` maps
        // to 0, as `u64::MAX / period` is the largest `x` with
        // `x * period < 2^64`.
        let fires = u64::MAX.checked_div(period);
        let zero = self.cost.instr == 0;
        let (pcs, segs, costs) = (&spec.pcs, &mut spec.segs, &self.costs);
        // The participants with ops run side by side, so a window of `n`
        // ops spans about `n * clocks / (ops * active)` clocks.
        let (mut clocks, mut ops, mut active) = (0, 0, 0);
        for g in segs.iter().filter(|g| g.trail.1 > g.trail.0) {
            clocks += g.end - g.clock;
            ops += (g.trail.1 - g.trail.0) as u64;
            active += 1;
        }
        let rate = (clocks, ops * active);
        let mut rng = self.rng.clone();
        let mut left = budget;
        let mut unmerged = spec.used as u64;
        while left > 0 {
            // The round's stop as a clock and a rank bound: an op of rank
            // `r` starting at `clock` is below it when `clock < stop.0`, or
            // `clock == stop.0` and `r < stop.1`. The thread whose segment
            // ends first runs all its ops, even a zero-cost last one.
            let first = segs.iter().enumerate().map(|(r, g)| (g.end, r)).min();
            let (end, r) = first.expect("round has participants");
            let stop = match deadline {
                Some(d) if d <= end => (d, 0),
                _ => (end, r + 1),
            };
            let before = rng.clone();
            let (mut want, mut fired) = (left, false);
            if let Some(fires) = fires {
                want = 0;
                while want < left && !fired {
                    want += 1;
                    fired = rng.next_u64() <= fires;
                }
            }
            let window = if unmerged < want {
                Err(walk_back(segs, pcs, costs, stop))
            } else {
                commit_window(segs, pcs, costs, stop, want, zero, rate)
            };
            match window {
                Ok(owner) => {
                    left -= want;
                    unmerged -= want;
                    if fired {
                        let extra = rng.gen_range(0..=magnitude);
                        let g = &mut segs[owner];
                        g.clock += extra;
                        g.end += extra;
                    }
                }
                Err(ran) => {
                    // The stop came first, so none of the draws for the
                    // `ran` committed ops fired.
                    if fires.is_some() {
                        rng = before;
                        for _ in 0..ran {
                            rng.next_u64();
                        }
                    }
                    break;
                }
            }
        }
        self.rng = rng;
    }

    /// Finish one participant of a round: undo its constituents past the
    /// committed ones (all of them when the round was discarded) — their
    /// register writes and stores, in reverse — and set its pc,
    /// instruction count and clock. Hot ops touch nothing else in `Thr`.
    /// Counts the blocks the committed constituents entered and returns
    /// their ops, memory ops and fused ops. What each constituent wrote,
    /// accessed and entered follows from the plain op at its pc: a fused
    /// op's constituents write what the ops it fuses write.
    fn settle(&mut self, spec: &SpecState, g: &Seg) -> (u64, u64, u64) {
        let (start, end) = g.trail;
        let cut = start + g.kept;
        let func = &self.flat.funcs[g.fidx];
        let Thr {
            frames,
            clock,
            icount,
            ..
        } = &mut self.threads[g.tix];
        let frame = frames.last_mut().expect("live thread has frames");
        let (mut stores, mut mem_ops, mut fused) = (0, 0, 0);
        for j in (cut..end).rev() {
            let pc = spec.pcs[j] as usize;
            match func.code[pc] {
                FlatOp::Copy { dst, .. }
                | FlatOp::UnOp { dst, .. }
                | FlatOp::BinOp { dst, .. }
                | FlatOp::AddrOfGlobal { dst, .. }
                | FlatOp::AddrOfSlot { dst, .. }
                | FlatOp::AddrOfFunc { dst, .. }
                | FlatOp::PtrAdd { dst, .. } => frame.regs[dst.index()] = spec.olds[j],
                FlatOp::Load { dst, .. } => {
                    frame.regs[dst.index()] = spec.olds[j];
                    mem_ops += 1;
                }
                FlatOp::Store { .. } => {
                    stores += 1;
                    mem_ops += 1;
                }
                _ => {}
            }
            // The second constituent of the fused op its predecessor ran.
            fused += u64::from(j > start && spec.pcs[j - 1] as usize + 1 == pc && is_fused(&func.fused[pc - 1]));
        }
        if cut < end {
            frame.pc = spec.pcs[cut];
        }
        *icount -= (end - cut) as u64;
        *clock = g.clock;
        if self.config.count_blocks {
            // A jump or branch enters the block of the pc after it.
            for j in start..cut {
                if matches!(func.code[spec.pcs[j] as usize], FlatOp::Jump { .. } | FlatOp::Branch { .. }) {
                    let next = if j + 1 < end { spec.pcs[j + 1] } else { frame.pc };
                    self.block_counts[g.fidx][func.pc_block[next as usize] as usize] += 1;
                }
            }
        }
        for &(addr, old) in spec.undo[g.undo.1 - stores..g.undo.1].iter().rev() {
            self.mem.write_raw(addr, old);
        }
        (g.kept as u64, g.mem_ops - mem_ops, g.fused - fused)
    }

    fn finish_deadlock(self) -> ExecResult {
        let blocked = self.blocked_summary();
        self.finish(Outcome::Deadlock { blocked })
    }

    fn blocked_summary(&self) -> Vec<(ThreadId, String)> {
        self.threads
            .iter()
            .filter(|t| t.state != TState::Done)
            .map(|t| {
                let why = match &t.state {
                    TState::Blocked(r) => format!("{r} (icount {})", t.icount),
                    _ => "unknown".to_string(),
                };
                (t.id, why)
            })
            .collect()
    }

    fn finish(mut self, outcome: Outcome) -> ExecResult {
        let makespan = self.threads.iter().map(|t| t.clock).max().unwrap_or(0);
        let state_hash = self.mem.state_hash();
        ExecResult {
            outcome,
            output: std::mem::take(&mut self.output),
            state_hash,
            makespan,
            stats: std::mem::take(&mut self.stats),
            trace: std::mem::take(&mut self.trace),
            block_counts: std::mem::take(&mut self.block_counts),
        }
    }

    fn count_block(&mut self, func: FuncId, block: BlockId) {
        if self.config.count_blocks {
            self.block_counts[func.index()][block.index()] += 1;
        }
    }

    // ---- forced weak-lock release (§2.3) ----

    fn apply_injected_releases(&mut self, sup: &mut dyn Supervisor) {
        for i in 0..self.threads.len() {
            if self.threads[i].state == TState::Done {
                continue;
            }
            let (id, icount) = (self.threads[i].id, self.threads[i].icount);
            let parked = Self::is_parked(&self.threads[i].state);
            if let Some(lock) = sup.forced_release_at(id, icount, parked) {
                self.force_release(sup, lock, id);
            }
        }
    }

    /// Is a thread parked inside a blocking operation whose *entry* had
    /// side effects (cond_wait released its mutex; barrier_wait joined the
    /// arrival set)? Only those states are distinguishable preemption
    /// points: all other blocks (mutex, join, weak-lock, replay order
    /// stalls) sit at an instruction boundary with nothing in flight, so a
    /// forced release before or during them is observationally identical.
    fn is_parked(state: &TState) -> bool {
        matches!(
            state,
            TState::Blocked(
                BlockReason::Barrier(_)
                    | BlockReason::Cond(_)
                    | BlockReason::CondReacquire(_)
            )
        )
    }

    fn try_force_any(&mut self, sup: &mut dyn Supervisor) -> bool {
        let waiter = self.threads.iter().find_map(|t| match &t.state {
            TState::Blocked(BlockReason::Weak(l, r, g)) => {
                Some((t.id, t.block_start, *l, *r, *g))
            }
            _ => None,
        });
        let Some((w, block_start, lock, range, gran)) = waiter else {
            return false;
        };
        // Even when the whole system is blocked, the stall lasts until the
        // waiter's timeout actually expires — that wait is real time.
        let expiry = block_start + self.config.weak_timeout;
        let wix = w.index();
        self.threads[wix].clock = self.threads[wix].clock.max(expiry);
        self.force_grant(sup, lock, w, range, gran);
        true
    }

    fn try_force_timed_out(&mut self, sup: &mut dyn Supervisor, now: u64) -> bool {
        let timeout = self.config.weak_timeout;
        let waiter = self.threads.iter().find_map(|t| match &t.state {
            TState::Blocked(BlockReason::Weak(l, r, g))
                if now.saturating_sub(t.block_start) > timeout =>
            {
                Some((t.id, *l, *r, *g))
            }
            _ => None,
        });
        let Some((w, lock, range, gran)) = waiter else {
            return false;
        };
        self.force_grant(sup, lock, w, range, gran);
        true
    }

    /// Resolve a starved weak-lock waiter (§2.3): preempt every
    /// conflicting holder (forcing it to release and later reacquire) and
    /// hand the lock directly to the waiter, so the stalled thread is
    /// guaranteed to proceed before any preempted holder gets back in.
    fn force_grant(
        &mut self,
        sup: &mut dyn Supervisor,
        lock: WeakLockId,
        waiter: ThreadId,
        range: Option<(i64, i64)>,
        gran: LockGranularity,
    ) {
        // Preempt all conflicting holders.
        loop {
            let conflict = self
                .sync
                .weak
                .get(lock)
                .and_then(|s| s.conflict_with(range))
                .filter(|h| h.thread != waiter);
            match conflict {
                Some(h) => self.force_release(sup, lock, h.thread),
                None => break,
            }
        }
        // Grant to the waiter. The acquisition is not *recorded* yet: the
        // WeakAcquire event is emitted when the waiter consumes the grant
        // (resumes execution holding the lock). Grants that get forced
        // away before consumption cancel silently and never enter the
        // logs — only effective acquisitions order data.
        let state = self.sync.weak.ensure(lock);
        if !self.config.weak_always_succeed {
            state.holders.push(WeakHolder {
                thread: waiter,
                range,
            });
        }
        let wix = waiter.index();
        self.threads[wix]
            .frames
            .last_mut()
            .expect("live thread has frames")
            .held_weak
            .push(HeldWeak { lock, range, gran });
        self.threads[wix].weak_granted.push(lock);
        let at = self.threads[wix].clock;
        self.wake_thread(waiter, at, WaitKind::Weak(gran));
        self.wake_order_stalled();
        let _ = sup;
    }

    /// Preempt `holder` and make it release `lock`; it must reacquire
    /// before resuming. Preserves the single-holder invariant.
    ///
    /// If the holding is an *unconsumed grant* (a forced handoff the
    /// grantee never got to act on), it is cancelled silently: the grantee
    /// executed nothing under the lock, so the event has no observable
    /// effect and must not pollute the replay logs.
    fn force_release(&mut self, sup: &mut dyn Supervisor, lock: WeakLockId, holder: ThreadId) {
        let hidx = holder.index();
        // Find and remove the held entry in the holder's frames (innermost
        // first).
        let mut removed: Option<HeldWeak> = None;
        for f in self.threads[hidx].frames.iter_mut().rev() {
            if let Some(pos) = f.held_weak.iter().rposition(|h| h.lock == lock) {
                removed = Some(f.held_weak.remove(pos));
                break;
            }
        }
        let Some(entry) = removed else {
            return; // already released (benign race with normal release)
        };
        if let Some(state) = self.sync.weak.get_mut(lock) {
            state.release(holder);
        }
        let time = self.threads[hidx].clock;
        if let Some(pos) = self.threads[hidx]
            .weak_granted
            .iter()
            .position(|l| *l == lock)
        {
            // Unconsumed grant: cancel. The grantee's original acquire
            // attempt is still pending/blocked and will retry normally.
            self.threads[hidx].weak_granted.remove(pos);
            self.wake_weak_waiters(lock, time);
            self.wake_order_stalled();
            return;
        }
        self.threads[hidx].pending_reacquire.push(entry);
        self.stats.forced_releases += 1;
        let icount = self.threads[hidx].icount;
        let parked = Self::is_parked(&self.threads[hidx].state);
        self.emit(
            sup,
            Event::WeakForcedRelease {
                lock,
                holder,
                icount,
                parked,
                time,
            },
        );
        self.wake_weak_waiters(lock, time);
        self.wake_order_stalled();
    }

    // ---- wakeups ----

    fn wake_thread(&mut self, tid: ThreadId, at: u64, wait_kind: WaitKind) {
        let t = &mut self.threads[tid.index()];
        let old = t.clock;
        t.clock = t.clock.max(at);
        let waited = t.clock - old;
        match wait_kind {
            WaitKind::Sync => self.stats.sync_wait += waited,
            WaitKind::Weak(g) => ExecStats::bump(&mut self.stats.weak_wait, g, waited),
        }
        t.state = TState::Ready;
        self.sched_dirty = true;
    }

    // The wake scans walk threads by index (thread ids are their indices)
    // so no candidate `Vec` is ever collected; `wake_thread` only mutates
    // the woken thread, so the scan order matches the old collect-then-wake
    // behavior exactly.

    fn wake_mutex_waiters(&mut self, addr: i64, at: u64) {
        for i in 0..self.threads.len() {
            if matches!(
                &self.threads[i].state,
                TState::Blocked(BlockReason::Mutex(a) | BlockReason::CondReacquire(a)) if *a == addr
            ) {
                self.wake_thread(ThreadId(i as u32), at, WaitKind::Sync);
            }
        }
    }

    fn wake_weak_waiters(&mut self, lock: WeakLockId, at: u64) {
        for i in 0..self.threads.len() {
            let g = match &self.threads[i].state {
                TState::Blocked(BlockReason::Weak(l, _, g)) if *l == lock => *g,
                _ => continue,
            };
            self.wake_thread(ThreadId(i as u32), at, WaitKind::Weak(g));
        }
    }

    fn wake_order_stalled(&mut self) {
        for t in self.threads.iter_mut() {
            if matches!(t.state, TState::Blocked(BlockReason::OrderTurn)) {
                t.state = TState::Ready;
                self.sched_dirty = true;
            }
        }
    }

    // ---- the interpreter ----

    /// Pending reacquires after a forced release come first. Returns true
    /// if this step was consumed by the reacquire protocol.
    #[inline]
    fn try_pending_reacquire(&mut self, sup: &mut dyn Supervisor, tid: ThreadId) -> bool {
        let tix = tid.index();
        let Some(&entry) = self.threads[tix].pending_reacquire.last() else {
            return false;
        };
        if let Some(pos) = self.threads[tix]
            .weak_granted
            .iter()
            .position(|l| *l == entry.lock)
        {
            // A forced handoff already made us the holder: consume the
            // grant, which is the moment the acquisition becomes real.
            self.threads[tix].weak_granted.remove(pos);
            self.threads[tix].pending_reacquire.pop();
            self.commit_granted_acquire(sup, tid, entry.lock, entry.range, entry.gran);
            return true;
        }
        match self.try_weak_acquire(sup, tid, entry.lock, entry.range, entry.gran, true) {
            WeakTry::Acquired => {
                self.threads[tix].pending_reacquire.pop();
            }
            WeakTry::Blocked(reason) => self.block(tid, reason),
            WeakTry::Stalled => self.block(tid, BlockReason::OrderTurn),
        }
        true
    }

    /// One reference-mode step: locate the frame's flat pc in the
    /// block-structured program, clone the instruction or terminator (the
    /// original per-step cost), and execute it.
    fn step_reference(&mut self, sup: &mut dyn Supervisor, tid: ThreadId) {
        if self.try_pending_reacquire(sup, tid) {
            return;
        }
        let program = self.program;
        let frame = self
            .threads[tid.index()]
            .frames
            .last()
            .expect("live thread has frames");
        let (block_id, ip) = self.flat.funcs[frame.func.index()].locate(frame.pc);
        let block = program.funcs[frame.func.index()].block(block_id);

        let end = if ip < block.instrs.len() {
            let instr = block.instrs[ip].clone();
            self.exec_instr(sup, tid, &instr)
        } else {
            let term = block.term.clone();
            self.exec_term(sup, tid, &term)
        };
        let _ = self.commit_step(tid, end);
    }

    /// One flat-mode step of what the hot-run executor hands back: a
    /// forced reacquire, an access the scheduler classifies, or a cold
    /// op; every other op is retired by [`run_hot`] alone.
    ///
    /// Returns the thread's advanced clock if it is still `Ready` after the
    /// step, `None` otherwise — the scheduler's ready-queue repositions the
    /// stepped thread from this without re-reading the `Thr`.
    ///
    /// An access emits its event and commits through [`Self::commit_ok`]
    /// under one mutable borrow of the current frame. A [`FlatOp::Cold`]
    /// op runs through [`Self::exec_instr`] or [`Self::exec_term`], the
    /// arms the reference interpreter runs, on the `Instr` or `Terminator`
    /// that [`FlatFunc::locate`] finds, borrowed from the program (no
    /// clone), with the usual `StepEnd` accounting.
    #[inline]
    fn step_flat(&mut self, sup: &mut dyn Supervisor, tid: ThreadId) -> Option<u64> {
        // `pending_reacquire` is only ever pushed by forced releases of a
        // held weak lock, so without weak ops in the program the check can
        // never fire — one flag load short-circuits a per-step walk of the
        // thread's state.
        if self.flat.has_weak_ops && self.try_pending_reacquire(sup, tid) {
            let t = &self.threads[tid.index()];
            return (t.state == TState::Ready).then_some(t.clock);
        }
        let tix = tid.index();
        let frame = self.threads[tix]
            .frames
            .last_mut()
            .expect("live thread has frames");
        let (fidx, pc) = (frame.func.index(), frame.pc as usize);
        let op = self.flat.funcs[fidx].code[pc];
        let scost = self.costs[fidx][pc];
        match op {
            FlatOp::Load { dst, addr, access } => {
                let a = frame.get(addr);
                match self.mem.load(a) {
                    Ok(v) => {
                        frame.regs[dst.index()] = v;
                        frame.pc += 1;
                        self.stats.mem_ops += 1;
                        if self.wants_hb(EventKind::Load) {
                            let time = self.threads[tix].clock;
                            self.emit_hb(
                                sup,
                                Event::Load {
                                    thread: tid,
                                    addr: a,
                                    access,
                                    time,
                                },
                            );
                        }
                        self.commit_ok(tix, scost)
                    }
                    Err(t) => self.trap(tid, t.to_string()),
                }
            }
            FlatOp::Store { addr, val, access } => {
                let a = frame.get(addr);
                let v = frame.get(val);
                match self.mem.store(a, v) {
                    Ok(()) => {
                        frame.pc += 1;
                        self.stats.mem_ops += 1;
                        if self.wants_hb(EventKind::Store) {
                            let time = self.threads[tix].clock;
                            self.emit_hb(
                                sup,
                                Event::Store {
                                    thread: tid,
                                    addr: a,
                                    access,
                                    time,
                                },
                            );
                        }
                        self.commit_ok(tix, scost)
                    }
                    Err(t) => self.trap(tid, t.to_string()),
                }
            }
            FlatOp::Cold => {
                let program = self.program;
                let (block, ip) = self.flat.funcs[fidx].locate(pc as u32);
                let block = program.funcs[fidx].block(block);
                let end = match block.instrs.get(ip) {
                    Some(instr) => self.exec_instr(sup, tid, instr),
                    None => self.exec_term(sup, tid, &block.term),
                };
                self.commit_step(tid, end)
            }
            _ => unreachable!("hot op retired only by run_hot"),
        }
    }

    /// Account for a finished step — identical in both modes, so the
    /// jitter RNG draws in the same sequence. Returns the thread's new
    /// clock for a committed step, `None` for a block or trap.
    #[inline]
    fn commit_step(&mut self, tid: ThreadId, end: StepEnd) -> Option<u64> {
        match end {
            StepEnd::Commit(cost) => self.commit_ok(tid.index(), cost),
            StepEnd::Block(reason) => {
                self.block(tid, reason);
                None
            }
            StepEnd::Trap(message) => self.trap(tid, message),
        }
    }

    /// The commit half of [`Self::commit_step`], shared by `step_flat`'s
    /// access arms (which bypass `StepEnd` entirely) and the
    /// `StepEnd::Commit` arm — one implementation, so the jitter RNG draws
    /// in the same sequence on every path ([`run_hot`] draws as it does).
    #[inline(always)]
    fn commit_ok(&mut self, tix: usize, cost: u64) -> Option<u64> {
        self.stats.instrs += 1;
        let mut total = cost;
        if self.config.jitter.period > 0 && self.rng.gen_range(0..self.config.jitter.period) == 0 {
            total += self.rng.gen_range(0..=self.config.jitter.magnitude);
        }
        let t = &mut self.threads[tix];
        t.icount += 1;
        t.clock += total;
        Some(t.clock)
    }

    /// The trap half of [`Self::commit_step`]: ends the run. Out of line —
    /// a trap happens at most once per execution.
    #[cold]
    fn trap(&mut self, tid: ThreadId, message: String) -> Option<u64> {
        self.finished = Some(Outcome::Trap {
            thread: tid,
            message,
        });
        None
    }

    fn block(&mut self, tid: ThreadId, reason: BlockReason) {
        let t = &mut self.threads[tid.index()];
        t.block_start = t.clock;
        t.state = TState::Blocked(reason);
    }

    fn val(&self, tid: ThreadId, op: Operand) -> i64 {
        match op {
            Operand::Const(c) => c,
            Operand::Local(l) => {
                self.threads[tid.index()]
                    .frames
                    .last()
                    .expect("live thread has frames")
                    .regs[l.index()]
            }
        }
    }

    fn set(&mut self, tid: ThreadId, l: LocalId, v: i64) {
        let frame = self.threads[tid.index()]
            .frames
            .last_mut()
            .expect("live thread has frames");
        frame.regs[l.index()] = v;
    }

    /// In flattened code a block's terminator is its last op, so advancing
    /// one pc covers both "next instruction" and "fall into terminator".
    fn advance_pc(&mut self, tid: ThreadId) {
        let frame = self.threads[tid.index()]
            .frames
            .last_mut()
            .expect("live thread has frames");
        frame.pc += 1;
    }

    /// Redirect the current frame to the start of `block`.
    fn goto_block(&mut self, tid: ThreadId, block: BlockId) {
        let frame = self.threads[tid.index()].frames.last_mut().unwrap();
        let func = frame.func;
        frame.pc = self.flat.funcs[func.index()].block_entry[block.index()];
        self.count_block(func, block);
    }

    /// Execute one terminator: the reference interpreter's every step at
    /// a block end, and the flat VM's `Return`s.
    fn exec_term(&mut self, sup: &mut dyn Supervisor, tid: ThreadId, term: &Terminator) -> StepEnd {
        let c = self.cost.instr;
        match term {
            Terminator::Jump(b) => {
                self.goto_block(tid, *b);
                StepEnd::Commit(c)
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let v = self.val(tid, *cond);
                let target = if v != 0 { *then_bb } else { *else_bb };
                self.goto_block(tid, target);
                StepEnd::Commit(c)
            }
            Terminator::Return(v) => self.do_return(sup, tid, v.map(|op| self.val(tid, op))),
        }
    }

    fn do_return(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        value: Option<i64>,
    ) -> StepEnd {
        let tix = tid.index();
        let time = self.threads[tix].clock;
        let frame = self.threads[tix].frames.pop().expect("returning frame");
        // Safety net: release any weak-locks the instrumenter's epilogue
        // missed (e.g. early return paths); emits normal release events so
        // logs stay balanced.
        for held in frame.held_weak.iter().rev() {
            if let Some(state) = self.sync.weak.get_mut(held.lock) {
                state.release(tid);
            }
            self.emit(
                sup,
                Event::WeakRelease {
                    thread: tid,
                    lock: held.lock,
                    time,
                },
            );
            self.wake_weak_waiters(held.lock, time);
        }
        if let Some(base) = frame.frame_base {
            if let Err(t) = self.mem.dealloc(base) {
                return StepEnd::Trap(t.to_string());
            }
        }
        self.emit(
            sup,
            Event::FuncExit {
                thread: tid,
                func: frame.func,
                time,
            },
        );
        if self.threads[tix].frames.is_empty() {
            // Thread exit.
            if tid == ThreadId(0) {
                self.main_ret = value.unwrap_or(0);
            }
            self.threads[tix].state = TState::Done;
            // The thread set changed: a scheduling event, like any
            // block/wake/spawn (the flat ready-queue relies on this).
            self.sched_dirty = true;
            self.emit(sup, Event::Exited { thread: tid, time });
            // Wake joiners.
            let ids: Vec<ThreadId> = self
                .threads
                .iter()
                .filter(|t| {
                    matches!(&t.state, TState::Blocked(BlockReason::Join(j)) if *j == tid)
                })
                .map(|t| t.id)
                .collect();
            for id in ids {
                self.wake_thread(id, time, WaitKind::Sync);
            }
            StepEnd::Commit(self.cost.call)
        } else {
            // The caller's ip was already advanced when the call was made.
            if let (Some(dst), Some(v)) = (frame.ret_dst, value) {
                self.set(tid, dst, v);
            }
            StepEnd::Commit(self.cost.call)
        }
    }

    /// Execute one instruction: every step of the reference interpreter,
    /// and every cold op of the flat VM ([`Self::step_flat`]), so the
    /// semantics of sync, I/O, calls, heap and weak-lock ops have one
    /// implementation. Its hot-op arms are the reference interpreter's own
    /// evaluation, the oracle [`run_hot`] is pinned against. Argument
    /// lists are marshalled through the scratch `argv`, output payloads
    /// staged in `io_buf`, and an `Output` event is built only when
    /// [`Self::wants`] says someone observes it.
    fn exec_instr(&mut self, sup: &mut dyn Supervisor, tid: ThreadId, instr: &Instr) -> StepEnd {
        let cost = self.cost;
        match instr {
            Instr::Copy { dst, src } => {
                let v = self.val(tid, *src);
                self.set(tid, *dst, v);
                self.advance_pc(tid);
                StepEnd::Commit(cost.instr)
            }
            Instr::UnOp { dst, op, src } => {
                let v = self.val(tid, *src);
                let r = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i64,
                };
                self.set(tid, *dst, r);
                self.advance_pc(tid);
                StepEnd::Commit(cost.instr)
            }
            Instr::BinOp { dst, op, a, b } => {
                let (x, y) = (self.val(tid, *a), self.val(tid, *b));
                let r = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return StepEnd::Trap("division by zero".into());
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return StepEnd::Trap("remainder by zero".into());
                        }
                        x.wrapping_rem(y)
                    }
                    BinOp::Shl => x.wrapping_shl((y & 63) as u32),
                    BinOp::Shr => x.wrapping_shr((y & 63) as u32),
                    BinOp::BitAnd => x & y,
                    BinOp::BitOr => x | y,
                    BinOp::BitXor => x ^ y,
                    BinOp::Lt => (x < y) as i64,
                    BinOp::Le => (x <= y) as i64,
                    BinOp::Gt => (x > y) as i64,
                    BinOp::Ge => (x >= y) as i64,
                    BinOp::Eq => (x == y) as i64,
                    BinOp::Ne => (x != y) as i64,
                    BinOp::LogAnd => ((x != 0) && (y != 0)) as i64,
                    BinOp::LogOr => ((x != 0) || (y != 0)) as i64,
                };
                self.set(tid, *dst, r);
                self.advance_pc(tid);
                StepEnd::Commit(cost.instr)
            }
            Instr::AddrOfGlobal {
                dst,
                global,
                offset,
            } => {
                let base = self.mem.global_base(*global);
                let off = self.val(tid, *offset);
                self.set(tid, *dst, base + off);
                self.advance_pc(tid);
                StepEnd::Commit(cost.instr)
            }
            Instr::AddrOfLocal { dst, local, offset } => {
                let tix = tid.index();
                let frame = self.threads[tix].frames.last().unwrap();
                let layout = &self.flat.layouts[frame.func.index()];
                let Some(slot_off) = layout.slot_offset[local.index()] else {
                    return StepEnd::Trap(format!(
                        "address taken of register local {local} (lowering bug)"
                    ));
                };
                let Some(base) = frame.frame_base else {
                    return StepEnd::Trap("frame has no slot area".into());
                };
                let off = self.val(tid, *offset);
                self.set(tid, *dst, base + slot_off + off);
                self.advance_pc(tid);
                StepEnd::Commit(cost.instr)
            }
            Instr::AddrOfFunc { dst, func } => {
                self.set(tid, *dst, FUNC_PTR_BASE + func.0 as i64);
                self.advance_pc(tid);
                StepEnd::Commit(cost.instr)
            }
            Instr::PtrAdd { dst, base, offset } => {
                let v = self.val(tid, *base).wrapping_add(self.val(tid, *offset));
                self.set(tid, *dst, v);
                self.advance_pc(tid);
                StepEnd::Commit(cost.instr)
            }
            Instr::Load { dst, addr, access } => {
                let a = self.val(tid, *addr);
                match self.mem.load(a) {
                    Ok(v) => {
                        self.set(tid, *dst, v);
                        self.stats.mem_ops += 1;
                        self.advance_pc(tid);
                        if self.wants_hb(EventKind::Load) {
                            let time = self.threads[tid.index()].clock;
                            self.emit_hb(
                                sup,
                                Event::Load {
                                    thread: tid,
                                    addr: a,
                                    access: *access,
                                    time,
                                },
                            );
                        }
                        StepEnd::Commit(cost.instr + cost.mem)
                    }
                    Err(t) => StepEnd::Trap(t.to_string()),
                }
            }
            Instr::Store { addr, val, access } => {
                let a = self.val(tid, *addr);
                let v = self.val(tid, *val);
                match self.mem.store(a, v) {
                    Ok(()) => {
                        self.stats.mem_ops += 1;
                        self.advance_pc(tid);
                        if self.wants_hb(EventKind::Store) {
                            let time = self.threads[tid.index()].clock;
                            self.emit_hb(
                                sup,
                                Event::Store {
                                    thread: tid,
                                    addr: a,
                                    access: *access,
                                    time,
                                },
                            );
                        }
                        StepEnd::Commit(cost.instr + cost.mem)
                    }
                    Err(t) => StepEnd::Trap(t.to_string()),
                }
            }
            Instr::Call { dst, callee, args } => {
                let target = match callee {
                    Callee::Direct(f) => *f,
                    Callee::Indirect(op) => {
                        let v = self.val(tid, *op);
                        match decode_func_ptr(v, self.program.funcs.len()) {
                            Some(f) => f,
                            None => {
                                return StepEnd::Trap(format!(
                                    "indirect call through non-function value {v}"
                                ))
                            }
                        }
                    }
                };
                if self.threads[tid.index()].frames.len() >= 4096 {
                    return StepEnd::Trap("call stack overflow".into());
                }
                let mut argv = std::mem::take(&mut self.argv);
                argv.clear();
                argv.extend(args.iter().map(|a| self.val(tid, *a)));
                self.advance_pc(tid); // return will resume past the call
                let frame = self.make_frame(target, &argv, *dst);
                self.argv = argv;
                let time = self.threads[tid.index()].clock;
                self.threads[tid.index()].frames.push(frame);
                self.emit(
                    sup,
                    Event::FuncEnter {
                        thread: tid,
                        func: target,
                        time,
                    },
                );
                StepEnd::Commit(cost.call)
            }
            Instr::Lock { addr } => self.do_lock(sup, tid, self.val(tid, *addr)),
            Instr::Unlock { addr } => self.do_unlock(sup, tid, self.val(tid, *addr)),
            Instr::BarrierInit { addr, count } => {
                let a = self.val(tid, *addr);
                let c = self.val(tid, *count);
                if c <= 0 {
                    return StepEnd::Trap("barrier_init with non-positive count".into());
                }
                self.sync.barriers.ensure(a).count = c;
                self.advance_pc(tid);
                StepEnd::Commit(cost.sync_op)
            }
            Instr::BarrierWait { addr } => self.do_barrier_wait(sup, tid, self.val(tid, *addr)),
            Instr::CondWait { cond, lock } => {
                let (ca, la) = (self.val(tid, *cond), self.val(tid, *lock));
                self.do_cond_wait(sup, tid, ca, la)
            }
            Instr::CondSignal { cond } => {
                let a = self.val(tid, *cond);
                self.do_cond_signal(sup, tid, a, false)
            }
            Instr::CondBroadcast { cond } => {
                let a = self.val(tid, *cond);
                self.do_cond_signal(sup, tid, a, true)
            }
            Instr::Spawn { dst, callee, args } => {
                if !sup.may_proceed(OrderPoint::Spawn, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                let target = match callee {
                    Callee::Direct(f) => *f,
                    Callee::Indirect(op) => {
                        let v = self.val(tid, *op);
                        match decode_func_ptr(v, self.program.funcs.len()) {
                            Some(f) => f,
                            None => {
                                return StepEnd::Trap(format!(
                                    "spawn through non-function value {v}"
                                ))
                            }
                        }
                    }
                };
                let mut argv = std::mem::take(&mut self.argv);
                argv.clear();
                argv.extend(args.iter().map(|a| self.val(tid, *a)));
                let time = self.threads[tid.index()].clock;
                let child = self.spawn_thread(target, &argv, time + cost.spawn);
                self.argv = argv;
                if let Some(d) = dst {
                    self.set(tid, *d, child.0 as i64);
                }
                self.sync.spawn_seq += 1;
                let seq = self.sync.spawn_seq;
                self.stats.sync_ops += 1;
                self.emit(
                    sup,
                    Event::Spawned {
                        parent: tid,
                        child,
                        func: target,
                        time,
                    },
                );
                self.emit(
                    sup,
                    Event::Sync {
                        thread: tid,
                        kind: SyncKind::Spawn,
                        addr: child.0 as i64,
                        seq,
                        time,
                    },
                );
                self.emit(
                    sup,
                    Event::FuncEnter {
                        thread: child,
                        func: target,
                        time: time + cost.spawn,
                    },
                );
                self.wake_order_stalled();
                self.advance_pc(tid);
                StepEnd::Commit(cost.spawn + self.log_cost_sync())
            }
            Instr::Join { tid: t_op } => {
                let v = self.val(tid, *t_op);
                if v < 0 || v as usize >= self.threads.len() {
                    return StepEnd::Trap(format!("join of invalid thread id {v}"));
                }
                let target = ThreadId(v as u32);
                if target == tid {
                    return StepEnd::Trap("thread joining itself".into());
                }
                if self.threads[target.index()].state == TState::Done {
                    self.sync.join_seq += 1;
                    let seq = self.sync.join_seq;
                    let time = self.threads[tid.index()].clock;
                    self.stats.sync_ops += 1;
                    self.emit(
                        sup,
                        Event::Sync {
                            thread: tid,
                            kind: SyncKind::Join,
                            addr: v,
                            seq,
                            time,
                        },
                    );
                    self.advance_pc(tid);
                    StepEnd::Commit(cost.sync_op + self.log_cost_sync())
                } else {
                    StepEnd::Block(BlockReason::Join(target))
                }
            }
            Instr::Malloc { dst, size, site } => {
                let n = self.val(tid, *size);
                if n <= 0 || n > i64::from(MAX_CELLS) {
                    return StepEnd::Trap(format!("malloc of invalid size {n}"));
                }
                let a = self.mem.alloc(n, RegionKind::Heap(*site));
                self.set(tid, *dst, a);
                self.advance_pc(tid);
                StepEnd::Commit(cost.call)
            }
            Instr::Free { addr } => {
                let a = self.val(tid, *addr);
                match self.mem.dealloc(a) {
                    Ok(()) => {
                        self.advance_pc(tid);
                        StepEnd::Commit(cost.call)
                    }
                    Err(t) => StepEnd::Trap(t.to_string()),
                }
            }
            Instr::SysRead {
                dst,
                chan,
                buf,
                len,
            } => {
                let chan = self.val(tid, *chan);
                let buf = self.val(tid, *buf);
                let len = self.val(tid, *len).clamp(0, 1 << 20) as usize;
                self.do_input(sup, tid, chan, buf, len, *dst)
            }
            Instr::SysInput { dst, chan } => {
                let chan = self.val(tid, *chan);
                self.do_input_scalar(sup, tid, chan, *dst)
            }
            Instr::SysWrite { chan, buf, len } => {
                if !sup.may_proceed(OrderPoint::Output, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                let _chan = self.val(tid, *chan);
                let buf = self.val(tid, *buf);
                let len = self.val(tid, *len).clamp(0, 1 << 20);
                let mut data = std::mem::take(&mut self.io_buf);
                data.clear();
                for i in 0..len {
                    match self.mem.load(buf + i) {
                        Ok(v) => data.push(v),
                        Err(t) => {
                            self.io_buf = data;
                            return StepEnd::Trap(t.to_string());
                        }
                    }
                }
                self.do_output(sup, tid, data);
                StepEnd::Commit(cost.syscall + len as u64)
            }
            Instr::Print { val } => {
                if !sup.may_proceed(OrderPoint::Output, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                let mut data = std::mem::take(&mut self.io_buf);
                data.clear();
                data.push(self.val(tid, *val));
                self.do_output(sup, tid, data);
                StepEnd::Commit(cost.syscall)
            }
            Instr::WeakAcquire {
                lock,
                granularity,
                range,
            } => {
                if let Some(pos) = self.threads[tid.index()]
                    .weak_granted
                    .iter()
                    .position(|l| l == lock)
                {
                    // A forced handoff already completed this acquire:
                    // consuming it here makes the acquisition effective and
                    // emits its (recorded) event.
                    self.threads[tid.index()].weak_granted.remove(pos);
                    let held = self.threads[tid.index()]
                        .frames
                        .last()
                        .and_then(|f| f.held_weak.iter().rev().find(|h| h.lock == *lock))
                        .copied();
                    let range = held.and_then(|h| h.range);
                    self.commit_granted_acquire(sup, tid, *lock, range, *granularity);
                    self.advance_pc(tid);
                    let mut c = self.cost.weak_op;
                    if self.config.log {
                        c += self.cost.log_write;
                    }
                    return StepEnd::Commit(c);
                }
                let r = range.map(|(lo, hi)| {
                    let (a, b) = (self.val(tid, lo), self.val(tid, hi));
                    (a.min(b), a.max(b))
                });
                match self.try_weak_acquire(sup, tid, *lock, r, *granularity, false) {
                    WeakTry::Acquired => {
                        self.advance_pc(tid);
                        let mut c = self.cost.weak_op;
                        if range.is_some() {
                            c += self.cost.range_check;
                        }
                        if self.config.log {
                            c += self.cost.log_write;
                            ExecStats::bump(
                                &mut self.stats.weak_log_cycles,
                                *granularity,
                                self.cost.log_write,
                            );
                        }
                        StepEnd::Commit(c)
                    }
                    WeakTry::Blocked(reason) => StepEnd::Block(reason),
                    WeakTry::Stalled => StepEnd::Block(BlockReason::OrderTurn),
                }
            }
            Instr::WeakRelease { lock } => {
                let tix = tid.index();
                let frame = self.threads[tix].frames.last_mut().unwrap();
                if let Some(pos) = frame.held_weak.iter().rposition(|h| h.lock == *lock) {
                    frame.held_weak.remove(pos);
                    if let Some(state) = self.sync.weak.get_mut(*lock) {
                        state.release(tid);
                    }
                }
                // Releasing a lock we no longer hold (forced release took
                // it) is a no-op: the forced-release protocol already
                // queued a reacquire balanced against this release.
                let time = self.threads[tix].clock;
                self.emit(
                    sup,
                    Event::WeakRelease {
                        thread: tid,
                        lock: *lock,
                        time,
                    },
                );
                self.wake_weak_waiters(*lock, time);
                self.advance_pc(tid);
                StepEnd::Commit(self.cost.weak_op)
            }
        }
    }

    /// Commit an output syscall's payload, staged in `data` (the
    /// machine's `io_buf`, which it returns to): append it to the output,
    /// and build the `Output` event only when someone observes it.
    fn do_output(&mut self, sup: &mut dyn Supervisor, tid: ThreadId, data: Vec<i64>) {
        self.output.extend(data.iter().map(|&v| (tid, v)));
        self.stats.syscalls += 1;
        if self.wants(EventKind::Output) {
            let ev = Event::Output {
                thread: tid,
                data: data.clone(),
            };
            self.emit(sup, ev);
        }
        self.io_buf = data;
        self.wake_order_stalled();
        self.advance_pc(tid);
    }

    fn log_cost_sync(&mut self) -> u64 {
        if self.config.log {
            self.cost.log_write
        } else {
            0
        }
    }

    fn do_lock(&mut self, sup: &mut dyn Supervisor, tid: ThreadId, addr: i64) -> StepEnd {
        if !sup.may_proceed(OrderPoint::Mutex(addr), tid) {
            return StepEnd::Block(BlockReason::OrderTurn);
        }
        let m = self.sync.mutexes.ensure(addr);
        match m.holder {
            None => {
                m.holder = Some(tid);
                m.seq += 1;
                let seq = m.seq;
                let time = self.threads[tid.index()].clock;
                self.stats.sync_ops += 1;
                self.emit(
                    sup,
                    Event::Sync {
                        thread: tid,
                        kind: SyncKind::Mutex,
                        addr,
                        seq,
                        time,
                    },
                );
                self.wake_order_stalled();
                self.advance_pc(tid);
                StepEnd::Commit(self.cost.sync_op + self.log_cost_sync())
            }
            Some(h) if h == tid => StepEnd::Trap(format!("recursive lock of mutex@{addr}")),
            Some(_) => StepEnd::Block(BlockReason::Mutex(addr)),
        }
    }

    fn do_unlock(&mut self, sup: &mut dyn Supervisor, tid: ThreadId, addr: i64) -> StepEnd {
        let Some(m) = self.sync.mutexes.get_mut(addr) else {
            return StepEnd::Trap(format!("unlock of never-locked mutex@{addr}"));
        };
        if m.holder != Some(tid) {
            return StepEnd::Trap(format!("unlock of mutex@{addr} not held by this thread"));
        }
        m.holder = None;
        let at = self.threads[tid.index()].clock;
        self.stats.sync_ops += 1;
        if self.wants_hb(EventKind::SyncRelease) {
            self.emit_hb(
                sup,
                Event::SyncRelease {
                    thread: tid,
                    kind: SyncKind::Mutex,
                    addr,
                    time: at,
                },
            );
        }
        self.wake_mutex_waiters(addr, at);
        self.advance_pc(tid);
        StepEnd::Commit(self.cost.sync_op)
    }

    fn do_barrier_wait(&mut self, sup: &mut dyn Supervisor, tid: ThreadId, addr: i64) -> StepEnd {
        if self.threads[tid.index()].barrier_pass {
            self.threads[tid.index()].barrier_pass = false;
            self.advance_pc(tid);
            if self.wants_hb(EventKind::BarrierResume) {
                let time = self.threads[tid.index()].clock;
                self.emit_hb(sup, Event::BarrierResume { thread: tid, addr, time });
            }
            return StepEnd::Commit(self.cost.sync_op + self.log_cost_sync());
        }
        let Some(b) = self.sync.barriers.get_mut(addr) else {
            return StepEnd::Trap(format!("barrier_wait on uninitialized barrier@{addr}"));
        };
        if b.count == 0 {
            return StepEnd::Trap(format!("barrier_wait on uninitialized barrier@{addr}"));
        }
        b.arrived.push(tid);
        if (b.arrived.len() as i64) == b.count {
            b.epoch += 1;
            let seq = b.epoch;
            let arrived = std::mem::take(&mut b.arrived);
            let release_time = arrived
                .iter()
                .map(|t| self.threads[t.index()].clock)
                .max()
                .unwrap_or(0);
            self.stats.sync_ops += 1;
            if self.wants_hb(EventKind::SyncRelease) {
                let time = self.threads[tid.index()].clock;
                self.emit_hb(
                    sup,
                    Event::SyncRelease {
                        thread: tid,
                        kind: SyncKind::Barrier,
                        addr,
                        time,
                    },
                );
            }
            self.emit(
                sup,
                Event::Sync {
                    thread: tid,
                    kind: SyncKind::Barrier,
                    addr,
                    seq,
                    time: release_time,
                },
            );
            for t in arrived {
                self.threads[t.index()].barrier_pass = true;
                if t != tid {
                    self.wake_thread(t, release_time, WaitKind::Sync);
                } else {
                    self.threads[t.index()].clock = release_time;
                }
            }
            self.wake_order_stalled();
            // Do not advance ip: this thread re-executes and consumes its
            // own barrier_pass flag (uniform exit path for all threads).
            StepEnd::Commit(0)
        } else {
            // A non-final arrival still releases into the barrier: the
            // threads resuming past this epoch are ordered after it.
            if self.wants_hb(EventKind::SyncRelease) {
                let time = self.threads[tid.index()].clock;
                self.emit_hb(
                    sup,
                    Event::SyncRelease {
                        thread: tid,
                        kind: SyncKind::Barrier,
                        addr,
                        time,
                    },
                );
            }
            StepEnd::Block(BlockReason::Barrier(addr))
        }
    }

    fn do_cond_wait(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        cond_addr: i64,
        lock_addr: i64,
    ) -> StepEnd {
        let tix = tid.index();
        if self.threads[tix].cond_phase == 2 {
            // Woken: reacquire the mutex, then proceed past the wait.
            if !sup.may_proceed(OrderPoint::Mutex(lock_addr), tid) {
                return StepEnd::Block(BlockReason::OrderTurn);
            }
            let m = self.sync.mutexes.ensure(lock_addr);
            match m.holder {
                None => {
                    m.holder = Some(tid);
                    m.seq += 1;
                    let seq = m.seq;
                    let time = self.threads[tix].clock;
                    self.stats.sync_ops += 1;
                    self.threads[tix].cond_phase = 0;
                    self.emit(
                        sup,
                        Event::Sync {
                            thread: tid,
                            kind: SyncKind::Mutex,
                            addr: lock_addr,
                            seq,
                            time,
                        },
                    );
                    self.wake_order_stalled();
                    self.advance_pc(tid);
                    StepEnd::Commit(self.cost.sync_op + self.log_cost_sync())
                }
                Some(_) => StepEnd::Block(BlockReason::CondReacquire(lock_addr)),
            }
        } else {
            // First execution: must hold the mutex; release it and wait.
            let Some(m) = self.sync.mutexes.get_mut(lock_addr) else {
                return StepEnd::Trap("cond_wait without holding the mutex".into());
            };
            if m.holder != Some(tid) {
                return StepEnd::Trap("cond_wait without holding the mutex".into());
            }
            m.holder = None;
            let at = self.threads[tix].clock;
            self.stats.sync_ops += 1;
            if self.wants_hb(EventKind::SyncRelease) {
                self.emit_hb(
                    sup,
                    Event::SyncRelease {
                        thread: tid,
                        kind: SyncKind::Mutex,
                        addr: lock_addr,
                        time: at,
                    },
                );
            }
            self.wake_mutex_waiters(lock_addr, at);
            self.sync.conds.ensure(cond_addr).waiters.push(tid);
            StepEnd::Block(BlockReason::Cond(cond_addr))
        }
    }

    fn do_cond_signal(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        addr: i64,
        broadcast: bool,
    ) -> StepEnd {
        // A globally-ordered (forensic) replay gates each wakeup on its
        // journal turn; dropping a signal because the recorded recipient
        // hasn't reached that turn yet would lose the wakeup forever, so
        // such supervisors ask the signaler to wait instead. Checked
        // before any mutation so the blocked step can simply re-run.
        if sup.defers_cond_signals() {
            let waiters = self
                .sync
                .conds
                .ensure(addr)
                .waiters
                .clone();
            if !waiters.is_empty()
                && !waiters
                    .iter()
                    .any(|w| sup.may_proceed(OrderPoint::Cond(addr), *w))
            {
                return StepEnd::Block(BlockReason::OrderTurn);
            }
        }
        let now = self.threads[tid.index()].clock;
        loop {
            let cand = {
                let c = self.sync.conds.ensure(addr);
                c.waiters
                    .iter()
                    .copied()
                    .find(|w| sup.may_proceed(OrderPoint::Cond(addr), *w))
            };
            let Some(w) = cand else { break };
            let c = self.sync.conds.get_mut(addr).expect("cond entry exists");
            c.waiters.retain(|x| *x != w);
            c.seq += 1;
            let seq = c.seq;
            self.stats.sync_ops += 1;
            self.threads[w.index()].cond_phase = 2;
            self.wake_thread(w, now, WaitKind::Sync);
            // The signaler's release into the cond object must reach the
            // detector before the waiter's acquire (the Sync below).
            if self.wants_hb(EventKind::SyncRelease) {
                self.emit_hb(
                    sup,
                    Event::SyncRelease {
                        thread: tid,
                        kind: SyncKind::Cond,
                        addr,
                        time: now,
                    },
                );
            }
            self.emit(
                sup,
                Event::Sync {
                    thread: w,
                    kind: SyncKind::Cond,
                    addr,
                    seq,
                    time: now,
                },
            );
            self.wake_order_stalled();
            if !broadcast {
                break;
            }
        }
        self.advance_pc(tid);
        StepEnd::Commit(self.cost.sync_op + self.log_cost_sync())
    }

    fn do_input(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        chan: i64,
        buf: i64,
        len: usize,
        dst: Option<LocalId>,
    ) -> StepEnd {
        if !sup.may_proceed(OrderPoint::Input, tid) {
            return StepEnd::Block(BlockReason::OrderTurn);
        }
        let (data, latency) = match sup.input_override(tid, chan, len) {
            Some(d) => (d, 0),
            None => {
                let d = self.world.gen_input(chan, len);
                let l = self.world.latency(chan, len);
                (d, l)
            }
        };
        for (i, &v) in data.iter().enumerate() {
            if let Err(t) = self.mem.store(buf + i as i64, v) {
                return StepEnd::Trap(t.to_string());
            }
        }
        if let Some(d) = dst {
            self.set(tid, d, data.len() as i64);
        }
        self.stats.syscalls += 1;
        self.stats.input_words += data.len() as u64;
        self.stats.io_wait += latency;
        self.threads[tid.index()].input_seq += 1;
        let time = self.threads[tid.index()].clock;
        self.emit(
            sup,
            Event::Input {
                thread: tid,
                chan,
                data,
                time,
            },
        );
        self.wake_order_stalled();
        self.advance_pc(tid);
        let log = if self.config.log {
            self.cost.log_write + (len as u64) / 4
        } else {
            0
        };
        StepEnd::Commit(self.cost.syscall + latency + log)
    }

    fn do_input_scalar(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        chan: i64,
        dst: LocalId,
    ) -> StepEnd {
        if !sup.may_proceed(OrderPoint::Input, tid) {
            return StepEnd::Block(BlockReason::OrderTurn);
        }
        let (data, latency) = match sup.input_override(tid, chan, 1) {
            Some(d) => (d, 0),
            None => {
                let d = self.world.gen_input(chan, 1);
                let l = self.world.latency(chan, 1);
                (d, l)
            }
        };
        let v = data.first().copied().unwrap_or(0);
        self.set(tid, dst, v);
        self.stats.syscalls += 1;
        self.stats.input_words += 1;
        self.stats.io_wait += latency;
        self.threads[tid.index()].input_seq += 1;
        let time = self.threads[tid.index()].clock;
        self.emit(
            sup,
            Event::Input {
                thread: tid,
                chan,
                data: vec![v],
                time,
            },
        );
        self.wake_order_stalled();
        self.advance_pc(tid);
        let log = if self.config.log {
            self.cost.log_write
        } else {
            0
        };
        StepEnd::Commit(self.cost.syscall + latency + log)
    }

    /// Emit the WeakAcquire event (and account for it) for a consumed
    /// forced-handoff grant — the point where the acquisition becomes part
    /// of the recorded order.
    fn commit_granted_acquire(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        lock: WeakLockId,
        range: Option<(i64, i64)>,
        gran: LockGranularity,
    ) {
        let state = self.sync.weak.ensure(lock);
        state.seq += 1;
        let seq = state.seq;
        ExecStats::bump(&mut self.stats.weak_acquires, gran, 1);
        if self.config.log {
            ExecStats::bump(
                &mut self.stats.weak_log_cycles,
                gran,
                self.cost.log_write,
            );
        }
        let time = self.threads[tid.index()].clock;
        self.emit(
            sup,
            Event::WeakAcquire {
                thread: tid,
                lock,
                granularity: gran,
                range,
                seq,
                time,
            },
        );
        self.wake_order_stalled();
    }

    fn try_weak_acquire(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        lock: WeakLockId,
        range: Option<(i64, i64)>,
        gran: LockGranularity,
        is_reacquire: bool,
    ) -> WeakTry {
        if !sup.may_proceed(OrderPoint::Weak(lock), tid) {
            return WeakTry::Stalled;
        }
        let state = self.sync.weak.ensure(lock);
        if !self.config.weak_always_succeed {
            if let Some(conflict) = state.conflict_with(range) {
                if conflict.thread != tid {
                    return WeakTry::Blocked(BlockReason::Weak(lock, range, gran));
                }
            }
            state.holders.push(WeakHolder { thread: tid, range });
        }
        state.seq += 1;
        let seq = state.seq;
        let time = self.threads[tid.index()].clock;
        // Track in the current frame so returns/forced releases can find it.
        self.threads[tid.index()]
            .frames
            .last_mut()
            .expect("live thread has frames")
            .held_weak
            .push(HeldWeak { lock, range, gran });
        ExecStats::bump(&mut self.stats.weak_acquires, gran, 1);
        self.emit(
            sup,
            Event::WeakAcquire {
                thread: tid,
                lock,
                granularity: gran,
                range,
                seq,
                time,
            },
        );
        self.wake_order_stalled();
        if is_reacquire {
            // Reacquire cost: same as a normal weak op.
            self.threads[tid.index()].clock += self.cost.weak_op;
        }
        WeakTry::Acquired
    }
}

enum WeakTry {
    Acquired,
    Blocked(BlockReason),
    Stalled,
}

enum WaitKind {
    Sync,
    Weak(LockGranularity),
}

fn decode_func_ptr(v: i64, n_funcs: usize) -> Option<FuncId> {
    if v >= FUNC_PTR_BASE && ((v - FUNC_PTR_BASE) as usize) < n_funcs {
        Some(FuncId((v - FUNC_PTR_BASE) as u32))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    fn run(src: &str) -> ExecResult {
        let p = compile(src).unwrap();
        execute(&p, &ExecConfig::default())
    }

    fn run_seed(src: &str, seed: u64) -> ExecResult {
        let p = compile(src).unwrap();
        execute(
            &p,
            &ExecConfig {
                seed,
                ..ExecConfig::default()
            },
        )
    }

    #[test]
    fn arithmetic_and_output() {
        let r = run("int main() { print(2 + 3 * 4); return 0; }");
        assert!(r.outcome.is_exit());
        assert_eq!(r.output_of(ThreadId(0)), vec![14]);
    }

    #[test]
    fn exit_code_is_mains_return() {
        let r = run("int main() { return 42; }");
        assert_eq!(r.outcome, Outcome::Exited(42));
    }

    #[test]
    fn loops_and_globals() {
        let r = run(
            "int acc;
             int main() { int i; for (i = 0; i < 10; i = i + 1) { acc = acc + i; }
                          print(acc); return acc; }",
        );
        assert_eq!(r.outcome, Outcome::Exited(45));
    }

    #[test]
    fn arrays_and_pointers() {
        let r = run(
            "int a[8];
             int main() {
               int i; int *p; int sum;
               for (i = 0; i < 8; i = i + 1) { a[i] = i * i; }
               p = &a[0]; sum = 0;
               for (i = 0; i < 8; i = i + 1) { sum = sum + *(p + i); }
               print(sum); return 0;
             }",
        );
        assert_eq!(r.output_of(ThreadId(0)), vec![140]);
    }

    #[test]
    fn structs_through_pointers() {
        let r = run(
            "struct node { int val; struct node *next; };
             int main() {
               struct node a; struct node b; struct node *p;
               a.val = 1; b.val = 2; a.next = &b; b.next = 0;
               p = &a;
               print(p->next->val);
               return 0;
             }",
        );
        assert_eq!(r.output_of(ThreadId(0)), vec![2]);
    }

    #[test]
    fn recursion_works() {
        let r = run(
            "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
             int main() { print(fib(10)); return 0; }",
        );
        assert_eq!(r.output_of(ThreadId(0)), vec![55]);
    }

    #[test]
    fn malloc_free_cycle() {
        let r = run(
            "int main() {
               int *p; int i; int s;
               p = malloc(16);
               for (i = 0; i < 16; i = i + 1) { p[i] = i; }
               s = p[15];
               free(p);
               print(s); return 0;
             }",
        );
        assert_eq!(r.output_of(ThreadId(0)), vec![15]);
    }

    #[test]
    fn buffer_overflow_traps() {
        let r = run(
            "int a[4];
             int main() { a[9] = 1; return 0; }",
        );
        assert!(matches!(r.outcome, Outcome::Trap { .. }));
    }

    #[test]
    fn use_after_free_traps() {
        let r = run("int main() { int *p; p = malloc(2); free(p); *p = 1; return 0; }");
        assert!(matches!(r.outcome, Outcome::Trap { .. }));
    }

    #[test]
    fn division_by_zero_traps() {
        let r = run("int main() { int z; z = 0; return 1 / z; }");
        assert!(matches!(r.outcome, Outcome::Trap { .. }));
    }

    #[test]
    fn spawn_join_and_shared_memory() {
        let r = run(
            "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < n; i = i + 1) {
                lock(&m); g = g + 1; unlock(&m); } }
             int main() { int t1; int t2;
                t1 = spawn(w, 100); t2 = spawn(w, 100);
                join(t1); join(t2);
                print(g); return 0; }",
        );
        assert_eq!(r.output_of(ThreadId(0)), vec![200]);
        assert!(r.stats.threads == 3);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let r = run(
            "int a; int b; barrier_t bar;
             void w(int id) {
                if (id == 0) { a = 10; }
                barrier_wait(&bar);
                if (id == 1) { b = a * 2; }
             }
             int main() { int t1; int t2;
                barrier_init(&bar, 2);
                t1 = spawn(w, 0); t2 = spawn(w, 1);
                join(t1); join(t2);
                print(b); return 0; }",
        );
        assert_eq!(r.output_of(ThreadId(0)), vec![20], "{:?}", r.outcome);
    }

    #[test]
    fn condvar_producer_consumer() {
        let r = run(
            "int ready; int data; lock_t m; cond_t c;
             void producer(int v) {
                lock(&m); data = v; ready = 1; cond_signal(&c); unlock(&m);
             }
             void consumer(int unused) {
                lock(&m);
                while (ready == 0) { cond_wait(&c, &m); }
                print(data);
                unlock(&m);
             }
             int main() { int t1; int t2;
                t1 = spawn(consumer, 0);
                t2 = spawn(producer, 99);
                join(t1); join(t2); return 0; }",
        );
        assert!(r.outcome.is_exit(), "{:?}", r.outcome);
        assert_eq!(r.output_of(ThreadId(1)), vec![99]);
    }

    #[test]
    fn deadlock_detected() {
        let r = run(
            "lock_t m1; lock_t m2;
             void w(int unused) { lock(&m2); lock(&m1); unlock(&m1); unlock(&m2); }
             int main() { int t;
                lock(&m1);
                t = spawn(w, 0);
                // Give the other thread the chance to take m2 first by
                // burning time, then deadlock on m2.
                int i; int s; for (i = 0; i < 1000; i = i + 1) { s = s + i; }
                lock(&m2);
                join(t); return 0; }",
        );
        // Depending on timing this either completes or deadlocks, but must
        // never hang or trap. With default seed the spawned thread grabs m2
        // while main burns cycles.
        assert!(
            matches!(r.outcome, Outcome::Deadlock { .. } | Outcome::Exited(_)),
            "{:?}",
            r.outcome
        );
    }

    #[test]
    fn recursive_lock_traps() {
        let r = run("lock_t m; int main() { lock(&m); lock(&m); return 0; }");
        assert!(matches!(r.outcome, Outcome::Trap { .. }));
    }

    #[test]
    fn unlock_not_held_traps() {
        let r = run("lock_t m; int main() { unlock(&m); return 0; }");
        assert!(matches!(r.outcome, Outcome::Trap { .. }));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let src = "int g;
             void w(int n) { int i; for (i = 0; i < n; i = i + 1) { g = g + 1; } }
             int main() { int t; t = spawn(w, 50); w(50); join(t); print(g); return 0; }";
        let a = run_seed(src, 7);
        let b = run_seed(src, 7);
        assert_eq!(a.output, b.output);
        assert_eq!(a.state_hash, b.state_hash);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn racy_program_diverges_across_seeds() {
        // A store-load race on g: the final value depends on interleaving.
        let src = "int g;
             void w(int v) { int i; int x;
                for (i = 0; i < 200; i = i + 1) { x = g; g = x + 1; } }
             int main() { int t; t = spawn(w, 1); w(2); join(t); print(g); return 0; }";
        let outputs: Vec<Vec<i64>> = (0..8)
            .map(|s| run_seed(src, s).output_of(ThreadId(0)))
            .collect();
        let all_same = outputs.windows(2).all(|w| w[0] == w[1]);
        assert!(
            !all_same,
            "expected lost updates to vary across seeds: {outputs:?}"
        );
    }

    #[test]
    fn input_is_seed_dependent_and_counted() {
        let src = "int buf[16];
             int main() { int n; n = sys_read(0, &buf[0], 16); print(buf[0]); return n; }";
        let a = run_seed(src, 1);
        let b = run_seed(src, 2);
        assert_eq!(a.stats.syscalls, b.stats.syscalls);
        assert_eq!(a.stats.input_words, 16);
        // Content differs across seeds with overwhelming probability.
        assert_ne!(a.output, b.output);
    }

    #[test]
    fn io_latency_accrues_wait_time() {
        let r = run(
            "int buf[4];
             int main() { sys_read(1000, &buf[0], 4); return 0; }",
        );
        assert!(r.stats.io_wait > 0);
    }

    #[test]
    fn stats_count_memory_ops() {
        let r = run("int g; int main() { g = 1; g = g + 1; return g; }");
        // store, load+store, load = 4 memory operations.
        assert_eq!(r.stats.mem_ops, 4);
    }

    #[test]
    fn makespan_reflects_parallelism() {
        // Two independent workers should overlap: makespan well under the
        // sum of both workers' work.
        let par = run(
            "int a; int b;
             void w1(int n) { int i; for (i = 0; i < 2000; i = i + 1) { a = a + 1; } }
             void w2(int n) { int i; for (i = 0; i < 2000; i = i + 1) { b = b + 1; } }
             int main() { int t1; int t2;
                t1 = spawn(w1, 0); t2 = spawn(w2, 0); join(t1); join(t2); return 0; }",
        );
        let seq = run(
            "int a; int b;
             void w1(int n) { int i; for (i = 0; i < 2000; i = i + 1) { a = a + 1; } }
             void w2(int n) { int i; for (i = 0; i < 2000; i = i + 1) { b = b + 1; } }
             int main() { w1(0); w2(0); return 0; }",
        );
        assert!(
            (par.makespan as f64) < 0.75 * seq.makespan as f64,
            "parallel {} vs sequential {}",
            par.makespan,
            seq.makespan
        );
    }

    #[test]
    fn function_pointer_call() {
        let r = run(
            "int double_it(int x) { return x * 2; }
             int main() { int *fp; fp = double_it; print(fp(21)); return 0; }",
        );
        assert_eq!(r.output_of(ThreadId(0)), vec![42]);
    }

    #[test]
    fn indirect_call_through_bad_value_traps() {
        let r = run("int main() { int *fp; fp = 0; return fp(1); }");
        assert!(matches!(r.outcome, Outcome::Trap { .. }));
    }

    #[test]
    fn unbounded_recursion_traps_as_stack_overflow() {
        let r = run("int f(int n) { return f(n + 1); } int main() { return f(0); }");
        let Outcome::Trap { message, .. } = &r.outcome else {
            panic!("expected trap, got {:?}", r.outcome);
        };
        assert!(message.contains("stack overflow"), "{message}");
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let p = compile("int main() { while (1) {} return 0; }").unwrap();
        let r = execute(
            &p,
            &ExecConfig {
                max_steps: 10_000,
                ..ExecConfig::default()
            },
        );
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    /// Run `src` in both interpreter modes and require byte-identical
    /// results, including the full event trace. The cross-workload version
    /// of this check lives in `tests/vm_differential.rs`; this one keeps
    /// the invariant enforced from inside the crate.
    fn assert_modes_agree(src: &str, seed: u64) {
        assert_modes_agree_cfg(
            src,
            &ExecConfig {
                seed,
                collect_trace: true,
                count_blocks: true,
                ..ExecConfig::default()
            },
        );
    }

    fn assert_modes_agree_cfg(src: &str, cfg: &ExecConfig) {
        let p = compile(src).unwrap();
        let flat = execute_mode(&p, cfg, InterpMode::Flat);
        let refr = execute_mode(&p, cfg, InterpMode::Reference);
        assert_eq!(flat.outcome, refr.outcome);
        assert_eq!(flat.output, refr.output);
        assert_eq!(flat.state_hash, refr.state_hash);
        assert_eq!(flat.makespan, refr.makespan);
        assert_eq!(flat.stats, refr.stats);
        assert_eq!(flat.trace, refr.trace);
        assert_eq!(flat.block_counts, refr.block_counts);
    }

    #[test]
    fn flat_and_reference_agree_on_contended_mutex() {
        let src = "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 50; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t1; int t2;
                t1 = spawn(w, 1); t2 = spawn(w, 2); w(3);
                join(t1); join(t2); print(g); return 0; }";
        for seed in [0, 7, 99] {
            assert_modes_agree(src, seed);
        }
    }

    #[test]
    fn flat_and_reference_agree_on_barrier_cond_io() {
        let src = "int stage; lock_t m; cond_t c; barrier_t b; int buf[4];
             void w(int id) {
                barrier_init(&b, 2);
                sys_read(id, &buf[0], 4);
                barrier_wait(&b);
                lock(&m);
                while (stage < 1) { cond_wait(&c, &m); }
                unlock(&m);
                print(buf[0] + id);
             }
             int main() { int t;
                barrier_init(&b, 2);
                t = spawn(w, 1);
                barrier_wait(&b);
                lock(&m); stage = 1; cond_broadcast(&c); unlock(&m);
                join(t); return 0; }";
        for seed in [1, 13] {
            assert_modes_agree(src, seed);
        }
    }

    /// An uninstrumented racy accumulator: the final `g` depends entirely
    /// on how the scheduler interleaves the read-modify-write windows, so
    /// it makes schedule differences observable through output alone.
    const RACY_COUNTER: &str = "int g;
         void w(int v) { int i; int x;
            for (i = 0; i < 60; i = i + 1) { x = g; g = x + v; } }
         int main() { int t; t = spawn(w, 1); w(2); join(t);
            print(g); return 0; }";

    fn sched_cfg(sched: SchedStrategy, seed: u64) -> ExecConfig {
        ExecConfig {
            seed,
            sched,
            collect_trace: true,
            count_blocks: true,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn adversarial_strategies_keep_modes_bit_identical() {
        let contended = "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < 50; i = i + 1) {
                lock(&m); g = g + n; unlock(&m); } }
             int main() { int t1; int t2;
                t1 = spawn(w, 1); t2 = spawn(w, 2); w(3);
                join(t1); join(t2); print(g); return 0; }";
        for sched in [
            SchedStrategy::Pct {
                depth: 3,
                span: 2_000,
            },
            SchedStrategy::PreemptBound {
                budget: 256,
                period: 1,
            },
        ] {
            for seed in [0, 7, 99] {
                assert_modes_agree_cfg(contended, &sched_cfg(sched, seed));
                assert_modes_agree_cfg(RACY_COUNTER, &sched_cfg(sched, seed));
            }
        }
    }

    #[test]
    fn pct_is_deterministic_per_seed_and_explores_across_seeds() {
        let p = compile(RACY_COUNTER).unwrap();
        let sched = SchedStrategy::Pct {
            depth: 3,
            span: 2_000,
        };
        let mut hashes = std::collections::BTreeSet::new();
        for seed in 0..8 {
            let cfg = sched_cfg(sched, seed);
            let a = execute(&p, &cfg);
            let b = execute(&p, &cfg);
            assert!(a.outcome.is_exit(), "{:?}", a.outcome);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.output, b.output);
            assert_eq!(a.state_hash, b.state_hash);
            hashes.insert(a.state_hash);
        }
        assert!(
            hashes.len() > 1,
            "PCT produced one schedule across 8 seeds — change points never fired"
        );
    }

    #[test]
    fn preempt_bound_injects_preemptions_deterministically() {
        let p = compile(RACY_COUNTER).unwrap();
        let cfg = sched_cfg(
            SchedStrategy::PreemptBound {
                budget: 4_096,
                period: 1,
            },
            5,
        );
        let a = execute(&p, &cfg);
        let b = execute(&p, &cfg);
        assert!(a.outcome.is_exit(), "{:?}", a.outcome);
        assert!(a.stats.sched_preemptions > 0);
        assert_eq!(a.stats.sched_preemptions, b.stats.sched_preemptions);
        assert_eq!(a.output, b.output);
        assert_eq!(a.state_hash, b.state_hash);
        // Forcing a switch inside every read-modify-write window must lose
        // updates: the serial total (60*1 + 60*2 = 180) is unreachable.
        assert_ne!(a.output_of(ThreadId(0)), vec![180]);
    }

    #[test]
    fn baseline_strategy_reports_no_preemptions() {
        let p = compile(RACY_COUNTER).unwrap();
        let r = execute(&p, &ExecConfig::default());
        assert!(r.outcome.is_exit());
        assert_eq!(r.stats.sched_preemptions, 0);
    }

    #[test]
    fn strategies_handle_deadlock_and_step_limit() {
        let deadlock = "lock_t a; lock_t b;
             void w(int n) { lock(&b); lock(&a); unlock(&a); unlock(&b); }
             int main() { int t; lock(&a); t = spawn(w, 0);
                lock(&b); unlock(&b); unlock(&a); join(t); return 0; }";
        let spin = "int main() { while (1) {} return 0; }";
        for sched in [
            SchedStrategy::Pct {
                depth: 2,
                span: 500,
            },
            SchedStrategy::PreemptBound {
                budget: 64,
                period: 1,
            },
        ] {
            for seed in [1, 4] {
                let cfg = ExecConfig {
                    max_steps: 20_000,
                    ..sched_cfg(sched, seed)
                };
                let p = compile(deadlock).unwrap();
                let r = execute(&p, &cfg);
                assert!(
                    matches!(r.outcome, Outcome::Deadlock { .. } | Outcome::Exited(_)),
                    "{sched:?} seed {seed}: {:?}",
                    r.outcome
                );
                let p = compile(spin).unwrap();
                assert_eq!(execute(&p, &cfg).outcome, Outcome::StepLimit);
                assert_modes_agree_cfg(
                    deadlock,
                    &ExecConfig {
                        max_steps: 20_000,
                        ..sched_cfg(sched, seed)
                    },
                );
            }
        }
    }

    #[test]
    fn strategy_runs_commit_hot_ops_in_runs() {
        // Between scheduling points the flat VM retires hot ops in runs; the schedule must still be the reference's, also once a
        // preemption-bounded run has spent its budget (accesses then run
        // hot too) and with PCT change points landing mid-loop.
        for sched in [
            SchedStrategy::Pct {
                depth: 4,
                span: 300,
            },
            SchedStrategy::PreemptBound {
                budget: 3,
                period: 1,
            },
            SchedStrategy::PreemptBound {
                budget: 0,
                period: 1,
            },
        ] {
            for seed in [2, 31] {
                let cfg = sched_cfg(sched, seed);
                assert_modes_agree_cfg(RACY_COUNTER, &cfg);
                let p = compile(RACY_COUNTER).unwrap();
                let r = execute_mode(&p, &cfg, InterpMode::Flat);
                assert!(r.stats.vm.batched_ops > 0, "{sched:?}: no hot run");
            }
        }
    }

    #[test]
    fn traps_inside_hot_runs_count_as_steps() {
        // The division traps inside a hot run. With the step limit just
        // below, at, and above the trapping step, every engine must end the
        // run as the reference does: the trapping op is a step, so a limit
        // one short of it reports the limit, not the trap.
        let src = "int main() { int i; int s; s = 0;
             for (i = 0; i < 40; i = i + 1) { s = s + i; }
             return s / (s - 780); }";
        let p = compile(src).unwrap();
        for sched in [
            SchedStrategy::ClockJitter,
            SchedStrategy::Pct {
                depth: 3,
                span: 100,
            },
            SchedStrategy::preempt_bound(),
        ] {
            let cfg = sched_cfg(sched, 3);
            let retired = execute_mode(&p, &cfg, InterpMode::Reference).stats.instrs;
            for max_steps in retired - 1..=retired + 1 {
                let cfg = ExecConfig { max_steps, ..cfg };
                assert_modes_agree_cfg(src, &cfg);
                let r = execute_mode(&p, &cfg, InterpMode::Flat);
                let trapped = matches!(r.outcome, Outcome::Trap { .. });
                assert_eq!(trapped, max_steps > retired, "{sched:?} limit {max_steps}");
            }
        }
    }

    /// Both modes end each trapping program with the same named trap; the
    /// cold ops among them (sync, heap, calls, spawns, I/O) run the one
    /// `exec_instr` arm in both, so this pins that arm's message.
    #[test]
    fn flat_and_reference_agree_on_traps() {
        let past_max = format!(
            "int main() {{ int *p; p = malloc({}); return 0; }}",
            MAX_CELLS + 1
        );
        for (src, message) in [
            (
                "int main() { int x; x = 0; return 1 / x; }",
                "division by zero".to_string(),
            ),
            (
                "int main() { int *p; p = 0; return *p; }",
                "memory trap at address 0: load outside any allocated region".into(),
            ),
            (
                "int f(int n) { return f(n); } int main() { return f(0); }",
                "call stack overflow".into(),
            ),
            (
                "int main() { join(5); return 0; }",
                "join of invalid thread id 5".into(),
            ),
            (
                "int main() { join(0); return 0; }",
                "thread joining itself".into(),
            ),
            (
                "int main() { int *p; p = malloc(0); return 0; }",
                "malloc of invalid size 0".into(),
            ),
            (
                &past_max,
                format!("malloc of invalid size {}", MAX_CELLS + 1),
            ),
            (
                "int main() { int *p; p = malloc(2); free(p); free(p); return 0; }",
                "memory trap at address 1: free of a non-allocated or already-freed address".into(),
            ),
            (
                "barrier_t b; int main() { barrier_init(&b, 0); return 0; }",
                "barrier_init with non-positive count".into(),
            ),
            (
                "int main() { int *fp; fp = 0; spawn(fp, 1); return 0; }",
                "spawn through non-function value 0".into(),
            ),
            (
                "int main() { int *fp; fp = 7; return fp(1); }",
                "indirect call through non-function value 7".into(),
            ),
            (
                "int main() { int *p; p = malloc(4); free(p); sys_write(1, p, 4); return 0; }",
                "memory trap at address 1: use after free".into(),
            ),
        ] {
            assert_modes_agree(src, 0);
            let r = execute_mode(
                &compile(src).unwrap(),
                &ExecConfig::default(),
                InterpMode::Flat,
            );
            let trap = Outcome::Trap {
                thread: ThreadId(0),
                message,
            };
            assert_eq!(r.outcome, trap, "{src}");
        }
    }

    /// The makespan a jitter-off run of `base` gains from `op`, appended
    /// to `main`'s returning block after `setup` (which both runs get).
    fn op_charge(base: &Program, setup: &[Instr], op: Instr, log: bool, mode: InterpMode) -> u64 {
        let append = |ops: &[Instr]| {
            let mut p = base.clone();
            let main = p.main();
            let block = p.funcs[main.index()]
                .blocks
                .iter_mut()
                .find(|b| matches!(b.term, Terminator::Return(_)))
                .expect("main returns");
            for op in ops {
                block.push(op.clone(), Default::default());
            }
            p
        };
        let without = append(setup);
        let with = append(&[setup, &[op]].concat());
        let cfg = ExecConfig {
            jitter: Jitter::none(),
            log,
            ..ExecConfig::default()
        };
        let (r0, r1) = (
            execute_mode(&without, &cfg, mode),
            execute_mode(&with, &cfg, mode),
        );
        assert!(r0.outcome.is_exit(), "{:?}", r0.outcome);
        assert!(r1.outcome.is_exit(), "{:?}", r1.outcome);
        r1.makespan - r0.makespan
    }

    /// Each cold op commits exactly its `CostModel` charge in both modes,
    /// with and without logging.
    #[test]
    fn cold_op_charges_match_the_cost_model() {
        let c = CostModel::default();
        let mut base = compile(
            "lock_t m; void w(int a) {}
             int main() { lock_t *pm; int *h; int t; int i;
                pm = &m; h = malloc(4); t = spawn(w, 0);
                for (i = 0; i < 100; i = i + 1) {} }",
        )
        .unwrap();
        base.weak_locks = 1;
        let f = base.funcs[base.main().index()].clone();
        let id = |name: &str| LocalId(f.locals.iter().position(|l| l.name == name).unwrap() as u32);
        let w = base.func_by_name("w").unwrap().id;
        let (pm, t, h) = (Operand::Local(id("pm")), Operand::Local(id("t")), id("h"));
        let weak = |range| Instr::WeakAcquire {
            lock: WeakLockId(0),
            granularity: LockGranularity::Loop,
            range,
        };
        let lock = Instr::Lock { addr: pm };
        for log in [false, true] {
            let lw = if log { c.log_write } else { 0 };
            let cases = [
                (vec![], lock.clone(), c.sync_op + lw),
                (vec![lock.clone()], Instr::Unlock { addr: pm }, c.sync_op),
                (vec![], Instr::Join { tid: t }, c.sync_op + lw),
                (
                    vec![],
                    Instr::Spawn {
                        dst: None,
                        callee: Callee::Direct(w),
                        args: vec![Operand::Const(0)],
                    },
                    c.spawn + lw,
                ),
                (
                    vec![],
                    Instr::Print {
                        val: Operand::Const(7),
                    },
                    c.syscall,
                ),
                // The call and the callee's return.
                (
                    vec![],
                    Instr::Call {
                        dst: None,
                        callee: Callee::Direct(w),
                        args: vec![Operand::Const(0)],
                    },
                    2 * c.call,
                ),
                (
                    vec![],
                    Instr::Malloc {
                        dst: h,
                        size: Operand::Const(4),
                        site: chimera_minic::ir::AllocSiteId(0),
                    },
                    c.call,
                ),
                (
                    vec![],
                    Instr::Free {
                        addr: Operand::Local(h),
                    },
                    c.call,
                ),
                (vec![], weak(None), c.weak_op + lw),
                (
                    vec![],
                    weak(Some((Operand::Const(1), Operand::Const(4)))),
                    c.weak_op + c.range_check + lw,
                ),
                (
                    vec![weak(None)],
                    Instr::WeakRelease {
                        lock: WeakLockId(0),
                    },
                    c.weak_op,
                ),
            ];
            for mode in [InterpMode::Flat, InterpMode::Reference] {
                for (setup, op, charge) in &cases {
                    let got = op_charge(&base, setup, op.clone(), log, mode);
                    assert_eq!(got, *charge, "{op:?} (log {log}, {mode:?})");
                }
                // A return: the only op of an empty `main`.
                let empty = compile("int main() {}").unwrap();
                let cfg = ExecConfig {
                    jitter: Jitter::none(),
                    log,
                    ..ExecConfig::default()
                };
                let r = execute_mode(&empty, &cfg, mode);
                assert_eq!(
                    (r.stats.instrs, r.makespan),
                    (1, c.call),
                    "return (log {log}, {mode:?})"
                );
            }
        }
    }

    #[test]
    fn reference_mode_env_var_is_honored_by_explicit_mode_calls() {
        // `execute` resolves the mode once per process from
        // CHIMERA_VM_REFERENCE; explicit calls bypass the cache entirely.
        let p = compile("int main() { print(5); return 0; }").unwrap();
        let cfg = ExecConfig::default();
        let r = execute_mode(&p, &cfg, InterpMode::Reference);
        assert_eq!(r.output_of(ThreadId(0)), vec![5]);
    }

    /// Workers `w(n)` of the round tests: `n` iterations of fused and
    /// plain hot ops over cell `n & 7` of `g`, then a cold `print`.
    const ROUND_WORKERS: &str = "int g[8];
        void w(int n) { int i; int s; s = 0;
            for (i = 0; i < n; i = i + 1) { s = s + i; g[n & 7] = s; }
            print(s); }
        int main() { return 0; }";

    /// One speculative round over workers `w(n)` at the given clocks (the
    /// first one in `main`'s thread), checked against the reference
    /// interpreter's per-step scheduler: after as many steps as the round
    /// committed — each taken below the deadline — every thread's pc,
    /// registers, clock and instruction count, memory, the jitter RNG,
    /// the counters and the block counts agree, and the scheduler's next
    /// step is one the round could not take: past the step limit, at the
    /// deadline, a cold op, or past the end of its thread's segment.
    /// Returns the round's machine and the committed ops.
    fn round_against_steps<'p>(
        p: &'p Program,
        cfg: &'p ExecConfig,
        workers: &[(i64, u64)],
        deadline: Option<u64>,
    ) -> (Machine<'p>, u64) {
        let w = FuncId(p.funcs.iter().position(|f| f.name == "w").unwrap() as u32);
        let setup = |mode| {
            let mut m = Machine::new(p, cfg, mode);
            let (n, clock) = workers[0];
            let frame = m.make_frame(w, &[n], None);
            (m.threads[0].frames, m.threads[0].clock) = (vec![frame], clock);
            for &(n, clock) in &workers[1..] {
                m.spawn_thread(w, &[n], clock);
            }
            m
        };
        let mut m = setup(InterpMode::Flat);
        let mut queue: Vec<(u64, u32)> = m.threads.iter().map(|t| (t.clock, t.id.0)).collect();
        queue.sort_unstable();
        let mut steps = 0;
        assert!(m.try_round(&mut queue, &mut steps, deadline), "no round committed");
        let spent: Vec<usize> = m.spec.segs.iter().filter(|g| g.kept == g.trail.1 - g.trail.0).map(|g| g.tix).collect();
        let mut r = setup(InterpMode::Reference);
        let front = |r: &Machine| {
            let ready = r.threads.iter().filter(|t| t.state == TState::Ready);
            let t = ready.min_by_key(|t| (t.clock, t.id)).unwrap();
            let f = t.frames.last().unwrap();
            (t.id, t.clock, r.flat.funcs[f.func.index()].fused[f.pc as usize] != FlatOp::Cold)
        };
        for _ in 0..steps {
            let (next, clock, _) = front(&r);
            assert!(deadline.is_none_or(|d| clock < d), "stepped at the deadline");
            r.step_reference(&mut NullSupervisor, next);
        }
        let (next, clock, hot) = front(&r);
        let at_deadline = deadline.is_some_and(|d| clock >= d);
        assert!(steps == cfg.max_steps || at_deadline || !hot || spent.contains(&next.index()));
        for (a, b) in m.threads.iter().zip(&r.threads) {
            let (fa, fb) = (a.frames.last().unwrap(), b.frames.last().unwrap());
            assert_eq!(
                (a.clock, a.icount, fa.pc, &fa.regs),
                (b.clock, b.icount, fb.pc, &fb.regs),
                "thread {:?}",
                a.id
            );
        }
        let mut keys: Vec<(u64, u32)> = m.threads.iter().map(|t| (t.clock, t.id.0)).collect();
        keys.sort_unstable();
        assert_eq!(queue, keys);
        assert_eq!(m.mem.state_hash(), r.mem.state_hash());
        assert_eq!(m.rng, r.rng);
        assert_eq!(m.block_counts, r.block_counts);
        assert_eq!(
            (m.stats.instrs, m.stats.mem_ops),
            (r.stats.instrs, r.stats.mem_ops)
        );
        (m, steps)
    }

    #[test]
    fn merge_cuts_between_a_fused_pairs_constituents() {
        // Under jitter, with block counting, the step budget cuts each
        // round somewhere else; some cut leaves a thread between the two
        // constituents of a fused pair.
        let p = compile(ROUND_WORKERS).unwrap();
        let mut mid_pair = 0;
        for budget in 1..=80 {
            let cfg = ExecConfig {
                seed: 5,
                count_blocks: true,
                max_steps: budget,
                ..ExecConfig::default()
            };
            let (m, steps) = round_against_steps(&p, &cfg, &[(40, 0), (41, 3)], None);
            assert_eq!(steps, budget);
            mid_pair += m
                .threads
                .iter()
                .filter(|t| {
                    let f = t.frames.last().unwrap();
                    let func = &m.flat.funcs[f.func.index()];
                    f.pc > 0 && is_fused(&func.fused[f.pc as usize - 1])
                })
                .count();
        }
        assert!(mid_pair > 0, "no cut fell inside a fused pair");
    }

    #[test]
    fn merge_cuts_at_a_clock_id_tie() {
        // Three workers in lockstep; the middle one reaches its cold
        // `print` first. At that clock the lower id still runs its op and
        // the higher id does not.
        let p = compile(ROUND_WORKERS).unwrap();
        let cfg = ExecConfig {
            jitter: Jitter::none(),
            ..ExecConfig::default()
        };
        let (m, _) = round_against_steps(&p, &cfg, &[(30, 0), (3, 0), (31, 0)], None);
        let t = &m.threads;
        let f = t[1].frames.last().unwrap();
        assert_eq!(m.flat.funcs[f.func.index()].fused[f.pc as usize], FlatOp::Cold);
        assert_eq!(t[0].icount, t[2].icount + 1);
        assert!(t[2].clock == t[1].clock && t[1].clock < t[0].clock);
    }

    #[test]
    fn merge_cuts_at_the_weak_lock_deadline_key() {
        // Dense jitter moves the committed clocks off the segments' own,
        // so thread 0 sits at the deadline itself in some round.
        let p = compile(ROUND_WORKERS).unwrap();
        for jitter in [Jitter::none(), Jitter { period: 2, magnitude: 5 }] {
            let cfg = ExecConfig {
                seed: 9,
                jitter,
                ..ExecConfig::default()
            };
            for deadline in 5..60 {
                let (m, _) = round_against_steps(&p, &cfg, &[(40, 0), (41, 2), (42, 5)], Some(deadline));
                let front = m.threads.iter().map(|t| t.clock).min().unwrap();
                assert!(front >= deadline, "deadline {deadline}: front {front}");
            }
        }
    }

    #[test]
    fn merge_orders_eight_participants_under_jitter() {
        // Eight workers on cells of their own, at scattered clocks: the
        // merge's windows order many participants, and its words hold
        // several starts at one clock.
        let p = compile(ROUND_WORKERS).unwrap();
        let workers: Vec<(i64, u64)> = (0..8).map(|k| (40 + k, (k as u64 * 5) % 7)).collect();
        for seed in 1..=6 {
            let cfg = ExecConfig {
                seed,
                count_blocks: true,
                ..ExecConfig::default()
            };
            round_against_steps(&p, &cfg, &workers, None);
        }
    }

    #[test]
    fn merge_reaches_a_participant_far_behind() {
        // Thread 0 runs alone for more clocks than a merge word covers
        // before the others start, and then all three commit.
        let p = compile(ROUND_WORKERS).unwrap();
        for jitter in [Jitter::none(), Jitter::default(), Jitter { period: 3, magnitude: 9 }] {
            for seed in 1..=4 {
                let cfg = ExecConfig {
                    seed,
                    jitter,
                    ..ExecConfig::default()
                };
                let (m, _) = round_against_steps(&p, &cfg, &[(40, 0), (41, 66), (42, 67)], None);
                let t = &m.threads;
                assert!(t[0].clock > 66 && t.iter().all(|t| t.icount > 0), "{jitter:?} seed {seed}");
            }
        }
    }

    #[test]
    fn merge_orders_zero_cost_ops() {
        // With free hot ops a thread starts several ops at one clock, and
        // with free memory ops too every op of a round starts at its
        // thread's first clock; ties go by id, then by program order.
        let p = compile(ROUND_WORKERS).unwrap();
        let free = CostModel {
            instr: 0,
            ..CostModel::default()
        };
        for cost in [free, CostModel { mem: 0, ..free }] {
            for jitter in [Jitter::none(), Jitter::default(), Jitter { period: 2, magnitude: 3 }] {
                for seed in 1..=4 {
                    let cfg = ExecConfig {
                        seed,
                        jitter,
                        cost,
                        ..ExecConfig::default()
                    };
                    round_against_steps(&p, &cfg, &[(40, 0), (41, 2), (42, 2)], None);
                }
            }
        }
    }

    #[test]
    fn merge_cuts_at_the_step_reservation() {
        // The round commits exactly the ops the step limit still allows;
        // the next op is the one the limit stops, in both interpreters.
        let p = compile(ROUND_WORKERS).unwrap();
        for max_steps in [1, 17, 64, 100] {
            let cfg = ExecConfig {
                seed: 3,
                max_steps,
                ..ExecConfig::default()
            };
            let (_, steps) = round_against_steps(&p, &cfg, &[(40, 0), (41, 0)], None);
            assert_eq!(steps, max_steps);
        }
        let src = "int g[2]; void w(int k) { int i;
                for (i = 0; i < 500; i = i + 1) { g[k] = g[k] + i; } }
            int main() { int a; int b; a = spawn(w, 0); b = spawn(w, 1);
                join(a); join(b); return 0; }";
        let p = compile(src).unwrap();
        for max_steps in [900, 1_500, 2_222] {
            let cfg = ExecConfig {
                seed: 4,
                max_steps,
                ..ExecConfig::default()
            };
            let flat = execute_mode(&p, &cfg, InterpMode::Flat);
            assert!(flat.stats.vm.spec_rounds > 0, "{max_steps}: no round");
            assert_eq!(flat.outcome, Outcome::StepLimit);
            assert_modes_agree_cfg(src, &cfg);
        }
    }

    #[test]
    fn step_limit_agrees_across_modes_mid_burst() {
        // The limit must trip at the same retired-instruction count even
        // when the flat path is batch-committing a single runnable thread.
        let p = compile("int main() { while (1) {} return 0; }").unwrap();
        let cfg = ExecConfig {
            max_steps: 1_000,
            ..ExecConfig::default()
        };
        let flat = execute_mode(&p, &cfg, InterpMode::Flat);
        let refr = execute_mode(&p, &cfg, InterpMode::Reference);
        assert_eq!(flat.outcome, Outcome::StepLimit);
        assert_eq!(flat.outcome, refr.outcome);
        assert_eq!(flat.stats.instrs, refr.stats.instrs);
        assert_eq!(flat.makespan, refr.makespan);
    }
}
