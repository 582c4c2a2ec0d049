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
use crate::flat::{flatten, static_costs, ArgRange, FlatFunc, FlatOp, FlatProgram};
use crate::memory::{Memory, RegionKind};
use crate::sched::SchedStrategy;
use crate::stats::ExecStats;
use crate::sync::{BlockReason, SyncTables, WeakHolder};
use crate::world::{IoModel, World};
use chimera_minic::ast::{BinOp, UnOp};
use chimera_minic::ir::{
    BlockId, Callee, FuncId, Instr, LocalId, LockGranularity, Operand, Program, Terminator,
    WeakLockId,
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
    /// Charge log-write cost for program sync operations (recording).
    pub log_sync: bool,
    /// Charge log-write cost for weak-lock operations (recording).
    pub log_weak: bool,
    /// Charge log-write cost for inputs (recording).
    pub log_input: bool,
    /// Weak-lock acquires never block (used to isolate contention cost for
    /// the Fig. 7 breakdown).
    pub weak_always_succeed: bool,
    /// Keep the full event trace in the result.
    pub collect_trace: bool,
    /// Count basic-block executions (used by the profiler for loop-body
    /// size estimates, paper §5.3).
    pub count_blocks: bool,
    /// Scheduling strategy (the schedule-exploration seam, see
    /// [`crate::sched`]). The clock-ordered default keeps the flat hot
    /// loop's burst/ready-queue fast path; adversarial strategies run
    /// both interpreter modes through one shared per-step loop.
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
            log_sync: false,
            log_weak: false,
            log_input: false,
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
    /// code arrays, dense sync tables, scratch-buffer reuse, and burst
    /// scheduling of the running thread (see DESIGN.md "VM internals").
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

/// Hot-op budget for one speculative segment (per thread, per round). A
/// fused pair may straddle the cap, so round step-budget accounting
/// reserves `SEG_CAP + 2` steps per segment.
const SEG_CAP: u64 = 2048;

/// Round read/write sets are tracked at cell granularity (`1 <<
/// PAGE_SHIFT` cells per tracking page). Coarser pages would shrink the
/// stamp arrays, but the benched workloads interleave per-thread data at
/// cell distance (radix's 16-cell `rank` slices, ocean's `residual[id]`),
/// so anything coarser than a cell false-shares and discards rounds that
/// are genuinely race-free. Stamping is one compare per access (plus two
/// writes on first touch), which the saved scheduling work amortizes.
const PAGE_SHIFT: u32 = 0;

/// Backoff bounds for the round engine: a failed or trivial round puts
/// attempts on cooldown for `penalty` outer-loop iterations and doubles
/// the penalty up to the cap; a productive commit resets it. Keeps the
/// engine quiet through sync-heavy phases where rounds cannot pay off.
const SPEC_PENALTY_MIN: u64 = 16;
const SPEC_PENALTY_MAX: u64 = 65_536;

/// Segment memory of the speculative executor ([`run_segment`]): writes
/// go straight to [`Memory`] with the old value pushed onto the round's
/// undo log; read/write pages are stamped into the owning thread's epoch
/// arrays (first touch per round also records the page in the touched
/// list, which is what validation and rollback iterate). Trap details
/// are deliberately dropped — any speculative trap discards the whole
/// round, and the exact engine then reproduces the trap at its canonical
/// point with the precise message.
struct DirectSeg<'a> {
    mem: &'a mut Memory,
    undo: &'a mut Vec<(i64, i64)>,
    epoch: u32,
    read_epoch: &'a mut [u32],
    write_epoch: &'a mut [u32],
    touched_read: &'a mut Vec<u32>,
    touched_write: &'a mut Vec<u32>,
}

impl DirectSeg<'_> {
    #[inline]
    fn load(&mut self, addr: i64) -> Result<i64, ()> {
        let v = self.mem.load(addr).map_err(drop)?;
        // A successful access proves `1 <= addr < frontier`, so the page
        // index is in range for the stamp arrays sized at round start.
        let page = (addr as u64 >> PAGE_SHIFT) as usize;
        if self.read_epoch[page] != self.epoch {
            self.read_epoch[page] = self.epoch;
            self.touched_read.push(page as u32);
        }
        Ok(v)
    }

    #[inline]
    fn store(&mut self, addr: i64, val: i64) -> Result<(), ()> {
        let old = self.mem.swap(addr, val).map_err(drop)?;
        self.undo.push((addr, old));
        let page = (addr as u64 >> PAGE_SHIFT) as usize;
        if self.write_epoch[page] != self.epoch {
            self.write_epoch[page] = self.epoch;
            self.touched_write.push(page as u32);
        }
        Ok(())
    }
}

/// Why a speculative segment stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SegEnd {
    /// Reached a non-batchable op (sync, call, return, heap, I/O, weak).
    #[default]
    Cold,
    /// Retired [`SEG_CAP`] ops without reaching a scheduling point.
    Cap,
    /// Crossed the round's cold-op bound.
    Bound,
    /// A constituent trapped; the round must be discarded so the exact
    /// engine reproduces the trap at its canonical point.
    Trap,
}

/// One segment's accounting, returned by [`run_segment`].
#[derive(Debug, Clone, Copy, Default)]
struct SegRun {
    /// Ops retired (each counts one step and one instruction).
    ops: u64,
    /// Fused superinstructions dispatched.
    fused: u64,
    /// Loads + stores retired.
    mem_ops: u64,
    /// The thread clock immediately before the last retired op — the
    /// op's scheduler key, which round legality compares against the
    /// earliest cold-op key (meaningless when `ops == 0`).
    last_pre: u64,
    end: SegEnd,
}

/// Immutable inputs of one segment run.
struct SegCtx<'a> {
    func: &'a FlatFunc,
    fcosts: &'a [u64],
    /// Global region base addresses ([`Memory::global_bases`], static).
    globals: &'a [i64],
    id: u32,
    /// Earliest scheduler key of a ready thread already sitting at a cold
    /// op when the round began: no segment op's key may reach it, because
    /// that cold op's memory footprint is not validated against segments.
    bound: Option<(u64, u32)>,
}

/// Execute one speculative hot segment: retire thread-local ops from the
/// fused sidecar arena until a cold op, the cap, the round bound, or a
/// trap. Only legal with jitter off — commits draw no RNG, so per-thread
/// clocks and icounts are independent of cross-thread interleaving, which
/// is what lets the round engine reorder conflict-free segments without
/// observable effect. Fused pairs re-check the bound between constituents
/// (a mid-pair stop rests at `pc + 1`, where the sidecar holds the plain
/// second op); the cap is only checked between whole ops.
///
/// Kept out of line: inlined into the scheduler's hot loop it slowed the
/// flat engine by ~5% (`interp_scaling` minima, radix/ocean/pfscan).
#[inline(never)]
fn run_segment(
    ctx: &SegCtx<'_>,
    frame: &mut Frame,
    clock: &mut u64,
    icount: &mut u64,
    mem: &mut DirectSeg<'_>,
) -> SegRun {
    let mut run = SegRun::default();
    // The bound is only re-checked after each commit, so a thread whose
    // starting key already reaches it must not retire anything.
    if let Some(b) = ctx.bound {
        if (*clock, ctx.id) >= b {
            run.end = SegEnd::Bound;
            return run;
        }
    }
    macro_rules! commit {
        ($cost:expr) => {{
            run.ops += 1;
            run.last_pre = *clock;
            *icount += 1;
            *clock += $cost;
        }};
    }
    macro_rules! bound_check {
        () => {{
            if let Some(b) = ctx.bound {
                if (*clock, ctx.id) >= b {
                    run.end = SegEnd::Bound;
                    break;
                }
            }
        }};
    }
    loop {
        let pc = frame.pc as usize;
        match ctx.func.fused[pc] {
            FlatOp::Copy { dst, src } => {
                frame.regs[dst.index()] = frame.get(src);
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::UnOp { dst, op: uop, src } => {
                let v = frame.get(src);
                frame.regs[dst.index()] = match uop {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i64,
                };
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::BinOp { dst, op: bop, a, b } => {
                let Some(r) = eval_binop(bop, frame.get(a), frame.get(b)) else {
                    run.end = SegEnd::Trap;
                    break;
                };
                frame.regs[dst.index()] = r;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::AddrOfGlobal {
                dst,
                global,
                offset,
            } => {
                frame.regs[dst.index()] = ctx.globals[global.index()] + frame.get(offset);
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::AddrOfSlot {
                dst,
                slot_off,
                offset,
            } => {
                let Some(base) = frame.frame_base else {
                    run.end = SegEnd::Trap;
                    break;
                };
                frame.regs[dst.index()] = base + slot_off + frame.get(offset);
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::AddrOfFunc { dst, func } => {
                frame.regs[dst.index()] = FUNC_PTR_BASE + func.0 as i64;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::PtrAdd { dst, base, offset } => {
                frame.regs[dst.index()] = frame.get(base).wrapping_add(frame.get(offset));
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::Load { dst, addr, .. } => match mem.load(frame.get(addr)) {
                Ok(v) => {
                    frame.regs[dst.index()] = v;
                    frame.pc += 1;
                    run.mem_ops += 1;
                    commit!(ctx.fcosts[pc]);
                }
                Err(()) => {
                    run.end = SegEnd::Trap;
                    break;
                }
            },
            FlatOp::Store { addr, val, .. } => {
                match mem.store(frame.get(addr), frame.get(val)) {
                    Ok(()) => {
                        frame.pc += 1;
                        run.mem_ops += 1;
                        commit!(ctx.fcosts[pc]);
                    }
                    Err(()) => {
                        run.end = SegEnd::Trap;
                        break;
                    }
                }
            }
            FlatOp::Jump { target_pc, .. } => {
                frame.pc = target_pc;
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::Branch {
                cond,
                then_pc,
                else_pc,
                ..
            } => {
                frame.pc = if frame.get(cond) != 0 { then_pc } else { else_pc };
                commit!(ctx.fcosts[pc]);
            }
            FlatOp::FusedGlobalLoad {
                addr_dst,
                global,
                offset,
                dst,
            } => {
                let a = ctx.globals[global.index()] + frame.get(offset);
                frame.regs[addr_dst.index()] = a;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                match mem.load(a) {
                    Ok(v) => {
                        frame.regs[dst.index()] = v;
                        frame.pc += 1;
                        run.mem_ops += 1;
                        commit!(ctx.fcosts[pc + 1]);
                        run.fused += 1;
                    }
                    Err(()) => {
                        run.end = SegEnd::Trap;
                        break;
                    }
                }
            }
            FlatOp::FusedGlobalStore {
                addr_dst,
                global,
                offset,
                val,
            } => {
                let a = ctx.globals[global.index()] + frame.get(offset);
                frame.regs[addr_dst.index()] = a;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                let v = frame.get(val);
                match mem.store(a, v) {
                    Ok(()) => {
                        frame.pc += 1;
                        run.mem_ops += 1;
                        commit!(ctx.fcosts[pc + 1]);
                        run.fused += 1;
                    }
                    Err(()) => {
                        run.end = SegEnd::Trap;
                        break;
                    }
                }
            }
            FlatOp::FusedSlotLoad {
                addr_dst,
                slot_off,
                offset,
                dst,
            } => {
                let Some(base) = frame.frame_base else {
                    run.end = SegEnd::Trap;
                    break;
                };
                let a = base + slot_off + frame.get(offset);
                frame.regs[addr_dst.index()] = a;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                match mem.load(a) {
                    Ok(v) => {
                        frame.regs[dst.index()] = v;
                        frame.pc += 1;
                        run.mem_ops += 1;
                        commit!(ctx.fcosts[pc + 1]);
                        run.fused += 1;
                    }
                    Err(()) => {
                        run.end = SegEnd::Trap;
                        break;
                    }
                }
            }
            FlatOp::FusedSlotStore {
                addr_dst,
                slot_off,
                offset,
                val,
            } => {
                let Some(base) = frame.frame_base else {
                    run.end = SegEnd::Trap;
                    break;
                };
                let a = base + slot_off + frame.get(offset);
                frame.regs[addr_dst.index()] = a;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                let v = frame.get(val);
                match mem.store(a, v) {
                    Ok(()) => {
                        frame.pc += 1;
                        run.mem_ops += 1;
                        commit!(ctx.fcosts[pc + 1]);
                        run.fused += 1;
                    }
                    Err(()) => {
                        run.end = SegEnd::Trap;
                        break;
                    }
                }
            }
            FlatOp::FusedPtrLoad {
                addr_dst,
                base,
                offset,
                dst,
            } => {
                let a = frame.get(base).wrapping_add(frame.get(offset));
                frame.regs[addr_dst.index()] = a;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                match mem.load(a) {
                    Ok(v) => {
                        frame.regs[dst.index()] = v;
                        frame.pc += 1;
                        run.mem_ops += 1;
                        commit!(ctx.fcosts[pc + 1]);
                        run.fused += 1;
                    }
                    Err(()) => {
                        run.end = SegEnd::Trap;
                        break;
                    }
                }
            }
            FlatOp::FusedPtrStore {
                addr_dst,
                base,
                offset,
                val,
            } => {
                let a = frame.get(base).wrapping_add(frame.get(offset));
                frame.regs[addr_dst.index()] = a;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                let v = frame.get(val);
                match mem.store(a, v) {
                    Ok(()) => {
                        frame.pc += 1;
                        run.mem_ops += 1;
                        commit!(ctx.fcosts[pc + 1]);
                        run.fused += 1;
                    }
                    Err(()) => {
                        run.end = SegEnd::Trap;
                        break;
                    }
                }
            }
            FlatOp::FusedCmpBranch {
                dst,
                op: bop,
                a,
                b,
                then_pc,
                else_pc,
            } => {
                let Some(r) = eval_binop(bop, frame.get(a), frame.get(b)) else {
                    run.end = SegEnd::Trap;
                    break;
                };
                frame.regs[dst.index()] = r;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                frame.pc = if r != 0 { then_pc } else { else_pc };
                commit!(ctx.fcosts[pc + 1]);
                run.fused += 1;
            }
            FlatOp::FusedOpAssign {
                tmp,
                op: bop,
                a,
                b,
                dst,
            } => {
                let Some(r) = eval_binop(bop, frame.get(a), frame.get(b)) else {
                    run.end = SegEnd::Trap;
                    break;
                };
                frame.regs[tmp.index()] = r;
                frame.pc += 1;
                commit!(ctx.fcosts[pc]);
                bound_check!();
                frame.regs[dst.index()] = r;
                frame.pc += 1;
                commit!(ctx.fcosts[pc + 1]);
                run.fused += 1;
            }
            // Call/Return, sync, heap, I/O and weak ops end the segment.
            _ => {
                run.end = SegEnd::Cold;
                break;
            }
        }
        bound_check!();
        if run.ops >= SEG_CAP {
            run.end = SegEnd::Cap;
            break;
        }
    }
    run
}

/// `BinOp` evaluation shared by the speculative executor; `None` means
/// the op traps (division or remainder by zero).
#[inline]
fn eval_binop(bop: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match bop {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return None;
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

/// Per-execution state of the speculative segment-round engine: page
/// epoch stamps and touched-page lists per thread slot, the round-global
/// undo log, reusable per-segment snapshots, and the deterministic
/// backoff that keeps round attempts away from phases where they cannot
/// pay off.
#[derive(Default)]
struct SpecState {
    /// Current round number; a page stamp equal to `epoch` marks a page
    /// as touched this round (stamp arrays are never cleared).
    epoch: u32,
    /// Per thread-slot, per-page stamps (lazily sized each round).
    read_epoch: Vec<Vec<u32>>,
    write_epoch: Vec<Vec<u32>>,
    /// Pages each thread slot touched this round (cleared per segment).
    touched_read: Vec<Vec<u32>>,
    touched_write: Vec<Vec<u32>>,
    /// Round-global store log `(addr, old value)`; per-segment ranges are
    /// delimited by [`SegSnap::undo_start`].
    undo: Vec<(i64, i64)>,
    /// Cached copy of [`Memory::global_bases`] (static after load); owned
    /// here so segment contexts can hold it alongside `&mut Memory`.
    globals: Vec<i64>,
    /// Reusable per-segment snapshots and results (one per participant).
    snaps: Vec<SegSnap>,
    /// Outer-loop iterations to wait before the next round attempt.
    cooldown: u64,
    /// Cooldown charged by the next failed or trivial round (doubles up
    /// to a cap, resets on a productive commit).
    penalty: u64,
}

/// One participating thread's rollback snapshot and segment result.
#[derive(Default)]
struct SegSnap {
    tix: usize,
    pc: u32,
    clock: u64,
    icount: u64,
    regs: Vec<i64>,
    undo_start: usize,
    run: SegRun,
}

/// Can the segment executor retire this sidecar op? (Mirrors the arms of
/// [`run_segment`]; used to locate the round's cold-op bound.)
fn op_is_hot(op: &FlatOp) -> bool {
    matches!(
        op,
        FlatOp::Copy { .. }
            | FlatOp::UnOp { .. }
            | FlatOp::BinOp { .. }
            | FlatOp::AddrOfGlobal { .. }
            | FlatOp::AddrOfSlot { .. }
            | FlatOp::AddrOfFunc { .. }
            | FlatOp::PtrAdd { .. }
            | FlatOp::Load { .. }
            | FlatOp::Store { .. }
            | FlatOp::Jump { .. }
            | FlatOp::Branch { .. }
            | FlatOp::FusedGlobalLoad { .. }
            | FlatOp::FusedGlobalStore { .. }
            | FlatOp::FusedSlotLoad { .. }
            | FlatOp::FusedSlotStore { .. }
            | FlatOp::FusedPtrLoad { .. }
            | FlatOp::FusedPtrStore { .. }
            | FlatOp::FusedCmpBranch { .. }
            | FlatOp::FusedOpAssign { .. }
    )
}

/// Refresh every ready-queue key from its thread's clock and restore sort
/// order (a committed round advances many clocks at once).
fn refresh_queue_keys(queue: &mut [(u64, u32)], threads: &[Thr]) {
    for k in queue.iter_mut() {
        k.0 = threads[k.1 as usize].clock;
    }
    queue.sort_unstable();
}

struct Machine<'p> {
    program: &'p Program,
    config: &'p ExecConfig,
    /// Hoisted copy of `config.cost` (it is `Copy` and read on every step).
    cost: CostModel,
    mode: InterpMode,
    /// The pre-decoded program (both modes position frames by flat pc).
    flat: FlatProgram,
    /// Per-function, per-pc static commit costs (flat mode only).
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
    /// scheduler would pick; ends the flat mode's current burst.
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
                .map(|f| static_costs(f, &config.cost, config.log_sync, config.log_weak))
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
        // Non-baseline strategies drive both modes through one shared
        // per-step loop, so a (strategy, seed) pair is bit-identical
        // across interpreters by construction (and none of the flat
        // fast paths — queue, batch, segment rounds — ever engage).
        if !self.config.sched.is_baseline() {
            return self.run_strategy(sup);
        }
        match self.mode {
            InterpMode::Reference => self.run_reference(sup),
            InterpMode::Flat => self.run_flat(sup),
        }
    }

    /// The strategy scheduling loop (see [`crate::sched`]): per step the
    /// pluggable scheduler picks among ready threads, the mode-specific
    /// stepper executes one op, and the scheduler observes the retired
    /// step (with a boundary classification read from the pre-decoded
    /// code, which both modes share). Everything else — injected
    /// releases, timeout scans, deadlock resolution — mirrors
    /// [`Machine::run_reference`] exactly.
    ///
    /// Strategies draw from their own salted RNG stream, so the jitter
    /// draws in [`Machine::commit_ok`] are untouched; the only difference
    /// from the baseline loops is *which* ready thread runs.
    fn run_strategy(mut self, sup: &mut dyn Supervisor) -> ExecResult {
        let injects = sup.injects_forced_releases();
        let mut sched = self.config.sched.build(self.config.seed);
        let wants_boundaries = sched.wants_boundaries();
        let outcome = loop {
            if let Some(outcome) = self.finished.take() {
                break outcome;
            }
            if injects {
                self.apply_injected_releases(sup);
            }
            sched.track_threads(self.threads.len());
            let chosen = {
                let mut ready = self
                    .threads
                    .iter()
                    .filter(|t| t.state == TState::Ready)
                    .map(|t| (t.id.0, t.clock));
                sched.pick(&mut ready)
            };
            let Some(tid0) = chosen else {
                if self.threads.iter().all(|t| t.state == TState::Done) {
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

            if self.config.timeout_enabled {
                let now = self.threads[tid.index()].clock;
                if self.try_force_timed_out(sup, now) {
                    continue;
                }
            }

            let boundary = wants_boundaries && self.at_boundary(tid);
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

    /// Does `tid`'s next op sit at a weak-lock acquire/release site or a
    /// shared-access site (`Load`/`Store`, which carry their static
    /// `AccessId`)? Classified from the pre-decoded code both interpreter
    /// modes share, so it is mode-independent; a pending forced
    /// reacquire counts as an acquire boundary (the step will execute the
    /// reacquire protocol instead of the op at `pc`).
    fn at_boundary(&self, tid: ThreadId) -> bool {
        let t = &self.threads[tid.index()];
        if !t.pending_reacquire.is_empty() {
            return true;
        }
        let Some(frame) = t.frames.last() else {
            return false;
        };
        matches!(
            self.flat.funcs[frame.func.index()].code[frame.pc as usize],
            FlatOp::Load { .. }
                | FlatOp::Store { .. }
                | FlatOp::WeakAcquire { .. }
                | FlatOp::WeakRelease { .. }
        )
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

    /// The flat scheduling loop. One scan finds both the minimum-clock
    /// ready thread and the runner-up key, then the chosen thread runs a
    /// *burst*: it keeps stepping with no rescan for as long as the
    /// scheduling decision provably cannot change — it stays ready, its
    /// key stays below the runner-up's, no wakeup/spawn touched another
    /// thread (`sched_dirty`), no weak-lock waiter could time out, and the
    /// supervisor never injects forced releases. Each of those conditions
    /// is exactly what the per-step rescan of the reference loop exists to
    /// notice, so bursts are semantics-preserving by construction.
    fn run_flat(mut self, sup: &mut dyn Supervisor) -> ExecResult {
        let injects = sup.injects_forced_releases();
        // With no supervisor injection and no weak-lock timeouts, scheduling
        // only changes at blocks/wakes/spawns — all of which set
        // `sched_dirty`. That lets the hot path run off a small sorted
        // ready-queue of (clock, id) keys instead of rescanning every `Thr`
        // per step: rebuild on dirty, reposition just the stepped thread's
        // key otherwise. The front of the queue is always the scan's
        // minimum, so the schedule is bit-identical to the reference scan.
        let queue_mode =
            !(injects || (self.config.timeout_enabled && self.flat.has_weak_ops));
        // Batch commit (DESIGN.md §13): when the supervisor also masks out
        // per-op Load/Store happens-before events, runs of thread-local hot
        // ops have *no* per-op obligations beyond cost/clock/step
        // accounting, so the queue schedule can be driven from a tight
        // inner loop over the fused sidecar arena instead of the
        // step-dispatch path.
        let batch_ok = queue_mode
            && !self.wants_hb(EventKind::Load)
            && !self.wants_hb(EventKind::Store);
        let mut queue: Vec<(u64, u32)> = Vec::new();
        loop {
            if let Some(outcome) = self.finished.take() {
                return self.finish(outcome);
            }
            if injects {
                self.apply_injected_releases(sup);
            }

            // One scan: best ready key, runner-up ready key, weak-blocked
            // presence, all-done.
            let mut best: Option<(u64, u32)> = None;
            let mut second: Option<(u64, u32)> = None;
            let mut any_weak_blocked = false;
            let mut all_done = true;
            for t in &self.threads {
                match &t.state {
                    TState::Ready => {
                        all_done = false;
                        let k = (t.clock, t.id.0);
                        match best {
                            Some(b) if k >= b => {
                                if second.is_none_or(|s| k < s) {
                                    second = Some(k);
                                }
                            }
                            _ => {
                                second = best;
                                best = Some(k);
                            }
                        }
                    }
                    TState::Done => {}
                    TState::Blocked(r) => {
                        all_done = false;
                        if matches!(r, BlockReason::Weak(..)) {
                            any_weak_blocked = true;
                        }
                    }
                }
            }

            let Some((_, tid0)) = best else {
                if all_done {
                    let ret = self.main_ret;
                    return self.finish(Outcome::Exited(ret));
                }
                if self.config.timeout_enabled && self.try_force_any(sup) {
                    continue;
                }
                return self.finish_deadlock();
            };
            let tid = ThreadId(tid0);

            if self.config.timeout_enabled {
                let now = self.threads[tid.index()].clock;
                if self.try_force_timed_out(sup, now) {
                    continue;
                }
            }

            if queue_mode {
                queue.clear();
                for t in &self.threads {
                    if t.state == TState::Ready {
                        queue.push((t.clock, t.id.0));
                    }
                }
                queue.sort_unstable();
                self.sched_dirty = false;
                if batch_ok {
                    if let Some(outcome) = self.run_queue_hot(sup, &mut queue) {
                        return self.finish(outcome);
                    }
                    continue;
                }
                while let Some(&(_, id)) = queue.first() {
                    let next = self.step_flat(sup, ThreadId(id));
                    self.steps += 1;
                    if self.steps > self.config.max_steps {
                        return self.finish(Outcome::StepLimit);
                    }
                    if self.finished.is_some() || self.sched_dirty {
                        break;
                    }
                    let Some(clock) = next else {
                        // Blocked (a `Done` transition marks the scheduler
                        // dirty and breaks above): drop it from the queue.
                        queue.remove(0);
                        continue;
                    };
                    // Only the stepped thread's clock moved: shift its key
                    // right to its new sorted position (the queue is tiny —
                    // one entry per ready thread).
                    reposition_front(&mut queue, (clock, id));
                }
                continue;
            }

            // With a weak-lock waiter present and timeouts armed, the
            // chosen thread's advancing clock can expire the waiter at any
            // step, so the timeout scan must run per step: no burst.
            let can_burst = !(injects || (self.config.timeout_enabled && any_weak_blocked));
            self.sched_dirty = false;
            loop {
                let next = self.step_flat(sup, tid);
                self.steps += 1;
                if self.steps > self.config.max_steps {
                    return self.finish(Outcome::StepLimit);
                }
                if !can_burst || self.finished.is_some() || self.sched_dirty {
                    break;
                }
                let Some(clock) = next else {
                    break;
                };
                if let Some(s) = second {
                    if (clock, tid.0) >= s {
                        break;
                    }
                }
            }
        }
    }

    /// The batch-commit engine: drives the queue-mode schedule from a
    /// tight cross-thread loop that dispatches the fused sidecar arena
    /// and accumulates cost/clock/step accounting in locals, written back
    /// once on exit.
    ///
    /// Legality (DESIGN.md §13): queue mode already excludes supervisor
    /// injection and weak-lock timeouts, and the caller additionally
    /// requires that per-op `Load`/`Store` happens-before events are
    /// masked out. Every op dispatched inline here is thread-local and
    /// non-blocking (sync, I/O, calls, heap, weak ops and returns fall
    /// out to [`Self::step_flat`]), so a retiring hot op's only
    /// obligations are the commit itself — identical RNG draws included —
    /// the step budget, and the scheduling bound against the runner-up
    /// queue key. `pending_reacquire` is provably empty in queue mode
    /// (forced releases require injection or timeouts), event emission
    /// and checkpoint folds are inert, and block counts are maintained
    /// inline. The observable execution is therefore bit-identical to
    /// single-step dispatch; only the [`VmPerf`] strategy counters
    /// differ.
    ///
    /// Returns `Some(outcome)` when the run ends the execution (step
    /// limit); `None` hands control back to the scheduler loop (queue
    /// empty, `finished` set, or `sched_dirty` after a cold op).
    fn run_queue_hot(
        &mut self,
        sup: &mut dyn Supervisor,
        queue: &mut Vec<(u64, u32)>,
    ) -> Option<Outcome> {
        enum RunEnd {
            /// Next op is not batchable: single-step it at the dispatcher.
            Cold,
            /// The thread's clock crossed the runner-up key; payload is
            /// the new clock for the queue reposition.
            Yield(u64),
            /// A constituent trapped.
            Trap(String),
            /// Step budget exhausted (the op at the limit has committed).
            Limit,
        }

        let jit_period = self.config.jitter.period;
        let jit_magnitude = self.config.jitter.magnitude;
        let count_blocks = self.config.count_blocks;
        let max_steps = self.config.max_steps;
        let mut steps = self.steps;
        let mut instrs = 0u64;
        let mut mem_ops = 0u64;
        let mut fused_ops = 0u64;
        let mut batch_runs = 0u64;
        let mut batched_ops = 0u64;
        // Speculative rounds additionally require jitter off (hot commits
        // must draw no RNG, or run-ahead would reorder the stream) and
        // block counting off (hot control flow must stay write-free
        // outside thread-local state).
        let rounds_ok = jit_period == 0 && !count_blocks;

        let result = loop {
            if rounds_ok && queue.len() >= 2 {
                if self.spec.cooldown > 0 {
                    self.spec.cooldown -= 1;
                } else if self.try_round(queue, &mut steps) {
                    continue;
                }
            }
            let Some(&(_, id)) = queue.first() else {
                break None;
            };
            let tix = id as usize;
            debug_assert!(
                self.threads[tix].pending_reacquire.is_empty(),
                "queue mode excludes forced releases"
            );
            let run_start = batched_ops;
            // One uninterrupted same-thread run. Disjoint field borrows:
            // the thread's frame/clock/icount mutably, everything else
            // (`flat`, `costs`, `mem`, `rng`, `block_counts`) through
            // separate fields of `self`.
            let end = {
                let Thr {
                    frames,
                    clock,
                    icount,
                    ..
                } = &mut self.threads[tix];
                let frame = frames.last_mut().expect("live thread has frames");
                let fidx = frame.func.index();
                let func = &self.flat.funcs[fidx];
                let fcosts = &self.costs[fidx];
                let bound = queue.get(1).copied();

                // One constituent's commit: identical arithmetic and RNG
                // draw order to `commit_ok`, against the hoisted locals.
                macro_rules! commit {
                    ($cost:expr) => {{
                        instrs += 1;
                        let mut total = $cost;
                        if jit_period > 0 && self.rng.gen_range(0..jit_period) == 0 {
                            total += self.rng.gen_range(0..=jit_magnitude);
                        }
                        *icount += 1;
                        *clock += total;
                        steps += 1;
                        batched_ops += 1;
                    }};
                }
                // Post-commit scheduling checks, also applied *between*
                // the two constituents of a fused op (a mid-pair yield
                // resumes at `pc + 1`, where the sidecar holds the plain
                // second op).
                macro_rules! recheck {
                    () => {{
                        if steps > max_steps {
                            break RunEnd::Limit;
                        }
                        if let Some(b) = bound {
                            if (*clock, id) >= b {
                                break RunEnd::Yield(*clock);
                            }
                        }
                    }};
                }
                macro_rules! binop_eval {
                    ($bop:expr, $x:expr, $y:expr) => {{
                        let (x, y) = ($x, $y);
                        match $bop {
                            BinOp::Add => x.wrapping_add(y),
                            BinOp::Sub => x.wrapping_sub(y),
                            BinOp::Mul => x.wrapping_mul(y),
                            BinOp::Div => {
                                if y == 0 {
                                    break RunEnd::Trap("division by zero".into());
                                }
                                x.wrapping_div(y)
                            }
                            BinOp::Rem => {
                                if y == 0 {
                                    break RunEnd::Trap("remainder by zero".into());
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
                        }
                    }};
                }

                loop {
                    let pc = frame.pc as usize;
                    match func.fused[pc] {
                        FlatOp::Copy { dst, src } => {
                            frame.regs[dst.index()] = frame.get(src);
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                        }
                        FlatOp::UnOp { dst, op: uop, src } => {
                            let v = frame.get(src);
                            frame.regs[dst.index()] = match uop {
                                UnOp::Neg => v.wrapping_neg(),
                                UnOp::Not => (v == 0) as i64,
                            };
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                        }
                        FlatOp::BinOp { dst, op: bop, a, b } => {
                            let r = binop_eval!(bop, frame.get(a), frame.get(b));
                            frame.regs[dst.index()] = r;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                        }
                        FlatOp::AddrOfGlobal {
                            dst,
                            global,
                            offset,
                        } => {
                            let base = self.mem.global_base(global);
                            frame.regs[dst.index()] = base + frame.get(offset);
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                        }
                        FlatOp::AddrOfSlot {
                            dst,
                            slot_off,
                            offset,
                        } => {
                            let Some(base) = frame.frame_base else {
                                break RunEnd::Trap("frame has no slot area".into());
                            };
                            frame.regs[dst.index()] = base + slot_off + frame.get(offset);
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                        }
                        FlatOp::AddrOfFunc { dst, func } => {
                            frame.regs[dst.index()] = FUNC_PTR_BASE + func.0 as i64;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                        }
                        FlatOp::PtrAdd { dst, base, offset } => {
                            frame.regs[dst.index()] =
                                frame.get(base).wrapping_add(frame.get(offset));
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                        }
                        FlatOp::Load { dst, addr, .. } => {
                            let a = frame.get(addr);
                            match self.mem.load(a) {
                                Ok(v) => {
                                    frame.regs[dst.index()] = v;
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc]);
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::Store { addr, val, .. } => {
                            let a = frame.get(addr);
                            let v = frame.get(val);
                            match self.mem.store(a, v) {
                                Ok(()) => {
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc]);
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::Jump {
                            target_pc,
                            target_block,
                        } => {
                            frame.pc = target_pc;
                            if count_blocks {
                                self.block_counts[fidx][target_block.index()] += 1;
                            }
                            commit!(fcosts[pc]);
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
                            if count_blocks {
                                self.block_counts[fidx][b.index()] += 1;
                            }
                            commit!(fcosts[pc]);
                        }

                        // ---- fused superinstructions: two constituents,
                        // two commits, bound re-checked between them ----
                        FlatOp::FusedGlobalLoad {
                            addr_dst,
                            global,
                            offset,
                            dst,
                        } => {
                            let a = self.mem.global_base(global) + frame.get(offset);
                            frame.regs[addr_dst.index()] = a;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            match self.mem.load(a) {
                                Ok(v) => {
                                    frame.regs[dst.index()] = v;
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc + 1]);
                                    fused_ops += 1;
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::FusedGlobalStore {
                            addr_dst,
                            global,
                            offset,
                            val,
                        } => {
                            let a = self.mem.global_base(global) + frame.get(offset);
                            frame.regs[addr_dst.index()] = a;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            let v = frame.get(val);
                            match self.mem.store(a, v) {
                                Ok(()) => {
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc + 1]);
                                    fused_ops += 1;
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::FusedSlotLoad {
                            addr_dst,
                            slot_off,
                            offset,
                            dst,
                        } => {
                            let Some(base) = frame.frame_base else {
                                break RunEnd::Trap("frame has no slot area".into());
                            };
                            let a = base + slot_off + frame.get(offset);
                            frame.regs[addr_dst.index()] = a;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            match self.mem.load(a) {
                                Ok(v) => {
                                    frame.regs[dst.index()] = v;
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc + 1]);
                                    fused_ops += 1;
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::FusedSlotStore {
                            addr_dst,
                            slot_off,
                            offset,
                            val,
                        } => {
                            let Some(base) = frame.frame_base else {
                                break RunEnd::Trap("frame has no slot area".into());
                            };
                            let a = base + slot_off + frame.get(offset);
                            frame.regs[addr_dst.index()] = a;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            let v = frame.get(val);
                            match self.mem.store(a, v) {
                                Ok(()) => {
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc + 1]);
                                    fused_ops += 1;
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::FusedPtrLoad {
                            addr_dst,
                            base,
                            offset,
                            dst,
                        } => {
                            let a = frame.get(base).wrapping_add(frame.get(offset));
                            frame.regs[addr_dst.index()] = a;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            match self.mem.load(a) {
                                Ok(v) => {
                                    frame.regs[dst.index()] = v;
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc + 1]);
                                    fused_ops += 1;
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::FusedPtrStore {
                            addr_dst,
                            base,
                            offset,
                            val,
                        } => {
                            let a = frame.get(base).wrapping_add(frame.get(offset));
                            frame.regs[addr_dst.index()] = a;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            let v = frame.get(val);
                            match self.mem.store(a, v) {
                                Ok(()) => {
                                    frame.pc += 1;
                                    mem_ops += 1;
                                    commit!(fcosts[pc + 1]);
                                    fused_ops += 1;
                                }
                                Err(t) => break RunEnd::Trap(t.to_string()),
                            }
                        }
                        FlatOp::FusedCmpBranch {
                            dst,
                            op: bop,
                            a,
                            b,
                            then_pc,
                            else_pc,
                        } => {
                            let r = binop_eval!(bop, frame.get(a), frame.get(b));
                            frame.regs[dst.index()] = r;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            let t = if r != 0 { then_pc } else { else_pc };
                            frame.pc = t;
                            if count_blocks {
                                // Target blocks are dropped from the fused
                                // form; recover via the pc→block map.
                                self.block_counts[fidx][func.pc_block[t as usize] as usize] += 1;
                            }
                            commit!(fcosts[pc + 1]);
                            fused_ops += 1;
                        }
                        FlatOp::FusedOpAssign {
                            tmp,
                            op: bop,
                            a,
                            b,
                            dst,
                        } => {
                            let r = binop_eval!(bop, frame.get(a), frame.get(b));
                            frame.regs[tmp.index()] = r;
                            frame.pc += 1;
                            commit!(fcosts[pc]);
                            recheck!();
                            frame.regs[dst.index()] = r;
                            frame.pc += 1;
                            commit!(fcosts[pc + 1]);
                            fused_ops += 1;
                        }

                        // Call, Return, sync, heap, I/O, weak ops: not
                        // batchable — hand back to the step dispatcher.
                        _ => break RunEnd::Cold,
                    }
                    recheck!();
                }
            };
            if batched_ops > run_start {
                batch_runs += 1;
            }
            match end {
                RunEnd::Cold => {
                    // Single-step the cold op through the ordinary path —
                    // byte-identical dispatch, including `StepEnd`
                    // accounting and event emission.
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
                            // Blocked (a `Done` transition marks the
                            // scheduler dirty and breaks above).
                            queue.remove(0);
                        }
                        Some(clock) => reposition_front(queue, (clock, id)),
                    }
                }
                RunEnd::Yield(clock) => reposition_front(queue, (clock, id)),
                RunEnd::Trap(message) => {
                    self.trap(ThreadId(id), message);
                    break None;
                }
                RunEnd::Limit => break Some(Outcome::StepLimit),
            }
        };

        self.steps = steps;
        self.stats.instrs += instrs;
        self.stats.mem_ops += mem_ops;
        self.stats.vm.fused_ops += fused_ops;
        self.stats.vm.batch_runs += batch_runs;
        self.stats.vm.batched_ops += batched_ops;
        result
    }

    /// Attempt one speculative segment round: run every ready thread
    /// ahead through hot ops to its next scheduling point, certify the
    /// segments pairwise race-free on page-granular read/write sets, and
    /// keep only ops that canonically precede everything the round did
    /// not execute. Only called with jitter off (commits draw no RNG),
    /// block counting off, and the batch gate up (hot ops emit no
    /// events) — the combination that makes reordering conflict-free
    /// segments unobservable.
    ///
    /// Returns `true` when the round committed ops (queue keys have been
    /// refreshed); `false` leaves the machine bit-exactly as before the
    /// call, apart from backoff bookkeeping.
    fn try_round(&mut self, queue: &mut [(u64, u32)], steps: &mut u64) -> bool {
        let n = queue.len() as u64;
        // Reserve the worst case up front so committed segments need no
        // per-op budget checks (a fused pair may straddle the cap).
        if steps.saturating_add(n * (SEG_CAP + 2)) > self.config.max_steps {
            self.spec.cooldown = self.spec.penalty;
            return false;
        }
        self.prepare_round(queue);
        // Earliest key among ready threads already sitting at a cold op:
        // segments must stop strictly before it (the queue is sorted, so
        // the first cold thread has the minimal cold key).
        let bound0 = queue.iter().copied().find(|&(_, id)| {
            let f = self.threads[id as usize]
                .frames
                .last()
                .expect("live thread has frames");
            !op_is_hot(&self.flat.funcs[f.func.index()].fused[f.pc as usize])
        });
        let total = match self.round_direct(queue, bound0) {
            Some(total) => total,
            None => {
                self.stats.vm.spec_discards += 1;
                self.spec.cooldown = self.spec.penalty;
                self.spec.penalty = (self.spec.penalty * 2).min(SPEC_PENALTY_MAX);
                return false;
            }
        };
        if total >= 4 * n {
            self.spec.penalty = SPEC_PENALTY_MIN;
            self.spec.cooldown = 0;
        } else {
            // Legal but trivial (per-op thread alternation): keep what
            // committed, then back off — the exact batch engine handles
            // this phase with less overhead.
            self.spec.cooldown = self.spec.penalty;
            self.spec.penalty = (self.spec.penalty * 2).min(SPEC_PENALTY_MAX);
        }
        if total == 0 {
            return false;
        }
        *steps += total;
        self.stats.vm.spec_rounds += 1;
        refresh_queue_keys(queue, &self.threads);
        true
    }

    /// Size the per-thread page-stamp arrays for the current address
    /// frontier and open a new round epoch.
    fn prepare_round(&mut self, queue: &[(u64, u32)]) {
        let spec = &mut self.spec;
        if spec.globals.len() != self.mem.global_bases().len() {
            spec.globals = self.mem.global_bases().to_vec();
        }
        let pages = (self.mem.frontier() as u64 >> PAGE_SHIFT) as usize + 1;
        let slots = self.threads.len();
        if spec.read_epoch.len() < slots {
            spec.read_epoch.resize_with(slots, Vec::new);
            spec.write_epoch.resize_with(slots, Vec::new);
            spec.touched_read.resize_with(slots, Vec::new);
            spec.touched_write.resize_with(slots, Vec::new);
        }
        spec.epoch = spec.epoch.wrapping_add(1);
        if spec.epoch == 0 {
            // Stamp wrap-around (one bump per round): clear every stamp
            // so stale ones can never alias the restarted epoch.
            for v in spec
                .read_epoch
                .iter_mut()
                .chain(spec.write_epoch.iter_mut())
            {
                v.iter_mut().for_each(|s| *s = 0);
            }
            spec.epoch = 1;
        }
        for &(_, id) in queue {
            let tix = id as usize;
            spec.read_epoch[tix].resize(pages, 0);
            spec.write_epoch[tix].resize(pages, 0);
        }
    }

    /// Put one thread back to its pre-round snapshot (registers, pc,
    /// clock, instruction count). Hot ops touch nothing else in `Thr`.
    fn restore_thread(&mut self, snap: &SegSnap) {
        let Thr {
            frames,
            clock,
            icount,
            ..
        } = &mut self.threads[snap.tix];
        let frame = frames.last_mut().expect("live thread has frames");
        frame.pc = snap.pc;
        frame.regs.copy_from_slice(&snap.regs);
        *clock = snap.clock;
        *icount = snap.icount;
    }

    /// Evaluate one round: segments run one after another directly
    /// against memory with an undo log and per-thread page-epoch stamps
    /// (the order is immaterial once certified race-free). Returns the
    /// total ops committed, or `None` if the round was discarded — any
    /// speculative trap or cross-segment page overlap — and rolled back.
    fn round_direct(
        &mut self,
        queue: &[(u64, u32)],
        bound0: Option<(u64, u32)>,
    ) -> Option<u64> {
        let epoch = self.spec.epoch;
        // Moved out of `self.spec` so the segment executor can borrow the
        // remaining `self` fields disjointly.
        let mut snaps = std::mem::take(&mut self.spec.snaps);
        let mut undo = std::mem::take(&mut self.spec.undo);
        let globals = std::mem::take(&mut self.spec.globals);
        snaps.resize_with(queue.len(), SegSnap::default);
        let mut trapped = false;
        for (i, &(_, id)) in queue.iter().enumerate() {
            let tix = id as usize;
            self.spec.touched_read[tix].clear();
            self.spec.touched_write[tix].clear();
            let snap = &mut snaps[i];
            let Thr {
                frames,
                clock,
                icount,
                ..
            } = &mut self.threads[tix];
            let frame = frames.last_mut().expect("live thread has frames");
            snap.tix = tix;
            snap.pc = frame.pc;
            snap.clock = *clock;
            snap.icount = *icount;
            snap.regs.clear();
            snap.regs.extend_from_slice(&frame.regs);
            snap.undo_start = undo.len();
            let fidx = frame.func.index();
            let ctx = SegCtx {
                func: &self.flat.funcs[fidx],
                fcosts: &self.costs[fidx],
                globals: &globals,
                id,
                bound: bound0,
            };
            let mut seg = DirectSeg {
                mem: &mut self.mem,
                undo: &mut undo,
                epoch,
                read_epoch: &mut self.spec.read_epoch[tix],
                write_epoch: &mut self.spec.write_epoch[tix],
                touched_read: &mut self.spec.touched_read[tix],
                touched_write: &mut self.spec.touched_write[tix],
            };
            snap.run = run_segment(&ctx, frame, clock, icount, &mut seg);
            trapped |= snap.run.end == SegEnd::Trap;
        }
        // Certification: a speculative trap (possibly an artifact of
        // reading another segment's half-done state) or any overlap of
        // one segment's writes with another's reads or writes discards
        // the round whole.
        let mut conflict = trapped;
        if !conflict {
            'pairs: for &(_, wid) in queue {
                for &p in &self.spec.touched_write[wid as usize] {
                    for &(_, oid) in queue {
                        if oid != wid
                            && (self.spec.read_epoch[oid as usize][p as usize] == epoch
                                || self.spec.write_epoch[oid as usize][p as usize] == epoch)
                        {
                            conflict = true;
                            break 'pairs;
                        }
                    }
                }
            }
        }
        if conflict {
            for &(addr, old) in undo.iter().rev() {
                self.mem.write_raw(addr, old);
            }
            for snap in &snaps {
                self.restore_thread(snap);
            }
            undo.clear();
            self.spec.snaps = snaps;
            self.spec.undo = undo;
            self.spec.globals = globals;
            return None;
        }
        // Cold-op ordering: a speculative op is committable only if it
        // canonically precedes every op the round did NOT execute, i.e.
        // its pre-op key is below K — the earliest next-op key over all
        // round threads after their segments. Segments that overran K
        // are rolled back whole, which is legal precisely because the
        // round certified conflict-free: nothing read their writes, and
        // their own re-execution reads nothing the kept segments wrote.
        let k = queue
            .iter()
            .map(|&(_, id)| (self.threads[id as usize].clock, id))
            .min()
            .expect("round has participants");
        let mut total = 0u64;
        let mut kept = 0u64;
        let (mut fused, mut mem_ops) = (0u64, 0u64);
        for (i, snap) in snaps.iter().enumerate() {
            if snap.run.ops == 0 {
                continue;
            }
            if (snap.run.last_pre, queue[i].1) >= k {
                let end = snaps.get(i + 1).map_or(undo.len(), |s| s.undo_start);
                for &(addr, old) in undo[snap.undo_start..end].iter().rev() {
                    self.mem.write_raw(addr, old);
                }
                self.restore_thread(snap);
                continue;
            }
            total += snap.run.ops;
            kept += 1;
            fused += snap.run.fused;
            mem_ops += snap.run.mem_ops;
        }
        self.stats.instrs += total;
        self.stats.mem_ops += mem_ops;
        self.stats.vm.fused_ops += fused;
        self.stats.vm.spec_ops += total;
        self.stats.vm.spec_segments += kept;
        undo.clear();
        self.spec.snaps = snaps;
        self.spec.undo = undo;
        self.spec.globals = globals;
        Some(total)
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

    /// One flat-mode step: copy the pre-decoded op out of the code array
    /// (no clone — `FlatOp` is `Copy`) and execute it.
    ///
    /// Returns the thread's advanced clock if it is still `Ready` after the
    /// step, `None` otherwise — the scheduler's ready-queue repositions the
    /// stepped thread from this without re-reading the `Thr`.
    ///
    /// The straight-line data ops and intra-function control flow are
    /// executed inline here and commit through [`Self::commit_ok`]
    /// directly: no `StepEnd` is built or re-matched on the hot path. One
    /// mutable borrow of the current frame serves the decode and every hot
    /// arm (operand reads, the register write, the pc bump), while
    /// `self.flat`, `self.costs`, `self.mem`, `self.stats`, and
    /// `self.block_counts` are disjoint fields that coexist with the
    /// borrow. Everything that can block, spawn, trap on sync state, or
    /// touch the event sink goes through [`Self::exec_flat_cold`] and the
    /// usual `StepEnd` accounting.
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
            FlatOp::Copy { dst, src } => {
                let v = frame.get(src);
                frame.regs[dst.index()] = v;
                frame.pc += 1;
                self.commit_ok(tix, scost)
            }
            FlatOp::UnOp { dst, op: uop, src } => {
                let v = frame.get(src);
                let r = match uop {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as i64,
                };
                frame.regs[dst.index()] = r;
                frame.pc += 1;
                self.commit_ok(tix, scost)
            }
            FlatOp::BinOp { dst, op: bop, a, b } => {
                let (x, y) = (frame.get(a), frame.get(b));
                let r = match bop {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return self.trap(tid, "division by zero".into());
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return self.trap(tid, "remainder by zero".into());
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
                frame.regs[dst.index()] = r;
                frame.pc += 1;
                self.commit_ok(tix, scost)
            }
            FlatOp::AddrOfGlobal {
                dst,
                global,
                offset,
            } => {
                let base = self.mem.global_base(global);
                let off = frame.get(offset);
                frame.regs[dst.index()] = base + off;
                frame.pc += 1;
                self.commit_ok(tix, scost)
            }
            FlatOp::AddrOfSlot {
                dst,
                slot_off,
                offset,
            } => {
                let Some(base) = frame.frame_base else {
                    return self.trap(tid, "frame has no slot area".into());
                };
                let off = frame.get(offset);
                frame.regs[dst.index()] = base + slot_off + off;
                frame.pc += 1;
                self.commit_ok(tix, scost)
            }
            FlatOp::AddrOfFunc { dst, func } => {
                frame.regs[dst.index()] = FUNC_PTR_BASE + func.0 as i64;
                frame.pc += 1;
                self.commit_ok(tix, scost)
            }
            FlatOp::PtrAdd { dst, base, offset } => {
                let v = frame.get(base).wrapping_add(frame.get(offset));
                frame.regs[dst.index()] = v;
                frame.pc += 1;
                self.commit_ok(tix, scost)
            }
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
            FlatOp::Jump {
                target_pc,
                target_block,
            } => {
                let func = frame.func;
                frame.pc = target_pc;
                if self.config.count_blocks {
                    self.block_counts[func.index()][target_block.index()] += 1;
                }
                self.commit_ok(tix, scost)
            }
            FlatOp::Branch {
                cond,
                then_pc,
                then_block,
                else_pc,
                else_block,
            } => {
                let v = frame.get(cond);
                let (pc, b) = if v != 0 {
                    (then_pc, then_block)
                } else {
                    (else_pc, else_block)
                };
                let func = frame.func;
                frame.pc = pc;
                if self.config.count_blocks {
                    self.block_counts[func.index()][b.index()] += 1;
                }
                self.commit_ok(tix, scost)
            }
            op => {
                let end = self.exec_flat_cold(sup, tid, op, scost);
                self.commit_step(tid, end)
            }
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

    /// The commit half of [`Self::commit_step`], shared by the flat hot
    /// arms (which bypass `StepEnd` entirely) and the `StepEnd::Commit`
    /// arm — one implementation, so the jitter RNG draws in the same
    /// sequence on every path.
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
                let argv: Vec<i64> = args.iter().map(|a| self.val(tid, *a)).collect();
                self.advance_pc(tid); // return will resume past the call
                let frame = self.make_frame(target, &argv, *dst);
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
                let argv: Vec<i64> = args.iter().map(|a| self.val(tid, *a)).collect();
                let time = self.threads[tid.index()].clock;
                let child = self.spawn_thread(target, &argv, time + cost.spawn);
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
                if n <= 0 || n > (1 << 24) {
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
                let mut data = Vec::with_capacity(len as usize);
                for i in 0..len {
                    match self.mem.load(buf + i) {
                        Ok(v) => data.push(v),
                        Err(t) => return StepEnd::Trap(t.to_string()),
                    }
                }
                for &v in &data {
                    self.output.push((tid, v));
                }
                self.stats.syscalls += 1;
                self.emit(sup, Event::Output { thread: tid, data });
                self.wake_order_stalled();
                self.advance_pc(tid);
                StepEnd::Commit(cost.syscall + len as u64)
            }
            Instr::Print { val } => {
                if !sup.may_proceed(OrderPoint::Output, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                let v = self.val(tid, *val);
                self.output.push((tid, v));
                self.stats.syscalls += 1;
                self.emit(
                    sup,
                    Event::Output {
                        thread: tid,
                        data: vec![v],
                    },
                );
                self.wake_order_stalled();
                self.advance_pc(tid);
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
                    if self.config.log_weak {
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
                        if self.config.log_weak {
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

    /// Decode and execute one pre-decoded op at the current `(func, pc)`.
    /// `scost` below is the pre-resolved static commit cost for this pc
    /// (see [`crate::flat::static_costs`]); arms with dynamic costs compute
    /// their own. Mirrors `exec_instr` + `exec_term` arm for arm — any
    /// semantic divergence here is a bug the differential suite exists to
    /// catch.
    #[inline]
    /// The cold remainder of the flat dispatch: calls, sync, I/O, memory
    /// management, weak ops, and returns. `op` and `scost` arrive already
    /// decoded by [`Self::step_flat`]; the arms handled there are
    /// unreachable here.
    fn exec_flat_cold(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        op: FlatOp,
        scost: u64,
    ) -> StepEnd {
        match op {
            FlatOp::Copy { .. }
            | FlatOp::UnOp { .. }
            | FlatOp::BinOp { .. }
            | FlatOp::AddrOfGlobal { .. }
            | FlatOp::AddrOfSlot { .. }
            | FlatOp::AddrOfFunc { .. }
            | FlatOp::PtrAdd { .. }
            | FlatOp::Load { .. }
            | FlatOp::Store { .. }
            | FlatOp::Jump { .. }
            | FlatOp::Branch { .. } => {
                unreachable!("hot op executed inline by step_flat")
            }
            FlatOp::FusedGlobalLoad { .. }
            | FlatOp::FusedGlobalStore { .. }
            | FlatOp::FusedSlotLoad { .. }
            | FlatOp::FusedSlotStore { .. }
            | FlatOp::FusedPtrLoad { .. }
            | FlatOp::FusedPtrStore { .. }
            | FlatOp::FusedCmpBranch { .. }
            | FlatOp::FusedOpAssign { .. } => {
                unreachable!("fused op lives only in the sidecar arena")
            }
            FlatOp::AddrOfRegister { local } => StepEnd::Trap(format!(
                "address taken of register local {local} (lowering bug)"
            )),
            FlatOp::CallDirect { dst, func, args } => self.do_call_flat(sup, tid, func, args, dst),
            FlatOp::CallIndirect { dst, target, args } => {
                let v = self.val(tid, target);
                match decode_func_ptr(v, self.program.funcs.len()) {
                    Some(f) => self.do_call_flat(sup, tid, f, args, dst),
                    None => StepEnd::Trap(format!("indirect call through non-function value {v}")),
                }
            }
            FlatOp::Lock { addr } => self.do_lock(sup, tid, self.val(tid, addr)),
            FlatOp::Unlock { addr } => self.do_unlock(sup, tid, self.val(tid, addr)),
            FlatOp::BarrierInit { addr, count } => {
                let a = self.val(tid, addr);
                let c = self.val(tid, count);
                if c <= 0 {
                    return StepEnd::Trap("barrier_init with non-positive count".into());
                }
                self.sync.barriers.ensure(a).count = c;
                self.advance_pc(tid);
                StepEnd::Commit(scost)
            }
            FlatOp::BarrierWait { addr } => self.do_barrier_wait(sup, tid, self.val(tid, addr)),
            FlatOp::CondWait { cond, lock } => {
                let (ca, la) = (self.val(tid, cond), self.val(tid, lock));
                self.do_cond_wait(sup, tid, ca, la)
            }
            FlatOp::CondSignal { cond } => {
                let a = self.val(tid, cond);
                self.do_cond_signal(sup, tid, a, false)
            }
            FlatOp::CondBroadcast { cond } => {
                let a = self.val(tid, cond);
                self.do_cond_signal(sup, tid, a, true)
            }
            FlatOp::SpawnDirect { dst, func, args } => {
                if !sup.may_proceed(OrderPoint::Spawn, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                self.do_spawn_flat(sup, tid, func, args, dst)
            }
            FlatOp::SpawnIndirect { dst, target, args } => {
                if !sup.may_proceed(OrderPoint::Spawn, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                let v = self.val(tid, target);
                match decode_func_ptr(v, self.program.funcs.len()) {
                    Some(f) => self.do_spawn_flat(sup, tid, f, args, dst),
                    None => StepEnd::Trap(format!("spawn through non-function value {v}")),
                }
            }
            FlatOp::Join { tid: t_op } => {
                let v = self.val(tid, t_op);
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
                    StepEnd::Commit(scost)
                } else {
                    StepEnd::Block(BlockReason::Join(target))
                }
            }
            FlatOp::Malloc { dst, size, site } => {
                let n = self.val(tid, size);
                if n <= 0 || n > (1 << 24) {
                    return StepEnd::Trap(format!("malloc of invalid size {n}"));
                }
                let a = self.mem.alloc(n, RegionKind::Heap(site));
                self.set(tid, dst, a);
                self.advance_pc(tid);
                StepEnd::Commit(scost)
            }
            FlatOp::Free { addr } => {
                let a = self.val(tid, addr);
                match self.mem.dealloc(a) {
                    Ok(()) => {
                        self.advance_pc(tid);
                        StepEnd::Commit(scost)
                    }
                    Err(t) => StepEnd::Trap(t.to_string()),
                }
            }
            FlatOp::SysRead {
                dst,
                chan,
                buf,
                len,
            } => {
                let chan = self.val(tid, chan);
                let buf = self.val(tid, buf);
                let len = self.val(tid, len).clamp(0, 1 << 20) as usize;
                self.do_input(sup, tid, chan, buf, len, dst)
            }
            FlatOp::SysInput { dst, chan } => {
                let chan = self.val(tid, chan);
                self.do_input_scalar(sup, tid, chan, dst)
            }
            FlatOp::SysWrite { chan, buf, len } => {
                if !sup.may_proceed(OrderPoint::Output, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                let _chan = self.val(tid, chan);
                let buf = self.val(tid, buf);
                let len = self.val(tid, len).clamp(0, 1 << 20);
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
                for &v in &data {
                    self.output.push((tid, v));
                }
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
                StepEnd::Commit(self.cost.syscall + len as u64)
            }
            FlatOp::Print { val } => {
                if !sup.may_proceed(OrderPoint::Output, tid) {
                    return StepEnd::Block(BlockReason::OrderTurn);
                }
                let v = self.val(tid, val);
                self.output.push((tid, v));
                self.stats.syscalls += 1;
                if self.wants(EventKind::Output) {
                    self.emit(
                        sup,
                        Event::Output {
                            thread: tid,
                            data: vec![v],
                        },
                    );
                }
                self.wake_order_stalled();
                self.advance_pc(tid);
                StepEnd::Commit(scost)
            }
            FlatOp::WeakAcquire {
                lock,
                granularity,
                range,
            } => {
                if let Some(pos) = self.threads[tid.index()]
                    .weak_granted
                    .iter()
                    .position(|l| *l == lock)
                {
                    // A forced handoff already completed this acquire:
                    // consuming it here makes the acquisition effective and
                    // emits its (recorded) event.
                    self.threads[tid.index()].weak_granted.remove(pos);
                    let held = self.threads[tid.index()]
                        .frames
                        .last()
                        .and_then(|f| f.held_weak.iter().rev().find(|h| h.lock == lock))
                        .copied();
                    let range = held.and_then(|h| h.range);
                    self.commit_granted_acquire(sup, tid, lock, range, granularity);
                    self.advance_pc(tid);
                    let mut c = self.cost.weak_op;
                    if self.config.log_weak {
                        c += self.cost.log_write;
                    }
                    return StepEnd::Commit(c);
                }
                let r = range.map(|(lo, hi)| {
                    let (a, b) = (self.val(tid, lo), self.val(tid, hi));
                    (a.min(b), a.max(b))
                });
                match self.try_weak_acquire(sup, tid, lock, r, granularity, false) {
                    WeakTry::Acquired => {
                        self.advance_pc(tid);
                        if self.config.log_weak {
                            ExecStats::bump(
                                &mut self.stats.weak_log_cycles,
                                granularity,
                                self.cost.log_write,
                            );
                        }
                        // scost pre-resolves weak_op + range_check? + log?.
                        StepEnd::Commit(scost)
                    }
                    WeakTry::Blocked(reason) => StepEnd::Block(reason),
                    WeakTry::Stalled => StepEnd::Block(BlockReason::OrderTurn),
                }
            }
            FlatOp::WeakRelease { lock } => {
                let tix = tid.index();
                let frame = self.threads[tix].frames.last_mut().unwrap();
                if let Some(pos) = frame.held_weak.iter().rposition(|h| h.lock == lock) {
                    frame.held_weak.remove(pos);
                    if let Some(state) = self.sync.weak.get_mut(lock) {
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
                        lock,
                        time,
                    },
                );
                self.wake_weak_waiters(lock, time);
                self.advance_pc(tid);
                StepEnd::Commit(scost)
            }
            FlatOp::Return { val } => self.do_return(sup, tid, val.map(|o| self.val(tid, o))),
        }
    }

    /// Flat-path call: argv is marshalled through the machine's scratch
    /// buffer instead of a fresh `Vec` per call.
    fn do_call_flat(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        target: FuncId,
        args: ArgRange,
        dst: Option<LocalId>,
    ) -> StepEnd {
        if self.threads[tid.index()].frames.len() >= 4096 {
            return StepEnd::Trap("call stack overflow".into());
        }
        let mut argv = std::mem::take(&mut self.argv);
        argv.clear();
        for i in args.as_range() {
            let op = self.flat.args[i];
            argv.push(self.val(tid, op));
        }
        self.advance_pc(tid); // return will resume past the call
        let frame = self.make_frame(target, &argv, dst);
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
        StepEnd::Commit(self.cost.call)
    }

    /// Flat-path spawn (caller has already passed the `OrderPoint::Spawn`
    /// gate); argv reuses the scratch buffer.
    fn do_spawn_flat(
        &mut self,
        sup: &mut dyn Supervisor,
        tid: ThreadId,
        target: FuncId,
        args: ArgRange,
        dst: Option<LocalId>,
    ) -> StepEnd {
        let mut argv = std::mem::take(&mut self.argv);
        argv.clear();
        for i in args.as_range() {
            let op = self.flat.args[i];
            argv.push(self.val(tid, op));
        }
        let time = self.threads[tid.index()].clock;
        let child = self.spawn_thread(target, &argv, time + self.cost.spawn);
        self.argv = argv;
        if let Some(d) = dst {
            self.set(tid, d, child.0 as i64);
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
                time: time + self.cost.spawn,
            },
        );
        self.wake_order_stalled();
        self.advance_pc(tid);
        StepEnd::Commit(self.cost.spawn + self.log_cost_sync())
    }

    fn log_cost_sync(&mut self) -> u64 {
        if self.config.log_sync {
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
        let log = if self.config.log_input {
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
        let log = if self.config.log_input {
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
        if self.config.log_weak {
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
    fn flat_and_reference_agree_on_traps() {
        for src in [
            "int main() { int x; x = 0; return 1 / x; }",
            "int main() { int *p; p = 0; return *p; }",
            "int f(int n) { return f(n); } int main() { return f(0); }",
        ] {
            assert_modes_agree(src, 0);
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

    #[test]
    fn step_limit_agrees_across_modes_mid_burst() {
        // The limit must trip at the same retired-instruction count even
        // when the flat path is bursting a single runnable thread.
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
