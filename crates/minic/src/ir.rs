//! The MiniC intermediate representation.
//!
//! The IR is a conventional CFG of basic blocks over virtual registers, with
//! three properties the Chimera analyses rely on:
//!
//! * **Explicit memory**: every load and store carries a stable [`AccessId`]
//!   assigned at lowering time. Instrumentation rewrites blocks but preserves
//!   these ids, so race reports remain valid across transformation.
//! * **Explicit synchronization**: `lock`/`unlock`, barriers, condition
//!   variables, `spawn`/`join`, and simulated system calls are first-class
//!   instructions, so the static analyses and the record/replay runtime see
//!   the same events.
//! * **Weak-locks as instructions**: [`Instr::WeakAcquire`] /
//!   [`Instr::WeakRelease`] are inserted by `chimera-instrument`; the runtime
//!   gives them Chimera's timeout semantics.
//!
//! Memory is cell-granular: every value (int or pointer) occupies one `i64`
//! cell, and pointers are cell addresses. This mirrors CIL's flattened view
//! closely enough for lockset analysis and symbolic bounds analysis while
//! keeping the virtual machine simple.

use crate::ast::{BinOp, UnOp};
use crate::diag::Span;
use std::fmt;

/// The most cells one object may take: a `malloc` request, a global, the
/// whole global image, or one function's frame slot area. Lowering
/// rejects declarations past it by name; `malloc` traps.
pub const MAX_CELLS: u32 = 1 << 24;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a function within a [`Program`].
    FuncId,
    "fn"
);
id_type!(
    /// Identifies a basic block within a [`Function`].
    BlockId,
    "bb"
);
id_type!(
    /// Identifies a local (virtual register or stack slot) within a function.
    LocalId,
    "%"
);
id_type!(
    /// Identifies a global variable within a [`Program`].
    GlobalId,
    "@"
);
id_type!(
    /// Stable identity of a memory access (load or store), assigned at
    /// lowering and preserved by instrumentation.
    AccessId,
    "acc"
);
id_type!(
    /// Identifies a `malloc` site (used as the heap abstraction by the
    /// points-to analysis).
    AllocSiteId,
    "alloc"
);
id_type!(
    /// Identifies a weak-lock introduced by the instrumenter.
    WeakLockId,
    "wl"
);

/// Granularity of a weak-lock, in the paper's terms (§2.2).
///
/// The ordering (`Function < Loop < BasicBlock < Instruction`) is the global
/// acquisition order that makes weak-locks deadlock-free (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockGranularity {
    /// One lock protecting a whole function body (from profiling).
    Function,
    /// One lock protecting a loop for a symbolic address range.
    Loop,
    /// One lock protecting a basic block.
    BasicBlock,
    /// One lock protecting a single memory instruction.
    Instruction,
}

impl fmt::Display for LockGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockGranularity::Function => write!(f, "func"),
            LockGranularity::Loop => write!(f, "loop"),
            LockGranularity::BasicBlock => write!(f, "bb"),
            LockGranularity::Instruction => write!(f, "instr"),
        }
    }
}

/// An operand: a constant or a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Immediate integer.
    Const(i64),
    /// Value of a register local.
    Local(LocalId),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => write!(f, "{v}"),
            Operand::Local(l) => write!(f, "{l}"),
        }
    }
}

/// Call target: a known function or a function-pointer value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Statically known target.
    Direct(FuncId),
    /// Indirect through a function-pointer value.
    Indirect(Operand),
}

/// How a local is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// Pure virtual register: never address-taken, scalar.
    Register,
    /// Frame memory slot of `size` cells: address-taken locals, arrays,
    /// structs. The paper calls converting these to analyzable objects
    /// "heapification" (§6.2).
    Slot {
        /// Size in cells.
        size: u32,
    },
}

/// A local variable or compiler temporary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalDef {
    /// Source name, or a generated `$tN` name for temporaries.
    pub name: String,
    /// Register or frame slot.
    pub storage: Storage,
    /// True if this local holds a pointer value (registers only; used by
    /// points-to seeding).
    pub is_pointer: bool,
}

/// A global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDef {
    /// Source name.
    pub name: String,
    /// Size in cells.
    pub size: u32,
    /// Initial cell values (zero-filled to `size`).
    pub init: Vec<i64>,
    /// True for `lock_t` / `barrier_t` / `cond_t` cells; used by analyses to
    /// exclude sync cells from "shared data".
    pub is_sync: bool,
}

/// One IR instruction.
///
/// Every instruction that the analyses care about carries the information it
/// needs inline (access ids, allocation sites); `span` lives in the parallel
/// [`Block::spans`] vector, which instrumentation keeps aligned.
#[allow(missing_docs)] // operand fields are documented by variant docs
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst = src`
    Copy { dst: LocalId, src: Operand },
    /// `dst = op src`
    UnOp {
        dst: LocalId,
        op: UnOp,
        src: Operand,
    },
    /// `dst = a op b`
    BinOp {
        dst: LocalId,
        op: BinOp,
        a: Operand,
        b: Operand,
    },
    /// `dst = &global + offset` (offset in cells)
    AddrOfGlobal {
        dst: LocalId,
        global: GlobalId,
        offset: Operand,
    },
    /// `dst = &slot_local + offset` (offset in cells)
    AddrOfLocal {
        dst: LocalId,
        local: LocalId,
        offset: Operand,
    },
    /// `dst = &func` (function pointer)
    AddrOfFunc { dst: LocalId, func: FuncId },
    /// `dst = base + offset` pointer arithmetic in cells.
    PtrAdd {
        dst: LocalId,
        base: Operand,
        offset: Operand,
    },
    /// `dst = *addr`
    Load {
        dst: LocalId,
        addr: Operand,
        access: AccessId,
    },
    /// `*addr = val`
    Store {
        addr: Operand,
        val: Operand,
        access: AccessId,
    },
    /// Ordinary call.
    Call {
        dst: Option<LocalId>,
        callee: Callee,
        args: Vec<Operand>,
    },
    /// `lock(addr)` — acquire the program mutex at `addr`.
    Lock { addr: Operand },
    /// `unlock(addr)` — release the program mutex at `addr`.
    Unlock { addr: Operand },
    /// `barrier_init(addr, count)`
    BarrierInit { addr: Operand, count: Operand },
    /// `barrier_wait(addr)`
    BarrierWait { addr: Operand },
    /// `cond_wait(cond_addr, lock_addr)`
    CondWait { cond: Operand, lock: Operand },
    /// `cond_signal(cond_addr)`
    CondSignal { cond: Operand },
    /// `cond_broadcast(cond_addr)`
    CondBroadcast { cond: Operand },
    /// `dst = spawn(f, args...)` — create a thread; yields its id.
    Spawn {
        dst: Option<LocalId>,
        callee: Callee,
        args: Vec<Operand>,
    },
    /// `join(tid)`
    Join { tid: Operand },
    /// `dst = malloc(size_cells)`
    Malloc {
        dst: LocalId,
        size: Operand,
        site: AllocSiteId,
    },
    /// `free(ptr)`
    Free { addr: Operand },
    /// `dst = sys_read(chan, buf, len)` — nondeterministic bulk input;
    /// returns the number of cells read. Recorded by the replay system.
    SysRead {
        dst: Option<LocalId>,
        chan: Operand,
        buf: Operand,
        len: Operand,
    },
    /// `sys_write(chan, buf, len)` — output; contents go to the output trace.
    SysWrite {
        chan: Operand,
        buf: Operand,
        len: Operand,
    },
    /// `dst = sys_input(chan)` — one nondeterministic input word.
    SysInput { dst: LocalId, chan: Operand },
    /// `print(val)` — deterministic output of a computed value.
    Print { val: Operand },
    /// Acquire a Chimera weak-lock. `range` is `Some((lo, hi))` for
    /// loop-locks guarding the inclusive address range `[lo, hi]` computed
    /// from the statically derived symbolic bounds.
    WeakAcquire {
        lock: WeakLockId,
        granularity: LockGranularity,
        range: Option<(Operand, Operand)>,
    },
    /// Release a Chimera weak-lock.
    WeakRelease { lock: WeakLockId },
}

impl Instr {
    /// The access id, if this is a memory access instruction.
    pub fn access_id(&self) -> Option<AccessId> {
        match self {
            Instr::Load { access, .. } | Instr::Store { access, .. } => Some(*access),
            _ => None,
        }
    }

    /// True if this instruction is a weak-lock operation (i.e., inserted by
    /// the instrumenter rather than written by the programmer).
    pub fn is_weak_lock_op(&self) -> bool {
        matches!(
            self,
            Instr::WeakAcquire { .. } | Instr::WeakRelease { .. }
        )
    }

    /// True for the program's own synchronization operations.
    pub fn is_program_sync(&self) -> bool {
        matches!(
            self,
            Instr::Lock { .. }
                | Instr::Unlock { .. }
                | Instr::BarrierInit { .. }
                | Instr::BarrierWait { .. }
                | Instr::CondWait { .. }
                | Instr::CondSignal { .. }
                | Instr::CondBroadcast { .. }
                | Instr::Spawn { .. }
                | Instr::Join { .. }
        )
    }
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// Condition value.
        cond: Operand,
        /// Successor when `cond != 0`.
        then_bb: BlockId,
        /// Successor when `cond == 0`.
        else_bb: BlockId,
    },
    /// Function return.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return(_) => Vec::new(),
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// Per-instruction source spans, kept aligned with `instrs`.
    pub spans: Vec<Span>,
    /// Terminator.
    pub term: Terminator,
}

impl Block {
    /// An empty block jumping to `target` (used when building CFGs).
    pub fn jump_to(target: BlockId) -> Block {
        Block {
            instrs: Vec::new(),
            spans: Vec::new(),
            term: Terminator::Jump(target),
        }
    }

    /// Push an instruction with its span, keeping the vectors aligned.
    pub fn push(&mut self, instr: Instr, span: Span) {
        self.instrs.push(instr);
        self.spans.push(span);
    }
}

/// A function in IR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function id (its index in [`Program::funcs`]).
    pub id: FuncId,
    /// Source name.
    pub name: String,
    /// The first `params.len()` locals are the parameters, in order.
    pub params: Vec<LocalId>,
    /// All locals (registers and slots).
    pub locals: Vec<LocalDef>,
    /// Basic blocks; `BlockId` indexes this vector.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// True if the function returns a value.
    pub returns_value: bool,
    /// Definition site (for reports).
    pub span: Span,
}

impl Function {
    /// Fresh local of the given definition; returns its id.
    pub fn add_local(&mut self, def: LocalDef) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(def);
        id
    }

    /// Fresh empty block; returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            instrs: Vec::new(),
            spans: Vec::new(),
            term: Terminator::Return(None),
        });
        id
    }

    /// Shared view of a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable view of a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total number of instructions (excluding terminators).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Metadata about one memory access, for reporting and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessInfo {
    /// The access id.
    pub id: AccessId,
    /// Function containing the access.
    pub func: FuncId,
    /// Source location.
    pub span: Span,
    /// True for stores.
    pub is_write: bool,
    /// Human-readable description of the accessed lvalue (best effort).
    pub what: String,
}

/// A complete program in IR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// All functions; `FuncId` indexes this vector.
    pub funcs: Vec<Function>,
    /// All globals; `GlobalId` indexes this vector.
    pub globals: Vec<GlobalDef>,
    /// Metadata for every memory access, indexed by `AccessId`.
    pub accesses: Vec<AccessInfo>,
    /// Number of `malloc` sites in the program.
    pub alloc_sites: u32,
    /// Number of weak-locks (0 before instrumentation).
    pub weak_locks: u32,
    /// Source line count (for Table 1 reporting).
    pub source_lines: u32,
}

impl Program {
    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// The `main` function id.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main`; [`crate::lower::lower`] rejects
    /// such programs, so any `Program` it produced has one.
    pub fn main(&self) -> FuncId {
        self.func_by_name("main")
            .expect("lowered programs always contain main")
            .id
    }

    /// Metadata for an access id.
    pub fn access(&self, id: AccessId) -> &AccessInfo {
        &self.accesses[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(
            Terminator::Branch {
                cond: Operand::Const(1),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            }
            .successors(),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(Terminator::Return(None).successors().is_empty());
    }

    #[test]
    fn lock_granularity_total_order_matches_paper() {
        // §2.3: function-locks acquired before loop-locks before bb-locks.
        assert!(LockGranularity::Function < LockGranularity::Loop);
        assert!(LockGranularity::Loop < LockGranularity::BasicBlock);
        assert!(LockGranularity::BasicBlock < LockGranularity::Instruction);
    }

    #[test]
    fn block_push_keeps_spans_aligned() {
        let mut b = Block::jump_to(BlockId(0));
        b.push(
            Instr::Copy {
                dst: LocalId(0),
                src: Operand::Const(1),
            },
            Span::new(4, 2),
        );
        assert_eq!(b.instrs.len(), b.spans.len());
    }

    #[test]
    fn instr_classification() {
        let wl = Instr::WeakAcquire {
            lock: WeakLockId(0),
            granularity: LockGranularity::Loop,
            range: None,
        };
        assert!(wl.is_weak_lock_op());
        assert!(!wl.is_program_sync());
        let lk = Instr::Lock {
            addr: Operand::Const(0),
        };
        assert!(lk.is_program_sync());
        assert!(!lk.is_weak_lock_op());
    }

    #[test]
    fn display_ids() {
        assert_eq!(FuncId(2).to_string(), "fn2");
        assert_eq!(LocalId(7).to_string(), "%7");
        assert_eq!(GlobalId(1).to_string(), "@1");
        assert_eq!(AccessId(9).to_string(), "acc9");
    }
}
