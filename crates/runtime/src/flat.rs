//! Pre-decoded execution representation: the flattened form of a
//! [`Program`] the interpreter's hot loop runs on.
//!
//! Decoding happens once per `Machine` (per run), not once per executed
//! instruction: every basic block's instructions and its terminator are
//! flattened into one contiguous per-function code array of [`FlatOp`]s, so
//! a frame position is a dense `(func, pc)` pair, stepping a hot op is a
//! single indexed copy of a `Copy` op (no `Instr`/`Terminator` clones, no
//! per-step block lookups), and `advance` is `pc += 1` — falling off a
//! block's last instruction lands exactly on its flattened terminator.
//!
//! Only the ops the flat VM's hot-run executor retires itself are decoded;
//! every other instruction or terminator (sync, I/O, calls, returns, heap
//! and weak-lock ops) is one [`FlatOp::Cold`] marker, which the machine
//! executes from the block-structured program through the reference
//! interpreter's arms. Static operands of the hot ops are pre-resolved at
//! decode time:
//! - jump/branch targets become program counters (block ids are kept
//!   alongside for basic-block execution counting),
//! - `AddrOfLocal` of a slot local becomes a frame-slot *offset*,
//! - each hot op's cost-model class is resolved to a static commit cost
//!   ([`static_costs`]).
//!
//! [`FlatFunc::locate`] maps a flat `pc` back to the `(block, ip)` of the
//! block-structured program, so both interpreter modes share one frame
//! representation and stay byte-for-byte comparable.

use crate::cost::CostModel;
use chimera_minic::ast::{BinOp, UnOp};
use chimera_minic::ir::{
    AccessId, BlockId, FuncId, GlobalId, Instr, LocalId, Operand, Program, Storage, Terminator,
};
use std::collections::BTreeMap;

/// One pre-decoded op. Unlike [`Instr`], every variant is `Copy`: the
/// hot loop copies the op out of the code array and never clones. The
/// plain variants are the 11 hot ops the hot-run executor retires; every
/// other instruction or terminator decodes to [`FlatOp::Cold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields mirror `Instr`/`Terminator`
pub enum FlatOp {
    Copy { dst: LocalId, src: Operand },
    UnOp { dst: LocalId, op: UnOp, src: Operand },
    BinOp { dst: LocalId, op: BinOp, a: Operand, b: Operand },
    AddrOfGlobal { dst: LocalId, global: GlobalId, offset: Operand },
    /// `AddrOfLocal` of a slot local, with the frame-slot offset
    /// pre-resolved.
    AddrOfSlot { dst: LocalId, slot_off: i64, offset: Operand },
    AddrOfFunc { dst: LocalId, func: FuncId },
    PtrAdd { dst: LocalId, base: Operand, offset: Operand },
    Load { dst: LocalId, addr: Operand, access: AccessId },
    Store { addr: Operand, val: Operand, access: AccessId },
    /// Flattened `Terminator::Jump` with the target pre-resolved to a pc.
    Jump { target_pc: u32, target_block: BlockId },
    /// Flattened `Terminator::Branch` with both targets pre-resolved.
    Branch {
        cond: Operand,
        then_pc: u32,
        then_block: BlockId,
        else_pc: u32,
        else_block: BlockId,
    },
    /// Any other instruction or terminator: sync, I/O, calls, returns,
    /// heap and weak-lock ops, and `AddrOfLocal` of a register local. The
    /// machine runs it from the block-structured program at
    /// [`FlatFunc::locate`]`(pc)`, through the reference interpreter's
    /// arms.
    Cold,

    // ---- fused superinstructions ----
    //
    // Built by the post-decode peephole pass ([`fuse_func`]) into the
    // per-function `fused` sidecar arena; they never appear in `code`, so
    // the reference interpreter and the flat machine's single steps never
    // see them. Each fused op covers the two plain ops at `[pc, pc+2)`
    // and executes both constituents' exact semantics in one dispatch —
    // including the intermediate register write (checkpoint digests fold
    // top-frame registers, and later code may read it) and one commit per
    // constituent, so clocks, jitter draws, and step counts are
    // bit-identical to unfused stepping. The executor re-checks the
    // scheduling bound between the two commits; a mid-pair yield leaves
    // the thread at `pc + 1`, where the sidecar holds the plain second op.
    //
    // Target blocks are dropped from the fused branch form (they are
    // recoverable as `pc_block[target_pc]`), keeping `FlatOp` compact.
    /// `AddrOfGlobal` + `Load` through the just-computed address.
    FusedGlobalLoad { addr_dst: LocalId, global: GlobalId, offset: Operand, dst: LocalId },
    /// `AddrOfGlobal` + `Store` through the just-computed address.
    FusedGlobalStore { addr_dst: LocalId, global: GlobalId, offset: Operand, val: Operand },
    /// `AddrOfSlot` + `Load` through the just-computed address.
    FusedSlotLoad { addr_dst: LocalId, slot_off: i64, offset: Operand, dst: LocalId },
    /// `AddrOfSlot` + `Store` through the just-computed address.
    FusedSlotStore { addr_dst: LocalId, slot_off: i64, offset: Operand, val: Operand },
    /// `PtrAdd` + `Load` through the just-computed address.
    FusedPtrLoad { addr_dst: LocalId, base: Operand, offset: Operand, dst: LocalId },
    /// `PtrAdd` + `Store` through the just-computed address.
    FusedPtrStore { addr_dst: LocalId, base: Operand, offset: Operand, val: Operand },
    /// `BinOp` (almost always a comparison — the loop-header shape) +
    /// `Branch` on its result.
    FusedCmpBranch {
        dst: LocalId,
        op: BinOp,
        a: Operand,
        b: Operand,
        then_pc: u32,
        else_pc: u32,
    },
    /// `BinOp` + `Copy` of its result (the `i = i + 1` increment shape).
    FusedOpAssign { tmp: LocalId, op: BinOp, a: Operand, b: Operand, dst: LocalId },
}

/// Coarse opcode class: the key of [`fusion_summary`]'s rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)] // names mirror the `FlatOp` families
pub enum OpClass {
    Copy,
    UnOp,
    BinOp,
    AddrOfGlobal,
    AddrOfSlot,
    AddrOfFunc,
    PtrAdd,
    Load,
    Store,
    Jump,
    Branch,
    Cold,
    Fused,
}

impl OpClass {
    /// Stable lowercase name (used in reports and the fusion-table JSON).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Copy => "copy",
            OpClass::UnOp => "unop",
            OpClass::BinOp => "binop",
            OpClass::AddrOfGlobal => "addr_global",
            OpClass::AddrOfSlot => "addr_slot",
            OpClass::AddrOfFunc => "addr_func",
            OpClass::PtrAdd => "ptr_add",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Jump => "jump",
            OpClass::Branch => "branch",
            OpClass::Cold => "cold",
            OpClass::Fused => "fused",
        }
    }
}

/// Classify one op for [`fusion_summary`].
pub fn op_class(op: &FlatOp) -> OpClass {
    match op {
        FlatOp::Copy { .. } => OpClass::Copy,
        FlatOp::UnOp { .. } => OpClass::UnOp,
        FlatOp::BinOp { .. } => OpClass::BinOp,
        FlatOp::AddrOfGlobal { .. } => OpClass::AddrOfGlobal,
        FlatOp::AddrOfSlot { .. } => OpClass::AddrOfSlot,
        FlatOp::AddrOfFunc { .. } => OpClass::AddrOfFunc,
        FlatOp::PtrAdd { .. } => OpClass::PtrAdd,
        FlatOp::Load { .. } => OpClass::Load,
        FlatOp::Store { .. } => OpClass::Store,
        FlatOp::Jump { .. } => OpClass::Jump,
        FlatOp::Branch { .. } => OpClass::Branch,
        FlatOp::Cold => OpClass::Cold,
        FlatOp::FusedGlobalLoad { .. }
        | FlatOp::FusedGlobalStore { .. }
        | FlatOp::FusedSlotLoad { .. }
        | FlatOp::FusedSlotStore { .. }
        | FlatOp::FusedPtrLoad { .. }
        | FlatOp::FusedPtrStore { .. }
        | FlatOp::FusedCmpBranch { .. }
        | FlatOp::FusedOpAssign { .. } => OpClass::Fused,
    }
}

/// Program-level fusion report: how often each fused class pair occurs
/// as a same-block adjacent pair, and how many of those sites the
/// peephole pass rewrote.
#[derive(Debug, Clone)]
pub struct FusionSummary {
    /// Total fused sites across the program.
    pub fused_sites: u64,
    /// One row per fused class pair: `(first, second, static adjacent
    /// occurrences, sites fused)`, sorted by class pair.
    pub rows: Vec<(&'static str, &'static str, u64, u64)>,
}

/// Flatten `program` and count its static pairs and fused sites from the
/// `code` and `fused` arrays. Used by the CLI's `run --json` report;
/// execution flattens independently, so this costs one extra decode
/// (~10µs on the benched workloads).
pub fn fusion_summary(program: &Program) -> FusionSummary {
    let flat = flatten(program);
    // (static same-block pairs, fused sites) per class pair.
    let mut counts: BTreeMap<(OpClass, OpClass), (u64, u64)> = BTreeMap::new();
    for f in &flat.funcs {
        for pc in 0..f.code.len().saturating_sub(1) {
            if f.pc_block[pc] == f.pc_block[pc + 1] {
                let key = (op_class(&f.code[pc]), op_class(&f.code[pc + 1]));
                let c = counts.entry(key).or_default();
                c.0 += 1;
                c.1 += u64::from(op_class(&f.fused[pc]) == OpClass::Fused);
            }
        }
    }
    let rows: Vec<_> = counts
        .into_iter()
        .filter(|&(_, (_, fused))| fused > 0)
        .map(|((a, b), (pairs, fused))| (a.name(), b.name(), pairs, fused))
        .collect();
    FusionSummary {
        fused_sites: rows.iter().map(|r| r.3).sum(),
        rows,
    }
}

/// Frame-slot layout of one function: where each `Storage::Slot` local
/// lives relative to the frame base, and the total slot area size.
#[derive(Debug, Clone)]
pub struct FuncLayout {
    /// Offset of each local's slot from the frame base (`None` for
    /// register locals).
    pub slot_offset: Vec<Option<i64>>,
    /// Total slot-area size in cells.
    pub frame_size: i64,
}

/// One function's flattened code.
#[derive(Debug, Clone)]
pub struct FlatFunc {
    /// All blocks' instructions and terminators, concatenated in block
    /// order: block `b` occupies `block_entry[b] ..` with its terminator
    /// as the last op.
    pub code: Vec<FlatOp>,
    /// Superinstruction sidecar, same length as `code`: `fused[pc]` is a
    /// fused variant covering `[pc, pc + 2)` where the peephole pass
    /// matched, otherwise a copy of `code[pc]`. Only the hot-run executor
    /// reads it; every pc remains a valid entry point because the plain op
    /// at `pc + 1` is never removed.
    pub fused: Vec<FlatOp>,
    /// First pc of each block.
    pub block_entry: Vec<u32>,
    /// Owning block of each pc (the inverse of `block_entry`).
    pub pc_block: Vec<u32>,
    /// pc of the function's entry block.
    pub entry_pc: u32,
}

impl FlatFunc {
    /// Map a flat pc back to its block-structured position, `(block,
    /// instruction index)`: where the reference interpreter finds every
    /// op, and the flat VM a [`FlatOp::Cold`] one. An `ip` equal to the
    /// block's instruction count designates the terminator.
    #[inline]
    pub fn locate(&self, pc: u32) -> (BlockId, usize) {
        let b = self.pc_block[pc as usize];
        (BlockId(b), (pc - self.block_entry[b as usize]) as usize)
    }
}

/// The pre-decoded program: one [`FlatFunc`] per function plus the frame
/// layouts. Built once per run by [`flatten`].
#[derive(Debug, Clone)]
pub struct FlatProgram {
    /// Flattened functions, indexed by [`FuncId`].
    pub funcs: Vec<FlatFunc>,
    /// Frame layouts, indexed by [`FuncId`].
    pub layouts: Vec<FuncLayout>,
    /// Whether any weak-lock op (`WeakAcquire`/`WeakRelease`) exists in the
    /// program. An uninstrumented program never holds a weak lock, so no
    /// forced release can leave it owing a reacquire, and the flat stepper
    /// skips that check with one flag load.
    pub has_weak_ops: bool,
}

/// Compute every function's frame-slot layout.
pub fn layout_of(program: &Program) -> Vec<FuncLayout> {
    program
        .funcs
        .iter()
        .map(|f| {
            let mut off = 0i64;
            let mut slot_offset = vec![None; f.locals.len()];
            for (i, l) in f.locals.iter().enumerate() {
                if let Storage::Slot { size } = l.storage {
                    slot_offset[i] = Some(off);
                    off += size as i64;
                }
            }
            FuncLayout {
                slot_offset,
                frame_size: off,
            }
        })
        .collect()
}

/// Pre-decode `program` into its flat execution form.
pub fn flatten(program: &Program) -> FlatProgram {
    let layouts = layout_of(program);
    let funcs = program
        .funcs
        .iter()
        .map(|f| {
            // Pass 1: block entry pcs (each block contributes its
            // instructions plus one terminator op).
            let mut block_entry = Vec::with_capacity(f.blocks.len());
            let mut pc = 0u32;
            for b in &f.blocks {
                block_entry.push(pc);
                pc += b.instrs.len() as u32 + 1;
            }
            // Pass 2: decode.
            let mut code = Vec::with_capacity(pc as usize);
            let mut pc_block = Vec::with_capacity(pc as usize);
            for (bi, b) in f.blocks.iter().enumerate() {
                for instr in &b.instrs {
                    code.push(decode_instr(instr, &layouts[f.id.index()]));
                    pc_block.push(bi as u32);
                }
                code.push(decode_term(&b.term, &block_entry));
                pc_block.push(bi as u32);
            }
            let fused = fuse_func(&code, &pc_block);
            FlatFunc {
                code,
                fused,
                entry_pc: block_entry[f.entry.index()],
                block_entry,
                pc_block,
            }
        })
        .collect();
    let has_weak_ops = program
        .funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.instrs)
        .any(Instr::is_weak_lock_op);
    FlatProgram {
        funcs,
        layouts,
        has_weak_ops,
    }
}

/// Rewrite one candidate same-block pair into its fused superinstruction,
/// if a pattern matches. The second op's result must depend on the first
/// through a register the first wrote (the address feeding a load/store,
/// the comparison feeding a branch, the value feeding a copy); execution
/// order inside the fused op is preserved exactly, so reads of the written
/// register by the second constituent see the new value, as in unfused
/// stepping.
fn try_fuse(a: &FlatOp, b: &FlatOp) -> Option<FlatOp> {
    let feeds = |written: LocalId, read: &Operand| *read == Operand::Local(written);
    match (*a, *b) {
        (
            FlatOp::AddrOfGlobal { dst, global, offset },
            FlatOp::Load { dst: ld, addr, .. },
        ) if feeds(dst, &addr) => Some(FlatOp::FusedGlobalLoad {
            addr_dst: dst,
            global,
            offset,
            dst: ld,
        }),
        (
            FlatOp::AddrOfGlobal { dst, global, offset },
            FlatOp::Store { addr, val, .. },
        ) if feeds(dst, &addr) => Some(FlatOp::FusedGlobalStore {
            addr_dst: dst,
            global,
            offset,
            val,
        }),
        (
            FlatOp::AddrOfSlot { dst, slot_off, offset },
            FlatOp::Load { dst: ld, addr, .. },
        ) if feeds(dst, &addr) => Some(FlatOp::FusedSlotLoad {
            addr_dst: dst,
            slot_off,
            offset,
            dst: ld,
        }),
        (
            FlatOp::AddrOfSlot { dst, slot_off, offset },
            FlatOp::Store { addr, val, .. },
        ) if feeds(dst, &addr) => Some(FlatOp::FusedSlotStore {
            addr_dst: dst,
            slot_off,
            offset,
            val,
        }),
        (
            FlatOp::PtrAdd { dst, base, offset },
            FlatOp::Load { dst: ld, addr, .. },
        ) if feeds(dst, &addr) => Some(FlatOp::FusedPtrLoad {
            addr_dst: dst,
            base,
            offset,
            dst: ld,
        }),
        (
            FlatOp::PtrAdd { dst, base, offset },
            FlatOp::Store { addr, val, .. },
        ) if feeds(dst, &addr) => Some(FlatOp::FusedPtrStore {
            addr_dst: dst,
            base,
            offset,
            val,
        }),
        (
            FlatOp::BinOp { dst, op, a, b },
            FlatOp::Branch { cond, then_pc, else_pc, .. },
        ) if feeds(dst, &cond) => Some(FlatOp::FusedCmpBranch {
            dst,
            op,
            a,
            b,
            then_pc,
            else_pc,
        }),
        (FlatOp::BinOp { dst, op, a, b }, FlatOp::Copy { dst: cd, src })
            if feeds(dst, &src) =>
        {
            Some(FlatOp::FusedOpAssign {
                tmp: dst,
                op,
                a,
                b,
                dst: cd,
            })
        }
        _ => None,
    }
}

/// The post-decode peephole pass: build the fused sidecar for one
/// function. Pairs never straddle a block boundary (the second op may be
/// the block's terminator, which shares its block id); jump targets are
/// always block entries, so control flow can only *enter* a fused pair at
/// its first pc. Pairs may overlap greedily — a thread resuming mid-pair
/// at `pc + 1` simply dispatches whatever the sidecar holds there, which
/// has identical semantics either way.
fn fuse_func(code: &[FlatOp], pc_block: &[u32]) -> Vec<FlatOp> {
    let mut fused = code.to_vec();
    for pc in 0..code.len().saturating_sub(1) {
        if pc_block[pc] != pc_block[pc + 1] {
            continue;
        }
        if let Some(op) = try_fuse(&code[pc], &code[pc + 1]) {
            fused[pc] = op;
        }
    }
    fused
}

fn decode_instr(instr: &Instr, layout: &FuncLayout) -> FlatOp {
    match *instr {
        Instr::Copy { dst, src } => FlatOp::Copy { dst, src },
        Instr::UnOp { dst, op, src } => FlatOp::UnOp { dst, op, src },
        Instr::BinOp { dst, op, a, b } => FlatOp::BinOp { dst, op, a, b },
        Instr::AddrOfGlobal {
            dst,
            global,
            offset,
        } => FlatOp::AddrOfGlobal {
            dst,
            global,
            offset,
        },
        Instr::AddrOfLocal { dst, local, offset } => match layout.slot_offset[local.index()] {
            Some(slot_off) => FlatOp::AddrOfSlot {
                dst,
                slot_off,
                offset,
            },
            // A register local has no address: the reference arm traps.
            None => FlatOp::Cold,
        },
        Instr::AddrOfFunc { dst, func } => FlatOp::AddrOfFunc { dst, func },
        Instr::PtrAdd { dst, base, offset } => FlatOp::PtrAdd { dst, base, offset },
        Instr::Load { dst, addr, access } => FlatOp::Load { dst, addr, access },
        Instr::Store { addr, val, access } => FlatOp::Store { addr, val, access },
        _ => FlatOp::Cold,
    }
}

fn decode_term(term: &Terminator, block_entry: &[u32]) -> FlatOp {
    match *term {
        Terminator::Jump(b) => FlatOp::Jump {
            target_pc: block_entry[b.index()],
            target_block: b,
        },
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => FlatOp::Branch {
            cond,
            then_pc: block_entry[then_bb.index()],
            then_block: then_bb,
            else_pc: block_entry[else_bb.index()],
            else_block: else_bb,
        },
        Terminator::Return(_) => FlatOp::Cold,
    }
}

/// Resolve each hot op's cost-model class to a static commit cost, per
/// pc: the virtual-cycle cost the hot-run executor (and the flat VM's
/// single-stepped accesses) charge when the op commits, matching the
/// reference interpreter's per-arm arithmetic. A `Cold` op stores 0: it
/// runs through the reference interpreter's arms, which cost it.
pub fn static_costs(func: &FlatFunc, cost: &CostModel) -> Vec<u64> {
    func.code
        .iter()
        .map(|op| match op {
            FlatOp::Load { .. } | FlatOp::Store { .. } => cost.instr + cost.mem,
            FlatOp::Cold => 0,
            // The other plain hot ops (fused ops never appear in `code`).
            _ => cost.instr,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    fn flat_of(src: &str) -> (Program, FlatProgram) {
        let p = compile(src).unwrap();
        let f = flatten(&p);
        (p, f)
    }

    #[test]
    fn layout_and_code_cover_every_block() {
        let (p, flat) = flat_of(
            "int g;
             int add(int a, int b) { return a + b; }
             int main() { int i; int s;
                for (i = 0; i < 4; i = i + 1) { s = add(s, i); }
                g = s; print(s); return 0; }",
        );
        assert_eq!(flat.funcs.len(), p.funcs.len());
        for (f, ff) in p.funcs.iter().zip(&flat.funcs) {
            let expected: usize = f.blocks.iter().map(|b| b.instrs.len() + 1).sum();
            assert_eq!(ff.code.len(), expected);
            assert_eq!(ff.pc_block.len(), expected);
            assert_eq!(ff.block_entry.len(), f.blocks.len());
            assert_eq!(ff.entry_pc, ff.block_entry[f.entry.index()]);
            // Every pc maps back to a (block, ip) consistent with the
            // block-structured program; block-final pcs are terminators.
            for pc in 0..ff.code.len() as u32 {
                let (b, ip) = ff.locate(pc);
                let block = f.block(b);
                assert!(ip <= block.instrs.len(), "pc {pc} past terminator");
                if ip == block.instrs.len() {
                    match ff.code[pc as usize] {
                        FlatOp::Jump { .. } | FlatOp::Branch { .. } => {}
                        FlatOp::Cold => assert!(matches!(block.term, Terminator::Return(_))),
                        op => panic!("pc {pc}: {op:?} is not a terminator"),
                    }
                }
            }
        }
    }

    #[test]
    fn branch_targets_resolve_to_block_entries() {
        let (p, flat) = flat_of(
            "int main() { int i; i = 0;
                while (i < 3) { i = i + 1; }
                return i; }",
        );
        let main = &flat.funcs[p.main().index()];
        for op in &main.code {
            match *op {
                FlatOp::Jump {
                    target_pc,
                    target_block,
                } => {
                    assert_eq!(target_pc, main.block_entry[target_block.index()]);
                }
                FlatOp::Branch {
                    then_pc,
                    then_block,
                    else_pc,
                    else_block,
                    ..
                } => {
                    assert_eq!(then_pc, main.block_entry[then_block.index()]);
                    assert_eq!(else_pc, main.block_entry[else_block.index()]);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn addr_of_local_resolves_slot_offsets() {
        let (p, flat) = flat_of(
            "int main() { int a[4]; int b[2]; a[0] = 1; b[1] = 2; return a[0] + b[1]; }",
        );
        let main_id = p.main().index();
        let layout = &flat.layouts[main_id];
        assert_eq!(layout.frame_size, 6);
        let offsets: Vec<i64> = flat.funcs[main_id]
            .code
            .iter()
            .filter_map(|op| match op {
                FlatOp::AddrOfSlot { slot_off, .. } => Some(*slot_off),
                _ => None,
            })
            .collect();
        assert!(!offsets.is_empty());
        assert!(offsets.iter().all(|o| *o == 0 || *o == 4), "{offsets:?}");
    }

    #[test]
    fn static_costs_match_cost_model() {
        let (p, flat) = flat_of(
            "int g; lock_t m;
             int main() { lock(&m); g = g + 1; unlock(&m); print(g); return 0; }",
        );
        let cost = CostModel::default();
        let main = &flat.funcs[p.main().index()];
        let costs = static_costs(main, &cost);
        for (pc, op) in main.code.iter().enumerate() {
            match op {
                FlatOp::Load { .. } | FlatOp::Store { .. } => {
                    assert_eq!(costs[pc], cost.instr + cost.mem);
                }
                // The reference arms cost cold ops (pinned in machine.rs).
                FlatOp::Cold => assert_eq!(costs[pc], 0),
                _ => assert_eq!(costs[pc], cost.instr),
            }
        }
    }

    #[test]
    fn fusion_summary_agrees_with_decode() {
        // Global loads/stores and compare-branches: the classic fusible
        // patterns. The summary must agree with what decode actually did.
        let src = "int g; int h;
             int main() { int i;
                for (i = 0; i < 10; i = i + 1) { g = g + 1; h = h + g; }
                print(g + h); return 0; }";
        let (p, flat) = flat_of(src);
        let summary = fusion_summary(&p);
        assert!(summary.fused_sites > 0, "expected fusible sites");
        // Fused ops never appear in `code`; they live in the sidecar.
        let fused_in_sidecar: u64 = flat
            .funcs
            .iter()
            .flat_map(|f| &f.fused)
            .filter(|op| op_class(op) == OpClass::Fused)
            .count() as u64;
        assert_eq!(
            summary.fused_sites, fused_in_sidecar,
            "summary disagrees with the decoded sidecar"
        );
        let row_total: u64 = summary.rows.iter().map(|(_, _, _, f)| f).sum();
        assert_eq!(summary.fused_sites, row_total, "rows must sum to the total");
        for (first, second, pairs, fused) in &summary.rows {
            assert!(fused <= pairs, "{first}+{second}: fused {fused} > static {pairs}");
            assert!(*fused > 0, "{first}+{second}: zero-count row exported");
        }
        assert!(
            summary
                .rows
                .iter()
                .any(|(a, b, _, _)| *a == "addr_global" && (*b == "load" || *b == "store")),
            "global access fusion missing from {:?}",
            summary.rows
        );
    }
}
