//! Cell-granular memory with region tracking and bounds checking.
//!
//! Addresses are `i64` cell indices into one flat space. Every allocation
//! (global, stack frame, heap block) is a *region*; dereferencing outside a
//! live region traps. This is how the reproduction handles the paper's
//! §3.2 caveat — RELAY's pointer analysis is sound only up to the first
//! buffer overflow, so the machine refuses to run past one.

use chimera_minic::ir::{AllocSiteId, FuncId, GlobalId, Program};
use std::fmt;

/// What a region is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A global variable.
    Global(GlobalId),
    /// A stack frame's slot area for one activation of `FuncId`.
    Frame(FuncId),
    /// A heap block from `malloc` at this site.
    Heap(AllocSiteId),
}

/// One allocated region.
#[derive(Debug, Clone)]
pub struct Region {
    /// First cell address.
    pub start: i64,
    /// Length in cells.
    pub len: i64,
    /// Classification.
    pub kind: RegionKind,
    /// False once freed (frame popped / `free` called).
    pub alive: bool,
}

/// A memory trap (the machine stops the offending thread and reports it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemTrap {
    /// Offending address.
    pub addr: i64,
    /// Description.
    pub reason: String,
}

impl fmt::Display for MemTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory trap at address {}: {}", self.addr, self.reason)
    }
}

/// `global_map` sentinel: a global region that has been `free`d.
const FREED_GLOBAL: u32 = u32::MAX - 1;
/// `global_map` sentinel: no region at this address (the reserved NULL cell).
const NO_REGION: u32 = u32::MAX;

/// The machine's memory.
#[derive(Debug, Clone)]
pub struct Memory {
    cells: Vec<i64>,
    regions: Vec<Region>,
    /// Base address of each global, indexed by `GlobalId`.
    global_base: Vec<i64>,
    /// Exact region index per address of the static global area (built once
    /// at layout; globals never move). Loops that alternate between two
    /// globals — radix's `keys[j]` / `rank[k]` histogram, say — would
    /// otherwise thrash `last_region` and binary-search on every access.
    /// [`FREED_GLOBAL`] marks a global that was `free`d (keeps the
    /// use-after-free trap exact) and [`NO_REGION`] the reserved NULL cell.
    global_map: Vec<u32>,
    /// While every address in `1..frontier` is a live global cell (the
    /// common case: globals are laid out back-to-back and almost never
    /// freed), this holds `frontier - 1` and a static-area access is one
    /// compare plus one `cells` read — not even the `global_map` load.
    /// Freeing any global drops it to 0, which routes everything through
    /// the exact map. The NULL cell at address 0 is excluded by the
    /// `addr - 1` rotation in `load`/`store`.
    dense_limit: u64,
    /// Index of the last region hit by `region_of` — accesses cluster
    /// heavily per region, so checking it first skips the binary search
    /// on the hot load/store path for dynamic (frame/heap) regions.
    /// Purely a cache: never observable.
    last_region: std::cell::Cell<usize>,
}

impl Memory {
    /// Lay out all globals at the bottom of the address space.
    pub fn new(program: &Program) -> Memory {
        let mut cells = Vec::new();
        let mut regions = Vec::new();
        let mut global_base = Vec::new();
        // Address 0 is reserved so that 0 acts like NULL.
        cells.push(0);
        for (i, g) in program.globals.iter().enumerate() {
            let start = cells.len() as i64;
            global_base.push(start);
            cells.extend_from_slice(&g.init);
            regions.push(Region {
                start,
                len: g.size as i64,
                kind: RegionKind::Global(GlobalId(i as u32)),
                alive: true,
            });
        }
        let mut global_map = vec![NO_REGION; cells.len()];
        for (i, r) in regions.iter().enumerate() {
            for a in r.start..r.start + r.len {
                global_map[a as usize] = i as u32;
            }
        }
        let dense = global_map[1..].iter().all(|&r| r != NO_REGION);
        Memory {
            dense_limit: if dense { (cells.len() - 1) as u64 } else { 0 },
            cells,
            regions,
            global_base,
            global_map,
            last_region: std::cell::Cell::new(0),
        }
    }

    /// Base address of a global.
    pub fn global_base(&self, g: GlobalId) -> i64 {
        self.global_base[g.index()]
    }

    /// First address past the statically laid-out globals. Every address
    /// below this is known at program-load time, which is what lets the
    /// sync tables use dense `Vec` indexing for static sync objects and
    /// spill to a map only for heap-allocated ones.
    pub fn frontier(&self) -> i64 {
        self.cells.len() as i64
    }

    /// Allocate a fresh region (bump allocation; addresses are never
    /// reused, which keeps replay address-stable).
    pub fn alloc(&mut self, len: i64, kind: RegionKind) -> i64 {
        let len = len.max(1);
        let start = self.cells.len() as i64;
        self.cells.resize(self.cells.len() + len as usize, 0);
        self.regions.push(Region {
            start,
            len,
            kind,
            alive: true,
        });
        start
    }

    /// Mark the region starting at `start` dead.
    ///
    /// Returns an error if no live region starts there (double free).
    pub fn dealloc(&mut self, start: i64) -> Result<(), MemTrap> {
        match self
            .regions
            .iter_mut()
            .find(|r| r.start == start && r.alive)
        {
            Some(r) => {
                r.alive = false;
                let (start, len) = (r.start, r.len);
                if (start as u64) < self.global_map.len() as u64 {
                    for a in start..start + len {
                        self.global_map[a as usize] = FREED_GLOBAL;
                    }
                    self.dense_limit = 0;
                }
                Ok(())
            }
            None => Err(MemTrap {
                addr: start,
                reason: "free of a non-allocated or already-freed address".into(),
            }),
        }
    }

    #[inline]
    fn region_of(&self, addr: i64) -> Option<&Region> {
        let hint = self.last_region.get();
        if let Some(r) = self.regions.get(hint) {
            if addr >= r.start && addr < r.start + r.len {
                return Some(r);
            }
        }
        // Regions are sorted by start (bump allocation): binary search.
        let idx = self
            .regions
            .partition_point(|r| r.start <= addr)
            .checked_sub(1)?;
        let r = &self.regions[idx];
        if addr < r.start + r.len {
            self.last_region.set(idx);
            Some(r)
        } else {
            None
        }
    }

    /// Read one cell with bounds checking.
    #[inline]
    pub fn load(&self, addr: i64) -> Result<i64, MemTrap> {
        // Fully-live static area: one compare, one read. The `addr - 1`
        // rotation sends the NULL cell (and negatives) past the limit.
        if (addr as u64).wrapping_sub(1) < self.dense_limit {
            return Ok(self.cells[addr as usize]);
        }
        // Static global area with holes (a global was freed): the map
        // encodes liveness directly, so this path is still one compare and
        // one load — no `Region` deref at all. The `u64` cast folds
        // negative addresses into the dynamic-region path.
        if (addr as u64) < self.global_map.len() as u64 {
            if self.global_map[addr as usize] < FREED_GLOBAL {
                return Ok(self.cells[addr as usize]);
            }
            return Err(MemTrap {
                addr,
                reason: if self.global_map[addr as usize] == FREED_GLOBAL {
                    "use after free".into()
                } else {
                    "load outside any allocated region".into()
                },
            });
        }
        match self.region_of(addr) {
            Some(r) if r.alive => Ok(self.cells[addr as usize]),
            Some(_) => Err(MemTrap {
                addr,
                reason: "use after free".into(),
            }),
            None => Err(MemTrap {
                addr,
                reason: "load outside any allocated region".into(),
            }),
        }
    }

    /// Write one cell with bounds checking.
    #[inline]
    pub fn store(&mut self, addr: i64, val: i64) -> Result<(), MemTrap> {
        if (addr as u64).wrapping_sub(1) < self.dense_limit {
            self.cells[addr as usize] = val;
            return Ok(());
        }
        if (addr as u64) < self.global_map.len() as u64 {
            if self.global_map[addr as usize] < FREED_GLOBAL {
                self.cells[addr as usize] = val;
                return Ok(());
            }
            return Err(MemTrap {
                addr,
                reason: if self.global_map[addr as usize] == FREED_GLOBAL {
                    "store after free".into()
                } else {
                    "store outside any allocated region".into()
                },
            });
        }
        match self.region_of(addr) {
            Some(r) if r.alive => {
                self.cells[addr as usize] = val;
                Ok(())
            }
            Some(_) => Err(MemTrap {
                addr,
                reason: "store after free".into(),
            }),
            None => Err(MemTrap {
                addr,
                reason: "store outside any allocated region".into(),
            }),
        }
    }

    /// Write one cell and return its previous value — the speculative
    /// segment engine's store, so one bounds check yields both the write
    /// and the undo-log entry (see `machine.rs`'s round engine).
    #[inline]
    pub fn swap(&mut self, addr: i64, val: i64) -> Result<i64, MemTrap> {
        if (addr as u64).wrapping_sub(1) < self.dense_limit {
            return Ok(std::mem::replace(&mut self.cells[addr as usize], val));
        }
        if (addr as u64) < self.global_map.len() as u64 {
            if self.global_map[addr as usize] < FREED_GLOBAL {
                return Ok(std::mem::replace(&mut self.cells[addr as usize], val));
            }
            return Err(MemTrap {
                addr,
                reason: if self.global_map[addr as usize] == FREED_GLOBAL {
                    "store after free".into()
                } else {
                    "store outside any allocated region".into()
                },
            });
        }
        match self.region_of(addr) {
            Some(r) if r.alive => Ok(std::mem::replace(&mut self.cells[addr as usize], val)),
            Some(_) => Err(MemTrap {
                addr,
                reason: "store after free".into(),
            }),
            None => Err(MemTrap {
                addr,
                reason: "store outside any allocated region".into(),
            }),
        }
    }

    /// Raw cell write for the round engine's rollback and commit paths:
    /// `addr` was validated live earlier in the same round, and regions
    /// cannot have moved since (allocation is a scheduling point).
    #[inline]
    pub fn write_raw(&mut self, addr: i64, val: i64) {
        self.cells[addr as usize] = val;
    }

    /// Hash of all live cells — used by the determinism verifier to compare
    /// final states.
    pub fn state_hash(&self) -> u64 {
        // FNV-1a over live regions.
        let mut h: u64 = 0xcbf29ce484222325;
        for r in &self.regions {
            if !r.alive {
                continue;
            }
            for a in r.start..r.start + r.len {
                let v = self.cells[a as usize] as u64;
                h ^= v;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    fn mem() -> Memory {
        let p = compile("int a; int b[3]; int main() { return 0; }").unwrap();
        Memory::new(&p)
    }

    #[test]
    fn globals_laid_out_with_null_guard() {
        let m = mem();
        assert_eq!(m.global_base(GlobalId(0)), 1);
        assert_eq!(m.global_base(GlobalId(1)), 2);
        assert!(m.load(0).is_err(), "address 0 must trap like NULL");
    }

    #[test]
    fn load_store_round_trip() {
        let mut m = mem();
        m.store(2, 42).unwrap();
        assert_eq!(m.load(2).unwrap(), 42);
    }

    #[test]
    fn out_of_bounds_traps() {
        let m = mem();
        assert!(m.load(1000).is_err());
        assert!(m.load(-1).is_err());
    }

    #[test]
    fn buffer_overflow_between_regions_traps() {
        // b has 3 cells at addresses 2..5; address 5 is past the end.
        let mut m = mem();
        assert!(m.store(5, 1).is_err());
    }

    #[test]
    fn heap_alloc_and_free() {
        let mut m = mem();
        let a = m.alloc(4, RegionKind::Heap(AllocSiteId(0)));
        m.store(a + 3, 9).unwrap();
        assert_eq!(m.load(a + 3).unwrap(), 9);
        m.dealloc(a).unwrap();
        assert!(m.load(a).is_err(), "use after free must trap");
        assert!(m.dealloc(a).is_err(), "double free must trap");
    }

    #[test]
    fn global_initializers_visible() {
        let p = compile("int g = 7; int main() { return 0; }").unwrap();
        let m = Memory::new(&p);
        assert_eq!(m.load(m.global_base(GlobalId(0))).unwrap(), 7);
    }

    #[test]
    fn state_hash_changes_with_content() {
        let mut m = mem();
        let h0 = m.state_hash();
        m.store(1, 5).unwrap();
        assert_ne!(h0, m.state_hash());
    }

    mod proptests {
        use super::*;
        use chimera_testkit::prop::{self, Gen};
        use chimera_testkit::{prop_assert, prop_assert_eq};
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        enum Op {
            Alloc(u8),
            Free(u8),
            Store(u8, i64, i64),
            Load(u8, i64),
        }

        fn op_gen() -> Gen<Op> {
            prop::one_of(vec![
                prop::ranged(1u8..16).map(Op::Alloc),
                prop::any_u8().map(Op::Free),
                Gen::new(|s| {
                    Op::Store(s.int(0u8..=255), s.int(-4i64..20), s.raw_u64() as i64)
                }),
                Gen::new(|s| Op::Load(s.int(0u8..=255), s.int(-4i64..20))),
            ])
        }

        /// The bounds-checked memory agrees with a simple reference
        /// model (a map from live region to its cells) on every
        /// outcome: loads/stores succeed with matching values exactly
        /// when the reference says the access is in a live region.
        #[test]
        fn memory_matches_reference_model() {
            let gen = prop::vec_of(op_gen(), 1..60);
            prop::check("memory_matches_reference_model", &gen, |ops| {
                let ops = ops.clone();
                let program = chimera_minic::compile("int main() { return 0; }").unwrap();
                let mut mem = Memory::new(&program);
                // reference: region index -> (base, len, live, cells)
                let mut regions: Vec<(i64, i64, bool, Vec<i64>)> = Vec::new();
                let mut model: HashMap<i64, i64> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Alloc(len) => {
                            let base = mem.alloc(len as i64, RegionKind::Heap(
                                chimera_minic::ir::AllocSiteId(0),
                            ));
                            regions.push((base, len as i64, true, vec![0; len as usize]));
                            for a in base..base + len as i64 {
                                model.insert(a, 0);
                            }
                        }
                        Op::Free(which) => {
                            let n = regions.len();
                            if n == 0 { continue; }
                            let idx = (which as usize) % n;
                            let (base, len, live, _) = regions[idx].clone();
                            let r = mem.dealloc(base);
                            prop_assert_eq!(r.is_ok(), live, "double free detection");
                            if live {
                                regions[idx].2 = false;
                                for a in base..base + len {
                                    model.remove(&a);
                                }
                            }
                        }
                        Op::Store(which, off, v) => {
                            let n = regions.len();
                            if n == 0 { continue; }
                            let idx = (which as usize) % n;
                            let addr = regions[idx].0 + off;
                            let expected_ok = model.contains_key(&addr);
                            let r = mem.store(addr, v);
                            prop_assert_eq!(r.is_ok(), expected_ok, "store at {}", addr);
                            if expected_ok {
                                model.insert(addr, v);
                            }
                        }
                        Op::Load(which, off) => {
                            let n = regions.len();
                            if n == 0 { continue; }
                            let idx = (which as usize) % n;
                            let addr = regions[idx].0 + off;
                            match model.get(&addr) {
                                Some(v) => prop_assert_eq!(mem.load(addr).ok(), Some(*v)),
                                None => prop_assert!(mem.load(addr).is_err()),
                            }
                        }
                    }
                }
                Ok(())
            });
        }
    }

    #[test]
    fn dead_regions_excluded_from_hash() {
        let mut m = mem();
        let a = m.alloc(2, RegionKind::Heap(AllocSiteId(0)));
        m.store(a, 123).unwrap();
        m.dealloc(a).unwrap();
        let mut m2 = mem();
        let a2 = m2.alloc(2, RegionKind::Heap(AllocSiteId(0)));
        m2.store(a2, 456).unwrap();
        m2.dealloc(a2).unwrap();
        assert_eq!(m.state_hash(), m2.state_hash());
    }
}
