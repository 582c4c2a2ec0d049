//! Symbolic address-bounds analysis for loops (paper §5, after Rugina &
//! Rinard).
//!
//! For a racy memory access inside a loop, Chimera derives symbolic lower
//! and upper bounds on the addresses the access can touch across the whole
//! loop execution, expressed over values available at loop entry. The
//! instrumenter then hoists one *loop-lock* guarding exactly that address
//! range in front of the loop, instead of locking inside every iteration —
//! and threads working on disjoint partitions of an array (the paper's
//! `radix` example, Fig. 4) still run in parallel because their ranges do
//! not overlap.
//!
//! Like the paper's implementation, the analysis:
//!
//! * is intraprocedural and applies to loops without calls in the body
//!   (§5.3);
//! * handles affine address computations over loop-invariant values and
//!   basic induction variables;
//! * reports `±∞` when the address depends on memory contents (e.g.
//!   `rank[key_from[j]]`) or unsupported arithmetic (`%`, `&`, `|`) —
//!   precisely the imprecision cases §5.2 describes.
//!
//! Every bound is derived in closed form over the affine class, so no LP
//! solver stands in for the paper's `lpsolve` (see DESIGN.md §2).

#![warn(missing_docs)]

pub mod iv;
pub mod range;
pub mod sym;

pub use iv::{find_induction_vars, IndVar};
pub use range::{loop_access_bounds, Bound, LoopBounds};
pub use sym::{Sym, SymExpr};

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::cfg::{Cfg, Dominators};
    use chimera_minic::compile;
    use chimera_minic::loops::LoopForest;
    use std::collections::BTreeMap;

    /// Evaluate the closed-form symbolic bounds of `ptr[j]` over
    /// `0 <= j < n` at a concrete instantiation of the entry symbols: they
    /// must be exactly `[ptr, ptr + n - 1]`, the two values a linear
    /// program over the loop's constraints projects onto the address.
    #[test]
    fn symbolic_bounds_evaluate_to_the_exact_address_range() {
        let p = compile(
            "int data[64];
             void worker(int *ptr, int n) {
                int j;
                for (j = 0; j < n; j = j + 1) { ptr[j] = j; }
             }
             int main() { worker(&data[0], 32); return 0; }",
        )
        .unwrap();
        let f = p.func_by_name("worker").unwrap();
        let cfg = Cfg::new(f);
        let dom = Dominators::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let bounds = loop_access_bounds(f, &forest, 0);
        let store = p.accesses.iter().find(|a| a.is_write).unwrap();
        let b = bounds.get(&store.id).expect("analyzed");
        let (lo_e, hi_e) = (b.lo.as_expr().unwrap(), b.hi.as_expr().unwrap());

        // Concrete instantiation: ptr = 100, n = 32, j@entry = 0.
        let mut values: BTreeMap<Sym, i64> = BTreeMap::new();
        for e in [lo_e, hi_e] {
            for s in e.terms.keys() {
                let v = match s {
                    Sym::Entry(l) => match f.locals[l.index()].name.as_str() {
                        "ptr" => 100,
                        "n" => 32,
                        _ => 0,
                    },
                    _ => 0,
                };
                values.insert(*s, v);
            }
        }
        assert_eq!(lo_e.eval(&values), 100);
        assert_eq!(hi_e.eval(&values), 131);
    }

    #[test]
    fn end_to_end_array_fill_loop() {
        let p = compile(
            "int rank[32];
             int main() { int i; int radix; radix = 16;
                for (i = 0; i < radix; i = i + 1) { rank[i] = 0; }
                return 0; }",
        )
        .unwrap();
        let f = p.func_by_name("main").unwrap();
        let cfg = Cfg::new(f);
        let dom = Dominators::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        assert_eq!(forest.loops.len(), 1);
        let bounds = loop_access_bounds(f, &forest, 0);
        // The store rank[i] = 0 gets bounds [&rank[0], &rank[radix-1]].
        let store = p.accesses.iter().find(|a| a.is_write).unwrap();
        let b = bounds.get(&store.id).expect("store analyzed");
        let (lo, hi) = (b.lo.as_expr().unwrap(), b.hi.as_expr().unwrap());
        // lo = GlobalBase(rank) + 0, hi = GlobalBase(rank) + radix@entry - 1
        assert!(lo.terms.iter().any(|(s, c)| matches!(s, Sym::GlobalBase(_)) && *c == 1));
        assert_eq!(lo.konst, 0);
        assert!(hi.terms.iter().any(|(s, c)| matches!(s, Sym::Entry(_)) && *c == 1));
        assert_eq!(hi.konst, -1);
    }
}
