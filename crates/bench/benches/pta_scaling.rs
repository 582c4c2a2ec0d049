//! Andersen solver scaling: naive fixpoint vs difference-propagation
//! worklist on synthetic programs of N functions (DESIGN.md "Solver
//! internals").
//!
//! Each program is a chain of N pointer-returning functions threading one
//! pointer through the whole chain. Every eighth link conditionally
//! rebinds the pointer to its own `malloc` site, so ~N/8 distinct
//! abstract objects must travel the rest of the chain and points-to sets
//! grow with N —
//! the regime where the naive fixpoint's re-walk of every constraint per
//! pass goes superlinear, while difference propagation only ever moves
//! each object across each edge once (and as a dense bitset at that).
//! The chain is defined in reverse source order so the return-value copy
//! edges also oppose the naive solver's constraint iteration order.
//! Every tenth function is address-taken and called indirectly, so the
//! on-the-fly call-graph resolution is exercised too.
//!
//! Runs as a plain binary on `chimera-testkit`'s bench runner:
//! `cargo bench --bench pta_scaling [filter]`. To refresh the committed
//! scaling data: `CHIMERA_BENCH_JSON=$PWD/BENCH_pta.json cargo bench
//! --bench pta_scaling` (an absolute path: benches run in `crates/bench`).

use chimera_minic::compile;
use chimera_minic::ir::Program;
use chimera_pta::{Andersen, ObjectTable};
use chimera_testkit::bench::Runner;
use std::fmt::Write as _;

/// A chain of `n` functions: `fk` forwards its pointer argument through
/// `fk-1`, conditionally rebinds it to a fresh `malloc` cell (a distinct
/// abstract object per function), stores through it, and parks it in a
/// global pointer. `main` drives the chain, takes the address of every
/// tenth function, and calls through the resulting function pointer.
/// Functions are emitted `fn-1` down to `f0`, so each return-value copy
/// edge points *against* source order.
fn source(n: usize) -> String {
    let mut s = String::new();
    for g in 0..8 {
        let _ = write!(s, "int g{g}; ");
    }
    s.push_str("int *keep;\n");
    for k in (1..n).rev() {
        let rebind = if k % 8 == 0 {
            "q = malloc(4);".to_string()
        } else {
            format!("q = &g{};", k % 8)
        };
        let _ = writeln!(
            s,
            "int *f{k}(int *p) {{ int *q; q = f{}(p); if (g0) {{ {rebind} }} *q = {k}; keep = q; return q; }}",
            k - 1,
        );
    }
    s.push_str("int *f0(int *p) { int *q; q = p; keep = q; return q; }\n");
    s.push_str("int main() { int *p; int *fp; int t;\n    p = &g0;\n");
    let _ = writeln!(s, "    p = f{}(p);", n - 1);
    for k in (0..n).step_by(10) {
        let _ = writeln!(s, "    fp = f{k};");
    }
    s.push_str("    p = fp(p);\n");
    let _ = write!(s, "    t = spawn(f{}, p);\n    join(t);\n", n / 2);
    s.push_str("    *p = 1;\n    return 0;\n}\n");
    s
}

fn synthetic(n: usize) -> Program {
    compile(&source(n)).expect("synthetic chain compiles")
}

fn main() {
    let mut runner = Runner::from_args();
    for n in [50usize, 200, 800] {
        let p = synthetic(n);
        let objects = ObjectTable::build(&p);
        let mut group = runner.group("pta_scaling");
        group.sample_size(10);
        group.bench(&format!("worklist/{n}"), || {
            let a = Andersen::analyze(&p, &objects);
            std::hint::black_box(&a);
        });
        group.bench(&format!("naive/{n}"), || {
            let a = Andersen::analyze_naive(&p, &objects);
            std::hint::black_box(&a);
        });
        group.finish();
    }
    runner.finish();
}
