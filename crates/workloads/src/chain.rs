//! Threaded pointer-chain programs: the shape that makes the static side
//! of the pipeline (points-to, RELAY, profiling, planning) the dominant
//! cost rather than the VM.
//!
//! A program holds `classes` independent chains. Link `k` of chain `c`
//! forwards its pointer argument through link `k-1`, conditionally rebinds
//! it to a global of its class (or, every eighth link, to a heap cell of
//! its class), stores through it (inside the class mutex when the caller's
//! `locked` callback says so), and parks it in the class's `keep` pointer.
//! Every store of a class may therefore alias every other, so RELAY's pair
//! enumeration grows with the square of the chain length.
//!
//! `threads` spawned threads each walk one class's chain while `main` walks
//! all of them. Indirect calls (every `indirect_every`-th link) are
//! confined to class 0, because an indirect call resolves to every
//! address-taken function and would otherwise merge the classes. Heap cells
//! are allocated by `main` before any spawn.

use std::fmt::Write as _;

/// Shape of one chain program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainShape {
    /// Chain links over all classes.
    pub funcs: usize,
    /// Independent alias classes (at least 1).
    pub classes: usize,
    /// Every this-many-th link of class 0 calls its predecessor indirectly.
    pub indirect_every: usize,
    /// Spawned threads.
    pub threads: usize,
}

/// Render the program. `locked(c, k)` decides whether link `k` of class `c`
/// guards its store with the class mutex; it is called once per link, in
/// emission order, so a seeded RNG behind it gives a reproducible program.
pub fn chain_source(shape: &ChainShape, mut locked: impl FnMut(usize, usize) -> bool) -> String {
    let links =
        |c: usize| shape.funcs / shape.classes + usize::from(c < shape.funcs % shape.classes);
    let mut s = String::new();
    for c in 0..shape.classes {
        for g in 0..8 {
            let _ = write!(s, "int g{c}_{g}; ");
        }
        for h in 0..links(c) / 8 {
            let _ = write!(s, "int *h{c}_{h}; ");
        }
        let _ = writeln!(s, "int *keep{c}; lock_t m{c};");
    }
    for c in 0..shape.classes {
        for k in (1..links(c)).rev() {
            let rebind = if k % 8 == 0 {
                format!("q = h{c}_{};", k / 8 - 1)
            } else {
                format!("q = &g{c}_{};", k % 8)
            };
            let store = if locked(c, k) {
                format!("lock(&m{c}); *q = {k}; unlock(&m{c});")
            } else {
                format!("*q = {k};")
            };
            let call = if c == 0 && k % shape.indirect_every == 0 {
                format!("int *fp; fp = f{c}_{}; q = fp(p);", k - 1)
            } else {
                format!("q = f{c}_{}(p);", k - 1)
            };
            let _ = writeln!(
                s,
                "int *f{c}_{k}(int *p) {{ int *q; {call} if (g{c}_0) {{ {rebind} }} {store} keep{c} = q; return q; }}"
            );
        }
        let _ = writeln!(
            s,
            "int *f{c}_0(int *p) {{ int *q; q = p; keep{c} = q; return q; }}"
        );
    }
    for t in 0..shape.threads {
        let c = t % shape.classes;
        let _ = writeln!(
            s,
            "void w{t}(int x) {{ int *p; p = &g{c}_{}; p = f{c}_{}(p); *p = x; }}",
            1 + t % 7,
            links(c) - 1
        );
    }
    s.push_str("int main() {");
    for c in 0..shape.classes {
        let _ = write!(s, " int *p{c};");
    }
    for t in 0..shape.threads {
        let _ = write!(s, " int t{t};");
    }
    s.push('\n');
    for c in 0..shape.classes {
        for h in 0..links(c) / 8 {
            let _ = writeln!(s, "    h{c}_{h} = malloc(4);");
        }
    }
    for t in 0..shape.threads {
        let _ = writeln!(s, "    t{t} = spawn(w{t}, {t});");
    }
    for c in 0..shape.classes {
        let _ = writeln!(
            s,
            "    p{c} = &g{c}_0; p{c} = f{c}_{}(p{c}); *p{c} = 1;",
            links(c) - 1
        );
    }
    for t in 0..shape.threads {
        let _ = writeln!(s, "    join(t{t});");
    }
    for c in 0..shape.classes {
        let _ = writeln!(s, "    print(g{c}_0); print(g{c}_1);");
    }
    s.push_str("    return 0;\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shape_compiles_and_spawns_its_threads() {
        for (funcs, classes, threads) in [(12, 1, 2), (40, 3, 4), (61, 2, 3)] {
            let shape = ChainShape {
                funcs,
                classes,
                indirect_every: 3,
                threads,
            };
            let src = chain_source(&shape, |c, k| (c + k) % 2 == 0);
            let p = chimera_minic::compile(&src).unwrap_or_else(|e| panic!("{shape:?}: {e}"));
            assert!(src.contains("lock(&m0)") && src.contains("fp(p)"));
            assert_eq!(src.matches("= spawn(").count(), threads);
            assert!(p.funcs.len() > funcs);
        }
    }
}
