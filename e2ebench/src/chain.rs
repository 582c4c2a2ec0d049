//! Seeded MiniC pointer-chain programs: the `pta_scaling` chain,
//! generalised along the properties the static layers are sensitive to.
//!
//! Each program holds `classes` independent chains. Link `k` of chain `c`
//! forwards its pointer argument through link `k-1`, conditionally rebinds
//! it to a global of its class (or, every eighth link, to a heap cell of
//! its class), stores through it (inside the class mutex for a
//! `locked_pct` share of links), and parks it in the class's `keep`
//! pointer. So every store of a class may alias every other: RELAY's pair
//! enumeration grows with the square of the chain length, and splitting
//! the same functions over more classes divides it.
//!
//! `threads` spawned threads each walk one class's chain while `main`
//! walks all of them. Indirect calls (every `indirect_every`-th link) are
//! confined to class 0: Steensgaard resolves an indirect call to every
//! address-taken function, so an indirect call in another class would
//! merge the classes. Threads enter through `int`-argument wrappers for
//! the same reason. Heap cells are allocated by `main` before any spawn,
//! because the recorder does not log allocation order.

use chimera_testkit::rng::Rng;
use std::fmt::Write as _;

/// Shape of one generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainParams {
    /// Chain links over all classes.
    pub funcs: usize,
    /// Independent alias classes.
    pub classes: usize,
    /// Percentage of links whose store is guarded by the class mutex.
    pub locked_pct: u32,
    /// Every this-many-th link of class 0 calls its predecessor indirectly.
    pub indirect_every: usize,
    /// Spawned threads.
    pub threads: usize,
}

/// Parameter ranges (classes and threads are cycled through, not drawn).
const FUNCS: (usize, usize) = (60, 220);
const CLASSES: (usize, usize) = (1, 4);
const LOCKED_PCT: (usize, usize) = (0, 75);
const INDIRECT: (usize, usize) = (3, 10);
const THREADS: (usize, usize) = (2, 4);

/// `n` programs (`n` a multiple of 4, coprime to 3 and 5) on a fixed
/// stratified design. Each range is cut into `n` strata; program `i`
/// takes stratum `i` of the function count and fixed permutations of the
/// other strata, cycles through the class and thread counts, and the seed
/// jitters every value within its stratum and decides which links lock
/// their store. So pools from different seeds are different programs that
/// cost about the same: the spread between runs stays small without
/// every run measuring the same inputs.
pub fn pool(seed: u64, n: usize) -> Vec<(ChainParams, String)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut pick = |(lo, hi): (usize, usize), stratum: usize| {
                let width = hi - lo + 1;
                let a = stratum * width / n;
                lo + rng.gen_range(a..((stratum + 1) * width / n).max(a + 1))
            };
            let p = ChainParams {
                funcs: pick(FUNCS, i),
                classes: CLASSES.0 + i % 4,
                locked_pct: pick(LOCKED_PCT, i * 5 % n) as u32,
                indirect_every: pick(INDIRECT, i * 3 % n),
                threads: THREADS.0 + i / 4 % 3,
            };
            let src = source(&p, &mut rng);
            (p, src)
        })
        .collect()
}

/// Render one program; `rng` decides which links lock their store.
pub fn source(p: &ChainParams, rng: &mut Rng) -> String {
    let links = |c: usize| p.funcs / p.classes + usize::from(c < p.funcs % p.classes);
    let mut s = String::new();
    for c in 0..p.classes {
        for g in 0..8 {
            let _ = write!(s, "int g{c}_{g}; ");
        }
        for h in 0..links(c) / 8 {
            let _ = write!(s, "int *h{c}_{h}; ");
        }
        let _ = writeln!(s, "int *keep{c}; lock_t m{c};");
    }
    for c in 0..p.classes {
        for k in (1..links(c)).rev() {
            let rebind = if k % 8 == 0 {
                format!("q = h{c}_{};", k / 8 - 1)
            } else {
                format!("q = &g{c}_{};", k % 8)
            };
            let store = if rng.gen_range(0..100u32) < p.locked_pct {
                format!("lock(&m{c}); *q = {k}; unlock(&m{c});")
            } else {
                format!("*q = {k};")
            };
            let call = if c == 0 && k % p.indirect_every == 0 {
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
    for t in 0..p.threads {
        let c = t % p.classes;
        let _ = writeln!(
            s,
            "void w{t}(int x) {{ int *p; p = &g{c}_{}; p = f{c}_{}(p); *p = x; }}",
            1 + t % 7,
            links(c) - 1
        );
    }
    s.push_str("int main() {");
    for c in 0..p.classes {
        let _ = write!(s, " int *p{c};");
    }
    for t in 0..p.threads {
        let _ = write!(s, " int t{t};");
    }
    s.push('\n');
    for c in 0..p.classes {
        for h in 0..links(c) / 8 {
            let _ = writeln!(s, "    h{c}_{h} = malloc(4);");
        }
    }
    for t in 0..p.threads {
        let _ = writeln!(s, "    t{t} = spawn(w{t}, {t});");
    }
    for c in 0..p.classes {
        let _ = writeln!(
            s,
            "    p{c} = &g{c}_0; p{c} = f{c}_{}(p{c}); *p{c} = 1;",
            links(c) - 1
        );
    }
    for t in 0..p.threads {
        let _ = writeln!(s, "    join(t{t});");
    }
    for c in 0..p.classes {
        let _ = writeln!(s, "    print(g{c}_0); print(g{c}_1);");
    }
    s.push_str("    return 0;\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::CHAIN_POOL as N;

    #[test]
    fn pool_is_deterministic_per_seed_and_every_program_compiles() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = pool(seed, N);
            assert_eq!(a, pool(seed, N), "seed {seed}");
            for (p, src) in &a {
                chimera_minic::compile(src)
                    .unwrap_or_else(|e| panic!("seed {seed} {p:?}: {e}\n{src}"));
            }
        }
        assert_ne!(pool(1, N), pool(2, N));
    }

    #[test]
    fn pool_strata_cover_every_range() {
        let ps: Vec<ChainParams> = pool(7, N).into_iter().map(|(p, _)| p).collect();
        for c in CLASSES.0..=CLASSES.1 {
            let count = ps.iter().filter(|p| p.classes == c).count();
            assert_eq!(count, N / 4, "classes={c}");
        }
        let width = (FUNCS.1 - FUNCS.0 + 1) / N;
        assert!(ps.iter().all(|p| (FUNCS.0..=FUNCS.1).contains(&p.funcs)));
        assert!(ps.iter().any(|p| p.funcs < FUNCS.0 + width + 1));
        assert!(ps.iter().any(|p| p.funcs + width + 1 > FUNCS.1));
        for t in THREADS.0..=THREADS.1 {
            assert!(ps.iter().any(|p| p.threads == t), "threads={t}");
        }
        for k in INDIRECT.0..=INDIRECT.1 {
            assert!(ps.iter().any(|p| p.indirect_every == k), "indirect={k}");
        }
    }
}
