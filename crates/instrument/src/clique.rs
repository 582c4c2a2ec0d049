//! Clique analysis over the non-concurrency graph (paper §4.2).
//!
//! Racy function pairs found non-concurrent by profiling can share one
//! function-granularity weak-lock as long as all functions involved are
//! *mutually* non-concurrent — i.e., they form a clique in the graph whose
//! edges are "never observed concurrent". Sharing reduces the number of
//! weak-lock operations: in the paper's Figure 3, `alice` racing with both
//! `bob` and `carol` acquires one clique lock instead of two pairwise
//! locks.

use chimera_pta::PtsSet;
use std::collections::{BTreeMap, BTreeSet};

/// A clique of mutually non-concurrent functions (node indices are caller
/// defined — the planner uses `FuncId` raw values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clique {
    /// Members.
    pub nodes: BTreeSet<u32>,
    /// How many racy pairs this clique covers (both endpoints inside).
    pub covered_pairs: usize,
}

/// Result of the clique assignment.
#[derive(Debug, Clone, Default)]
pub struct CliqueAssignment {
    /// The cliques, indexed by clique id.
    pub cliques: Vec<Clique>,
    /// For every input racy pair: the clique id protecting it.
    pub pair_clique: BTreeMap<(u32, u32), usize>,
}

/// Given racy pairs (normalized `a <= b`; self-pairs allowed) and the
/// non-concurrency relation, build greedy maximal cliques and assign each
/// pair to the candidate clique covering the most pairs (the paper's
/// tie-break for pairs in two cliques).
///
/// Every pair must satisfy `non_concurrent(a, b)`; the caller filters.
/// Clique membership is a bitset over node ids, so the covered-pair scans
/// are bit tests.
pub fn assign_cliques(
    pairs: &BTreeSet<(u32, u32)>,
    mut non_concurrent: impl FnMut(u32, u32) -> bool,
) -> CliqueAssignment {
    let nodes: BTreeSet<u32> = pairs.iter().flat_map(|(a, b)| [*a, *b]).collect();
    let universe = nodes.last().map_or(0, |&n| n as usize + 1);
    let mut cliques: Vec<Clique> = Vec::new();
    let mut members: Vec<PtsSet> = Vec::new();
    let inside = |m: &PtsSet, (x, y): (u32, u32)| m.contains(x as usize) && m.contains(y as usize);

    // Greedy maximal cliques seeded from each uncovered pair.
    let mut covered = vec![false; pairs.len()];
    for (k, &(a, b)) in pairs.iter().enumerate() {
        if covered[k] {
            continue;
        }
        let mut clique: BTreeSet<u32> = BTreeSet::new();
        let mut member = PtsSet::new(universe);
        for n in [a, b] {
            clique.insert(n);
            member.insert(n as usize);
        }
        // Extend greedily by node id order.
        for &n in &nodes {
            if member.contains(n as usize) {
                continue;
            }
            if clique.iter().all(|&m| non_concurrent(n, m)) {
                clique.insert(n);
                member.insert(n as usize);
            }
        }
        // Mark (and count) the pairs the new clique covers.
        let mut covered_pairs = 0;
        for (seen, &pair) in covered.iter_mut().zip(pairs) {
            if inside(&member, pair) {
                *seen = true;
                covered_pairs += 1;
            }
        }
        cliques.push(Clique {
            nodes: clique,
            covered_pairs,
        });
        members.push(member);
    }
    // Assign each pair to its best candidate clique.
    let pair_clique = pairs
        .iter()
        .map(|&pair| {
            let best = cliques
                .iter()
                .zip(&members)
                .enumerate()
                .filter(|(_, (_, m))| inside(m, pair))
                .max_by_key(|(_, (c, _))| c.covered_pairs)
                .map(|(i, _)| i)
                .expect("every pair seeds or joins a clique");
            (pair, best)
        })
        .collect();
    CliqueAssignment {
        cliques,
        pair_clique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(v: &[(u32, u32)]) -> BTreeSet<(u32, u32)> {
        v.iter()
            .map(|(a, b)| (*a.min(b), *a.max(b)))
            .collect()
    }

    #[test]
    fn paper_figure_3_shares_one_lock() {
        // alice=0, bob=1, carol=2: alice races with bob and carol; all
        // three mutually non-concurrent -> one clique, one lock for both
        // pairs (Fig. 3b).
        let ps = pairs(&[(0, 1), (0, 2)]);
        let nc = |a: u32, b: u32| {
            let set: BTreeSet<u32> = [a, b].into_iter().collect();
            // all of {0,1,2} mutually non-concurrent
            set.iter().all(|x| *x <= 2)
        };
        let asg = assign_cliques(&ps, nc);
        assert_eq!(asg.pair_clique[&(0, 1)], asg.pair_clique[&(0, 2)]);
    }

    #[test]
    fn paper_foo_bar_qux_needs_two_locks() {
        // §7.3's pathology: foo=0 races bar=1 and qux=2; foo is
        // non-concurrent with both, but bar and qux ARE concurrent ->
        // two cliques -> foo must take two locks.
        let ps = pairs(&[(0, 1), (0, 2)]);
        let nc = |a: u32, b: u32| !((a == 1 && b == 2) || (a == 2 && b == 1));
        let asg = assign_cliques(&ps, nc);
        assert_ne!(asg.pair_clique[&(0, 1)], asg.pair_clique[&(0, 2)]);
        assert_eq!(asg.cliques.len(), 2);
    }

    #[test]
    fn pair_in_two_cliques_takes_bigger_coverage() {
        // carol=2 in cliques {0,1,2} and {2,3} (Fig. 3c): pair (2,3)
        // belongs only to the small clique, but pair (1,2) should pick the
        // big clique which covers more pairs.
        let ps = pairs(&[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let nc = |a: u32, b: u32| {
            // 3 is concurrent with 0 and 1; everything else non-concurrent.
            !((a == 3 && b <= 1) || (b == 3 && a <= 1))
        };
        let asg = assign_cliques(&ps, nc);
        let big = asg.pair_clique[&(0, 1)];
        assert_eq!(asg.pair_clique[&(1, 2)], big);
        assert_ne!(asg.pair_clique[&(2, 3)], big);
    }

    #[test]
    fn self_pair_forms_singleton_clique() {
        let ps = pairs(&[(5, 5)]);
        let asg = assign_cliques(&ps, |_, _| true);
        assert_eq!(asg.cliques.len(), 1);
        assert!(asg.cliques[0].nodes.contains(&5));
        assert_eq!(asg.pair_clique[&(5, 5)], 0);
    }

    #[test]
    fn empty_input_is_empty() {
        let asg = assign_cliques(&BTreeSet::new(), |_, _| true);
        assert!(asg.cliques.is_empty());
        assert!(asg.pair_clique.is_empty());
    }
}
