//! The alias oracle: precomputed points-to facts at the sites the race
//! detector needs them — memory accesses and lock operands.

use chimera_minic::ir::{AccessId, BlockId, FuncId, Instr, Operand, Program};
use chimera_pta::{Andersen, ObjId, ObjectTable, Steensgaard};
use std::collections::{BTreeSet, HashMap};

/// Identifies one synchronization instruction site: `(function, block,
/// instruction index)`. Valid only against the un-instrumented program the
/// oracle was built from.
pub type SyncSite = (FuncId, BlockId, u32);

/// Precomputed alias facts for race detection.
#[derive(Debug, Clone)]
pub struct AliasOracle {
    /// Objects each access may touch, indexed by [`AccessId`].
    pub access_objs: Vec<BTreeSet<ObjId>>,
    /// Lock objects each `lock`/`unlock`/`cond_wait` operand may denote
    /// (the lockset's removal step reads every one of them: removal must
    /// be conservative in the other direction from [`Self::definite_lock`]).
    pub lock_objs: HashMap<SyncSite, BTreeSet<ObjId>>,
    /// The object universe.
    pub objects: ObjectTable,
}

impl AliasOracle {
    /// Build the oracle from Steensgaard results (RELAY's configuration).
    pub fn from_steensgaard(program: &Program, steens: &mut Steensgaard) -> AliasOracle {
        let mut lock_objs = HashMap::new();
        for f in &program.funcs {
            for (bid, b) in f.iter_blocks() {
                for (ii, i) in b.instrs.iter().enumerate() {
                    if let Some(op) = lock_operand(i) {
                        let set = steens.points_to_operand(f.id, op);
                        lock_objs.insert((f.id, bid, ii as u32), set);
                    }
                }
            }
        }
        let access_objs = (0..program.accesses.len())
            .map(|i| steens.objects_of_access(AccessId(i as u32)).clone())
            .collect();
        AliasOracle {
            access_objs,
            lock_objs,
            objects: steens.objects().clone(),
        }
    }

    /// Build the oracle from Andersen results (a more precise ablation
    /// configuration; see the `pta-precision` bench).
    pub fn from_andersen(program: &Program, andersen: &Andersen) -> AliasOracle {
        let mut lock_objs = HashMap::new();
        for f in &program.funcs {
            for (bid, b) in f.iter_blocks() {
                for (ii, i) in b.instrs.iter().enumerate() {
                    if let Some(op) = lock_operand(i) {
                        let set = andersen.points_to_operand(f.id, op).clone();
                        lock_objs.insert((f.id, bid, ii as u32), set);
                    }
                }
            }
        }
        let access_objs = (0..program.accesses.len())
            .map(|i| andersen.objects_of_access(AccessId(i as u32)).clone())
            .collect();
        AliasOracle {
            access_objs,
            lock_objs,
            objects: andersen.objects().clone(),
        }
    }

    /// Objects an access may touch.
    pub fn objects_of_access(&self, a: AccessId) -> &BTreeSet<ObjId> {
        &self.access_objs[a.index()]
    }

    /// The lock object at a sync site — `Some(obj)` only when the points-to
    /// set is a **singleton**, because only then is it sound to add the lock
    /// to a must-held lockset.
    pub fn definite_lock(&self, site: SyncSite) -> Option<ObjId> {
        let set = self.lock_objs.get(&site)?;
        if set.len() == 1 {
            set.iter().next().copied()
        } else {
            None
        }
    }
}

/// The mutex operand of a lock-affecting instruction.
fn lock_operand(i: &Instr) -> Option<Operand> {
    match i {
        Instr::Lock { addr } | Instr::Unlock { addr } => Some(*addr),
        Instr::CondWait { lock, .. } => Some(*lock),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;
    use chimera_pta::{ObjectTable, Steensgaard};

    #[test]
    fn lock_sites_resolved_to_singletons() {
        let p = compile(
            "lock_t m; int g;
             int main() { lock(&m); g = 1; unlock(&m); return 0; }",
        )
        .unwrap();
        let objects = ObjectTable::build(&p);
        let mut s = Steensgaard::analyze(&p, &objects);
        let oracle = AliasOracle::from_steensgaard(&p, &mut s);
        assert_eq!(oracle.lock_objs.len(), 2);
        for site in oracle.lock_objs.keys() {
            assert!(oracle.definite_lock(*site).is_some());
        }
    }

    #[test]
    fn ambiguous_lock_pointer_is_not_definite() {
        let p = compile(
            "lock_t m1; lock_t m2; int g;
             int main(void) {
                lock_t *which; int c;
                c = sys_input(0);
                if (c) { which = &m1; } else { which = &m2; }
                lock(which); g = 1; unlock(which);
                return 0;
             }",
        )
        .unwrap();
        let objects = ObjectTable::build(&p);
        let mut s = Steensgaard::analyze(&p, &objects);
        let oracle = AliasOracle::from_steensgaard(&p, &mut s);
        let definite = oracle
            .lock_objs
            .keys()
            .filter(|k| oracle.definite_lock(**k).is_some())
            .count();
        assert_eq!(definite, 0, "which may be m1 or m2; lockset must not grow");
        // But the site's lock objects still hold both, for sound removal.
        let objs = oracle.lock_objs.values().next().unwrap();
        assert_eq!(objs.len(), 2);
    }
}
