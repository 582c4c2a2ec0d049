//! Andersen's inclusion-based points-to analysis.
//!
//! Flow- and context-insensitive, field-insensitive, with on-the-fly
//! resolution of indirect calls: the targets of a call through a function
//! pointer are taken from the current points-to set of the pointer, and
//! parameter/return copy edges are added as new targets appear.
//!
//! The solver is a **difference-propagation worklist** (Pearce et al.;
//! Hardekopf & Lin): each node keeps a dense [`PtsSet`] bitset plus the
//! portion of it already propagated, and only the *delta* since a node was
//! last processed flows along its copy edges, load/store constraints, and
//! indirect call sites. Copy-edge cycles are collapsed online with a
//! union-find over nodes (lazy cycle detection), so pointer chains and
//! cycles converge without re-walking the whole constraint system. The
//! textbook naive fixpoint is retained as [`Andersen::analyze_naive`] —
//! a reference implementation for differential tests and the
//! `pta_scaling` bench, not for production use.

use crate::bitset::PtsSet;
use crate::obj::{AbsObj, ObjId, ObjectTable};
use chimera_minic::ir::{
    AccessId, Callee, FuncId, Instr, LocalId, Operand, Program, Terminator,
};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Results of Andersen's analysis.
#[derive(Debug, Clone)]
pub struct Andersen {
    objects: ObjectTable,
    var_base: Vec<usize>,
    n_nodes: usize,
    pts: Vec<BTreeSet<ObjId>>,
    access_objs: Vec<BTreeSet<ObjId>>,
    empty: BTreeSet<ObjId>,
}

#[derive(Debug, Clone, Copy)]
struct LoadC {
    addr: usize,
    dst: usize,
}

#[derive(Debug, Clone, Copy)]
struct StoreC {
    addr: usize,
    val: usize,
}

#[derive(Debug, Clone)]
struct IndirectSite {
    caller: FuncId,
    callee_node: usize,
    args: Vec<Operand>,
    dst: Option<LocalId>,
}

/// The full constraint system of a program, shared by both solvers.
struct Constraints {
    /// `node ∋ obj` base facts (address-of, malloc).
    base: Vec<(usize, ObjId)>,
    /// `pts(dst) ⊇ pts(src)` copy edges.
    copy: Vec<(usize, usize)>,
    /// `dst = *addr` complex constraints.
    loads: Vec<LoadC>,
    /// `*addr = val` complex constraints.
    stores: Vec<StoreC>,
    /// Calls through function pointers, resolved on the fly.
    indirect: Vec<IndirectSite>,
    /// Per function: nodes flowing into `return`.
    ret_srcs: Vec<Vec<usize>>,
}

impl Andersen {
    /// Run the analysis to fixpoint with the worklist solver.
    pub fn analyze(program: &Program, objects: &ObjectTable) -> Andersen {
        let mut a = Andersen::skeleton(program, objects);
        let cons = a.collect(program);
        Worklist::solve(&mut a, program, &cons);
        a.record_accesses(program);
        a
    }

    /// The textbook naive fixpoint solver: every iteration re-walks every
    /// constraint until nothing changes.
    ///
    /// Kept only as the differential-testing and benchmarking reference
    /// for [`Andersen::analyze`]; it computes the identical least
    /// solution, orders of magnitude slower on large programs.
    #[doc(hidden)]
    pub fn analyze_naive(program: &Program, objects: &ObjectTable) -> Andersen {
        let mut a = Andersen::skeleton(program, objects);
        let cons = a.collect(program);
        a.solve_naive(program, cons);
        a.record_accesses(program);
        a
    }

    /// Empty result shell with the node numbering set up.
    fn skeleton(program: &Program, objects: &ObjectTable) -> Andersen {
        let mut var_base = Vec::with_capacity(program.funcs.len());
        let mut n_vars = 0usize;
        for f in &program.funcs {
            var_base.push(n_vars);
            n_vars += f.locals.len();
        }
        let n_nodes = n_vars + objects.len();
        Andersen {
            objects: objects.clone(),
            var_base,
            n_nodes,
            pts: vec![BTreeSet::new(); n_nodes],
            access_objs: vec![BTreeSet::new(); program.accesses.len()],
            empty: BTreeSet::new(),
        }
    }

    /// Walk the program once, collecting the constraint system.
    fn collect(&self, program: &Program) -> Constraints {
        let mut cons = Constraints {
            base: Vec::new(),
            copy: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            indirect: Vec::new(),
            ret_srcs: vec![Vec::new(); program.funcs.len()],
        };
        for f in &program.funcs {
            for b in &f.blocks {
                if let Terminator::Return(Some(Operand::Local(l))) = b.term {
                    cons.ret_srcs[f.id.index()].push(self.var_node(f.id, l));
                }
            }
        }
        for f in &program.funcs {
            for b in &f.blocks {
                for i in &b.instrs {
                    self.collect_instr(program, f.id, i, &mut cons);
                }
            }
        }
        cons
    }

    fn collect_instr(&self, program: &Program, func: FuncId, i: &Instr, cons: &mut Constraints) {
        let node = |l: LocalId| self.var_node(func, l);
        match i {
            Instr::AddrOfGlobal { dst, global, .. } => {
                let o = self
                    .objects
                    .id_of(AbsObj::Global(*global))
                    .expect("object table enumerates all globals");
                cons.base.push((node(*dst), o));
            }
            Instr::AddrOfLocal { dst, local, .. } => {
                let o = self
                    .objects
                    .id_of(AbsObj::LocalSlot(func, *local))
                    .expect("object table enumerates all slots");
                cons.base.push((node(*dst), o));
            }
            Instr::AddrOfFunc { dst, func: f } => {
                let o = self
                    .objects
                    .id_of(AbsObj::Func(*f))
                    .expect("object table enumerates address-taken funcs");
                cons.base.push((node(*dst), o));
            }
            Instr::Malloc { dst, site, .. } => {
                let o = self
                    .objects
                    .id_of(AbsObj::Alloc(*site))
                    .expect("object table enumerates alloc sites");
                cons.base.push((node(*dst), o));
            }
            Instr::Copy {
                dst,
                src: Operand::Local(s),
            } => cons.copy.push((node(*s), node(*dst))),
            Instr::PtrAdd {
                dst,
                base: Operand::Local(b),
                ..
            } => cons.copy.push((node(*b), node(*dst))),
            Instr::Load {
                dst,
                addr: Operand::Local(addr),
                ..
            } => cons.loads.push(LoadC {
                addr: node(*addr),
                dst: node(*dst),
            }),
            Instr::Store {
                addr: Operand::Local(addr),
                val: Operand::Local(v),
                ..
            } => cons.stores.push(StoreC {
                addr: node(*addr),
                val: node(*v),
            }),
            Instr::Call { dst, callee, args } | Instr::Spawn { dst, callee, args } => {
                match callee {
                    Callee::Direct(t) => {
                        let tf = &program.funcs[t.index()];
                        for (ai, arg) in args.iter().enumerate() {
                            if ai >= tf.params.len() {
                                break;
                            }
                            if let Operand::Local(l) = arg {
                                cons.copy
                                    .push((node(*l), self.var_node(*t, tf.params[ai])));
                            }
                        }
                        if let Some(d) = dst {
                            for &r in &cons.ret_srcs[t.index()] {
                                cons.copy.push((r, node(*d)));
                            }
                        }
                    }
                    Callee::Indirect(op) => {
                        if let Operand::Local(l) = op {
                            cons.indirect.push(IndirectSite {
                                caller: func,
                                callee_node: node(*l),
                                args: args.clone(),
                                dst: *dst,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// The reference fixpoint: re-walk all constraints until stable.
    fn solve_naive(&mut self, program: &Program, cons: Constraints) {
        for &(n, o) in &cons.base {
            self.pts[n].insert(o);
        }
        let mut copy_edges = cons.copy;
        let mut resolved_pairs: BTreeSet<(usize, u32)> = BTreeSet::new();
        loop {
            let mut changed = false;
            for &(src, dst) in &copy_edges {
                changed |= self.union_into(src, dst);
            }
            for l in &cons.loads {
                let objs: Vec<ObjId> = self.pts[l.addr].iter().copied().collect();
                for o in objs {
                    let src = self.content_node(o);
                    changed |= self.union_into(src, l.dst);
                }
            }
            for s in &cons.stores {
                let objs: Vec<ObjId> = self.pts[s.addr].iter().copied().collect();
                for o in objs {
                    let dst = self.content_node(o);
                    changed |= self.union_into(s.val, dst);
                }
            }
            // Indirect call resolution.
            let mut new_edges: Vec<(usize, usize)> = Vec::new();
            for (site_idx, site) in cons.indirect.iter().enumerate() {
                let targets: Vec<FuncId> = self.pts[site.callee_node]
                    .iter()
                    .filter_map(|o| match self.objects.get(*o) {
                        AbsObj::Func(t) => Some(t),
                        _ => None,
                    })
                    .collect();
                for t in targets {
                    if !resolved_pairs.insert((site_idx, t.0)) {
                        continue;
                    }
                    changed = true;
                    let callee = &program.funcs[t.index()];
                    for (ai, arg) in site.args.iter().enumerate() {
                        if ai >= callee.params.len() {
                            break;
                        }
                        if let Operand::Local(l) = arg {
                            new_edges.push((
                                self.var_node(site.caller, *l),
                                self.var_node(t, callee.params[ai]),
                            ));
                        }
                    }
                    if let Some(d) = site.dst {
                        for &r in &cons.ret_srcs[t.index()] {
                            new_edges.push((r, self.var_node(site.caller, d)));
                        }
                    }
                }
            }
            copy_edges.extend(new_edges);
            if !changed {
                break;
            }
        }
    }

    /// Record per-access object sets (function objects are not memory).
    fn record_accesses(&mut self, program: &Program) {
        for f in &program.funcs {
            for b in &f.blocks {
                for i in &b.instrs {
                    let (addr, access) = match i {
                        Instr::Load { addr, access, .. } => (*addr, *access),
                        Instr::Store { addr, access, .. } => (*addr, *access),
                        _ => continue,
                    };
                    if let Operand::Local(l) = addr {
                        let set = self.pts[self.var_node(f.id, l)]
                            .iter()
                            .copied()
                            .filter(|o| !matches!(self.objects.get(*o), AbsObj::Func(_)))
                            .collect();
                        self.access_objs[access.index()] = set;
                    }
                }
            }
        }
    }

    fn var_node(&self, f: FuncId, l: LocalId) -> usize {
        self.var_base[f.index()] + l.index()
    }

    fn content_node(&self, o: ObjId) -> usize {
        self.n_nodes - self.objects.len() + o.index()
    }

    fn union_into(&mut self, src: usize, dst: usize) -> bool {
        if src == dst {
            return false;
        }
        let add: Vec<ObjId> = self.pts[src]
            .iter()
            .filter(|o| !self.pts[dst].contains(o))
            .copied()
            .collect();
        if add.is_empty() {
            return false;
        }
        self.pts[dst].extend(add);
        true
    }

    /// The points-to set of a local variable.
    pub fn points_to(&self, func: FuncId, local: LocalId) -> &BTreeSet<ObjId> {
        &self.pts[self.var_node(func, local)]
    }

    /// The points-to set of an operand (`Const` operands point nowhere).
    pub fn points_to_operand(&self, func: FuncId, op: Operand) -> &BTreeSet<ObjId> {
        match op {
            Operand::Local(l) => self.points_to(func, l),
            Operand::Const(_) => &self.empty,
        }
    }

    /// Objects a given memory access may touch.
    pub fn objects_of_access(&self, access: AccessId) -> &BTreeSet<ObjId> {
        &self.access_objs[access.index()]
    }

    /// The object table the analysis ran over.
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }
}

/// The difference-propagation worklist solver state.
///
/// Node numbering matches [`Andersen`]: locals first (per `var_base`),
/// then one *content* node per abstract object. Each node holds a dense
/// bitset over object ids. `parent` is a union-find forest: nodes on a
/// detected copy cycle are collapsed into one representative, which
/// inherits their sets, edges, and pending constraints.
struct Worklist<'p> {
    program: &'p Program,
    objects: &'p ObjectTable,
    var_base: &'p [usize],
    n_obj_base: usize,
    parent: Vec<usize>,
    /// Current points-to set, per representative.
    pts: Vec<PtsSet>,
    /// Portion of `pts` already propagated to successors/constraints.
    prev: Vec<PtsSet>,
    /// Copy-edge successors (targets may be stale ids; canonicalize on use).
    succ: Vec<Vec<usize>>,
    /// Dedup for copy edges, keyed by representatives at insertion time.
    edge_set: HashSet<(usize, usize)>,
    /// Load destinations keyed by the address node.
    load_dsts: Vec<Vec<usize>>,
    /// Store value sources keyed by the address node.
    store_vals: Vec<Vec<usize>>,
    /// Indirect call sites keyed by the callee-pointer node.
    sites_at: Vec<Vec<usize>>,
    sites: &'p [IndirectSite],
    resolved: HashSet<(usize, u32)>,
    ret_srcs: &'p [Vec<usize>],
    /// Copy edges already examined by lazy cycle detection.
    lcd_done: HashSet<(usize, usize)>,
    queued: Vec<bool>,
    work: VecDeque<usize>,
    /// Reusable delta buffer — one allocation for the whole solve.
    scratch: PtsSet,
}

impl<'p> Worklist<'p> {
    fn solve(a: &mut Andersen, program: &'p Program, cons: &'p Constraints) {
        let n = a.n_nodes;
        let universe = a.objects.len();
        let mut w = Worklist {
            program,
            objects: &a.objects,
            var_base: &a.var_base,
            n_obj_base: n - universe,
            parent: (0..n).collect(),
            pts: vec![PtsSet::new(universe); n],
            prev: vec![PtsSet::new(universe); n],
            succ: vec![Vec::new(); n],
            edge_set: HashSet::new(),
            load_dsts: vec![Vec::new(); n],
            store_vals: vec![Vec::new(); n],
            sites_at: vec![Vec::new(); n],
            sites: &cons.indirect,
            resolved: HashSet::new(),
            ret_srcs: &cons.ret_srcs,
            lcd_done: HashSet::new(),
            queued: vec![false; n],
            work: VecDeque::new(),
            scratch: PtsSet::new(universe),
        };
        for &(src, dst) in &cons.copy {
            w.add_edge(src, dst);
        }
        for l in &cons.loads {
            w.load_dsts[l.addr].push(l.dst);
        }
        for s in &cons.stores {
            w.store_vals[s.addr].push(s.val);
        }
        for (i, site) in cons.indirect.iter().enumerate() {
            w.sites_at[site.callee_node].push(i);
        }
        for &(node, o) in &cons.base {
            let r = w.find(node);
            if w.pts[r].insert(o.index()) {
                w.enqueue(r);
            }
        }
        while let Some(raw) = w.work.pop_front() {
            w.queued[raw] = false;
            let node = w.find(raw);
            if node != raw {
                // Collapsed while queued; its representative carries on.
                w.enqueue(node);
                continue;
            }
            w.process(node);
        }
        // Materialize results for the public (BTreeSet-based) API.
        for v in 0..n {
            let r = w.find(v);
            a.pts[v] = w.pts[r].iter().map(|i| ObjId(i as u32)).collect();
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn enqueue(&mut self, n: usize) {
        if !self.queued[n] {
            self.queued[n] = true;
            self.work.push_back(n);
        }
    }

    fn content_node(&self, o: usize) -> usize {
        self.n_obj_base + o
    }

    /// Union `pts[src]` into `pts[dst]` (both representatives).
    fn union_pts(pts: &mut [PtsSet], src: usize, dst: usize) -> bool {
        if src == dst {
            return false;
        }
        if src < dst {
            let (a, b) = pts.split_at_mut(dst);
            b[0].union_from(&a[src])
        } else {
            let (a, b) = pts.split_at_mut(src);
            a[dst].union_from(&b[0])
        }
    }

    /// Add a copy edge `src -> dst`, immediately propagating what `src`
    /// already holds.
    fn add_edge(&mut self, src: usize, dst: usize) {
        let (s, d) = (self.find(src), self.find(dst));
        if s == d || !self.edge_set.insert((s, d)) {
            return;
        }
        self.succ[s].push(d);
        if Self::union_pts(&mut self.pts, s, d) {
            self.enqueue(d);
        }
    }

    /// Propagate the delta of `n` (a representative) since its last visit.
    fn process(&mut self, n: usize) {
        let mut delta = std::mem::take(&mut self.scratch);
        delta.assign_minus(&self.pts[n], &self.prev[n]);
        if delta.is_empty() {
            self.scratch = delta;
            return;
        }
        self.prev[n].union_from(&self.pts[n]);

        // Complex constraints fire per *new* object. Most nodes have no
        // complex constraints attached, so only walk the delta's bits when
        // a list is non-empty.
        if !self.load_dsts[n].is_empty() {
            let load_dsts = std::mem::take(&mut self.load_dsts[n]);
            for o in delta.iter() {
                let content = self.content_node(o);
                for &dst in &load_dsts {
                    self.add_edge(content, dst);
                }
            }
            self.restore(n, load_dsts, |w| &mut w.load_dsts);
        }

        if !self.store_vals[n].is_empty() {
            let store_vals = std::mem::take(&mut self.store_vals[n]);
            for o in delta.iter() {
                let content = self.content_node(o);
                for &val in &store_vals {
                    self.add_edge(val, content);
                }
            }
            self.restore(n, store_vals, |w| &mut w.store_vals);
        }

        // On-the-fly indirect call resolution: new function objects at a
        // callee-pointer node wire up parameter/return copy edges.
        if !self.sites_at[n].is_empty() {
            let sites_at = std::mem::take(&mut self.sites_at[n]);
            for o in delta.iter() {
                if let AbsObj::Func(t) = self.objects.get(ObjId(o as u32)) {
                    for &site_idx in &sites_at {
                        self.resolve_site(site_idx, t);
                    }
                }
            }
            self.restore(n, sites_at, |w| &mut w.sites_at);
        }

        // Difference propagation along copy edges.
        if !self.succ[n].is_empty() {
            let succ = std::mem::take(&mut self.succ[n]);
            for &s in &succ {
                let d = self.find(s);
                if d == n {
                    continue;
                }
                if self.pts[d].union_from(&delta) {
                    self.enqueue(d);
                } else if self.pts[d] == self.pts[n] && self.lcd_done.insert((n, d)) {
                    // Lazy cycle detection: equal sets across an edge
                    // suggest a copy cycle; collapse it so the chain
                    // converges in one pass.
                    self.try_collapse(n, d);
                }
            }
            self.restore(n, succ, |w| &mut w.succ);
        }
        self.scratch = delta;
    }

    /// Put a temporarily-taken per-node list back, re-homing it if `n` was
    /// collapsed into another representative while it was out.
    fn restore(
        &mut self,
        n: usize,
        mut taken: Vec<usize>,
        field: impl Fn(&mut Self) -> &mut Vec<Vec<usize>>,
    ) {
        let home = self.find(n);
        let slot = &mut field(self)[home];
        if slot.is_empty() {
            *slot = taken;
        } else {
            slot.append(&mut taken);
        }
    }

    fn resolve_site(&mut self, site_idx: usize, t: FuncId) {
        if !self.resolved.insert((site_idx, t.0)) {
            return;
        }
        let site = &self.sites[site_idx];
        let caller = site.caller;
        let callee = &self.program.funcs[t.index()];
        let var = |base: &[usize], f: FuncId, l: LocalId| base[f.index()] + l.index();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (ai, arg) in site.args.iter().enumerate() {
            if ai >= callee.params.len() {
                break;
            }
            if let Operand::Local(l) = arg {
                edges.push((
                    var(self.var_base, caller, *l),
                    var(self.var_base, t, callee.params[ai]),
                ));
            }
        }
        if let Some(d) = site.dst {
            for &r in &self.ret_srcs[t.index()] {
                edges.push((r, var(self.var_base, caller, d)));
            }
        }
        for (s, d) in edges {
            self.add_edge(s, d);
        }
    }

    /// Search for a copy path `to ⇝ from` (which, with the existing edge
    /// `from -> to`, closes a cycle) and collapse every node on it.
    fn try_collapse(&mut self, from: usize, to: usize) {
        let mut stack = vec![to];
        let mut came_from: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        came_from.insert(to, to);
        let mut found = false;
        while let Some(x) = stack.pop() {
            let succ = self.succ[x].clone();
            for s in succ {
                let d = self.find(s);
                if d == from {
                    came_from.entry(d).or_insert(x);
                    found = true;
                    stack.clear();
                    break;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = came_from.entry(d) {
                    e.insert(x);
                    stack.push(d);
                }
            }
            if found {
                break;
            }
        }
        if !found {
            return;
        }
        let mut cycle = vec![from];
        let mut cur = came_from[&from];
        while cur != to {
            cycle.push(cur);
            cur = came_from[&cur];
        }
        cycle.push(to);
        self.collapse(&cycle);
    }

    /// Union-find collapse of a set of mutually-reaching nodes into one
    /// representative that inherits sets, edges, and pending constraints.
    fn collapse(&mut self, nodes: &[usize]) {
        let mut reps: Vec<usize> = nodes.iter().map(|&x| self.find(x)).collect();
        reps.sort_unstable();
        reps.dedup();
        let r = reps[0];
        for &m in &reps[1..] {
            self.parent[m] = r;
            let m_pts = std::mem::take(&mut self.pts[m]);
            self.pts[r].union_from(&m_pts);
            // Only what *both* halves have already pushed out can be
            // considered propagated by the merged node.
            let m_prev = std::mem::take(&mut self.prev[m]);
            self.prev[r].intersect_with(&m_prev);
            let mut v = std::mem::take(&mut self.succ[m]);
            self.succ[r].append(&mut v);
            let mut v = std::mem::take(&mut self.load_dsts[m]);
            self.load_dsts[r].append(&mut v);
            let mut v = std::mem::take(&mut self.store_vals[m]);
            self.store_vals[r].append(&mut v);
            let mut v = std::mem::take(&mut self.sites_at[m]);
            self.sites_at[r].append(&mut v);
        }
        self.enqueue(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_minic::compile;

    fn local_named(p: &Program, func: &str, name: &str) -> (FuncId, LocalId) {
        let f = p.func_by_name(func).unwrap();
        let l = f.locals.iter().position(|l| l.name == name).unwrap();
        (f.id, LocalId(l as u32))
    }

    fn analyze(src: &str) -> (Program, Andersen) {
        let p = compile(src).unwrap();
        let objects = ObjectTable::build(&p);
        let a = Andersen::analyze(&p, &objects);
        (p, a)
    }

    /// Assert the worklist and naive solvers agree on every local's
    /// points-to set and every access's object set.
    fn assert_matches_naive(src: &str) {
        let p = compile(src).unwrap();
        let objects = ObjectTable::build(&p);
        let fast = Andersen::analyze(&p, &objects);
        let naive = Andersen::analyze_naive(&p, &objects);
        assert_eq!(fast.pts, naive.pts, "points-to sets diverge for:\n{src}");
        assert_eq!(
            fast.access_objs, naive.access_objs,
            "access object sets diverge for:\n{src}"
        );
    }

    #[test]
    fn address_of_global_is_precise() {
        let (p, a) = analyze("int g; int h; int main() { int *q; q = &g; return *q; }");
        let (f, q) = local_named(&p, "main", "q");
        let pts = a.points_to(f, q);
        assert_eq!(pts.len(), 1);
        assert_eq!(a.objects().get(*pts.iter().next().unwrap()), AbsObj::Global(chimera_minic::ir::GlobalId(0)));
    }

    #[test]
    fn inclusion_distinguishes_directions() {
        // Andersen (unlike Steensgaard) keeps q1 and q2 separate.
        let (p, a) = analyze(
            "int g; int h;
             int main() { int *q1; int *q2; int *r; q1 = &g; q2 = &h; r = q1; return *r; }",
        );
        let (f, q1) = local_named(&p, "main", "q1");
        let (_, q2) = local_named(&p, "main", "q2");
        let (_, r) = local_named(&p, "main", "r");
        assert_eq!(a.points_to(f, q1).len(), 1);
        assert_eq!(a.points_to(f, q2).len(), 1);
        assert_eq!(a.points_to(f, r).len(), 1);
        assert_ne!(a.points_to(f, q1), a.points_to(f, q2));
    }

    #[test]
    fn flow_through_heap_cell() {
        let (p, a) = analyze(
            "int g;
             int main() {
               int **cell; int *q;
               cell = malloc(1);
               *cell = &g;
               q = *cell;
               return *q;
             }",
        );
        let (f, q) = local_named(&p, "main", "q");
        let pts = a.points_to(f, q);
        assert!(pts
            .iter()
            .any(|o| matches!(a.objects().get(*o), AbsObj::Global(_))));
    }

    #[test]
    fn parameter_passing_propagates() {
        let (p, a) = analyze(
            "int g;
             void sink(int *p) { *p = 1; }
             int main() { sink(&g); return g; }",
        );
        let (f, pp) = local_named(&p, "sink", "p");
        let pts = a.points_to(f, pp);
        assert_eq!(pts.len(), 1);
    }

    #[test]
    fn return_value_propagates() {
        let (p, a) = analyze(
            "int g;
             int *get() { return &g; }
             int main() { int *q; q = get(); return *q; }",
        );
        let (f, q) = local_named(&p, "main", "q");
        assert_eq!(a.points_to(f, q).len(), 1);
    }

    #[test]
    fn indirect_call_parameters_flow() {
        let (p, a) = analyze(
            "int g;
             void sink(int *p) { *p = 1; }
             int main() { int *fp; fp = sink; fp(&g); return g; }",
        );
        let (f, pp) = local_named(&p, "sink", "p");
        assert_eq!(a.points_to(f, pp).len(), 1, "args flow through fp call");
    }

    #[test]
    fn access_objects_recorded() {
        let (p, a) = analyze("int g; int main() { int *q; q = &g; *q = 7; return 0; }");
        // Find the store access.
        let store = p.accesses.iter().find(|ac| ac.is_write).unwrap();
        let objs = a.objects_of_access(store.id);
        assert_eq!(objs.len(), 1);
    }

    #[test]
    fn malloc_sites_distinct() {
        let (p, a) = analyze(
            "int main() { int *x; int *y; x = malloc(4); y = malloc(4); return 0; }",
        );
        let (f, x) = local_named(&p, "main", "x");
        let (_, y) = local_named(&p, "main", "y");
        assert_ne!(a.points_to(f, x), a.points_to(f, y));
    }

    #[test]
    fn pointer_arithmetic_preserves_target() {
        // Paper §3.2: after arithmetic the pointer is assumed to point to
        // the same object.
        let (p, a) = analyze(
            "int arr[8];
             int main() { int *q; q = &arr[0]; q = q + 3; *q = 1; return 0; }",
        );
        let (f, q) = local_named(&p, "main", "q");
        let pts = a.points_to(f, q);
        assert_eq!(pts.len(), 1);
    }

    #[test]
    fn copy_cycle_converges_and_matches_naive() {
        // p -> q -> r -> p is a copy cycle (through the loop body); all
        // three end up with the same set, and cycle collapsing must not
        // change the result.
        let src = "int g; int h; int c;
             int main() {
                int *p; int *q; int *r;
                p = &g; q = &h;
                while (c) { q = p; r = q; p = r; }
                return *p;
             }";
        assert_matches_naive(src);
        let (p, a) = analyze(src);
        let (f, pp) = local_named(&p, "main", "p");
        let (_, qq) = local_named(&p, "main", "q");
        let (_, rr) = local_named(&p, "main", "r");
        assert_eq!(a.points_to(f, pp), a.points_to(f, qq));
        assert_eq!(a.points_to(f, qq), a.points_to(f, rr));
        assert_eq!(a.points_to(f, pp).len(), 2);
    }

    #[test]
    fn long_copy_chain_matches_naive() {
        // A linear chain long enough that the naive solver needs many
        // whole-system passes; delta propagation does it in one sweep.
        let mut body = String::from("p0 = &g;");
        for i in 1..40 {
            body.push_str(&format!(" p{i} = p{};", i - 1));
        }
        let decls: String = (0..40).map(|i| format!(" int *p{i};")).collect();
        let src =
            format!("int g;\nint main() {{ {decls} {body} return *p39; }}");
        assert_matches_naive(&src);
        let (p, a) = analyze(&src);
        let (f, last) = local_named(&p, "main", "p39");
        assert_eq!(a.points_to(f, last).len(), 1);
    }

    #[test]
    fn indirect_spawn_and_heap_mix_matches_naive() {
        assert_matches_naive(
            "int g; int *shared;
             void w1(int *p) { *p = 1; }
             void w2(int *p) { shared = p; }
             int main() {
                int *fp; int t; int *buf;
                buf = malloc(4);
                if (g) { fp = w1; } else { fp = w2; }
                t = spawn(fp, buf);
                fp(&g);
                join(t);
                return *shared;
             }",
        );
    }

    #[test]
    fn store_load_through_same_cell_matches_naive() {
        assert_matches_naive(
            "int g; int h;
             int main() {
                int **c; int *a; int *b;
                c = malloc(1);
                *c = &g; *c = &h;
                a = *c; b = a;
                return *b;
             }",
        );
    }
}
