//! Lowering from AST to IR: type checking, struct layout, address-taken
//! analysis, and CFG construction.

use crate::ast::{self, BinOp, Expr, Stmt, TypeExpr, Unit, UnOp, VarDecl};
use crate::diag::{CompileError, Span, Stage};
use crate::ir::*;
use std::collections::{HashMap, HashSet};

/// Lower a parsed [`Unit`] to an IR [`Program`].
///
/// # Errors
///
/// Returns a [`CompileError`] for semantic problems: unknown names,
/// duplicate definitions (globals, functions, structs, parameters, fields,
/// locals of one block, or a global and a function of one name), type
/// mismatches on member access, missing `main`, non-constant global
/// initializers, recursive struct layouts, or misuse of the builtin
/// concurrency/system primitives.
pub fn lower(unit: &Unit) -> Result<Program, CompileError> {
    let mut cx = Cx::new(unit)?;
    cx.lower_globals(unit)?;
    cx.declare_funcs(unit)?;
    for (i, f) in unit.funcs.iter().enumerate() {
        cx.lower_func(FuncId(i as u32), f)?;
    }
    if !cx.funcs_by_name.contains_key("main") {
        return Err(err("program has no 'main' function", Span::default()));
    }
    Ok(Program {
        funcs: cx.funcs,
        globals: cx.globals,
        accesses: cx.accesses,
        alloc_sites: cx.alloc_sites,
        weak_locks: 0,
        source_lines: 0,
    })
}

fn err(msg: impl Into<String>, span: Span) -> CompileError {
    CompileError::new(Stage::Lower, msg, span)
}

/// The error for an object whose size in cells does not fit a `u32`.
fn too_large(what: &str) -> String {
    format!("{what} too large: more than {} cells", u32::MAX)
}

/// The error for an object past [`MAX_CELLS`].
fn past_bound(what: &str) -> String {
    format!("{what} too large: more than {MAX_CELLS} cells")
}

/// Semantic types used during lowering. Sizes are in cells.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ty {
    Int,
    Void,
    Lock,
    Barrier,
    Cond,
    Ptr(Box<Ty>),
    Array(Box<Ty>, i64),
    Struct(usize),
    /// A function name used as a value (decays to a function pointer).
    Func(FuncId),
}

impl Ty {
    fn is_pointer_like(&self) -> bool {
        matches!(self, Ty::Ptr(_) | Ty::Array(_, _) | Ty::Func(_))
    }
}

#[derive(Debug, Clone)]
struct StructLayout {
    name: String,
    size: u32,
    /// field name -> (offset cells, type)
    fields: Vec<(String, u32, Ty)>,
}

struct FuncSig {
    params: Vec<Ty>,
    ret: Ty,
}

struct Cx {
    structs: Vec<StructLayout>,
    struct_ids: HashMap<String, usize>,
    globals: Vec<GlobalDef>,
    global_ids: HashMap<String, (GlobalId, Ty)>,
    funcs: Vec<Function>,
    funcs_by_name: HashMap<String, usize>,
    sigs: Vec<FuncSig>,
    accesses: Vec<AccessInfo>,
    alloc_sites: u32,
}

impl Cx {
    fn new(unit: &Unit) -> Result<Cx, CompileError> {
        let mut cx = Cx {
            structs: Vec::new(),
            struct_ids: HashMap::new(),
            globals: Vec::new(),
            global_ids: HashMap::new(),
            funcs: Vec::new(),
            funcs_by_name: HashMap::new(),
            sigs: Vec::new(),
            accesses: Vec::new(),
            alloc_sites: 0,
        };
        cx.layout_structs(unit)?;
        Ok(cx)
    }

    fn layout_structs(&mut self, unit: &Unit) -> Result<(), CompileError> {
        // Register names first so structs can point to later-defined structs.
        for (i, s) in unit.structs.iter().enumerate() {
            if self.struct_ids.insert(s.name.clone(), i).is_some() {
                return Err(err(format!("duplicate struct '{}'", s.name), s.span));
            }
            self.structs.push(StructLayout {
                name: s.name.clone(),
                size: 0,
                fields: Vec::new(),
            });
        }
        // Compute layouts with cycle detection.
        let mut state = vec![0u8; unit.structs.len()]; // 0 new, 1 in-progress, 2 done
        for i in 0..unit.structs.len() {
            self.layout_one(unit, i, &mut state)?;
        }
        Ok(())
    }

    fn layout_one(
        &mut self,
        unit: &Unit,
        idx: usize,
        state: &mut Vec<u8>,
    ) -> Result<u32, CompileError> {
        if state[idx] == 2 {
            return Ok(self.structs[idx].size);
        }
        if state[idx] == 1 {
            return Err(err(
                format!("struct '{}' recursively contains itself", unit.structs[idx].name),
                unit.structs[idx].span,
            ));
        }
        state[idx] = 1;
        let decl = &unit.structs[idx];
        let mut offset = 0u32;
        let mut fields = Vec::new();
        let mut names = HashSet::new();
        for f in &decl.fields {
            if !names.insert(f.name.as_str()) {
                return Err(err(format!("duplicate field '{}'", f.name), f.span));
            }
            let ty = self.resolve_type(&f.ty, f.span)?;
            // Recurse into by-value struct fields before sizing.
            if let Ty::Struct(inner) = ty {
                self.layout_one(unit, inner, state)?;
            }
            let elem = self.apply_dims(ty, &f.array_dims);
            let size = self.size_of(&elem, f.span)?;
            fields.push((f.name.clone(), offset, elem));
            offset = offset
                .checked_add(size)
                .ok_or_else(|| err(too_large("struct"), f.span))?;
        }
        self.structs[idx].fields = fields;
        self.structs[idx].size = offset.max(1);
        state[idx] = 2;
        Ok(self.structs[idx].size)
    }

    fn resolve_type(&self, t: &TypeExpr, span: Span) -> Result<Ty, CompileError> {
        Ok(match t {
            TypeExpr::Int => Ty::Int,
            TypeExpr::Void => Ty::Void,
            TypeExpr::Lock => Ty::Lock,
            TypeExpr::Barrier => Ty::Barrier,
            TypeExpr::Cond => Ty::Cond,
            TypeExpr::Struct(name) => {
                let idx = self
                    .struct_ids
                    .get(name)
                    .ok_or_else(|| err(format!("unknown struct '{name}'"), span))?;
                Ty::Struct(*idx)
            }
            TypeExpr::Ptr(inner) => Ty::Ptr(Box::new(self.resolve_type(inner, span)?)),
        })
    }

    fn apply_dims(&self, base: Ty, dims: &[i64]) -> Ty {
        let mut t = base;
        for &d in dims.iter().rev() {
            t = Ty::Array(Box::new(t), d);
        }
        t
    }

    fn size_of(&self, t: &Ty, span: Span) -> Result<u32, CompileError> {
        Ok(match t {
            Ty::Int | Ty::Lock | Ty::Barrier | Ty::Cond | Ty::Ptr(_) | Ty::Func(_) => 1,
            Ty::Void => return Err(err("cannot take the size of void", span)),
            Ty::Array(elem, n) => {
                let elem = self.size_of(elem, span)?;
                u32::try_from(*n)
                    .ok()
                    .and_then(|n| elem.checked_mul(n))
                    .ok_or_else(|| err(too_large("array"), span))?
            }
            Ty::Struct(i) => self.structs[*i].size,
        })
    }

    fn is_sync_ty(t: &Ty) -> bool {
        matches!(t, Ty::Lock | Ty::Barrier | Ty::Cond)
            || matches!(t, Ty::Array(e, _) if Self::is_sync_ty(e))
    }

    fn lower_globals(&mut self, unit: &Unit) -> Result<(), CompileError> {
        let mut image = 0u32;
        for g in &unit.globals {
            let base = self.resolve_type(&g.ty, g.span)?;
            let ty = self.apply_dims(base, &g.array_dims);
            let size = self.size_of(&ty, g.span)?;
            if size > MAX_CELLS {
                return Err(err(past_bound(&format!("global '{}'", g.name)), g.span));
            }
            image += size;
            if image > MAX_CELLS {
                return Err(err(past_bound("the global image"), g.span));
            }
            let mut init = vec![0i64; size as usize];
            if let Some(e) = &g.init {
                init[0] = const_eval(e)?;
            }
            let id = GlobalId(self.globals.len() as u32);
            if self
                .global_ids
                .insert(g.name.clone(), (id, ty.clone()))
                .is_some()
            {
                return Err(err(format!("duplicate global '{}'", g.name), g.span));
            }
            self.globals.push(GlobalDef {
                name: g.name.clone(),
                size,
                init,
                is_sync: Self::is_sync_ty(&ty),
            });
        }
        Ok(())
    }

    fn declare_funcs(&mut self, unit: &Unit) -> Result<(), CompileError> {
        for (i, f) in unit.funcs.iter().enumerate() {
            if BUILTINS.contains(&f.name.as_str()) {
                return Err(err(
                    format!("'{}' is a reserved builtin name", f.name),
                    f.span,
                ));
            }
            if self.funcs_by_name.insert(f.name.clone(), i).is_some() {
                return Err(err(format!("duplicate function '{}'", f.name), f.span));
            }
            if let Some((g, _)) = self.global_ids.get(&f.name) {
                // At whichever of the two declarations comes second.
                let span = unit.globals[g.index()].span.max(f.span);
                return Err(err(
                    format!("'{}' names both a global and a function", f.name),
                    span,
                ));
            }
            let mut params = Vec::new();
            let mut names = HashSet::new();
            for p in &f.params {
                if !names.insert(p.name.as_str()) {
                    return Err(err(format!("duplicate parameter '{}'", p.name), p.span));
                }
                let ty = self.resolve_type(&p.ty, p.span)?;
                if matches!(ty, Ty::Void | Ty::Struct(_) | Ty::Array(_, _)) {
                    return Err(err(
                        "parameters must be int or pointer values",
                        p.span,
                    ));
                }
                params.push(ty);
            }
            let ret = self.resolve_type(&f.ret, f.span)?;
            self.sigs.push(FuncSig { params, ret });
            // Placeholder Function; filled in by lower_func.
            self.funcs.push(Function {
                id: FuncId(i as u32),
                name: f.name.clone(),
                params: Vec::new(),
                locals: Vec::new(),
                blocks: Vec::new(),
                entry: BlockId(0),
                returns_value: !matches!(self.sigs[i].ret, Ty::Void),
                span: f.span,
            });
        }
        Ok(())
    }

    fn lower_func(&mut self, id: FuncId, decl: &ast::FuncDecl) -> Result<(), CompileError> {
        let addr_taken = collect_addr_taken(&decl.body);
        let mut fb = FuncBuilder::new(self, id, decl, addr_taken)?;
        fb.build(decl)?;
        let func = fb.finish();
        let cx = fb.cx;
        cx.funcs[id.index()] = func;
        Ok(())
    }
}

/// Names reserved for builtin primitives.
const BUILTINS: &[&str] = &[
    "lock",
    "unlock",
    "barrier_init",
    "barrier_wait",
    "cond_wait",
    "cond_signal",
    "cond_broadcast",
    "spawn",
    "join",
    "malloc",
    "free",
    "sys_read",
    "sys_write",
    "sys_input",
    "print",
];

/// Collect the set of local names whose address is taken with `&name`
/// (possibly through `[...]` / `.field` chains rooted at the name).
fn collect_addr_taken(body: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    fn root_var(e: &Expr) -> Option<&str> {
        match e {
            Expr::Var(n, _) => Some(n),
            Expr::Index(b, _, _) | Expr::Field(b, _, _) => root_var(b),
            _ => None,
        }
    }
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::AddrOf(inner, _) => {
                if let Some(n) = root_var(inner) {
                    if !out.iter().any(|s| s == n) {
                        out.push(n.to_string());
                    }
                }
                walk_expr(inner, out);
            }
            Expr::Unary(_, a, _) | Expr::IncDec(_, a, _) | Expr::Deref(a, _) => walk_expr(a, out),
            Expr::Binary(_, a, b, _)
            | Expr::Assign(a, b, _)
            | Expr::Index(a, b, _) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            Expr::Field(a, _, _) | Expr::Arrow(a, _, _) => walk_expr(a, out),
            Expr::Call { callee, args, .. } => {
                walk_expr(callee, out);
                for a in args {
                    walk_expr(a, out);
                }
            }
            Expr::Int(_, _) | Expr::Var(_, _) => {}
        }
    }
    fn walk_stmts(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Decl(d) => {
                    if let Some(e) = &d.init {
                        walk_expr(e, out);
                    }
                }
                Stmt::Expr(e) => walk_expr(e, out),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    walk_expr(cond, out);
                    walk_stmts(then_body, out);
                    walk_stmts(else_body, out);
                }
                Stmt::While { cond, body, .. } => {
                    walk_expr(cond, out);
                    walk_stmts(body, out);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    if let Some(e) = init {
                        walk_expr(e, out);
                    }
                    if let Some(e) = cond {
                        walk_expr(e, out);
                    }
                    if let Some(e) = step {
                        walk_expr(e, out);
                    }
                    walk_stmts(body, out);
                }
                Stmt::Return(Some(e), _) => walk_expr(e, out),
                Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) => {}
                Stmt::Block(body, _) => walk_stmts(body, out),
            }
        }
    }
    walk_stmts(body, &mut out);
    out
}

fn const_eval(e: &Expr) -> Result<i64, CompileError> {
    match e {
        Expr::Int(v, _) => Ok(*v),
        Expr::Unary(UnOp::Neg, inner, _) => Ok(-const_eval(inner)?),
        Expr::Binary(op, a, b, s) => {
            let (a, b) = (const_eval(a)?, const_eval(b)?);
            Ok(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Shl => a << (b & 63),
                _ => return Err(err("unsupported constant expression", *s)),
            })
        }
        _ => Err(err("global initializer must be a constant", e.span())),
    }
}

/// Where an lvalue lives.
#[derive(Clone)]
enum Place {
    /// A register local.
    Reg(LocalId),
    /// Memory at the address in the operand; `ty` is the pointee type.
    Mem(Operand, Ty),
}

struct Scope {
    names: Vec<(String, LocalId, Ty)>,
}

struct FuncBuilder<'a> {
    cx: &'a mut Cx,
    func: Function,
    scopes: Vec<Scope>,
    addr_taken: Vec<String>,
    cur: BlockId,
    /// (continue_target, break_target) stack for loops.
    loop_stack: Vec<(BlockId, BlockId)>,
    temp_counter: u32,
    /// True once the current block already has a terminator set explicitly.
    terminated: bool,
    /// Cells of the frame slot area declared so far.
    slot_cells: u32,
}

impl<'a> FuncBuilder<'a> {
    fn new(
        cx: &'a mut Cx,
        id: FuncId,
        decl: &ast::FuncDecl,
        addr_taken: Vec<String>,
    ) -> Result<Self, CompileError> {
        let mut func = Function {
            id,
            name: decl.name.clone(),
            params: Vec::new(),
            locals: Vec::new(),
            blocks: Vec::new(),
            entry: BlockId(0),
            returns_value: cx.funcs[id.index()].returns_value,
            span: decl.span,
        };
        let entry = func.add_block();
        func.entry = entry;
        let mut fb = FuncBuilder {
            cx,
            func,
            scopes: vec![Scope { names: Vec::new() }],
            addr_taken,
            cur: entry,
            loop_stack: Vec::new(),
            temp_counter: 0,
            terminated: false,
            slot_cells: 0,
        };
        // Parameters are always registers (their addresses cannot be taken;
        // checked below).
        for (i, p) in decl.params.iter().enumerate() {
            if fb.addr_taken.iter().any(|n| n == &p.name) {
                return Err(err(
                    format!("cannot take the address of parameter '{}'", p.name),
                    p.span,
                ));
            }
            let ty = fb.cx.sigs[id.index()].params[i].clone();
            let lid = fb.func.add_local(LocalDef {
                name: p.name.clone(),
                storage: Storage::Register,
                is_pointer: ty.is_pointer_like(),
            });
            fb.func.params.push(lid);
            fb.scopes[0].names.push((p.name.clone(), lid, ty));
        }
        Ok(fb)
    }

    fn build(&mut self, decl: &ast::FuncDecl) -> Result<(), CompileError> {
        self.lower_stmts(&decl.body)?;
        if !self.terminated {
            let ret = if self.func.returns_value {
                Some(Operand::Const(0))
            } else {
                None
            };
            self.set_term(Terminator::Return(ret));
        }
        Ok(())
    }

    fn finish(&mut self) -> Function {
        std::mem::replace(
            &mut self.func,
            Function {
                id: FuncId(0),
                name: String::new(),
                params: Vec::new(),
                locals: Vec::new(),
                blocks: Vec::new(),
                entry: BlockId(0),
                returns_value: false,
                span: Span::default(),
            },
        )
    }

    // ---- block plumbing ----

    fn emit(&mut self, instr: Instr, span: Span) {
        if self.terminated {
            return; // unreachable code after return/break
        }
        self.func.block_mut(self.cur).push(instr, span);
    }

    fn set_term(&mut self, t: Terminator) {
        if self.terminated {
            return;
        }
        self.func.block_mut(self.cur).term = t;
        self.terminated = true;
    }

    fn start_block(&mut self, id: BlockId) {
        self.cur = id;
        self.terminated = false;
    }

    fn temp(&mut self, is_pointer: bool) -> LocalId {
        let n = self.temp_counter;
        self.temp_counter += 1;
        self.func.add_local(LocalDef {
            name: format!("$t{n}"),
            storage: Storage::Register,
            is_pointer,
        })
    }

    // ---- scope handling ----

    fn lookup(&self, name: &str) -> Option<(LocalId, Ty)> {
        for scope in self.scopes.iter().rev() {
            for (n, id, ty) in scope.names.iter().rev() {
                if n == name {
                    return Some((*id, ty.clone()));
                }
            }
        }
        None
    }

    fn declare_local(&mut self, d: &VarDecl) -> Result<(), CompileError> {
        // A name is declared once per block; the body's outermost block
        // shares its scope with the parameters, as in C. Nested blocks
        // may shadow.
        let own = if self.scopes.len() == 2 {
            0
        } else {
            self.scopes.len() - 1
        };
        if self.scopes[own..]
            .iter()
            .flat_map(|s| &s.names)
            .any(|(n, _, _)| *n == d.name)
        {
            return Err(err(format!("duplicate local '{}'", d.name), d.span));
        }
        let base = self.cx.resolve_type(&d.ty, d.span)?;
        let ty = self.cx.apply_dims(base, &d.array_dims);
        if matches!(ty, Ty::Void) {
            return Err(err("cannot declare a void variable", d.span));
        }
        let size = self.cx.size_of(&ty, d.span)?;
        let needs_slot = !d.array_dims.is_empty()
            || matches!(ty, Ty::Struct(_) | Ty::Lock | Ty::Barrier | Ty::Cond)
            || self.addr_taken.iter().any(|n| n == &d.name);
        let storage = if needs_slot {
            self.slot_cells = self.slot_cells.saturating_add(size);
            if self.slot_cells > MAX_CELLS {
                let what = format!("the frame of '{}'", self.func.name);
                return Err(err(past_bound(&what), d.span));
            }
            Storage::Slot { size }
        } else {
            Storage::Register
        };
        let lid = self.func.add_local(LocalDef {
            name: d.name.clone(),
            storage,
            is_pointer: ty.is_pointer_like(),
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .names
            .push((d.name.clone(), lid, ty.clone()));
        if let Some(init) = &d.init {
            let (val, _) = self.eval(init)?;
            match storage {
                Storage::Register => self.emit(Instr::Copy { dst: lid, src: val }, d.span),
                Storage::Slot { .. } => {
                    let addr = self.temp(true);
                    self.emit(
                        Instr::AddrOfLocal {
                            dst: addr,
                            local: lid,
                            offset: Operand::Const(0),
                        },
                        d.span,
                    );
                    let access = self.new_access(d.span, true, &d.name);
                    self.emit(
                        Instr::Store {
                            addr: Operand::Local(addr),
                            val,
                            access,
                        },
                        d.span,
                    );
                }
            }
        }
        Ok(())
    }

    fn new_access(&mut self, span: Span, is_write: bool, what: &str) -> AccessId {
        let id = AccessId(self.cx.accesses.len() as u32);
        self.cx.accesses.push(AccessInfo {
            id,
            func: self.func.id,
            span,
            is_write,
            what: what.to_string(),
        });
        id
    }

    // ---- statements ----

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        self.scopes.push(Scope { names: Vec::new() });
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Decl(d) => self.declare_local(d),
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(())
            }
            Stmt::Block(body, _) => self.lower_stmts(body),
            Stmt::Return(value, span) => {
                let op = match value {
                    Some(e) => Some(self.eval(e)?.0),
                    None => None,
                };
                if self.func.returns_value && op.is_none() {
                    return Err(err("missing return value", *span));
                }
                self.set_term(Terminator::Return(op));
                Ok(())
            }
            Stmt::Break(span) => {
                let Some(&(_, brk)) = self.loop_stack.last() else {
                    return Err(err("'break' outside of a loop", *span));
                };
                self.set_term(Terminator::Jump(brk));
                Ok(())
            }
            Stmt::Continue(span) => {
                let Some(&(cont, _)) = self.loop_stack.last() else {
                    return Err(err("'continue' outside of a loop", *span));
                };
                self.set_term(Terminator::Jump(cont));
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let (c, _) = self.eval(cond)?;
                let then_bb = self.func.add_block();
                let else_bb = self.func.add_block();
                let join_bb = self.func.add_block();
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_bb,
                    else_bb,
                });
                self.start_block(then_bb);
                self.lower_stmts(then_body)?;
                self.set_term(Terminator::Jump(join_bb));
                self.start_block(else_bb);
                self.lower_stmts(else_body)?;
                self.set_term(Terminator::Jump(join_bb));
                self.start_block(join_bb);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let header = self.func.add_block();
                let body_bb = self.func.add_block();
                let exit = self.func.add_block();
                self.set_term(Terminator::Jump(header));
                self.start_block(header);
                let (c, _) = self.eval(cond)?;
                self.set_term(Terminator::Branch {
                    cond: c,
                    then_bb: body_bb,
                    else_bb: exit,
                });
                self.loop_stack.push((header, exit));
                self.start_block(body_bb);
                self.lower_stmts(body)?;
                self.set_term(Terminator::Jump(header));
                self.loop_stack.pop();
                self.start_block(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                if let Some(e) = init {
                    self.eval(e)?;
                }
                let header = self.func.add_block();
                let body_bb = self.func.add_block();
                let step_bb = self.func.add_block();
                let exit = self.func.add_block();
                self.set_term(Terminator::Jump(header));
                self.start_block(header);
                match cond {
                    Some(e) => {
                        let (c, _) = self.eval(e)?;
                        self.set_term(Terminator::Branch {
                            cond: c,
                            then_bb: body_bb,
                            else_bb: exit,
                        });
                    }
                    None => self.set_term(Terminator::Jump(body_bb)),
                }
                self.loop_stack.push((step_bb, exit));
                self.start_block(body_bb);
                self.lower_stmts(body)?;
                self.set_term(Terminator::Jump(step_bb));
                self.loop_stack.pop();
                self.start_block(step_bb);
                if let Some(e) = step {
                    self.eval(e)?;
                }
                self.set_term(Terminator::Jump(header));
                self.start_block(exit);
                Ok(())
            }
        }
    }

    // ---- expressions ----

    /// Evaluate an expression to an operand and its type.
    fn eval(&mut self, e: &Expr) -> Result<(Operand, Ty), CompileError> {
        match e {
            Expr::Int(v, _) => Ok((Operand::Const(*v), Ty::Int)),
            Expr::Assign(lhs, rhs, span) => {
                let (val, vty) = self.eval(rhs)?;
                let place = self.lower_place(lhs)?;
                self.store_place(place, val, *span, &describe(lhs));
                Ok((val, vty))
            }
            Expr::IncDec(op, target, span) => {
                // The operand's address (and any side effect in it) is
                // computed once, then read and written through.
                let what = describe(target);
                let place = self.lower_place(target)?;
                let (old, ty) = self.load_place(place.clone(), *span, &what)?;
                let (new, nty) = self.binary(*op, old, ty, Operand::Const(1), Ty::Int, *span)?;
                self.store_place(place, new, *span, &what);
                Ok((new, nty))
            }
            Expr::Binary(BinOp::LogAnd, a, b, span) => self.short_circuit(a, b, true, *span),
            Expr::Binary(BinOp::LogOr, a, b, span) => self.short_circuit(a, b, false, *span),
            Expr::Binary(op, a, b, span) => {
                let (va, ta) = self.eval(a)?;
                let (vb, tb) = self.eval(b)?;
                self.binary(*op, va, ta, vb, tb, *span)
            }
            Expr::Unary(op, a, span) => {
                let (v, _) = self.eval(a)?;
                let dst = self.temp(false);
                self.emit(
                    Instr::UnOp {
                        dst,
                        op: *op,
                        src: v,
                    },
                    *span,
                );
                Ok((Operand::Local(dst), Ty::Int))
            }
            Expr::AddrOf(inner, span) => {
                let place = self.lower_place(inner)?;
                match place {
                    Place::Reg(_) => Err(err(
                        "cannot take the address of a register value",
                        *span,
                    )),
                    Place::Mem(addr, ty) => Ok((addr, Ty::Ptr(Box::new(ty)))),
                }
            }
            Expr::Call { callee, args, span } => self.lower_call(callee, args, *span),
            // Everything else is an lvalue read (or an array/function decay).
            _ => {
                // A bare function name decays to a function pointer.
                if let Expr::Var(name, span) = e {
                    if self.lookup(name).is_none() && !self.cx.global_ids.contains_key(name) {
                        if let Some(&fi) = self.cx.funcs_by_name.get(name) {
                            let dst = self.temp(true);
                            self.emit(
                                Instr::AddrOfFunc {
                                    dst,
                                    func: FuncId(fi as u32),
                                },
                                *span,
                            );
                            return Ok((Operand::Local(dst), Ty::Func(FuncId(fi as u32))));
                        }
                    }
                }
                let place = self.lower_place(e)?;
                self.load_place(place, e.span(), &describe(e))
            }
        }
    }

    fn short_circuit(
        &mut self,
        a: &Expr,
        b: &Expr,
        is_and: bool,
        span: Span,
    ) -> Result<(Operand, Ty), CompileError> {
        let result = self.temp(false);
        let (va, _) = self.eval(a)?;
        let rhs_bb = self.func.add_block();
        let short_bb = self.func.add_block();
        let join_bb = self.func.add_block();
        let (then_bb, else_bb) = if is_and {
            (rhs_bb, short_bb)
        } else {
            (short_bb, rhs_bb)
        };
        self.set_term(Terminator::Branch {
            cond: va,
            then_bb,
            else_bb,
        });
        self.start_block(short_bb);
        self.emit(
            Instr::Copy {
                dst: result,
                src: Operand::Const(if is_and { 0 } else { 1 }),
            },
            span,
        );
        self.set_term(Terminator::Jump(join_bb));
        self.start_block(rhs_bb);
        let (vb, _) = self.eval(b)?;
        // Normalize to 0/1.
        self.emit(
            Instr::BinOp {
                dst: result,
                op: BinOp::Ne,
                a: vb,
                b: Operand::Const(0),
            },
            span,
        );
        self.set_term(Terminator::Jump(join_bb));
        self.start_block(join_bb);
        Ok((Operand::Local(result), Ty::Int))
    }

    fn binary(
        &mut self,
        op: BinOp,
        va: Operand,
        ta: Ty,
        vb: Operand,
        tb: Ty,
        span: Span,
    ) -> Result<(Operand, Ty), CompileError> {
        // Pointer arithmetic scaling.
        if matches!(op, BinOp::Add | BinOp::Sub) {
            if let Ty::Ptr(elem) = &ta {
                let size = self.cx.size_of(elem, span)? as i64;
                let scaled = self.scale(vb, size, span);
                let dst = self.temp(true);
                let off = if op == BinOp::Sub {
                    let neg = self.temp(false);
                    self.emit(
                        Instr::BinOp {
                            dst: neg,
                            op: BinOp::Sub,
                            a: Operand::Const(0),
                            b: scaled,
                        },
                        span,
                    );
                    Operand::Local(neg)
                } else {
                    scaled
                };
                self.emit(
                    Instr::PtrAdd {
                        dst,
                        base: va,
                        offset: off,
                    },
                    span,
                );
                return Ok((Operand::Local(dst), ta));
            }
            if op == BinOp::Add {
                if let Ty::Ptr(elem) = &tb {
                    let size = self.cx.size_of(elem, span)? as i64;
                    let scaled = self.scale(va, size, span);
                    let dst = self.temp(true);
                    self.emit(
                        Instr::PtrAdd {
                            dst,
                            base: vb,
                            offset: scaled,
                        },
                        span,
                    );
                    return Ok((Operand::Local(dst), tb));
                }
            }
        }
        let dst = self.temp(false);
        self.emit(
            Instr::BinOp {
                dst,
                op,
                a: va,
                b: vb,
            },
            span,
        );
        Ok((Operand::Local(dst), Ty::Int))
    }

    fn scale(&mut self, v: Operand, size: i64, span: Span) -> Operand {
        if size == 1 {
            return v;
        }
        if let Operand::Const(c) = v {
            return Operand::Const(c * size);
        }
        let dst = self.temp(false);
        self.emit(
            Instr::BinOp {
                dst,
                op: BinOp::Mul,
                a: v,
                b: Operand::Const(size),
            },
            span,
        );
        Operand::Local(dst)
    }

    /// Lower an lvalue expression to a [`Place`].
    fn lower_place(&mut self, e: &Expr) -> Result<Place, CompileError> {
        match e {
            Expr::Var(name, span) => {
                if let Some((lid, ty)) = self.lookup(name) {
                    match self.func.locals[lid.index()].storage {
                        Storage::Register => Ok(Place::Reg(lid)),
                        Storage::Slot { .. } => {
                            let addr = self.temp(true);
                            self.emit(
                                Instr::AddrOfLocal {
                                    dst: addr,
                                    local: lid,
                                    offset: Operand::Const(0),
                                },
                                *span,
                            );
                            Ok(Place::Mem(Operand::Local(addr), ty))
                        }
                    }
                } else if let Some((gid, ty)) = self.cx.global_ids.get(name).cloned() {
                    let addr = self.temp(true);
                    self.emit(
                        Instr::AddrOfGlobal {
                            dst: addr,
                            global: gid,
                            offset: Operand::Const(0),
                        },
                        *span,
                    );
                    Ok(Place::Mem(Operand::Local(addr), ty))
                } else {
                    Err(err(format!("unknown variable '{name}'"), *span))
                }
            }
            Expr::Deref(inner, span) => {
                let (v, ty) = self.eval(inner)?;
                let elem = match ty {
                    Ty::Ptr(e) => *e,
                    Ty::Array(e, _) => *e,
                    _ => Ty::Int, // weakly typed deref; runtime bounds-checks
                };
                let _ = span;
                Ok(Place::Mem(v, elem))
            }
            Expr::Index(base, idx, span) => {
                let (base_addr, elem_ty) = self.eval_as_pointer(base)?;
                let (iv, _) = self.eval(idx)?;
                let size = self.cx.size_of(&elem_ty, *span)? as i64;
                let scaled = self.scale(iv, size, *span);
                let addr = self.temp(true);
                self.emit(
                    Instr::PtrAdd {
                        dst: addr,
                        base: base_addr,
                        offset: scaled,
                    },
                    *span,
                );
                Ok(Place::Mem(Operand::Local(addr), elem_ty))
            }
            Expr::Field(base, fname, span) => {
                let place = self.lower_place(base)?;
                let Place::Mem(addr, Ty::Struct(sidx)) = place else {
                    return Err(err("field access on a non-struct value", *span));
                };
                let (off, fty) = self.field_of(sidx, fname, *span)?;
                let a2 = self.temp(true);
                self.emit(
                    Instr::PtrAdd {
                        dst: a2,
                        base: addr,
                        offset: Operand::Const(off as i64),
                    },
                    *span,
                );
                Ok(Place::Mem(Operand::Local(a2), fty))
            }
            Expr::Arrow(base, fname, span) => {
                let (v, ty) = self.eval(base)?;
                let Ty::Ptr(inner) = ty else {
                    return Err(err("'->' on a non-pointer value", *span));
                };
                let Ty::Struct(sidx) = *inner else {
                    return Err(err("'->' on a pointer to a non-struct", *span));
                };
                let (off, fty) = self.field_of(sidx, fname, *span)?;
                let a2 = self.temp(true);
                self.emit(
                    Instr::PtrAdd {
                        dst: a2,
                        base: v,
                        offset: Operand::Const(off as i64),
                    },
                    *span,
                );
                Ok(Place::Mem(Operand::Local(a2), fty))
            }
            _ => Err(err("expression is not an lvalue", e.span())),
        }
    }

    fn field_of(
        &self,
        sidx: usize,
        fname: &str,
        span: Span,
    ) -> Result<(u32, Ty), CompileError> {
        let layout = &self.cx.structs[sidx];
        layout
            .fields
            .iter()
            .find(|(n, _, _)| n == fname)
            .map(|(_, off, ty)| (*off, ty.clone()))
            .ok_or_else(|| {
                err(
                    format!("struct '{}' has no field '{fname}'", layout.name),
                    span,
                )
            })
    }

    /// Evaluate an expression that should produce a pointer, returning the
    /// pointer operand and the element type. Arrays decay.
    fn eval_as_pointer(&mut self, e: &Expr) -> Result<(Operand, Ty), CompileError> {
        // Array lvalue: decay to its address.
        if let Ok(place) = self.try_place_no_emit(e) {
            if place {
                let p = self.lower_place(e)?;
                if let Place::Mem(addr, ty) = p {
                    return Ok(match ty {
                        Ty::Array(elem, _) => (addr, *elem),
                        Ty::Ptr(elem) => {
                            // Pointer stored in memory: load it.
                            let dst = self.temp(true);
                            let access = self.new_access(e.span(), false, &describe(e));
                            self.emit(
                                Instr::Load {
                                    dst,
                                    addr,
                                    access,
                                },
                                e.span(),
                            );
                            (Operand::Local(dst), *elem)
                        }
                        other => (addr, other),
                    });
                }
            }
        }
        let (v, ty) = self.eval(e)?;
        let elem = match ty {
            Ty::Ptr(e) => *e,
            Ty::Array(e, _) => *e,
            _ => Ty::Int,
        };
        Ok((v, elem))
    }

    /// Cheap test: is this expression an lvalue we can lower with
    /// `lower_place`? (Doesn't emit anything.)
    fn try_place_no_emit(&self, e: &Expr) -> Result<bool, CompileError> {
        Ok(matches!(
            e,
            Expr::Var(_, _)
                | Expr::Deref(_, _)
                | Expr::Index(_, _, _)
                | Expr::Field(_, _, _)
                | Expr::Arrow(_, _, _)
        ))
    }

    fn load_place(
        &mut self,
        place: Place,
        span: Span,
        what: &str,
    ) -> Result<(Operand, Ty), CompileError> {
        match place {
            Place::Reg(lid) => {
                let ty = self
                    .scopes
                    .iter()
                    .rev()
                    .flat_map(|s| s.names.iter().rev())
                    .find(|(_, id, _)| *id == lid)
                    .map(|(_, _, t)| t.clone())
                    .unwrap_or(Ty::Int);
                Ok((Operand::Local(lid), ty))
            }
            Place::Mem(addr, ty) => match ty {
                // Arrays decay to a pointer to their first element.
                Ty::Array(elem, _) => Ok((addr, Ty::Ptr(elem))),
                other => {
                    let dst = self.temp(other.is_pointer_like());
                    let access = self.new_access(span, false, what);
                    self.emit(Instr::Load { dst, addr, access }, span);
                    Ok((Operand::Local(dst), other))
                }
            },
        }
    }

    fn store_place(&mut self, place: Place, val: Operand, span: Span, what: &str) {
        match place {
            Place::Reg(lid) => self.emit(Instr::Copy { dst: lid, src: val }, span),
            Place::Mem(addr, _) => {
                let access = self.new_access(span, true, what);
                self.emit(Instr::Store { addr, val, access }, span);
            }
        }
    }

    // ---- calls & builtins ----

    fn lower_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        span: Span,
    ) -> Result<(Operand, Ty), CompileError> {
        // Builtin?
        if let Expr::Var(name, _) = callee {
            if self.lookup(name).is_none() && !self.cx.global_ids.contains_key(name) {
                if BUILTINS.contains(&name.as_str()) {
                    return self.lower_builtin(name, args, span);
                }
                if let Some(&fi) = self.cx.funcs_by_name.get(name) {
                    return self.lower_direct_call(FuncId(fi as u32), args, span);
                }
                return Err(err(format!("unknown function '{name}'"), span));
            }
        }
        // Indirect call through a function-pointer expression. Unwrap a
        // syntactic deref: `(*fp)(x)` is the same as `fp(x)`.
        let target = if let Expr::Deref(inner, _) = callee {
            inner
        } else {
            callee
        };
        let (v, _) = self.eval(target)?;
        let mut ops = Vec::new();
        for a in args {
            ops.push(self.eval(a)?.0);
        }
        let dst = self.temp(false);
        self.emit(
            Instr::Call {
                dst: Some(dst),
                callee: Callee::Indirect(v),
                args: ops,
            },
            span,
        );
        Ok((Operand::Local(dst), Ty::Int))
    }

    fn lower_direct_call(
        &mut self,
        target: FuncId,
        args: &[Expr],
        span: Span,
    ) -> Result<(Operand, Ty), CompileError> {
        let expected = self.cx.sigs[target.index()].params.len();
        if args.len() != expected {
            return Err(err(
                format!(
                    "call to '{}' expects {expected} argument(s), got {}",
                    self.cx.funcs[target.index()].name,
                    args.len()
                ),
                span,
            ));
        }
        let mut ops = Vec::new();
        for a in args {
            ops.push(self.eval(a)?.0);
        }
        let ret_ty = self.cx.sigs[target.index()].ret.clone();
        let dst = if matches!(ret_ty, Ty::Void) {
            None
        } else {
            Some(self.temp(ret_ty.is_pointer_like()))
        };
        self.emit(
            Instr::Call {
                dst,
                callee: Callee::Direct(target),
                args: ops,
            },
            span,
        );
        match dst {
            Some(d) => Ok((Operand::Local(d), ret_ty)),
            None => Ok((Operand::Const(0), Ty::Void)),
        }
    }

    fn arity(
        &self,
        name: &str,
        args: &[Expr],
        n: usize,
        span: Span,
    ) -> Result<(), CompileError> {
        if args.len() != n {
            return Err(err(
                format!("'{name}' expects {n} argument(s), got {}", args.len()),
                span,
            ));
        }
        Ok(())
    }

    fn lower_builtin(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<(Operand, Ty), CompileError> {
        match name {
            "lock" | "unlock" | "barrier_wait" | "cond_signal" | "cond_broadcast" | "free"
            | "join" | "print" => {
                self.arity(name, args, 1, span)?;
                let (v, _) = self.eval(&args[0])?;
                let instr = match name {
                    "lock" => Instr::Lock { addr: v },
                    "unlock" => Instr::Unlock { addr: v },
                    "barrier_wait" => Instr::BarrierWait { addr: v },
                    "cond_signal" => Instr::CondSignal { cond: v },
                    "cond_broadcast" => Instr::CondBroadcast { cond: v },
                    "free" => Instr::Free { addr: v },
                    "join" => Instr::Join { tid: v },
                    "print" => Instr::Print { val: v },
                    _ => unreachable!(),
                };
                self.emit(instr, span);
                Ok((Operand::Const(0), Ty::Void))
            }
            "barrier_init" => {
                self.arity(name, args, 2, span)?;
                let (a, _) = self.eval(&args[0])?;
                let (c, _) = self.eval(&args[1])?;
                self.emit(Instr::BarrierInit { addr: a, count: c }, span);
                Ok((Operand::Const(0), Ty::Void))
            }
            "cond_wait" => {
                self.arity(name, args, 2, span)?;
                let (c, _) = self.eval(&args[0])?;
                let (l, _) = self.eval(&args[1])?;
                self.emit(Instr::CondWait { cond: c, lock: l }, span);
                Ok((Operand::Const(0), Ty::Void))
            }
            "malloc" => {
                self.arity(name, args, 1, span)?;
                let (n, _) = self.eval(&args[0])?;
                let dst = self.temp(true);
                let site = AllocSiteId(self.cx.alloc_sites);
                self.cx.alloc_sites += 1;
                self.emit(Instr::Malloc { dst, size: n, site }, span);
                Ok((Operand::Local(dst), Ty::Ptr(Box::new(Ty::Int))))
            }
            "spawn" => {
                if args.is_empty() {
                    return Err(err("'spawn' needs a function argument", span));
                }
                let callee = match &args[0] {
                    Expr::Var(fname, fspan) => {
                        if self.lookup(fname).is_some()
                            || self.cx.global_ids.contains_key(fname)
                        {
                            // A variable holding a function pointer.
                            let (v, _) = self.eval(&args[0])?;
                            Callee::Indirect(v)
                        } else if let Some(&fi) = self.cx.funcs_by_name.get(fname) {
                            Callee::Direct(FuncId(fi as u32))
                        } else {
                            return Err(err(format!("unknown function '{fname}'"), *fspan));
                        }
                    }
                    other => {
                        let (v, _) = self.eval(other)?;
                        Callee::Indirect(v)
                    }
                };
                let mut ops = Vec::new();
                for a in &args[1..] {
                    ops.push(self.eval(a)?.0);
                }
                if let Callee::Direct(f) = callee {
                    let expected = self.cx.sigs[f.index()].params.len();
                    if ops.len() != expected {
                        return Err(err(
                            format!(
                                "spawn of '{}' expects {expected} argument(s), got {}",
                                self.cx.funcs[f.index()].name,
                                ops.len()
                            ),
                            span,
                        ));
                    }
                }
                let dst = self.temp(false);
                self.emit(
                    Instr::Spawn {
                        dst: Some(dst),
                        callee,
                        args: ops,
                    },
                    span,
                );
                Ok((Operand::Local(dst), Ty::Int))
            }
            "sys_read" => {
                self.arity(name, args, 3, span)?;
                let (ch, _) = self.eval(&args[0])?;
                let (buf, _) = self.eval(&args[1])?;
                let (len, _) = self.eval(&args[2])?;
                let dst = self.temp(false);
                self.emit(
                    Instr::SysRead {
                        dst: Some(dst),
                        chan: ch,
                        buf,
                        len,
                    },
                    span,
                );
                Ok((Operand::Local(dst), Ty::Int))
            }
            "sys_write" => {
                self.arity(name, args, 3, span)?;
                let (ch, _) = self.eval(&args[0])?;
                let (buf, _) = self.eval(&args[1])?;
                let (len, _) = self.eval(&args[2])?;
                self.emit(
                    Instr::SysWrite {
                        chan: ch,
                        buf,
                        len,
                    },
                    span,
                );
                Ok((Operand::Const(0), Ty::Void))
            }
            "sys_input" => {
                self.arity(name, args, 1, span)?;
                let (ch, _) = self.eval(&args[0])?;
                let dst = self.temp(false);
                self.emit(Instr::SysInput { dst, chan: ch }, span);
                Ok((Operand::Local(dst), Ty::Int))
            }
            other => Err(err(format!("unknown builtin '{other}'"), span)),
        }
    }
}

/// Human-readable description of an lvalue for access metadata.
fn describe(e: &Expr) -> String {
    match e {
        Expr::Var(n, _) => n.clone(),
        Expr::Deref(i, _) => format!("*{}", describe(i)),
        Expr::Index(b, _, _) => format!("{}[..]", describe(b)),
        Expr::Field(b, f, _) => format!("{}.{}", describe(b), f),
        Expr::Arrow(b, f, _) => format!("{}->{}", describe(b), f),
        Expr::AddrOf(i, _) => format!("&{}", describe(i)),
        _ => "<expr>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn compile_err(src: &str) -> CompileError {
        compile(src).unwrap_err()
    }

    #[test]
    fn lowers_minimal_main() {
        let p = compile("int main() { return 0; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
    }

    #[test]
    fn rejects_missing_main() {
        let e = compile_err("int foo() { return 0; }");
        assert!(e.message.contains("main"));
    }

    #[test]
    fn global_array_has_right_size() {
        let p = compile("int a[10]; int main() {}").unwrap();
        assert_eq!(p.globals[0].size, 10);
    }

    #[test]
    fn increments_compute_their_operand_address_once() {
        // `a[i++]++`: one read and one write of `i`, then one read and one
        // write of the element.
        let p = compile("int a[4]; int i; int main() { a[i++]++; return 0; }").unwrap();
        let count = |what: &str, write: bool| {
            p.accesses
                .iter()
                .filter(|a| a.what == what && a.is_write == write)
                .count()
        };
        assert_eq!((count("i", false), count("i", true)), (1, 1));
        assert_eq!((count("a[..]", false), count("a[..]", true)), (1, 1));
    }

    #[test]
    fn pointer_increments_step_by_the_pointee() {
        let p = compile(
            "struct s { int x; int y; int z; }; struct s v[4];
             int main() { struct s *q; q = &v[0]; q++; return 0; }",
        )
        .unwrap();
        let steps = p.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| matches!(i, Instr::PtrAdd { offset: Operand::Const(3), .. }))
            .count();
        assert_eq!(steps, 1);
    }

    #[test]
    fn rejects_objects_past_the_cell_bound() {
        // As large as `malloc` may ask for, and no larger: one global, the
        // whole global image, one function's frame slot area.
        let src = format!("int main() {{ int a[{MAX_CELLS}]; return 0; }}");
        compile(&src).unwrap();
        let bound = format!("too large: more than {MAX_CELLS} cells");
        let half = MAX_CELLS / 2;
        for (src, what, span) in [
            ("int a[4000000000]; int main() { return 0; }".to_string(), "global 'a'", Span::new(1, 1)),
            (
                format!("int a[{}]; int main() {{ return 0; }}", MAX_CELLS + 1),
                "global 'a'",
                Span::new(1, 1),
            ),
            (
                format!("int a[{half}];\nint b[{half}];\nint c; int main() {{ return 0; }}"),
                "the global image",
                Span::new(3, 1),
            ),
            (
                "int main() {\n  int a[4000000000]; return 0; }".to_string(),
                "the frame of 'main'",
                Span::new(2, 3),
            ),
            (
                format!("void f() {{ int x[{half}];\n int y[{half}]; int z; z = 1; int *p; p = &z; }}\nint main() {{ return 0; }}"),
                "the frame of 'f'",
                Span::new(2, 18),
            ),
        ] {
            let e = compile_err(&src);
            assert_eq!(e.stage, crate::diag::Stage::Lower, "{what}");
            assert_eq!(e.message, format!("{what} {bound}"), "{src}");
            assert_eq!(e.span, span, "{what}");
        }
    }

    #[test]
    fn rejects_sizes_past_u32_cells() {
        // A dimension past u32 must not truncate (a[4294967297] to one
        // cell), nor a product past it wrap or, in debug builds, panic.
        for src in [
            "int a[4294967297]; int main() { return 0; }",
            "int a[65536][65537]; int main() { return 0; }",
            "int main() {\n  int a[65536][65537]; return 0; }",
            "struct s { int a[4294967295]; int b; }; int main() { return 0; }",
        ] {
            let e = compile_err(src);
            assert_eq!(e.stage, crate::diag::Stage::Lower, "{src}");
            assert!(e.message.ends_with("too large: more than 4294967295 cells"), "{src}: {e}");
        }
        assert_eq!(compile_err("int a[65536][65537]; int main() {}").span, Span::new(1, 1));
        assert_eq!(
            compile_err("int main() {\n  int a[4294967297]; return 0; }").span,
            Span::new(2, 3)
        );
    }

    #[test]
    fn struct_layout_offsets() {
        let p = compile(
            "struct pt { int x; int y[3]; int z; };
             struct pt g;
             int main() { g.z = 1; }",
        )
        .unwrap();
        assert_eq!(p.globals[0].size, 5);
        // The store to g.z should go through a PtrAdd with offset 4.
        let main = p.func_by_name("main").unwrap();
        let has_off4 = main.blocks.iter().any(|b| {
            b.instrs.iter().any(|i| {
                matches!(
                    i,
                    Instr::PtrAdd {
                        offset: Operand::Const(4),
                        ..
                    }
                )
            })
        });
        assert!(has_off4, "expected field offset 4 for g.z");
    }

    #[test]
    fn rejects_duplicate_names_at_the_second_declaration() {
        for (src, message, span) in [
            (
                "int f(int a,\n      int a) { return a; }\nint main() { return f(1, 2); }",
                "duplicate parameter 'a'",
                Span::new(2, 7),
            ),
            (
                "struct s { int x;\n  int x; };\nint main() { return 0; }",
                "duplicate field 'x'",
                Span::new(2, 3),
            ),
            (
                "int g;\nint g() { return 7; }\nint main() { return g(); }",
                "'g' names both a global and a function",
                Span::new(2, 1),
            ),
            (
                "int g() { return 7; }\nint x; int g;\nint main() { return g(); }",
                "'g' names both a global and a function",
                Span::new(2, 8),
            ),
            (
                "int main() { int x; x = 1; int *p; p = &x;\n  int x; x = 2; print(*p); return x; }",
                "duplicate local 'x'",
                Span::new(2, 3),
            ),
            (
                "int main() { int a[2];\n  int a; return 0; }",
                "duplicate local 'a'",
                Span::new(2, 3),
            ),
            (
                "int main() { while (1) { int i; int j;\n    int i; } return 0; }",
                "duplicate local 'i'",
                Span::new(2, 5),
            ),
            (
                "int f(int a) {\n  int a; a = 3; return a; }\nint main() { return f(1); }",
                "duplicate local 'a'",
                Span::new(2, 3),
            ),
        ] {
            let e = compile_err(src);
            assert_eq!(e.stage, crate::diag::Stage::Lower, "{src}");
            assert_eq!((e.message.as_str(), e.span), (message, span), "{src}");
        }
        // Names only clash within one kind of scope, and a nested block
        // may shadow a parameter or an outer local.
        compile(
            "struct s { int s; int x; }; int x; int f(int x, int s) { return x + s; }
             int g(int a) { int b; { int a; int b; a = 1; b = a; } return a; }
             int main() { struct s v; v.x = f(1, 2) + g(3); return v.x; }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_recursive_struct() {
        let e = compile_err("struct s { struct s inner; }; int main() {}");
        assert!(e.message.contains("recursively"));
    }

    #[test]
    fn nested_struct_by_value_is_sized() {
        let p = compile(
            "struct inner { int a; int b; };
             struct outer { struct inner i; int c; };
             struct outer g;
             int main() {}",
        )
        .unwrap();
        assert_eq!(p.globals[0].size, 3);
    }

    #[test]
    fn pointer_arith_scales_by_element_size() {
        let p = compile(
            "struct pt { int x; int y; };
             struct pt arr[4];
             int main() { struct pt *p; p = &arr[0]; p = p + 1; }",
        )
        .unwrap();
        // p + 1 over struct pt (size 2) must scale the offset by 2.
        let main = p.func_by_name("main").unwrap();
        let has_scaled = main.blocks.iter().any(|b| {
            b.instrs.iter().any(|i| {
                matches!(
                    i,
                    Instr::PtrAdd {
                        offset: Operand::Const(2),
                        ..
                    }
                )
            })
        });
        assert!(has_scaled);
    }

    #[test]
    fn address_taken_local_becomes_slot() {
        let p = compile("int main() { int x; int *p; p = &x; *p = 3; return x; }").unwrap();
        let main = p.func_by_name("main").unwrap();
        let x = main
            .locals
            .iter()
            .find(|l| l.name == "x")
            .expect("local x exists");
        assert_eq!(x.storage, Storage::Slot { size: 1 });
        let pvar = main.locals.iter().find(|l| l.name == "p").unwrap();
        assert_eq!(pvar.storage, Storage::Register);
    }

    #[test]
    fn accesses_recorded_with_rw_flags() {
        let p = compile("int g; int main() { g = g + 1; }").unwrap();
        let reads = p.accesses.iter().filter(|a| !a.is_write).count();
        let writes = p.accesses.iter().filter(|a| a.is_write).count();
        assert_eq!(reads, 1);
        assert_eq!(writes, 1);
        assert!(p.accesses.iter().all(|a| a.what == "g"));
    }

    #[test]
    fn sync_globals_flagged() {
        let p = compile("lock_t m; int g; int main() {}").unwrap();
        assert!(p.globals[0].is_sync);
        assert!(!p.globals[1].is_sync);
    }

    #[test]
    fn lock_unlock_lowered_as_sync_instrs() {
        let p = compile(
            "lock_t m; int g;
             int main() { lock(&m); g = 1; unlock(&m); }",
        )
        .unwrap();
        let main = p.func_by_name("main").unwrap();
        let n_sync = main
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.is_program_sync())
            .count();
        assert_eq!(n_sync, 2);
    }

    #[test]
    fn spawn_direct_and_join() {
        let p = compile(
            "void w(int x) {}
             int main() { int t; t = spawn(w, 1); join(t); }",
        )
        .unwrap();
        let main = p.func_by_name("main").unwrap();
        let instrs: Vec<_> = main.blocks.iter().flat_map(|b| &b.instrs).collect();
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::Spawn { callee: Callee::Direct(_), .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::Join { .. })));
    }

    #[test]
    fn spawn_through_function_pointer() {
        let p = compile(
            "void w(int x) {}
             int main() { int *fp; int t; fp = w; t = spawn(fp, 1); join(t); }",
        )
        .unwrap();
        let main = p.func_by_name("main").unwrap();
        let instrs: Vec<_> = main.blocks.iter().flat_map(|b| &b.instrs).collect();
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::AddrOfFunc { .. })));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::Spawn { callee: Callee::Indirect(_), .. })));
    }

    #[test]
    fn rejects_wrong_arity() {
        let e = compile_err("void w(int x) {} int main() { w(); }");
        assert!(e.message.contains("expects 1"));
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = compile_err("int main() { y = 3; }");
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn rejects_unknown_field() {
        let e = compile_err("struct s { int a; }; struct s g; int main() { g.b = 1; }");
        assert!(e.message.contains("no field"));
    }

    #[test]
    fn for_loop_produces_back_edge() {
        let p = compile("int main() { int i; for (i = 0; i < 3; i = i + 1) {} }").unwrap();
        let main = p.func_by_name("main").unwrap();
        // There must be at least one jump to an earlier block (back edge).
        let mut has_back_edge = false;
        for (bid, b) in main.iter_blocks() {
            for s in b.term.successors() {
                if s <= bid {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge);
    }

    #[test]
    fn break_and_continue_resolve() {
        let p = compile(
            "int main() { int i; for (i = 0; i < 9; i = i + 1) {
                if (i == 2) { continue; }
                if (i == 5) { break; }
             } return i; }",
        )
        .unwrap();
        assert!(p.funcs[0].blocks.len() >= 6);
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = compile_err("int main() { break; }");
        assert!(e.message.contains("outside"));
    }

    #[test]
    fn short_circuit_generates_branches() {
        let p = compile("int main() { int a; int b; if (a && b) { a = 1; } }").unwrap();
        let main = p.func_by_name("main").unwrap();
        let branches = main
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Branch { .. }))
            .count();
        assert!(branches >= 2, "&& should produce its own branch");
    }

    #[test]
    fn malloc_allocates_site_ids() {
        let p = compile(
            "int main() { int *a; int *b; a = malloc(4); b = malloc(8); }",
        )
        .unwrap();
        assert_eq!(p.alloc_sites, 2);
    }

    #[test]
    fn global_initializer_constant_folding() {
        let p = compile("int g = 2 + 3 * 4; int main() {}").unwrap();
        assert_eq!(p.globals[0].init[0], 14);
    }

    #[test]
    fn rejects_nonconstant_global_init() {
        let e = compile_err("int g; int h = g; int main() {}");
        assert!(e.message.contains("constant"));
    }

    #[test]
    fn rejects_reserved_builtin_function_name() {
        let e = compile_err("void lock(int x) {} int main() {}");
        assert!(e.message.contains("reserved"));
    }

    #[test]
    fn block_scoping_shadows() {
        let p = compile(
            "int main() { int x; x = 1; { int x; x = 2; } return x; }",
        )
        .unwrap();
        let main = p.func_by_name("main").unwrap();
        let xs = main.locals.iter().filter(|l| l.name == "x").count();
        assert_eq!(xs, 2);
    }

    #[test]
    fn sys_read_and_write_lowered() {
        let p = compile(
            "int buf[16];
             int main() { int n; n = sys_read(0, &buf[0], 16); sys_write(1, &buf[0], n); }",
        )
        .unwrap();
        let main = p.func_by_name("main").unwrap();
        let instrs: Vec<_> = main.blocks.iter().flat_map(|b| &b.instrs).collect();
        assert!(instrs.iter().any(|i| matches!(i, Instr::SysRead { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::SysWrite { .. })));
    }

    #[test]
    fn spans_aligned_in_all_blocks() {
        let p = compile(
            "int g; lock_t m;
             void w(int n) { int i; for (i = 0; i < n; i = i + 1) { lock(&m); g = g + i; unlock(&m); } }
             int main() { int t; t = spawn(w, 4); w(2); join(t); return g; }",
        )
        .unwrap();
        for f in &p.funcs {
            for b in &f.blocks {
                assert_eq!(b.instrs.len(), b.spans.len());
            }
        }
    }
}
