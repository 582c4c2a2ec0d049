//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::diag::{CompileError, Span, Stage};
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Parse a token stream (as produced by [`crate::lexer::lex`]) into a
/// translation [`Unit`].
///
/// # Errors
///
/// Returns a [`CompileError`] at the first syntax error.
pub fn parse(tokens: &[Token]) -> Result<Unit, CompileError> {
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .unit()
}

/// The deepest nesting a source may reach. Statements, expressions, unary
/// operands, pointer levels and the links of left-nested chains (`a + b +
/// c`, `a[i][j]`) each open a level. Every later pass (lowering, printing,
/// dropping the tree) recurses over the same tree, so a source nested past
/// this bound is a named parse error instead of a stack overflow.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting levels open at the current token (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_nth(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(Stage::Parse, msg, self.span())
    }

    /// Open one more nesting level at the current token, or fail there
    /// once that would pass [`MAX_NESTING`]. Callers close their levels by
    /// restoring `depth`; an error abandons the whole parse.
    fn deepen(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parse `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        self.deepen()?;
        let out = f(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == &TokenKind::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{p}', found '{}'", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, CompileError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found '{other}'"))),
        }
    }

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword(
                Keyword::Int
                    | Keyword::Void
                    | Keyword::LockT
                    | Keyword::BarrierT
                    | Keyword::CondT
                    | Keyword::Struct
            )
        )
    }

    fn unit(mut self) -> Result<Unit, CompileError> {
        let mut unit = Unit::default();
        while self.peek() != &TokenKind::Eof {
            if self.peek() == &TokenKind::Keyword(Keyword::Struct)
                && matches!(self.peek_nth(1), TokenKind::Ident(_))
                && self.peek_nth(2) == &TokenKind::Punct(Punct::LBrace)
            {
                unit.structs.push(self.struct_decl()?);
                continue;
            }
            let span = self.span();
            let base = self.base_type()?;
            let (ty, name) = self.declarator_head(base)?;
            if self.peek() == &TokenKind::Punct(Punct::LParen) {
                unit.funcs.push(self.func_decl(ty, name, span)?);
            } else {
                let decl = self.finish_var_decl(ty, name, span)?;
                self.expect_punct(Punct::Semi)?;
                unit.globals.push(decl);
            }
        }
        Ok(unit)
    }

    fn struct_decl(&mut self) -> Result<StructDecl, CompileError> {
        let span = self.span();
        self.bump(); // struct
        let name = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            let fspan = self.span();
            let base = self.base_type()?;
            let (ty, fname) = self.declarator_head(base)?;
            let field = self.finish_var_decl(ty, fname, fspan)?;
            if field.init.is_some() {
                return Err(self.err("struct fields cannot have initializers"));
            }
            self.expect_punct(Punct::Semi)?;
            fields.push(field);
        }
        self.expect_punct(Punct::Semi)?;
        Ok(StructDecl { name, fields, span })
    }

    /// Parse the base type (no pointers): `int`, `void`, sync types, `struct S`.
    fn base_type(&mut self) -> Result<TypeExpr, CompileError> {
        match self.bump() {
            TokenKind::Keyword(Keyword::Int) => Ok(TypeExpr::Int),
            TokenKind::Keyword(Keyword::Void) => Ok(TypeExpr::Void),
            TokenKind::Keyword(Keyword::LockT) => Ok(TypeExpr::Lock),
            TokenKind::Keyword(Keyword::BarrierT) => Ok(TypeExpr::Barrier),
            TokenKind::Keyword(Keyword::CondT) => Ok(TypeExpr::Cond),
            TokenKind::Keyword(Keyword::Struct) => {
                let name = self.expect_ident()?;
                Ok(TypeExpr::Struct(name))
            }
            other => Err(self.err(format!("expected type, found '{other}'"))),
        }
    }

    /// Parse `'*'* name`, folding pointer levels into the type.
    fn declarator_head(&mut self, base: TypeExpr) -> Result<(TypeExpr, String), CompileError> {
        let (depth, mut ptrs) = (self.depth, 0);
        while self.peek() == &TokenKind::Punct(Punct::Star) {
            self.deepen()?;
            self.bump();
            ptrs += 1;
        }
        self.depth = depth;
        let name = self.expect_ident()?;
        Ok((base.wrap_ptr(ptrs), name))
    }

    /// Parse optional array dims and initializer after the name.
    fn finish_var_decl(
        &mut self,
        ty: TypeExpr,
        name: String,
        span: Span,
    ) -> Result<VarDecl, CompileError> {
        let mut array_dims = Vec::new();
        while self.eat_punct(Punct::LBracket) {
            match self.bump() {
                TokenKind::Int(n) if n > 0 => array_dims.push(n),
                _ => return Err(self.err("array dimension must be a positive integer literal")),
            }
            self.expect_punct(Punct::RBracket)?;
        }
        let init = if self.eat_punct(Punct::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(VarDecl {
            name,
            ty,
            array_dims,
            init,
            span,
        })
    }

    fn func_decl(
        &mut self,
        ret: TypeExpr,
        name: String,
        span: Span,
    ) -> Result<FuncDecl, CompileError> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                let pspan = self.span();
                if self.peek() == &TokenKind::Keyword(Keyword::Void)
                    && self.peek_nth(1) == &TokenKind::Punct(Punct::RParen)
                    && params.is_empty()
                {
                    self.bump();
                    break;
                }
                let base = self.base_type()?;
                let (ty, pname) = self.declarator_head(base)?;
                params.push(VarDecl {
                    name: pname,
                    ty,
                    array_dims: Vec::new(),
                    init: None,
                    span: pspan,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_punct(Punct::LBrace)?;
        let body = self.block_body()?;
        Ok(FuncDecl {
            name,
            ret,
            params,
            body,
            span,
        })
    }

    /// Parse statements until the matching `}` (which is consumed).
    fn block_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek() == &TokenKind::Eof {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.nested(Self::stmt)?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        if self.at_type_start() {
            let base = self.base_type()?;
            let (ty, name) = self.declarator_head(base)?;
            let decl = self.finish_var_decl(ty, name, span)?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::Decl(decl));
        }
        match self.peek().clone() {
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_body = self.stmt_as_block()?;
                let else_body = if self.peek() == &TokenKind::Keyword(Keyword::Else) {
                    self.bump();
                    self.stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body, span })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect_punct(Punct::Semi)?;
                let cond = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect_punct(Punct::Semi)?;
                let step = if self.peek() == &TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(Box::new(self.expr()?))
                };
                self.expect_punct(Punct::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span,
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.peek() == &TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return(value, span))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue(span))
            }
            TokenKind::Punct(Punct::LBrace) => {
                self.bump();
                let body = self.block_body()?;
                Ok(Stmt::Block(body, span))
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Block(Vec::new(), span))
            }
            _ => {
                let e = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Parse a statement, wrapping a single non-block statement in a vec so
    /// `if (c) x = 1;` and `if (c) { x = 1; }` produce the same AST shape.
    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.eat_punct(Punct::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.nested(Self::stmt)?])
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::assign_expr)
    }

    fn assign_expr(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.binary_expr(0)?;
        let compound = match self.peek() {
            TokenKind::Punct(Punct::Assign) => None,
            TokenKind::Punct(Punct::PlusEq) => Some(BinOp::Add),
            TokenKind::Punct(Punct::MinusEq) => Some(BinOp::Sub),
            TokenKind::Punct(Punct::StarEq) => Some(BinOp::Mul),
            TokenKind::Punct(Punct::SlashEq) => Some(BinOp::Div),
            TokenKind::Punct(Punct::PercentEq) => Some(BinOp::Rem),
            TokenKind::Punct(Punct::AmpEq) => Some(BinOp::BitAnd),
            TokenKind::Punct(Punct::PipeEq) => Some(BinOp::BitOr),
            TokenKind::Punct(Punct::CaretEq) => Some(BinOp::BitXor),
            _ => return Ok(lhs),
        };
        let span = self.span();
        let op = self.bump();
        // `lhs op= rhs` desugars to `lhs = lhs op rhs`, which evaluates
        // the lvalue twice; a target with a side effect would run it twice.
        if compound.is_some() && has_side_effect(&lhs) {
            return Err(CompileError::new(
                Stage::Parse,
                format!(
                    "target of '{op}' has a side effect ('++', '--', an assignment or a call), \
                     which '{op}' would run twice"
                ),
                span,
            ));
        }
        let rhs = self.expr()?;
        let rhs = match compound {
            None => rhs,
            Some(op) => Expr::Binary(op, Box::new(lhs.clone()), Box::new(rhs), span),
        };
        Ok(Expr::Assign(Box::new(lhs), Box::new(rhs), span))
    }

    fn bin_op_of(p: Punct) -> Option<(BinOp, u8)> {
        // Higher binds tighter.
        Some(match p {
            Punct::OrOr => (BinOp::LogOr, 1),
            Punct::AndAnd => (BinOp::LogAnd, 2),
            Punct::Pipe => (BinOp::BitOr, 3),
            Punct::Caret => (BinOp::BitXor, 4),
            Punct::Amp => (BinOp::BitAnd, 5),
            Punct::EqEq => (BinOp::Eq, 6),
            Punct::Ne => (BinOp::Ne, 6),
            Punct::Lt => (BinOp::Lt, 7),
            Punct::Le => (BinOp::Le, 7),
            Punct::Gt => (BinOp::Gt, 7),
            Punct::Ge => (BinOp::Ge, 7),
            Punct::Shl => (BinOp::Shl, 8),
            Punct::Shr => (BinOp::Shr, 8),
            Punct::Plus => (BinOp::Add, 9),
            Punct::Minus => (BinOp::Sub, 9),
            Punct::Star => (BinOp::Mul, 10),
            Punct::Slash => (BinOp::Div, 10),
            Punct::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Punct(p) => Self::bin_op_of(*p),
                _ => None,
            };
            let Some((op, prec)) = op.filter(|&(_, prec)| prec >= min_prec) else {
                self.depth = depth;
                return Ok(lhs);
            };
            // Each link of the chain nests its left operand one level
            // deeper.
            self.deepen()?;
            let span = self.span();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        let op = match self.peek() {
            TokenKind::Punct(
                p @ (Punct::PlusPlus
                | Punct::MinusMinus
                | Punct::Minus
                | Punct::Not
                | Punct::Star
                | Punct::Amp),
            ) => *p,
            _ => return self.postfix_expr(),
        };
        self.bump();
        let e = self.nested(Self::unary_expr)?;
        Ok(match op {
            // The value of `++x` is the new value, as in C.
            Punct::PlusPlus => incdec(e, BinOp::Add, span)?,
            Punct::MinusMinus => incdec(e, BinOp::Sub, span)?,
            Punct::Minus => Expr::Unary(UnOp::Neg, Box::new(e), span),
            Punct::Not => Expr::Unary(UnOp::Not, Box::new(e), span),
            Punct::Star => Expr::Deref(Box::new(e), span),
            _ => Expr::AddrOf(Box::new(e), span),
        })
    }

    fn postfix_expr(&mut self) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut e = self.primary_expr()?;
        loop {
            let span = self.span();
            let link = match self.peek() {
                TokenKind::Punct(
                    p @ (Punct::LBracket
                    | Punct::Dot
                    | Punct::Arrow
                    | Punct::PlusPlus
                    | Punct::MinusMinus
                    | Punct::LParen),
                ) => *p,
                _ => {
                    self.depth = depth;
                    return Ok(e);
                }
            };
            // Each postfix link nests the expression one level deeper.
            self.deepen()?;
            self.bump();
            e = match link {
                Punct::LBracket => {
                    let idx = self.expr()?;
                    self.expect_punct(Punct::RBracket)?;
                    Expr::Index(Box::new(e), Box::new(idx), span)
                }
                Punct::Dot => Expr::Field(Box::new(e), self.expect_ident()?, span),
                Punct::Arrow => Expr::Arrow(Box::new(e), self.expect_ident()?, span),
                Punct::PlusPlus => incdec(e, BinOp::Add, span)?,
                Punct::MinusMinus => incdec(e, BinOp::Sub, span)?,
                _ => {
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    Expr::Call {
                        callee: Box::new(e),
                        args,
                        span,
                    }
                }
            };
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::Int(v, span)),
            TokenKind::Ident(name) => Ok(Expr::Var(name, span)),
            TokenKind::Punct(Punct::LParen) => {
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::new(
                Stage::Parse,
                format!("expected expression, found '{other}'"),
                span,
            )),
        }
    }
}

/// `x++` / `x--` (and the prefix forms) on an lvalue operand. MiniC
/// defines the value of the expression as the *new* value (i.e., postfix
/// and prefix forms are equivalent); use the statement form when the
/// distinction would matter. Any other operand — including another `++`
/// or `--` — is rejected at its span.
fn incdec(e: Expr, op: BinOp, span: crate::diag::Span) -> Result<Expr, CompileError> {
    if !matches!(
        e,
        Expr::Var(..) | Expr::Deref(..) | Expr::Index(..) | Expr::Field(..) | Expr::Arrow(..)
    ) {
        let what = if op == BinOp::Add { "++" } else { "--" };
        return Err(CompileError::new(
            Stage::Parse,
            format!("operand of '{what}' is not an lvalue"),
            e.span(),
        ));
    }
    Ok(Expr::IncDec(op, Box::new(e), span))
}

/// Whether evaluating `e` has a side effect: it contains `++`/`--`, an
/// assignment or a call.
fn has_side_effect(e: &Expr) -> bool {
    match e {
        Expr::Int(..) | Expr::Var(..) => false,
        Expr::Assign(..) | Expr::IncDec(..) | Expr::Call { .. } => true,
        Expr::Unary(_, a, _)
        | Expr::Deref(a, _)
        | Expr::AddrOf(a, _)
        | Expr::Field(a, _, _)
        | Expr::Arrow(a, _, _) => has_side_effect(a),
        Expr::Binary(_, a, b, _) | Expr::Index(a, b, _) => has_side_effect(a) || has_side_effect(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Unit {
        parse(&lex(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> CompileError {
        parse(&lex(src).unwrap()).unwrap_err()
    }

    #[test]
    fn parses_globals_and_function() {
        let u = parse_src("int g; int arr[8]; int main() { return 0; }");
        assert_eq!(u.globals.len(), 2);
        assert_eq!(u.globals[1].array_dims, vec![8]);
        assert_eq!(u.funcs.len(), 1);
        assert_eq!(u.funcs[0].name, "main");
    }

    #[test]
    fn parses_struct() {
        let u = parse_src("struct point { int x; int y; }; struct point p; int main() {}");
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].fields.len(), 2);
        assert_eq!(u.globals[0].ty, TypeExpr::Struct("point".into()));
    }

    #[test]
    fn parses_pointer_declarations() {
        let u = parse_src("int **pp; int main() {}");
        assert_eq!(
            u.globals[0].ty,
            TypeExpr::Ptr(Box::new(TypeExpr::Ptr(Box::new(TypeExpr::Int))))
        );
    }

    #[test]
    fn precedence_mul_over_add() {
        let u = parse_src("int main() { int x; x = 1 + 2 * 3; }");
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[0].body[1] else {
            panic!("expected assignment");
        };
        let Expr::Binary(BinOp::Add, _, r, _) = rhs.as_ref() else {
            panic!("expected add at top");
        };
        assert!(matches!(r.as_ref(), Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn parses_for_loop_with_all_clauses() {
        let u = parse_src("int main() { int i; for (i = 0; i < 4; i = i + 1) { i; } }");
        assert!(matches!(
            &u.funcs[0].body[1],
            Stmt::For {
                init: Some(_),
                cond: Some(_),
                step: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_for_loop_with_empty_clauses() {
        let u = parse_src("int main() { for (;;) { break; } }");
        assert!(matches!(
            &u.funcs[0].body[0],
            Stmt::For {
                init: None,
                cond: None,
                step: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_if_else_chains() {
        let u = parse_src("int main() { int x; if (x) x = 1; else if (!x) x = 2; else x = 3; }");
        let Stmt::If { else_body, .. } = &u.funcs[0].body[1] else {
            panic!("expected if");
        };
        assert!(matches!(else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_calls_and_member_access() {
        let u = parse_src("int main() { int r; r = f(1, 2)->next.val[3]; }");
        // Shape: Index(Field(Arrow(Call, next), val), 3)
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[0].body[1] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Index(_, _, _)));
    }

    #[test]
    fn parses_spawn_like_ordinary_call() {
        let u = parse_src("int w(int x) { return x; } int main() { int t; t = spawn(w, 3); }");
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[1].body[1] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Call { .. }));
    }

    #[test]
    fn parses_address_of_and_deref() {
        let u = parse_src("int main() { int x; int *p; p = &x; *p = 5; }");
        assert!(matches!(
            &u.funcs[0].body[2],
            Stmt::Expr(Expr::Assign(_, _, _))
        ));
        let Stmt::Expr(Expr::Assign(lhs, _, _)) = &u.funcs[0].body[3] else {
            panic!()
        };
        assert!(matches!(lhs.as_ref(), Expr::Deref(_, _)));
    }

    #[test]
    fn void_param_list() {
        let u = parse_src("int main(void) { return 0; }");
        assert!(u.funcs[0].params.is_empty());
    }

    #[test]
    fn rejects_missing_semicolon() {
        let e = parse_err("int main() { return 0 }");
        assert!(e.message.contains("expected ';'"), "{}", e.message);
    }

    #[test]
    fn rejects_bad_array_dim() {
        let e = parse_err("int a[0]; int main() {}");
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn rejects_unclosed_block() {
        let e = parse_err("int main() { int x;");
        assert!(e.message.contains("end of input"));
    }

    #[test]
    fn assignment_is_right_associative() {
        let u = parse_src("int main() { int a; int b; a = b = 1; }");
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[0].body[2] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Assign(_, _, _)));
    }

    #[test]
    fn compound_assignment_desugars() {
        let u = parse_src("int main() { int a; a = 1; a += 2; a *= 3; a %= 4; }");
        // a += 2  ==>  Assign(a, Binary(Add, a, 2))
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[0].body[2] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary(BinOp::Add, _, _, _)));
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[0].body[3] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary(BinOp::Mul, _, _, _)));
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[0].body[4] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary(BinOp::Rem, _, _, _)));
    }

    #[test]
    fn compound_assignment_works_on_lvalues() {
        let u = parse_src("int a[4]; int main() { a[2] += 5; }");
        let Stmt::Expr(Expr::Assign(lhs, _, _)) = &u.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(lhs.as_ref(), Expr::Index(_, _, _)));
    }

    /// A compound assignment would evaluate its target twice, so a target
    /// with a side effect is a named error at the operator.
    #[test]
    fn compound_assignment_rejects_targets_with_side_effects() {
        for (src, op, col) in [
            ("int a[4]; int i; int main() { a[i++] += 5; }", "+=", 38),
            ("int a[4]; int i; int main() { a[i = 1] -= 1; }", "-=", 40),
            (
                "int f() { return 0; } int *p; int main() { p[f()] *= 2; }",
                "*=",
                51,
            ),
            ("int *p; int main() { *(p + --p[0]) ^= 1; }", "^=", 36),
        ] {
            let err = parse_err(src);
            assert_eq!(
                err.message,
                format!(
                    "target of '{op}' has a side effect ('++', '--', an assignment or a call), \
                     which '{op}' would run twice"
                ),
                "{src}"
            );
            assert_eq!(err.span, Span::new(1, col), "{src}");
        }
        // A side effect on the right, or none at all, is fine.
        parse_src("int a[4]; int i; int main() { a[i] += i++; a[i + 1] |= a[2]; }");
    }

    /// `++` and `--` desugar to one `IncDec` node on their operand, which
    /// is not cloned: lowering computes its address once.
    #[test]
    fn increment_and_decrement_desugar() {
        let u = parse_src("int a[4]; int main() { int i; i = 0; i++; ++i; i--; a[i++]++; }");
        let body = &u.funcs[0].body;
        for (k, op) in [(2, BinOp::Add), (3, BinOp::Add), (4, BinOp::Sub)] {
            let Stmt::Expr(Expr::IncDec(o, target, _)) = &body[k] else {
                panic!("stmt {k} should be an increment: {:?}", body[k])
            };
            assert_eq!(*o, op);
            assert!(matches!(target.as_ref(), Expr::Var(n, _) if n == "i"));
        }
        let Stmt::Expr(Expr::IncDec(BinOp::Add, target, _)) = &body[5] else {
            panic!("{:?}", body[5])
        };
        let Expr::Index(_, idx, _) = target.as_ref() else {
            panic!("{target:?}")
        };
        assert!(matches!(idx.as_ref(), Expr::IncDec(BinOp::Add, ..)));
    }

    #[test]
    fn logical_ops_have_lowest_precedence() {
        let u = parse_src("int main() { int x; x = 1 < 2 && 3 < 4 || 5; }");
        let Stmt::Expr(Expr::Assign(_, rhs, _)) = &u.funcs[0].body[1] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary(BinOp::LogOr, _, _, _)));
    }

    /// Each shape `[pre, open, mid, close, post]` nests `k` times, reaching
    /// `base + k` levels: a program at [`MAX_NESTING`] compiles, and one
    /// level more fails at the token that opens the extra level.
    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        let shapes: [(&str, usize, [&str; 5]); 7] = [
            ("blocks", 0, ["int main() { ", "{", "", "}", " return 0; }"]),
            ("ifs", 1, ["int main() { ", "if (1) ", ";", "", " return 0; }"]),
            ("parens", 2, ["int main() { return ", "(", "1", ")", "; }"]),
            ("minuses", 2, ["int main() { return ", "- ", "1", "", "; }"]),
            ("sum", 2, ["int main() { return 1", "", "", "+1", "; }"]),
            ("calls", 2, ["int f() { return 0; } int main() { f", "", "", "()", "; return 0; }"]),
            ("assignments", 2, ["int main() { int x; ", "x = ", "1", "", "; return x; }"]),
        ];
        let nest = |[pre, open, mid, close, post]: [&str; 5], k: usize| {
            format!("{pre}{}{mid}{}{post}", open.repeat(k), close.repeat(k))
        };
        for (name, base, shape) in shapes {
            let k = MAX_NESTING - base;
            if let Err(e) = crate::compile(&nest(shape, k)) {
                panic!("{name} at the bound: {e}");
            }
            let err = parse_err(&nest(shape, k + 1));
            assert_eq!(err.message, "nesting deeper than 128 levels", "{name}");
        }
        // The span is the token past the bound: here the literal inside
        // the 127th parenthesis, after `int main() { return ` (20 columns).
        let err = parse_err(&nest(shapes[2].2, MAX_NESTING - 1));
        assert_eq!(err.span, Span::new(1, 20 + MAX_NESTING as u32));
    }

    #[test]
    fn increments_reject_non_lvalues_at_their_span() {
        for (src, op, span) in [
            ("int main() { 1++; }", "++", Span::new(1, 14)),
            ("int main() { --(2 + 3); }", "--", Span::new(1, 19)),
            ("int f() { return 0; } int main() { f()--; }", "--", Span::new(1, 37)),
            ("int main() { int x; x++--; }", "--", Span::new(1, 22)),
            ("int main() { int x; ++x++; }", "++", Span::new(1, 24)),
        ] {
            let e = parse_err(src);
            assert_eq!(e.message, format!("operand of '{op}' is not an lvalue"), "{src}");
            assert_eq!(e.span, span, "{src}");
        }
        // A chain fails at its second link, however long it is.
        let chain = format!("int main() {{ int x; x{}; }}", "++".repeat(1_000));
        assert_eq!(parse_err(&chain).span, Span::new(1, 22));
    }
}
