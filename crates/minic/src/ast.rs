//! Abstract syntax tree produced by the parser.

use crate::diag::Span;

/// A whole translation unit: struct definitions, global variables, and
/// function definitions, in source order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Unit {
    /// `struct S { ... };` definitions.
    pub structs: Vec<StructDecl>,
    /// File-scope variable declarations.
    pub globals: Vec<VarDecl>,
    /// Function definitions.
    pub funcs: Vec<FuncDecl>,
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDecl {
    /// Struct tag name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<VarDecl>,
    /// Location of the `struct` keyword.
    pub span: Span,
}

/// Surface-level types. Arrays are carried on the declarator
/// ([`VarDecl::array_dims`]), mirroring C.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `void` (function return type only)
    Void,
    /// `lock_t` mutex cell
    Lock,
    /// `barrier_t` barrier cell
    Barrier,
    /// `cond_t` condition-variable cell
    Cond,
    /// `struct S`
    Struct(String),
    /// One level of pointer: `T*`
    Ptr(Box<TypeExpr>),
}

impl TypeExpr {
    /// Wrap this type in `depth` pointer levels.
    pub fn wrap_ptr(self, depth: usize) -> TypeExpr {
        let mut t = self;
        for _ in 0..depth {
            t = TypeExpr::Ptr(Box::new(t));
        }
        t
    }
}

/// A variable declaration: used for globals, locals, parameters, and struct
/// fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Declared name.
    pub name: String,
    /// Element type (after pointer levels are folded in).
    pub ty: TypeExpr,
    /// Array dimensions, outermost first; empty for scalars.
    pub array_dims: Vec<i64>,
    /// Optional scalar initializer (globals/locals only).
    pub init: Option<Expr>,
    /// Declaration site.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDecl {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: TypeExpr,
    /// Parameters (scalars and pointers only).
    pub params: Vec<VarDecl>,
    /// Function body.
    pub body: Vec<Stmt>,
    /// Definition site.
    pub span: Span,
}

/// Statements.
#[allow(missing_docs)] // field names (cond/body/span) are self-describing
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Local variable declaration.
    Decl(VarDecl),
    /// Expression evaluated for effect (assignment, call, ...).
    Expr(Expr),
    /// `if (cond) then else?`
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
        span: Span,
    },
    /// `while (cond) body`
    While {
        cond: Expr,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `for (init; cond; step) body` — any clause may be absent.
    For {
        init: Option<Box<Expr>>,
        cond: Option<Box<Expr>>,
        step: Option<Box<Expr>>,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `return expr?;`
    Return(Option<Expr>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// `{ ... }` nested scope.
    Block(Vec<Stmt>, Span),
}

/// Binary operators.
#[allow(missing_docs)] // standard C operators
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// Short-circuit `&&` (lowered to control flow).
    LogAnd,
    /// Short-circuit `||` (lowered to control flow).
    LogOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical not `!`.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Variable reference.
    Var(String, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Assignment `lhs = rhs` (an expression, as in C).
    Assign(Box<Expr>, Box<Expr>, Span),
    /// `++` (`BinOp::Add`) or `--` (`BinOp::Sub`), prefix or postfix, on
    /// an lvalue whose address is computed once. Its value is the *new*
    /// value in both forms.
    IncDec(BinOp, Box<Expr>, Span),
    /// Pointer dereference `*e`.
    Deref(Box<Expr>, Span),
    /// Address-of `&lvalue`.
    AddrOf(Box<Expr>, Span),
    /// Array indexing `base[idx]`.
    Index(Box<Expr>, Box<Expr>, Span),
    /// Struct field access `base.field`.
    Field(Box<Expr>, String, Span),
    /// Struct field through pointer `base->field`.
    Arrow(Box<Expr>, String, Span),
    /// Function call; `callee` may be a name or a function-pointer expression.
    Call {
        /// The called expression (a name or function-pointer value).
        callee: Box<Expr>,
        /// Argument expressions, in order.
        args: Vec<Expr>,
        /// Call site.
        span: Span,
    },
}

impl Expr {
    /// Source location of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Var(_, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Assign(_, _, s)
            | Expr::IncDec(_, _, s)
            | Expr::Deref(_, s)
            | Expr::AddrOf(_, s)
            | Expr::Index(_, _, s)
            | Expr::Field(_, _, s)
            | Expr::Arrow(_, _, s)
            | Expr::Call { span: s, .. } => *s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_ptr_builds_nested_pointers() {
        let t = TypeExpr::Int.wrap_ptr(2);
        assert_eq!(
            t,
            TypeExpr::Ptr(Box::new(TypeExpr::Ptr(Box::new(TypeExpr::Int))))
        );
    }

    #[test]
    fn expr_span_is_recoverable() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Int(1, Span::new(1, 1))),
            Box::new(Expr::Int(2, Span::new(1, 5))),
            Span::new(1, 3),
        );
        assert_eq!(e.span(), Span::new(1, 3));
    }
}
