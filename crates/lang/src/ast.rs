//! Abstract syntax of PSKETCH programs.

use crate::error::Span;
use crate::regen::Regex;
use std::fmt;

/// A type in the surface language.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub enum Type {
    /// No value (function returns only).
    Void,
    /// Fixed-width signed integer. `Object` is an alias for `Int`
    /// (payload values are opaque integers).
    Int,
    /// Boolean; `bit` is an alias.
    Bool,
    /// Nullable pointer to a struct instance.
    Ref(String),
    /// Fixed-length array.
    Array(Box<Type>, usize),
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bit"),
            Type::Ref(s) => write!(f, "{s}"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
    /// Cast a bit-array slice to an int (element 0 is the LSB).
    BitsToInt,
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (constant divisors only)
    Div,
    /// `%` (constant divisors only)
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// True for `==`/`!=`, which also apply to pointers and booleans.
    pub fn is_equality(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne)
    }

    /// True for operators producing booleans.
    pub fn is_boolean_result(self) -> bool {
        !matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }

    /// Surface spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Expressions.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// The null pointer.
    Null(Span),
    /// A bit-array literal from a string like `"1100"`; index 0 is the
    /// leftmost character.
    BitArray(Vec<bool>, Span),
    /// Variable reference.
    Var(String, Span),
    /// Field selection `e.f`.
    Field(Box<Expr>, String, Span),
    /// Array indexing `a[i]`.
    Index(Box<Expr>, Box<Expr>, Span),
    /// Array slice `a[start::len]`; `len` is a compile-time constant.
    Slice(Box<Expr>, Box<Expr>, usize, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Function or builtin call.
    Call(String, Vec<Expr>, Span),
    /// Allocation `new S(args…)`; arguments initialize the first
    /// fields of `S` in declaration order.
    New(String, Vec<Expr>, Span),
    /// A primitive hole `??` / `??(w)` with optional explicit bit width.
    Hole(Option<u32>, Span),
    /// A regular-expression expression generator `{| re |}`.
    Gen(Regex, Span),
    /// INTERNAL (produced by desugaring, never by the parser): a
    /// reference to allocated hole `id` with the given domain size; the
    /// expression's value is the hole's chosen integer in `0..domain`.
    HoleRef(u32, u64, Span),
    /// INTERNAL (produced by desugaring): hole `id` selects one of the
    /// alternative subexpressions.
    Choice(u32, Vec<Expr>, Span),
}

impl Expr {
    /// The source location of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Bool(_, s)
            | Expr::Null(s)
            | Expr::BitArray(_, s)
            | Expr::Var(_, s)
            | Expr::Field(_, _, s)
            | Expr::Index(_, _, s)
            | Expr::Slice(_, _, _, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Call(_, _, s)
            | Expr::New(_, _, s)
            | Expr::Hole(_, s)
            | Expr::Gen(_, s)
            | Expr::HoleRef(_, _, s)
            | Expr::Choice(_, _, s) => *s,
        }
    }

    /// True when the expression is a syntactically valid assignment
    /// target (variable, field chain, array element/slice, or a
    /// generator that may expand to one).
    pub fn is_lvalue(&self) -> bool {
        match self {
            Expr::Var(..) | Expr::Field(..) | Expr::Index(..) | Expr::Slice(..) | Expr::Gen(..) => {
                true
            }
            Expr::Choice(_, alts, _) => alts.iter().all(Expr::is_lvalue),
            _ => false,
        }
    }
}

/// Statements.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// Local variable declaration with optional initializer.
    Decl(Type, String, Option<Expr>, Span),
    /// Assignment `lhs = rhs`.
    Assign(Expr, Expr, Span),
    /// Conditional.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>, Span),
    /// Loop, unrolled to a bound during lowering.
    While(Expr, Box<Stmt>, Span),
    /// Return from the enclosing function.
    Return(Option<Expr>, Span),
    /// Correctness assertion.
    Assert(Expr, Span),
    /// Statement sequence `{ … }`.
    Block(Vec<Stmt>),
    /// Expression evaluated for effect (a call).
    Expr(Expr, Span),
    /// `atomic { … }` or conditional `atomic (cond) { … }`.
    Atomic(Option<Expr>, Box<Stmt>, Span),
    /// `reorder { … }`: the synthesizer picks a permutation of the
    /// child statements.
    Reorder(Vec<Stmt>, Span),
    /// `fork (i; n) { … }`: spawn `n` threads running the body.
    Fork(String, Expr, Box<Stmt>, Span),
    /// `repeat (n) s`: synthesis-time replication with fresh holes;
    /// `n` may itself be a hole (bounded by configuration).
    Repeat(Expr, Box<Stmt>, Span),
}

impl Stmt {
    /// The source location of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl(_, _, _, s)
            | Stmt::Assign(_, _, s)
            | Stmt::If(_, _, _, s)
            | Stmt::While(_, _, s)
            | Stmt::Return(_, s)
            | Stmt::Assert(_, s)
            | Stmt::Expr(_, s)
            | Stmt::Atomic(_, _, s)
            | Stmt::Reorder(_, s)
            | Stmt::Fork(_, _, _, s)
            | Stmt::Repeat(_, _, s) => *s,
            Stmt::Block(ss) => ss.first().map(Stmt::span).unwrap_or_default(),
        }
    }
}

/// A struct (record) declaration. Instances live on the bounded heap
/// and are always accessed through `Ref` pointers.
#[derive(Clone, PartialEq, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Fields in declaration order: (type, name, optional initializer
    /// constant).
    pub fields: Vec<Field>,
    /// Declaration site.
    pub span: Span,
}

/// A field of a struct.
#[derive(Clone, PartialEq, Debug)]
pub struct Field {
    /// Field type (int, bool or ref; arrays not allowed in structs).
    pub ty: Type,
    /// Field name.
    pub name: String,
    /// Default value assigned by `new` (constant expression).
    pub init: Option<Expr>,
}

/// A function parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
}

/// A function definition.
#[derive(Clone, PartialEq, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body block.
    pub body: Stmt,
    /// `implements spec`: the sequential specification this function
    /// must be behaviourally equivalent to.
    pub implements: Option<String>,
    /// Whether this is the `harness` entry point.
    pub is_harness: bool,
    /// `generator` functions are inlined with *fresh* holes at every
    /// call site (Sketch semantics); ordinary functions share their
    /// holes across call sites.
    pub is_generator: bool,
    /// Declaration site.
    pub span: Span,
}

/// A global variable declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct GlobalDef {
    /// Variable type.
    pub ty: Type,
    /// Variable name.
    pub name: String,
    /// Optional initializer (evaluated once, before the harness).
    pub init: Option<Expr>,
    /// Declaration site.
    pub span: Span,
}

/// A complete parsed program.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// Struct declarations.
    pub structs: Vec<StructDef>,
    /// Global variables.
    pub globals: Vec<GlobalDef>,
    /// Functions (including the harness).
    pub functions: Vec<FnDef>,
}

impl Program {
    /// Finds a struct by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&FnDef> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The unique `harness` function.
    pub fn harness(&self) -> Option<&FnDef> {
        self.functions.iter().find(|f| f.is_harness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::Array(Box::new(Type::Bool), 8).to_string(), "bit[8]");
        assert_eq!(Type::Ref("Node".into()).to_string(), "Node");
    }

    #[test]
    fn lvalue_classification() {
        let s = Span::default();
        assert!(Expr::Var("x".into(), s).is_lvalue());
        assert!(Expr::Field(Box::new(Expr::Var("x".into(), s)), "f".into(), s).is_lvalue());
        assert!(!Expr::Int(3, s).is_lvalue());
        assert!(!Expr::Call("f".into(), vec![], s).is_lvalue());
    }

    #[test]
    fn binop_props() {
        assert!(BinOp::Eq.is_equality());
        assert!(!BinOp::Lt.is_equality());
        assert!(BinOp::Lt.is_boolean_result());
        assert!(!BinOp::Add.is_boolean_result());
        assert_eq!(BinOp::Le.spelling(), "<=");
    }
}
