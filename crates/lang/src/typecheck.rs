//! Type checking and name resolution.
//!
//! The type system is deliberately small: `int` (fixed-width signed),
//! `bit`/`bool` (freely inter-coercible with `int`, matching the
//! paper's sketches which mix `boolean taken = 1` styles), nullable
//! struct references, and fixed-length arrays. The checker is reused by
//! the desugaring phase (`psketch-ir`) to filter ill-typed
//! regular-expression generator alternatives, so [`Scope`] and
//! [`infer_expr`] are public.

use crate::ast::*;
use crate::error::{Phase, SourceError, SourceResult, Span};
use std::collections::HashMap;

/// Global typing context: structs, globals and function signatures.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    structs: HashMap<String, StructDef>,
    globals: HashMap<String, Type>,
    fns: HashMap<String, (Vec<Type>, Type)>,
}

impl TypeEnv {
    /// Builds the environment from a program's declarations.
    ///
    /// # Errors
    ///
    /// Reports duplicate declarations and ill-formed struct fields.
    pub fn from_program(p: &Program) -> SourceResult<TypeEnv> {
        let mut env = TypeEnv::default();
        for s in &p.structs {
            if env.structs.insert(s.name.clone(), s.clone()).is_some() {
                return Err(terr(s.span, format!("duplicate struct {}", s.name)));
            }
        }
        for s in &p.structs {
            for f in &s.fields {
                match &f.ty {
                    Type::Int | Type::Bool => {}
                    Type::Ref(t) if env.structs.contains_key(t) => {}
                    Type::Ref(t) => {
                        return Err(terr(
                            s.span,
                            format!("unknown struct {t} in field {}", f.name),
                        ))
                    }
                    other => {
                        return Err(terr(
                            s.span,
                            format!("field {} has unsupported type {other}", f.name),
                        ))
                    }
                }
            }
        }
        for g in &p.globals {
            env.check_type(&g.ty, g.span)?;
            if env.globals.insert(g.name.clone(), g.ty.clone()).is_some() {
                return Err(terr(g.span, format!("duplicate global {}", g.name)));
            }
        }
        for f in &p.functions {
            env.check_type(&f.ret, f.span)?;
            for param in &f.params {
                env.check_type(&param.ty, f.span)?;
            }
            let sig = (
                f.params.iter().map(|q| q.ty.clone()).collect(),
                f.ret.clone(),
            );
            if env.fns.insert(f.name.clone(), sig).is_some() {
                return Err(terr(f.span, format!("duplicate function {}", f.name)));
            }
        }
        Ok(env)
    }

    fn check_type(&self, ty: &Type, span: Span) -> SourceResult<()> {
        match ty {
            Type::Ref(name) if !self.structs.contains_key(name) => {
                Err(terr(span, format!("unknown type {name}")))
            }
            Type::Array(inner, _) => self.check_type(inner, span),
            _ => Ok(()),
        }
    }

    /// Looks up a struct definition.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.get(name)
    }

    /// Looks up a global's type.
    pub fn global(&self, name: &str) -> Option<&Type> {
        self.globals.get(name)
    }

    /// Looks up a function signature `(params, ret)`.
    pub fn function(&self, name: &str) -> Option<&(Vec<Type>, Type)> {
        self.fns.get(name)
    }
}

/// A lexical scope stack over a [`TypeEnv`].
#[derive(Debug, Clone)]
pub struct Scope<'e> {
    env: &'e TypeEnv,
    frames: Vec<HashMap<String, Type>>,
}

impl<'e> Scope<'e> {
    /// A fresh scope with one (function-level) frame.
    pub fn new(env: &'e TypeEnv) -> Scope<'e> {
        Scope {
            env,
            frames: vec![HashMap::new()],
        }
    }

    /// The underlying environment.
    pub fn env(&self) -> &'e TypeEnv {
        self.env
    }

    /// Enters a nested block.
    pub fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    /// Leaves a nested block.
    pub fn pop(&mut self) {
        self.frames.pop();
    }

    /// Declares a local in the innermost frame.
    pub fn declare(&mut self, name: &str, ty: Type) {
        self.frames
            .last_mut()
            .expect("scope has a frame")
            .insert(name.to_string(), ty);
    }

    /// Resolves a name: innermost local first, then globals.
    pub fn lookup(&self, name: &str) -> Option<&Type> {
        for frame in self.frames.iter().rev() {
            if let Some(t) = frame.get(name) {
                return Some(t);
            }
        }
        self.env.globals.get(name)
    }
}

fn terr(span: Span, msg: impl Into<String>) -> SourceError {
    SourceError::new(Phase::Type, span, msg)
}

/// Can a value of `from` be used where `to` is expected?
/// `int` and `bit` inter-coerce; `null` fits any reference.
pub fn assignable(from: &Type, to: &Type) -> bool {
    match (from, to) {
        (a, b) if a == b => true,
        (Type::Int, Type::Bool) | (Type::Bool, Type::Int) => true,
        _ => false,
    }
}

/// Infers the type of `e` in `scope`.
///
/// `expected` guides holes and generators: a bare `??` takes the
/// expected type (defaulting to `int`); a generator keeps only the
/// alternatives whose parsed expression fits.
///
/// # Errors
///
/// Returns a type error describing the first inconsistency.
pub fn infer_expr(scope: &Scope<'_>, e: &Expr, expected: Option<&Type>) -> SourceResult<Type> {
    let ty = match e {
        Expr::Int(_, _) => Type::Int,
        Expr::Bool(_, _) => Type::Bool,
        Expr::Null(span) => match expected {
            Some(t @ Type::Ref(_)) => t.clone(),
            None => {
                return Err(terr(
                    *span,
                    "cannot infer the reference type of 'null' here",
                ))
            }
            Some(other) => return Err(terr(*span, format!("null used where {other} expected"))),
        },
        Expr::BitArray(bits, _) => Type::Array(Box::new(Type::Bool), bits.len()),
        Expr::Var(name, span) => scope
            .lookup(name)
            .cloned()
            .ok_or_else(|| terr(*span, format!("unknown variable {name}")))?,
        Expr::Field(base, fname, span) => {
            let bt = infer_expr(scope, base, None)?;
            let Type::Ref(sname) = &bt else {
                return Err(terr(*span, format!("field access on non-struct type {bt}")));
            };
            let sd = scope
                .env
                .struct_def(sname)
                .ok_or_else(|| terr(*span, format!("unknown struct {sname}")))?;
            sd.fields
                .iter()
                .find(|f| f.name == *fname)
                .map(|f| f.ty.clone())
                .ok_or_else(|| terr(*span, format!("struct {sname} has no field {fname}")))?
        }
        Expr::Index(base, ix, span) => {
            let bt = infer_expr(scope, base, None)?;
            let it = infer_expr(scope, ix, Some(&Type::Int))?;
            if !assignable(&it, &Type::Int) {
                return Err(terr(*span, format!("array index has type {it}, not int")));
            }
            match bt {
                Type::Array(inner, _) => *inner,
                other => return Err(terr(*span, format!("indexing non-array type {other}"))),
            }
        }
        Expr::Slice(base, start, len, span) => {
            let bt = infer_expr(scope, base, None)?;
            let st = infer_expr(scope, start, Some(&Type::Int))?;
            if !assignable(&st, &Type::Int) {
                return Err(terr(*span, format!("slice start has type {st}, not int")));
            }
            match bt {
                Type::Array(inner, n) => {
                    if *len > n {
                        return Err(terr(
                            *span,
                            format!("slice of length {len} from array of length {n}"),
                        ));
                    }
                    Type::Array(inner, *len)
                }
                other => return Err(terr(*span, format!("slicing non-array type {other}"))),
            }
        }
        Expr::Unary(op, inner, span) => {
            let it = infer_expr(
                scope,
                inner,
                match op {
                    UnOp::Not => Some(&Type::Bool),
                    UnOp::Neg => Some(&Type::Int),
                    UnOp::BitsToInt => None,
                },
            )?;
            match op {
                UnOp::Not => {
                    if !assignable(&it, &Type::Bool) {
                        return Err(terr(*span, format!("'!' applied to {it}")));
                    }
                    Type::Bool
                }
                UnOp::Neg => {
                    if !assignable(&it, &Type::Int) {
                        return Err(terr(*span, format!("'-' applied to {it}")));
                    }
                    Type::Int
                }
                UnOp::BitsToInt => match it {
                    Type::Array(inner, _) if *inner == Type::Bool => Type::Int,
                    other => return Err(terr(*span, format!("(int) cast applied to {other}"))),
                },
            }
        }
        Expr::Binary(op, l, r, span) => {
            if op.is_equality() {
                // Try to type one side to constrain the other (for null).
                let lt = infer_expr(scope, l, None).ok();
                let rt = match &lt {
                    Some(t) => infer_expr(scope, r, Some(t))?,
                    None => infer_expr(scope, r, None)?,
                };
                let lt = match lt {
                    Some(t) => t,
                    None => infer_expr(scope, l, Some(&rt))?,
                };
                let comparable = assignable(&lt, &rt) || assignable(&rt, &lt);
                if !comparable {
                    return Err(terr(*span, format!("cannot compare {lt} with {rt}")));
                }
                Type::Bool
            } else {
                let operand = match op {
                    BinOp::And | BinOp::Or => Type::Bool,
                    _ => Type::Int,
                };
                let lt = infer_expr(scope, l, Some(&operand))?;
                let rt = infer_expr(scope, r, Some(&operand))?;
                if !assignable(&lt, &operand) || !assignable(&rt, &operand) {
                    return Err(terr(
                        *span,
                        format!("operator '{}' applied to {lt} and {rt}", op.spelling()),
                    ));
                }
                if op.is_boolean_result() {
                    Type::Bool
                } else {
                    Type::Int
                }
            }
        }
        Expr::Call(name, args, span) => infer_call(scope, name, args, *span)?,
        Expr::New(sname, args, span) => {
            let sd = scope
                .env
                .struct_def(sname)
                .ok_or_else(|| terr(*span, format!("unknown struct {sname}")))?
                .clone();
            if args.len() > sd.fields.len() {
                return Err(terr(
                    *span,
                    format!(
                        "new {sname}: {} arguments for {} fields",
                        args.len(),
                        sd.fields.len()
                    ),
                ));
            }
            for (arg, field) in args.iter().zip(&sd.fields) {
                let at = infer_expr(scope, arg, Some(&field.ty))?;
                if !assignable(&at, &field.ty) {
                    return Err(terr(
                        arg.span(),
                        format!(
                            "new {sname}: argument of type {at} for field {} of type {}",
                            field.name, field.ty
                        ),
                    ));
                }
            }
            Type::Ref(sname.clone())
        }
        Expr::Hole(_, _) => match expected {
            Some(Type::Bool) => Type::Bool,
            _ => Type::Int,
        },
        Expr::HoleRef(_, _, _) => match expected {
            Some(Type::Bool) => Type::Bool,
            _ => Type::Int,
        },
        Expr::Choice(_, alts, span) => {
            let mut ty = None;
            for a in alts {
                let at = infer_expr(scope, a, expected)?;
                ty.get_or_insert(at);
            }
            ty.ok_or_else(|| terr(*span, "empty choice"))?
        }
        Expr::Gen(re, span) => {
            // At least one alternative must parse and typecheck.
            let alts = generator_alternatives(scope, re, expected, *span)?;
            match expected {
                Some(t) => t.clone(),
                None => infer_expr(scope, &alts[0], None)?,
            }
        }
    };
    Ok(ty)
}

/// Enumerates, parses and type-filters the alternatives of a generator.
///
/// # Errors
///
/// Fails when the language is too large (cap 4096) or no alternative
/// is a well-typed expression of the expected type.
pub fn generator_alternatives(
    scope: &Scope<'_>,
    re: &crate::regen::Regex,
    expected: Option<&Type>,
    span: Span,
) -> SourceResult<Vec<Expr>> {
    let strings = re
        .enumerate(crate::regen::GENERATOR_CAP)
        .map_err(|e| terr(span, e.to_string()))?;
    let mut alts = Vec::new();
    for toks in strings {
        let tokens: Vec<crate::token::Token> = toks
            .into_iter()
            .map(|tok| crate::token::Token { tok, span })
            .collect();
        // The paper's `(!)? (a == b | …)` idiom: a leading `!` negates
        // the *whole* alternative (regex grouping cannot emit literal
        // parentheses, and `!a == b` would otherwise parse as
        // `(!a) == b`).
        let parsed = match tokens.split_first() {
            Some((first, rest)) if first.tok == crate::token::Tok::Bang && !rest.is_empty() => {
                parse_expr_tokens(rest)
                    .map(|e| Expr::Unary(UnOp::Not, Box::new(e), span))
                    .or_else(|_| parse_expr_tokens(&tokens))
            }
            _ => parse_expr_tokens(&tokens),
        };
        let Ok(expr) = parsed else {
            continue;
        };
        let fits = match expected {
            Some(t) => matches!(infer_expr(scope, &expr, Some(t)), Ok(at) if assignable(&at, t)),
            None => infer_expr(scope, &expr, None).is_ok(),
        };
        if fits {
            alts.push(expr);
        }
    }
    if alts.is_empty() {
        return Err(terr(
            span,
            format!(
                "generator {{| {re} |}} has no well-typed alternative{}",
                match expected {
                    Some(t) => format!(" of type {t}"),
                    None => String::new(),
                }
            ),
        ));
    }
    Ok(alts)
}

/// Parses a complete token slice as a single expression.
///
/// # Errors
///
/// Fails if the tokens are not exactly one expression.
pub fn parse_expr_tokens(tokens: &[crate::token::Token]) -> SourceResult<Expr> {
    // Wrap in a statement so we can reuse the program parser:
    // `void f() { return <expr>; }` — cheap and keeps one grammar.
    let mut text = String::from("void genalt() { return ");
    for t in tokens {
        text.push_str(&t.tok.spelling());
        text.push(' ');
    }
    text.push_str("; }");
    let toks = crate::lexer::lex(&text)?;
    let p = crate::parser::parse(&toks)?;
    let Stmt::Block(ss) = &p.functions[0].body else {
        unreachable!()
    };
    match &ss[..] {
        [Stmt::Return(Some(e), _)] => Ok(e.clone()),
        _ => Err(terr(Span::default(), "not a single expression")),
    }
}

/// Builtin signature lookup. Builtins are type-checked structurally
/// (e.g. `AtomicSwap`'s location and value must agree).
fn infer_call(scope: &Scope<'_>, name: &str, args: &[Expr], span: Span) -> SourceResult<Type> {
    match name {
        "AtomicSwap" | "atomicSwap" => {
            if args.len() != 2 {
                return Err(terr(span, "AtomicSwap takes (location, value)"));
            }
            if !args[0].is_lvalue() {
                return Err(terr(span, "AtomicSwap location must be assignable"));
            }
            let lt = infer_expr(scope, &args[0], None)?;
            let vt = infer_expr(scope, &args[1], Some(&lt))?;
            if !assignable(&vt, &lt) {
                return Err(terr(
                    span,
                    format!("AtomicSwap of {vt} into location of type {lt}"),
                ));
            }
            Ok(lt)
        }
        "CAS" => {
            if args.len() != 3 {
                return Err(terr(span, "CAS takes (location, old, new)"));
            }
            if !args[0].is_lvalue() {
                return Err(terr(span, "CAS location must be assignable"));
            }
            let lt = infer_expr(scope, &args[0], None)?;
            for a in &args[1..] {
                let at = infer_expr(scope, a, Some(&lt))?;
                if !assignable(&at, &lt) {
                    return Err(terr(
                        span,
                        format!("CAS operand of type {at}, location {lt}"),
                    ));
                }
            }
            Ok(Type::Bool)
        }
        "AtomicReadAndDecr" | "AtomicReadAndIncr" => {
            if args.len() != 1 || !args[0].is_lvalue() {
                return Err(terr(
                    span,
                    format!("{name} takes one assignable int location"),
                ));
            }
            let lt = infer_expr(scope, &args[0], Some(&Type::Int))?;
            if !assignable(&lt, &Type::Int) {
                return Err(terr(span, format!("{name} on non-int location {lt}")));
            }
            Ok(Type::Int)
        }
        "pid" | "nthreads" => {
            if !args.is_empty() {
                return Err(terr(span, format!("{name}() takes no arguments")));
            }
            Ok(Type::Int)
        }
        _ => {
            let (params, ret) = scope
                .env
                .function(name)
                .ok_or_else(|| terr(span, format!("unknown function {name}")))?
                .clone();
            if params.len() != args.len() {
                return Err(terr(
                    span,
                    format!(
                        "{name} expects {} argument(s), got {}",
                        params.len(),
                        args.len()
                    ),
                ));
            }
            for (a, pt) in args.iter().zip(&params) {
                let at = infer_expr(scope, a, Some(pt))?;
                if !assignable(&at, pt) {
                    return Err(terr(
                        a.span(),
                        format!("argument of type {at} where {pt} expected"),
                    ));
                }
            }
            Ok(ret)
        }
    }
}

/// Names that cannot be used for user functions.
pub const BUILTINS: &[&str] = &[
    "AtomicSwap",
    "atomicSwap",
    "CAS",
    "AtomicReadAndDecr",
    "AtomicReadAndIncr",
    "pid",
    "nthreads",
];

/// Type-checks a whole program.
///
/// # Errors
///
/// Returns the first type error found.
pub fn typecheck(p: &Program) -> SourceResult<TypeEnv> {
    let env = TypeEnv::from_program(p)?;
    for f in &p.functions {
        if BUILTINS.contains(&f.name.as_str()) {
            return Err(terr(f.span, format!("{} is a builtin", f.name)));
        }
        let mut scope = Scope::new(&env);
        for param in &f.params {
            scope.declare(&param.name, param.ty.clone());
        }
        check_stmt(&mut scope, &f.body, &f.ret)?;
        if let Some(spec) = &f.implements {
            let (sp, sr) = env
                .function(spec)
                .ok_or_else(|| terr(f.span, format!("unknown spec function {spec}")))?;
            let fp: Vec<Type> = f.params.iter().map(|q| q.ty.clone()).collect();
            if *sp != fp || *sr != f.ret {
                return Err(terr(
                    f.span,
                    format!("{} and its spec {spec} have different signatures", f.name),
                ));
            }
        }
    }
    if p.functions.iter().filter(|f| f.is_harness).count() > 1 {
        return Err(terr(Span::default(), "multiple harness functions"));
    }
    for g in &p.globals {
        if let Some(init) = &g.init {
            let scope = Scope::new(&env);
            let t = infer_expr(&scope, init, Some(&g.ty))?;
            if !assignable(&t, &g.ty) {
                return Err(terr(
                    g.span,
                    format!("global {} of type {} initialized with {t}", g.name, g.ty),
                ));
            }
        }
    }
    Ok(env)
}

fn check_stmt(scope: &mut Scope<'_>, s: &Stmt, ret: &Type) -> SourceResult<()> {
    match s {
        Stmt::Block(ss) => {
            scope.push();
            for s in ss {
                check_stmt(scope, s, ret)?;
            }
            scope.pop();
            Ok(())
        }
        Stmt::Decl(ty, name, init, span) => {
            scope.env().check_type(ty, *span)?;
            if let Some(e) = init {
                let t = infer_expr(scope, e, Some(ty))?;
                if !assignable(&t, ty) {
                    return Err(terr(
                        *span,
                        format!("declaring {name}: {ty} initialized with {t}"),
                    ));
                }
            }
            scope.declare(name, ty.clone());
            Ok(())
        }
        Stmt::Assign(lhs, rhs, span) => {
            if let Expr::Gen(re, gspan) = lhs {
                // L-value generator: at least one alternative must be a
                // typeable l-value; pairing with the rhs happens during
                // desugaring.
                let alts = generator_alternatives(scope, re, None, *gspan)?;
                if !alts.iter().any(|a| a.is_lvalue()) {
                    return Err(terr(
                        *gspan,
                        "generator on the left of '=' has no l-value alternative",
                    ));
                }
                infer_expr(scope, rhs, None)?;
                return Ok(());
            }
            let lt = infer_expr(scope, lhs, None)?;
            let rt = infer_expr(scope, rhs, Some(&lt))?;
            if !assignable(&rt, &lt) {
                return Err(terr(
                    *span,
                    format!("assigning {rt} to location of type {lt}"),
                ));
            }
            Ok(())
        }
        Stmt::If(c, t, e, span) => {
            let ct = infer_expr(scope, c, Some(&Type::Bool))?;
            if !assignable(&ct, &Type::Bool) {
                return Err(terr(*span, format!("if condition has type {ct}")));
            }
            check_stmt(scope, t, ret)?;
            if let Some(e) = e {
                check_stmt(scope, e, ret)?;
            }
            Ok(())
        }
        Stmt::While(c, body, span) => {
            let ct = infer_expr(scope, c, Some(&Type::Bool))?;
            if !assignable(&ct, &Type::Bool) {
                return Err(terr(*span, format!("while condition has type {ct}")));
            }
            check_stmt(scope, body, ret)
        }
        Stmt::Return(e, span) => match (e, ret) {
            (None, Type::Void) => Ok(()),
            (None, other) => Err(terr(*span, format!("empty return in {other} function"))),
            (Some(_), Type::Void) => Err(terr(*span, "returning a value from a void function")),
            (Some(e), other) => {
                let t = infer_expr(scope, e, Some(other))?;
                if !assignable(&t, other) {
                    return Err(terr(*span, format!("returning {t} from {other} function")));
                }
                Ok(())
            }
        },
        Stmt::Assert(e, span) => {
            let t = infer_expr(scope, e, Some(&Type::Bool))?;
            if !assignable(&t, &Type::Bool) {
                return Err(terr(*span, format!("assert condition has type {t}")));
            }
            Ok(())
        }
        Stmt::Expr(e, span) => match e {
            Expr::Call(..) => {
                infer_expr(scope, e, None)?;
                Ok(())
            }
            _ => Err(terr(*span, "expression statement must be a call")),
        },
        Stmt::Atomic(cond, body, span) => {
            if let Some(c) = cond {
                let t = infer_expr(scope, c, Some(&Type::Bool))?;
                if !assignable(&t, &Type::Bool) {
                    return Err(terr(*span, format!("atomic condition has type {t}")));
                }
            }
            check_stmt(scope, body, ret)
        }
        Stmt::Reorder(ss, _) => {
            scope.push();
            for s in ss {
                check_stmt(scope, s, ret)?;
            }
            scope.pop();
            Ok(())
        }
        Stmt::Fork(var, count, body, span) => {
            let ct = infer_expr(scope, count, Some(&Type::Int))?;
            if !assignable(&ct, &Type::Int) {
                return Err(terr(*span, format!("fork count has type {ct}")));
            }
            scope.push();
            scope.declare(var, Type::Int);
            check_stmt(scope, body, ret)?;
            scope.pop();
            Ok(())
        }
        Stmt::Repeat(n, body, span) => {
            let nt = infer_expr(scope, n, Some(&Type::Int))?;
            if !assignable(&nt, &Type::Int) {
                return Err(terr(*span, format!("repeat count has type {nt}")));
            }
            check_stmt(scope, body, ret)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn ok(src: &str) {
        let p = parse_program(src).unwrap();
        typecheck(&p).unwrap_or_else(|e| panic!("{e} in {src:?}"));
    }

    fn bad(src: &str) -> String {
        let p = parse_program(src).unwrap();
        typecheck(&p).unwrap_err().to_string()
    }

    #[test]
    fn accepts_basic_programs() {
        ok("int inc(int x) { return x + 1; } harness void main() { assert inc(2) == 3; }");
        ok("struct N { int v; N next; } N head; void f() { head = new N(1); head.next = null; }");
        ok("void f() { int x = true; bit b = 3; while (x) { x = x - 1; } }");
    }

    #[test]
    fn accepts_builtins() {
        ok("struct E { int taken; } E e; void f() { int old = AtomicSwap(e.taken, 1); }");
        ok("struct E { E next; } E a; E b; void f() { bit c = CAS(a.next, null, b); }");
        ok("int count; void f() { int cv = AtomicReadAndDecr(count); assert pid() < nthreads(); }");
    }

    #[test]
    fn accepts_sketch_constructs() {
        ok("int t; void f() { int x = ??; reorder { t = 1; t = 2; } repeat (2) { t = ??; } }");
        ok("struct E { E next; int taken; } E tail; void f() { E tmp = {| tail(.next)? | null |}; }");
    }

    #[test]
    fn rejects_type_errors() {
        assert!(bad("void f() { int x = y; }").contains("unknown variable"));
        assert!(bad("struct N { int v; } N n; void f() { n = 3; }").contains("assigning"));
        assert!(bad("void f() { assert null == null; }").contains("infer"));
        assert!(bad("int f() { return; }").contains("empty return"));
        assert!(bad("void f() { 1 + 1; }").contains("must be a call"));
        assert!(bad("void f() { f(1); }").contains("argument"));
        assert!(bad("void g() { h(); }").contains("unknown function"));
        assert!(bad("struct N { M x; }").contains("unknown struct"));
    }

    #[test]
    fn rejects_bad_generator() {
        // No alternative is well-typed: `q` undefined.
        assert!(bad("void f() { int x = {| q | r |}; }").contains("no well-typed"));
    }

    #[test]
    fn generator_lvalue_filtering() {
        ok("struct E { E next; } E tail; E tmp;
            void f() { {| tail(.next)? | null |} = tmp; }");
        assert!(bad("void f() { {| 1 | 2 |} = 3; }").contains("l-value"));
    }

    #[test]
    fn null_needs_ref_context() {
        ok("struct N { int v; } N g; void f() { if (g == null) { g = null; } }");
        assert!(bad("void f() { int x = 3; assert x == null; }").contains("null"));
    }

    #[test]
    fn atomics_structural_checks() {
        assert!(bad("void f() { int x = AtomicSwap(3, 4); }").contains("assignable"));
        assert!(
            bad("struct N { int v; } N a; void f() { int x = AtomicSwap(a.v, null); }")
                .contains("null")
        );
    }

    #[test]
    fn implements_signature_check() {
        ok("int s(int x) { return x; } int f(int x) implements s { return x; }");
        assert!(
            bad("int s(int x) { return x; } bit f(int x) implements s { return true; }")
                .contains("signatures")
        );
    }

    #[test]
    fn array_checks() {
        ok("void f() { int[4] a; a[0] = 1; int x = a[3]; int[2] b = a[1::2]; }");
        assert!(bad("void f() { int[4] a; int[8] b = a[0::8]; }").contains("slice"));
        assert!(bad("void f() { int x; int y = x[0]; }").contains("non-array"));
        ok("void f(bit[8] b) { int x = (int) b[0::2]; }");
        assert!(bad("void f() { int x = (int) 3; }").contains("cast"));
    }

    #[test]
    fn fork_declares_index() {
        ok("harness void main() { fork (i; 2) { int x = i + 1; } }");
        assert!(
            bad("harness void main() { fork (i; 2) { } assert i == 0; }")
                .contains("unknown variable")
        );
    }
}
