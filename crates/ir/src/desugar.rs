//! Desugaring of synthesis constructs (paper §7).
//!
//! Transforms a type-checked program into an equivalent one whose only
//! unknowns are `Expr::HoleRef`/`Expr::Choice` nodes tied to a
//! [`HoleTable`]:
//!
//! * `generator` functions are inlined at each call site with fresh
//!   holes (their body must be a single `return expr;`);
//! * `??`/`??(w)` allocates a constant hole;
//! * `{| re |}` enumerates its language, parses and type-filters the
//!   alternatives, and becomes a `Choice`;
//! * `reorder { s0; …; s(k-1) }` becomes the quadratic encoding
//!   (`k` domain-`k` holes, an if-chain per position, plus pairwise
//!   no-duplicate constraints) or the exponential insertion encoding;
//! * `repeat (n) s` replicates `s` with fresh holes per copy;
//!   `repeat (??) s` additionally guards copy `k` with `k < count`.
//!
//! Holes are allocated per *static site*, so later call-site inlining
//! copies `HoleRef`s and all copies share one unknown — exactly the
//! sketch semantics (every thread runs the same resolved method).

use crate::config::{Config, ReorderEncoding};
use crate::hole::{HoleId, HoleTable, SiteKind};
use psketch_lang::ast::*;
use psketch_lang::error::{Phase, SourceError, SourceResult, Span};
use psketch_lang::typecheck::{assignable, generator_alternatives, infer_expr, Scope, TypeEnv};

/// Desugars all synthesis constructs in `program`.
///
/// Returns the rewritten program (with `generator` functions removed)
/// and the hole table.
///
/// # Errors
///
/// Reports ill-formed generator functions, empty generator languages,
/// declarations directly inside `reorder`, and non-constant `repeat`
/// counts that are not holes.
pub fn desugar_program(program: &Program, config: &Config) -> SourceResult<(Program, HoleTable)> {
    // `1i64 << int_width` must be exact, and a bare `??` takes the
    // parser's `??(n)` range.
    for (what, width, max) in [
        ("int", config.int_width, 62),
        ("hole", config.hole_width, 30),
    ] {
        if !(1..=max).contains(&width) {
            return Err(derr(
                Span::default(),
                format!("{what} width {width} is outside 1..={max}"),
            ));
        }
    }
    let env = TypeEnv::from_program(program)?;
    let mut out = Program {
        structs: program.structs.clone(),
        globals: program.globals.clone(),
        functions: Vec::new(),
    };
    let mut table = HoleTable::new();
    for f in &program.functions {
        if f.is_generator {
            validate_generator_fn(f)?;
            continue;
        }
        let mut ctx = Ctx {
            env: &env,
            program,
            config,
            table: &mut table,
            scope: Scope::new(&env),
            depth: 0,
        };
        for p in &f.params {
            ctx.scope.declare(&p.name, p.ty.clone());
        }
        let body = ctx.ds_stmt(&f.body)?;
        out.functions.push(FnDef {
            body: one(body),
            ..f.clone()
        });
    }
    // A hole value means what a literal means: both are wrapped to
    // `int_width` bits, so a wider domain would alias candidates.
    for h in 0..table.num_holes() as HoleId {
        let domain = table.domain(h);
        if domain > 1 << config.int_width {
            let bits = 64 - (domain - 1).leading_zeros();
            return Err(derr(
                table.span(h),
                format!(
                    "hole of {domain} values needs {bits} bits, wider than the int width {}",
                    config.int_width
                ),
            ));
        }
    }
    Ok((out, table))
}

fn one(mut ss: Vec<Stmt>) -> Stmt {
    if ss.len() == 1 {
        ss.pop().unwrap()
    } else {
        Stmt::Block(ss)
    }
}

fn derr(span: Span, msg: impl Into<String>) -> SourceError {
    SourceError::new(Phase::Type, span, msg)
}

fn validate_generator_fn(f: &FnDef) -> SourceResult<()> {
    let ok = match &f.body {
        Stmt::Block(ss) => matches!(&ss[..], [Stmt::Return(Some(_), _)]),
        _ => false,
    };
    if !ok {
        return Err(derr(
            f.span,
            format!(
                "generator function {} must consist of a single 'return expr;'",
                f.name
            ),
        ));
    }
    Ok(())
}

struct Ctx<'a> {
    env: &'a TypeEnv,
    program: &'a Program,
    config: &'a Config,
    table: &'a mut HoleTable,
    scope: Scope<'a>,
    depth: usize,
}

impl<'a> Ctx<'a> {
    fn ds_stmt(&mut self, s: &Stmt) -> SourceResult<Vec<Stmt>> {
        Ok(match s {
            Stmt::Block(ss) => {
                self.scope.push();
                let mut out = Vec::new();
                for s in ss {
                    out.extend(self.ds_stmt(s)?);
                }
                self.scope.pop();
                vec![Stmt::Block(out)]
            }
            Stmt::Decl(ty, name, init, span) => {
                let init = match init {
                    Some(e) => Some(self.ds_expr(e, Some(ty))?),
                    None => None,
                };
                self.scope.declare(name, ty.clone());
                vec![Stmt::Decl(ty.clone(), name.clone(), init, *span)]
            }
            Stmt::Assign(lhs, rhs, span) => vec![self.ds_assign(lhs, rhs, *span)?],
            Stmt::If(c, t, e, span) => {
                let c = self.ds_expr(c, Some(&Type::Bool))?;
                let t = one(self.ds_stmt(t)?);
                let e = match e {
                    Some(e) => Some(Box::new(one(self.ds_stmt(e)?))),
                    None => None,
                };
                vec![Stmt::If(c, Box::new(t), e, *span)]
            }
            Stmt::While(c, body, span) => {
                let c = self.ds_expr(c, Some(&Type::Bool))?;
                let body = one(self.ds_stmt(body)?);
                vec![Stmt::While(c, Box::new(body), *span)]
            }
            Stmt::Return(e, span) => {
                let e = match e {
                    Some(e) => Some(self.ds_expr(e, None)?),
                    None => None,
                };
                vec![Stmt::Return(e, *span)]
            }
            Stmt::Assert(e, span) => {
                vec![Stmt::Assert(self.ds_expr(e, Some(&Type::Bool))?, *span)]
            }
            Stmt::Expr(e, span) => vec![Stmt::Expr(self.ds_expr(e, None)?, *span)],
            Stmt::Atomic(cond, body, span) => {
                let cond = match cond {
                    Some(c) => Some(self.ds_expr(c, Some(&Type::Bool))?),
                    None => None,
                };
                let body = one(self.ds_stmt(body)?);
                vec![Stmt::Atomic(cond, Box::new(body), *span)]
            }
            Stmt::Fork(v, n, body, span) => {
                let n = self.ds_expr(n, Some(&Type::Int))?;
                self.scope.push();
                self.scope.declare(v, Type::Int);
                let body = one(self.ds_stmt(body)?);
                self.scope.pop();
                vec![Stmt::Fork(v.clone(), n, Box::new(body), *span)]
            }
            Stmt::Reorder(ss, span) => self.ds_reorder(ss, *span)?,
            Stmt::Repeat(n, body, span) => self.ds_repeat(n, body, *span)?,
        })
    }

    fn ds_assign(&mut self, lhs: &Expr, rhs: &Expr, span: Span) -> SourceResult<Stmt> {
        if let Expr::Gen(re, gspan) = lhs {
            // L-value generator: keep only l-value alternatives.
            let alts: Vec<Expr> = generator_alternatives(&self.scope, re, None, *gspan)?
                .into_iter()
                .filter(Expr::is_lvalue)
                .collect();
            if alts.is_empty() {
                return Err(derr(*gspan, "generator has no l-value alternative"));
            }
            let lty = infer_expr(&self.scope, &alts[0], None)?;
            for a in &alts[1..] {
                let t = infer_expr(&self.scope, a, None)?;
                if !assignable(&t, &lty) && !assignable(&lty, &t) {
                    return Err(derr(
                        *gspan,
                        format!("l-value generator mixes incompatible types {lty} and {t}"),
                    ));
                }
            }
            let alts: SourceResult<Vec<Expr>> =
                alts.iter().map(|a| self.ds_expr_nogen(a)).collect();
            let alts = alts?;
            let site = self.table.new_site(
                SiteKind::GenChoice {
                    alts: alts.clone(),
                    lvalue: true,
                },
                *gspan,
            );
            let h = self.table.new_hole(site, alts.len() as u64, *gspan);
            let rhs = self.ds_expr(rhs, Some(&lty))?;
            return Ok(Stmt::Assign(Expr::Choice(h, alts, *gspan), rhs, span));
        }
        let lhs = self.ds_expr_nogen(lhs)?;
        let lty = infer_expr(&self.scope, &lhs, None)?;
        let rhs = self.ds_expr(rhs, Some(&lty))?;
        Ok(Stmt::Assign(lhs, rhs, span))
    }

    /// Desugars an expression that must not itself be a top-level
    /// generator (but whose subexpressions may be).
    fn ds_expr_nogen(&mut self, e: &Expr) -> SourceResult<Expr> {
        match e {
            Expr::Gen(_, span) => Err(derr(*span, "generator not allowed here")),
            other => self.ds_expr(other, None),
        }
    }

    fn ds_expr(&mut self, e: &Expr, expected: Option<&Type>) -> SourceResult<Expr> {
        Ok(match e {
            Expr::Int(..)
            | Expr::Bool(..)
            | Expr::Null(..)
            | Expr::BitArray(..)
            | Expr::Var(..)
            | Expr::HoleRef(..) => e.clone(),
            Expr::Choice(id, alts, span) => {
                let alts: SourceResult<Vec<Expr>> =
                    alts.iter().map(|a| self.ds_expr(a, expected)).collect();
                Expr::Choice(*id, alts?, *span)
            }
            Expr::Field(b, f, span) => {
                Expr::Field(Box::new(self.ds_expr_nogen(b)?), f.clone(), *span)
            }
            Expr::Index(b, i, span) => Expr::Index(
                Box::new(self.ds_expr_nogen(b)?),
                Box::new(self.ds_expr(i, Some(&Type::Int))?),
                *span,
            ),
            Expr::Slice(b, s, l, span) => Expr::Slice(
                Box::new(self.ds_expr_nogen(b)?),
                Box::new(self.ds_expr(s, Some(&Type::Int))?),
                *l,
                *span,
            ),
            Expr::Unary(op, a, span) => {
                let inner_expected = match op {
                    UnOp::Not => Some(Type::Bool),
                    UnOp::Neg => Some(Type::Int),
                    UnOp::BitsToInt => None,
                };
                Expr::Unary(
                    *op,
                    Box::new(self.ds_expr(a, inner_expected.as_ref())?),
                    *span,
                )
            }
            Expr::Binary(op, l, r, span) => {
                let (le, re2) = match op {
                    _ if op.is_equality() => {
                        // Type one side to guide the other (null, holes).
                        match infer_expr(&self.scope, l, None) {
                            Ok(lt) => (self.ds_expr(l, Some(&lt))?, self.ds_expr(r, Some(&lt))?),
                            Err(_) => {
                                let rt = infer_expr(&self.scope, r, None)?;
                                (self.ds_expr(l, Some(&rt))?, self.ds_expr(r, Some(&rt))?)
                            }
                        }
                    }
                    BinOp::And | BinOp::Or => (
                        self.ds_expr(l, Some(&Type::Bool))?,
                        self.ds_expr(r, Some(&Type::Bool))?,
                    ),
                    _ => (
                        self.ds_expr(l, Some(&Type::Int))?,
                        self.ds_expr(r, Some(&Type::Int))?,
                    ),
                };
                Expr::Binary(*op, Box::new(le), Box::new(re2), *span)
            }
            Expr::New(sname, args, span) => {
                let sd = self
                    .env
                    .struct_def(sname)
                    .ok_or_else(|| derr(*span, format!("unknown struct {sname}")))?
                    .clone();
                let args: SourceResult<Vec<Expr>> = args
                    .iter()
                    .zip(&sd.fields)
                    .map(|(a, f)| self.ds_expr(a, Some(&f.ty)))
                    .collect();
                Expr::New(sname.clone(), args?, *span)
            }
            Expr::Call(name, args, span) => self.ds_call(name, args, *span)?,
            Expr::Hole(width, span) => {
                let width = width.unwrap_or(match expected {
                    Some(Type::Bool) => 1,
                    _ => self.config.hole_width,
                });
                let site = self.table.new_site(SiteKind::Const { width }, *span);
                let domain = 1u64 << width;
                let h = self.table.new_hole(site, domain, *span);
                Expr::HoleRef(h, domain, *span)
            }
            Expr::Gen(re, span) => {
                let raw = generator_alternatives(&self.scope, re, expected, *span)?;
                // Desugar each alternative, tracking the nested sites
                // it creates: a `??` inside an alternative contributes
                // to |C| only when that alternative is chosen, so the
                // generator's distinct-program count is the *sum* over
                // alternatives of their nested products.
                let mut alts = Vec::with_capacity(raw.len());
                let mut count: u128 = 0;
                for a in &raw {
                    let before = self.table.num_sites() as u32;
                    alts.push(self.ds_expr(a, expected)?);
                    let after = self.table.num_sites() as u32;
                    count = count.saturating_add(self.table.absorb_sites(before, after));
                }
                let site = self.table.new_site(
                    SiteKind::GenChoice {
                        alts: alts.clone(),
                        lvalue: false,
                    },
                    *span,
                );
                self.table.set_count_override(site, count.max(1));
                let h = self.table.new_hole(site, alts.len() as u64, *span);
                Expr::Choice(h, alts, *span)
            }
        })
    }

    fn ds_call(&mut self, name: &str, args: &[Expr], span: Span) -> SourceResult<Expr> {
        // Generator functions inline here with fresh holes.
        if let Some(f) = self.program.function(name) {
            if f.is_generator {
                if self.depth >= self.config.inline_depth {
                    return Err(derr(span, format!("generator {name} inlined too deeply")));
                }
                if f.params.len() != args.len() {
                    return Err(derr(
                        span,
                        format!("{name} expects {} arguments", f.params.len()),
                    ));
                }
                let Stmt::Block(ss) = &f.body else {
                    unreachable!()
                };
                let [Stmt::Return(Some(body), _)] = &ss[..] else {
                    unreachable!()
                };
                let map: Vec<(String, Expr)> = f
                    .params
                    .iter()
                    .zip(args)
                    .map(|(p, a)| (p.name.clone(), a.clone()))
                    .collect();
                let substituted = subst_vars(body, &map);
                self.depth += 1;
                let r = self.ds_expr(&substituted, Some(&f.ret));
                self.depth -= 1;
                return r;
            }
        }
        // Location arguments of the hardware atomics behave like
        // assignment left-hand sides: an l-value generator is allowed.
        let loc_arg = matches!(
            name,
            "AtomicSwap" | "atomicSwap" | "CAS" | "AtomicReadAndDecr" | "AtomicReadAndIncr"
        );
        let mut out = Vec::with_capacity(args.len());
        let mut loc_ty: Option<Type> = None;
        for (i, a) in args.iter().enumerate() {
            if i == 0 && loc_arg {
                let loc = match a {
                    Expr::Gen(re, gspan) => {
                        let alts: Vec<Expr> =
                            generator_alternatives(&self.scope, re, None, *gspan)?
                                .into_iter()
                                .filter(Expr::is_lvalue)
                                .collect();
                        if alts.is_empty() {
                            return Err(derr(*gspan, "generator has no l-value alternative"));
                        }
                        let alts: SourceResult<Vec<Expr>> =
                            alts.iter().map(|x| self.ds_expr_nogen(x)).collect();
                        let alts = alts?;
                        let site = self.table.new_site(
                            SiteKind::GenChoice {
                                alts: alts.clone(),
                                lvalue: true,
                            },
                            *gspan,
                        );
                        let h = self.table.new_hole(site, alts.len() as u64, *gspan);
                        Expr::Choice(h, alts, *gspan)
                    }
                    other => self.ds_expr_nogen(other)?,
                };
                loc_ty = infer_expr(&self.scope, &loc, None).ok();
                out.push(loc);
            } else {
                let expected = if loc_arg { loc_ty.clone() } else { None };
                out.push(self.ds_expr(a, expected.as_ref())?);
            }
        }
        Ok(Expr::Call(name.to_string(), out, span))
    }

    fn ds_reorder(&mut self, ss: &[Stmt], span: Span) -> SourceResult<Vec<Stmt>> {
        for s in ss {
            if matches!(s, Stmt::Decl(..)) {
                return Err(derr(
                    s.span(),
                    "declarations are not allowed directly inside reorder \
                     (declare before the block)",
                ));
            }
        }
        // Desugar each child once; the encodings clone the desugared
        // statements so all copies share holes.
        let mut children = Vec::with_capacity(ss.len());
        for s in ss {
            children.push(one(self.ds_stmt(s)?));
        }
        let k = children.len();
        if k <= 1 {
            return Ok(children);
        }
        match self.config.reorder {
            ReorderEncoding::Quadratic => {
                let site = self.table.new_site(SiteKind::ReorderQuad { k }, span);
                let holes: Vec<u32> = (0..k)
                    .map(|_| self.table.new_hole(site, k as u64, span))
                    .collect();
                // Pairwise-distinct constraint (the paper's
                // `assert noDuplicates in order`).
                for i in 0..k {
                    for j in (i + 1)..k {
                        self.table.add_constraint(Expr::Binary(
                            BinOp::Ne,
                            Box::new(Expr::HoleRef(holes[i], k as u64, span)),
                            Box::new(Expr::HoleRef(holes[j], k as u64, span)),
                            span,
                        ));
                    }
                }
                let mut out = Vec::with_capacity(k);
                for &h in &holes {
                    // if (h == 0) S0 else if (h == 1) S1 … else S(k-1)
                    let mut stmt = children[k - 1].clone();
                    for j in (0..k - 1).rev() {
                        stmt = Stmt::If(
                            Expr::Binary(
                                BinOp::Eq,
                                Box::new(Expr::HoleRef(h, k as u64, span)),
                                Box::new(Expr::Int(j as i64, span)),
                                span,
                            ),
                            Box::new(children[j].clone()),
                            Some(Box::new(stmt)),
                            span,
                        );
                    }
                    out.push(stmt);
                }
                Ok(out)
            }
            ReorderEncoding::Exponential => {
                let site = self.table.new_site(SiteKind::ReorderExp { k }, span);
                // list of already-ordered statements; insert each next
                // statement at a hole-chosen position.
                let mut list: Vec<Stmt> = vec![children[0].clone()];
                for child in children.iter().skip(1) {
                    // Insertion positions range over the *expanded*
                    // representation (paper §7.2's recursive
                    // construction): list.len() statements have
                    // list.len() + 1 insertion slots.
                    let domain = (list.len() + 1) as u64;
                    let h = self.table.new_hole(site, domain, span);
                    let guard_eq = |p: usize| {
                        Expr::Binary(
                            BinOp::Eq,
                            Box::new(Expr::HoleRef(h, domain, span)),
                            Box::new(Expr::Int(p as i64, span)),
                            span,
                        )
                    };
                    let mut next = Vec::with_capacity(2 * list.len() + 1);
                    for (p, existing) in list.iter().enumerate() {
                        next.push(Stmt::If(guard_eq(p), Box::new(child.clone()), None, span));
                        next.push(existing.clone());
                    }
                    next.push(Stmt::If(
                        guard_eq(list.len()),
                        Box::new(child.clone()),
                        None,
                        span,
                    ));
                    list = next;
                }
                Ok(list)
            }
        }
    }

    fn ds_repeat(&mut self, n: &Expr, body: &Stmt, span: Span) -> SourceResult<Vec<Stmt>> {
        match n {
            Expr::Int(k, _) => {
                let k = (*k).max(0) as u64;
                let mut out = Vec::new();
                for _ in 0..k {
                    // Fresh holes per copy: desugar the raw body again.
                    out.extend(self.ds_stmt(body)?);
                }
                Ok(out)
            }
            Expr::Hole(_, hspan) => {
                let max = self.config.repeat_max;
                let site = self.table.new_site(SiteKind::RepeatCount { max }, *hspan);
                let h = self.table.new_hole(site, max + 1, *hspan);
                let mut out = Vec::new();
                for kcopy in 0..max {
                    let inner = one(self.ds_stmt(body)?);
                    out.push(Stmt::If(
                        Expr::Binary(
                            BinOp::Gt,
                            Box::new(Expr::HoleRef(h, max + 1, *hspan)),
                            Box::new(Expr::Int(kcopy as i64, *hspan)),
                            *hspan,
                        ),
                        Box::new(inner),
                        None,
                        span,
                    ));
                }
                Ok(out)
            }
            other => Err(derr(
                other.span(),
                "repeat count must be an integer literal or ??",
            )),
        }
    }
}

/// Capture-avoiding-enough substitution of variables by expressions
/// (generator-function parameters are fresh names, so plain
/// substitution is safe).
fn subst_vars(e: &Expr, map: &[(String, Expr)]) -> Expr {
    match e {
        Expr::Var(n, _) => {
            for (k, v) in map {
                if k == n {
                    return v.clone();
                }
            }
            e.clone()
        }
        Expr::Field(b, f, s) => Expr::Field(Box::new(subst_vars(b, map)), f.clone(), *s),
        Expr::Index(b, i, s) => Expr::Index(
            Box::new(subst_vars(b, map)),
            Box::new(subst_vars(i, map)),
            *s,
        ),
        Expr::Slice(b, st, l, s) => Expr::Slice(
            Box::new(subst_vars(b, map)),
            Box::new(subst_vars(st, map)),
            *l,
            *s,
        ),
        Expr::Unary(op, a, s) => Expr::Unary(*op, Box::new(subst_vars(a, map)), *s),
        Expr::Binary(op, a, b, s) => Expr::Binary(
            *op,
            Box::new(subst_vars(a, map)),
            Box::new(subst_vars(b, map)),
            *s,
        ),
        Expr::Call(f, args, s) => Expr::Call(
            f.clone(),
            args.iter().map(|a| subst_vars(a, map)).collect(),
            *s,
        ),
        Expr::New(t, args, s) => Expr::New(
            t.clone(),
            args.iter().map(|a| subst_vars(a, map)).collect(),
            *s,
        ),
        Expr::Gen(re, s) => Expr::Gen(substitute_regex(re, map), *s),
        Expr::Choice(id, alts, s) => {
            Expr::Choice(*id, alts.iter().map(|a| subst_vars(a, map)).collect(), *s)
        }
        _ => e.clone(),
    }
}

/// Substitutes identifier atoms inside a generator regex. Only
/// variable-for-variable substitutions reach regex atoms; richer
/// expressions substitute after enumeration (we splice the printed
/// form when the replacement is a simple variable, otherwise we leave
/// the atom and rely on scope lookup failing, which filters the
/// alternative).
fn substitute_regex(
    re: &psketch_lang::regen::Regex,
    map: &[(String, Expr)],
) -> psketch_lang::regen::Regex {
    use psketch_lang::regen::Regex;
    use psketch_lang::token::Tok;
    match re {
        Regex::Atom(Tok::Ident(n)) => {
            for (k, v) in map {
                if k == n {
                    return expr_to_regex(v);
                }
            }
            re.clone()
        }
        Regex::Atom(_) => re.clone(),
        Regex::Seq(es) => Regex::Seq(es.iter().map(|e| substitute_regex(e, map)).collect()),
        Regex::Alt(es) => Regex::Alt(es.iter().map(|e| substitute_regex(e, map)).collect()),
        Regex::Opt(e) => Regex::Opt(Box::new(substitute_regex(e, map))),
    }
}

/// Renders an expression as a token sequence usable as a regex atom
/// string (used when generator-function arguments flow into `{| … |}`
/// bodies, e.g. the paper's barrier `predicate(b.count, cv, s, s)`).
fn expr_to_regex(e: &Expr) -> psketch_lang::regen::Regex {
    use psketch_lang::regen::Regex;
    let text = psketch_lang::pretty::print_expr(e);
    let toks = psketch_lang::lexer::lex(&text).expect("printed expression lexes");
    let atoms: Vec<Regex> = toks.into_iter().map(|t| Regex::Atom(t.tok)).collect();
    if atoms.len() == 1 {
        atoms.into_iter().next().unwrap()
    } else {
        Regex::Seq(atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_lang::check_program;
    use psketch_lang::pretty::print_program;

    fn ds(src: &str) -> (Program, HoleTable) {
        let p = check_program(src).unwrap();
        desugar_program(&p, &Config::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn const_holes_are_allocated() {
        let (p, t) = ds("void f() { int a = ??; int b = ??(5); bit c = ??; }");
        assert_eq!(t.num_holes(), 3);
        assert_eq!(t.domain(0), 1 << Config::default().hole_width);
        assert_eq!(t.domain(1), 32);
        assert_eq!(t.domain(2), 2);
        let printed = print_program(&p);
        assert!(printed.contains("hole#0"));
    }

    #[test]
    fn generator_becomes_choice() {
        let (p, t) = ds("struct E { E next; int taken; } E tail;
             void f() { E tmp = {| tail(.next)? | null |}; }");
        assert_eq!(t.num_holes(), 1);
        assert_eq!(t.domain(0), 3); // tail, tail.next, null
        let printed = print_program(&p);
        assert!(printed.contains("choice#0"));
    }

    #[test]
    fn lvalue_generator_keeps_lvalues_only() {
        let (_, t) = ds("struct E { E next; } E tail; E tmp;
             void f() { {| (tail|tmp)(.next)? | null |} = tmp; }");
        // null filtered out: 4 l-value alternatives remain.
        assert_eq!(t.domain(0), 4);
        let SiteKind::GenChoice { lvalue, alts } = &t.sites()[0].kind else {
            panic!()
        };
        assert!(lvalue);
        assert_eq!(alts.len(), 4);
    }

    #[test]
    fn reorder_quadratic_holes_and_constraints() {
        let (p, t) = ds("int g;
             void f() { reorder { g = 1; g = 2; g = 3; } }");
        assert_eq!(t.num_holes(), 3);
        assert!(t
            .sites()
            .iter()
            .any(|s| matches!(s.kind, SiteKind::ReorderQuad { k: 3 })));
        // C(3,2) = 3 pairwise constraints.
        assert_eq!(t.constraints().len(), 3);
        assert_eq!(t.candidate_space(), 6);
        let printed = print_program(&p);
        assert!(printed.contains("hole#0"));
        assert!(printed.contains("g = 3"));
    }

    #[test]
    fn reorder_exponential_no_constraints() {
        let cfg = Config {
            reorder: ReorderEncoding::Exponential,
            ..Config::default()
        };
        let p = check_program("int g; void f() { reorder { g = 1; g = 2; g = 3; } }").unwrap();
        let (_, t) = desugar_program(&p, &cfg).unwrap();
        assert_eq!(t.num_holes(), 2); // domains 2 and 4 (expanded list)
        assert_eq!(t.domain(0), 2);
        assert_eq!(t.domain(1), 4);
        assert!(t.constraints().is_empty());
        assert_eq!(t.candidate_space(), 6);
    }

    #[test]
    fn repeat_literal_gets_fresh_holes() {
        let (_, t) = ds("int g; void f() { repeat (3) { g = ??; } }");
        assert_eq!(t.num_holes(), 3);
    }

    #[test]
    fn repeat_hole_guards_copies() {
        let (p, t) = ds("int g; void f() { repeat (??) { g = 1; } }");
        // One count hole.
        assert!(t
            .sites()
            .iter()
            .any(|s| matches!(s.kind, SiteKind::RepeatCount { .. })));
        let printed = print_program(&p);
        assert!(printed.contains("hole#0"));
    }

    #[test]
    fn generator_function_inlines_with_fresh_holes() {
        let (p, t) = ds(
            "generator bit pred(int a, int b) { return {| a == b | a != b | a == ?? |}; }
             int g;
             void f() { if (pred(g, 1)) { g = 2; } if (pred(g, 3)) { g = 4; } }",
        );
        // Each call: 1 choice hole + 1 nested const hole = 4 total.
        assert_eq!(t.num_holes(), 4);
        assert!(p.function("pred").is_none(), "generator removed");
    }

    #[test]
    fn generator_fn_args_flow_into_regex() {
        let (_, t) = ds(
            "generator bit pred(int a, int b) { return {| a == b | a |}; }
             struct B { int count; } B b;
             void f(int cv) { if (pred(b.count, cv)) { cv = 1; } }",
        );
        let SiteKind::GenChoice { alts, .. } = &t.sites()[0].kind else {
            panic!()
        };
        let printed: Vec<String> = alts.iter().map(psketch_lang::pretty::print_expr).collect();
        assert!(printed.iter().any(|s| s.contains("b.count")), "{printed:?}");
    }

    #[test]
    fn nonconst_repeat_rejected() {
        let p = check_program("int g; void f(int n) { repeat (n) { g = 1; } }").unwrap();
        assert!(desugar_program(&p, &Config::default()).is_err());
    }

    #[test]
    fn decl_inside_reorder_rejected() {
        let p = check_program("int g; void f() { reorder { int x = 1; g = 2; } }").unwrap();
        let err = desugar_program(&p, &Config::default()).unwrap_err();
        assert!(err.message.contains("reorder"));
    }

    #[test]
    fn paper_enqueue_sketch_space() {
        // The Figure 1 sketch: reorder of 3 statements, 2 l-value gens
        // (4 alts each), 2 r-value gens (7 alts each), one l-value gen
        // + r-value gen in the fixup, one 3-way condition gen.
        let (_, t) = ds(
            "struct QueueEntry { Object stored; QueueEntry next; int taken; }
             QueueEntry prevHead; QueueEntry tail;
             void Enqueue(Object newobject) {
                 QueueEntry tmp = null;
                 QueueEntry newEntry = new QueueEntry(newobject);
                 reorder {
                     {| tail(.next)? | (tmp|newEntry).next |} = {| (tail|tmp|newEntry)(.next)? | null |};
                     tmp = AtomicSwap({| tail(.next)? | (tmp|newEntry).next |}, {| (tail|tmp|newEntry)(.next)? | null |});
                     if ({| tmp == newEntry | tmp != newEntry | false |}) {
                         {| tail(.next)? | (tmp|newEntry).next |} = {| (tail|tmp|newEntry)(.next)? | null |};
                     }
                 }
             }",
        );
        // 3! * (4*7) * (4*7) * 3 * (4*7) = 6 * 28^3 * 3 = 395136.
        assert_eq!(t.candidate_space(), 6 * 28 * 28 * 28 * 3);
    }
}
