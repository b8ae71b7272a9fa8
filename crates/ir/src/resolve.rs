//! Resolution: mapping a solved hole [`Assignment`] back onto the
//! desugared sketch ([`resolve_program`]) and simplifying the result
//! at the run's int width ([`simplify_program`]), to print the
//! synthesized implementation (reproducing the paper's Figures 2, 4
//! and 6).

use crate::config::Config;
use crate::hole::Assignment;
use crate::lower::const_expr;
use psketch_lang::ast::{Expr, FnDef, Program, Stmt, UnOp};

/// Substitutes hole values into a desugared program: each hole
/// becomes its value's literal and each choice its chosen alternative.
pub fn resolve_program(sketch: &Program, assignment: &Assignment) -> Program {
    Program {
        structs: sketch.structs.clone(),
        globals: sketch.globals.clone(),
        functions: sketch
            .functions
            .iter()
            .map(|f| resolve_fn(f, assignment))
            .collect(),
    }
}

/// Substitutes hole values into one function.
pub fn resolve_fn(f: &FnDef, assignment: &Assignment) -> FnDef {
    FnDef {
        body: subst_stmt(&f.body, assignment),
        ..f.clone()
    }
}

/// Simplifies every function of a hole-free program, folding
/// constants as lowering does at `config`'s int width.
pub fn simplify_program(mut p: Program, config: &Config) -> Program {
    for f in &mut p.functions {
        f.body = simplify_stmt(&f.body, config);
    }
    p
}

/// Simplifies one function: folds constants at `config`'s int width,
/// drops dead branches and flattens blocks.
pub fn simplify_fn(mut f: FnDef, config: &Config) -> FnDef {
    f.body = simplify_stmt(&f.body, config);
    f
}

fn subst_stmt(s: &Stmt, a: &Assignment) -> Stmt {
    match s {
        Stmt::Block(ss) => Stmt::Block(ss.iter().map(|s| subst_stmt(s, a)).collect()),
        Stmt::Decl(t, n, init, sp) => Stmt::Decl(
            t.clone(),
            n.clone(),
            init.as_ref().map(|e| subst_expr(e, a)),
            *sp,
        ),
        Stmt::Assign(l, r, sp) => Stmt::Assign(subst_expr(l, a), subst_expr(r, a), *sp),
        Stmt::If(c, t, e, sp) => Stmt::If(
            subst_expr(c, a),
            Box::new(subst_stmt(t, a)),
            e.as_ref().map(|e| Box::new(subst_stmt(e, a))),
            *sp,
        ),
        Stmt::While(c, b, sp) => Stmt::While(subst_expr(c, a), Box::new(subst_stmt(b, a)), *sp),
        Stmt::Return(e, sp) => Stmt::Return(e.as_ref().map(|e| subst_expr(e, a)), *sp),
        Stmt::Assert(e, sp) => Stmt::Assert(subst_expr(e, a), *sp),
        Stmt::Expr(e, sp) => Stmt::Expr(subst_expr(e, a), *sp),
        Stmt::Atomic(c, b, sp) => Stmt::Atomic(
            c.as_ref().map(|c| subst_expr(c, a)),
            Box::new(subst_stmt(b, a)),
            *sp,
        ),
        Stmt::Reorder(ss, sp) => Stmt::Reorder(ss.iter().map(|s| subst_stmt(s, a)).collect(), *sp),
        Stmt::Fork(v, n, b, sp) => {
            Stmt::Fork(v.clone(), subst_expr(n, a), Box::new(subst_stmt(b, a)), *sp)
        }
        Stmt::Repeat(n, b, sp) => Stmt::Repeat(subst_expr(n, a), Box::new(subst_stmt(b, a)), *sp),
    }
}

fn subst_expr(e: &Expr, a: &Assignment) -> Expr {
    match e {
        Expr::HoleRef(id, _, sp) => Expr::Int(a.value(*id) as i64, *sp),
        Expr::Choice(id, alts, _) => {
            let ix = (a.value(*id) as usize).min(alts.len().saturating_sub(1));
            subst_expr(&alts[ix], a)
        }
        Expr::Field(b, f, sp) => Expr::Field(Box::new(subst_expr(b, a)), f.clone(), *sp),
        Expr::Index(b, i, sp) => {
            Expr::Index(Box::new(subst_expr(b, a)), Box::new(subst_expr(i, a)), *sp)
        }
        Expr::Slice(b, s, l, sp) => Expr::Slice(
            Box::new(subst_expr(b, a)),
            Box::new(subst_expr(s, a)),
            *l,
            *sp,
        ),
        Expr::Unary(op, x, sp) => Expr::Unary(*op, Box::new(subst_expr(x, a)), *sp),
        Expr::Binary(op, l, r, sp) => Expr::Binary(
            *op,
            Box::new(subst_expr(l, a)),
            Box::new(subst_expr(r, a)),
            *sp,
        ),
        Expr::Call(f, args, sp) => Expr::Call(
            f.clone(),
            args.iter().map(|x| subst_expr(x, a)).collect(),
            *sp,
        ),
        Expr::New(t, args, sp) => Expr::New(
            t.clone(),
            args.iter().map(|x| subst_expr(x, a)).collect(),
            *sp,
        ),
        other => other.clone(),
    }
}

fn simplify_expr(e: &Expr, cfg: &Config) -> Expr {
    let e = match e {
        Expr::Unary(op, x, sp) => Expr::Unary(*op, Box::new(simplify_expr(x, cfg)), *sp),
        Expr::Binary(op, l, r, sp) => Expr::Binary(
            *op,
            Box::new(simplify_expr(l, cfg)),
            Box::new(simplify_expr(r, cfg)),
            *sp,
        ),
        Expr::Field(b, f, sp) => Expr::Field(Box::new(simplify_expr(b, cfg)), f.clone(), *sp),
        Expr::Index(b, i, sp) => Expr::Index(
            Box::new(simplify_expr(b, cfg)),
            Box::new(simplify_expr(i, cfg)),
            *sp,
        ),
        Expr::Call(f, args, sp) => Expr::Call(
            f.clone(),
            args.iter().map(|a| simplify_expr(a, cfg)).collect(),
            *sp,
        ),
        Expr::New(t, args, sp) => Expr::New(
            t.clone(),
            args.iter().map(|a| simplify_expr(a, cfg)).collect(),
            *sp,
        ),
        other => other.clone(),
    };
    if matches!(e, Expr::Int(..) | Expr::Bool(..) | Expr::Null(..)) {
        return e;
    }
    match const_expr(&e, cfg) {
        Some(v)
            if matches!(&e, Expr::Unary(UnOp::Not, ..))
                || matches!(&e, Expr::Binary(op, ..) if op.is_boolean_result()) =>
        {
            Expr::Bool(v != 0, e.span())
        }
        Some(v) => Expr::Int(v, e.span()),
        None => e,
    }
}

/// Simplifies a statement at `cfg`'s int width: folds constant
/// conditions, drops dead branches and flattens blocks.
fn simplify_stmt(s: &Stmt, cfg: &Config) -> Stmt {
    let expr = |e: &Expr| simplify_expr(e, cfg);
    let stmt = |s: &Stmt| simplify_stmt(s, cfg);
    match s {
        Stmt::Block(ss) => {
            let mut out = Vec::new();
            for s in ss {
                match stmt(s) {
                    Stmt::Block(inner) => out.extend(inner),
                    other => out.push(other),
                }
            }
            Stmt::Block(out)
        }
        Stmt::If(c, t, e, sp) => {
            let c = expr(c);
            match const_expr(&c, cfg) {
                Some(v) if v != 0 => stmt(t),
                Some(_) => match e {
                    Some(e) => stmt(e),
                    None => Stmt::Block(vec![]),
                },
                None => {
                    let t = stmt(t);
                    let e = e.as_ref().map(|e| stmt(e));
                    let e = match e {
                        Some(Stmt::Block(ref ss)) if ss.is_empty() => None,
                        other => other,
                    };
                    if matches!(&t, Stmt::Block(ss) if ss.is_empty()) && e.is_none() {
                        Stmt::Block(vec![])
                    } else {
                        Stmt::If(c, Box::new(t), e.map(Box::new), *sp)
                    }
                }
            }
        }
        Stmt::While(c, b, sp) => {
            let c = expr(c);
            if const_expr(&c, cfg) == Some(0) {
                Stmt::Block(vec![])
            } else {
                Stmt::While(c, Box::new(stmt(b)), *sp)
            }
        }
        Stmt::Decl(t, n, init, sp) => {
            Stmt::Decl(t.clone(), n.clone(), init.as_ref().map(expr), *sp)
        }
        Stmt::Assign(l, r, sp) => Stmt::Assign(expr(l), expr(r), *sp),
        Stmt::Return(e, sp) => Stmt::Return(e.as_ref().map(expr), *sp),
        Stmt::Assert(e, sp) => Stmt::Assert(expr(e), *sp),
        Stmt::Expr(e, sp) => Stmt::Expr(expr(e), *sp),
        Stmt::Atomic(c, b, sp) => Stmt::Atomic(c.as_ref().map(expr), Box::new(stmt(b)), *sp),
        Stmt::Reorder(ss, sp) => Stmt::Reorder(ss.iter().map(stmt).collect(), *sp),
        Stmt::Fork(v, n, b, sp) => Stmt::Fork(v.clone(), expr(n), Box::new(stmt(b)), *sp),
        Stmt::Repeat(n, b, sp) => Stmt::Repeat(expr(n), Box::new(stmt(b)), *sp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desugar::desugar_program;
    use psketch_lang::pretty::print_program;

    fn resolve(src: &str, values: Vec<u64>) -> String {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, table) = desugar_program(&p, &cfg).unwrap();
        let a = Assignment::from_values(values);
        assert!(a.validate(&table), "assignment out of domain");
        print_program(&simplify_program(resolve_program(&sk, &a), &cfg))
    }

    #[test]
    fn const_hole_resolves_to_literal() {
        let out = resolve("int g; void f() { g = ??(3); }", vec![5]);
        assert!(out.contains("g = 5;"), "{out}");
    }

    #[test]
    fn choice_resolves_to_alternative() {
        let out = resolve(
            "struct E { E next; } E tail;
             void f() { E t = {| tail(.next)? | null |}; }",
            vec![1], // alternatives sorted: null, tail, tail.next? order from enumerate (sorted)
        );
        // Value 1 picks the second well-typed alternative.
        assert!(out.contains("E t = "), "{out}");
        assert!(!out.contains("choice#"), "{out}");
    }

    #[test]
    fn reorder_resolves_to_permutation() {
        let src = "int g; int h; void f() { reorder { g = 1; h = 2; } }";
        // Quadratic: holes o0, o1; o0=1, o1=0 means h=2 runs first.
        let out = resolve(src, vec![1, 0]);
        let pos_h = out.find("h = 2;").unwrap();
        let pos_g = out.find("g = 1;").unwrap();
        assert!(pos_h < pos_g, "{out}");
        assert!(!out.contains("hole#"), "{out}");
        assert!(!out.contains("if"), "reorder residue: {out}");
    }

    #[test]
    fn repeat_hole_resolves_to_count() {
        let src = "int g; void f() { repeat (??) { g = g + 1; } }";
        let out = resolve(src, vec![2]);
        assert_eq!(out.matches("g = g + 1;").count(), 2, "{out}");
    }

    #[test]
    fn optional_fixup_disappears_when_false() {
        // Mimics the paper: `if (anExpr) fixup;` where anExpr resolves
        // to `false` — the fixup statement is optimized away (Fig. 2).
        let src = "int g; void f(int tmp, int v) {
            if ({| tmp == v | tmp != v | false |}) { g = v; }
        }";
        // Alternatives sort with identifiers first: tmp == v,
        // tmp != v, false.
        let out = resolve(src, vec![2]);
        assert!(!out.contains("g = v"), "{out}");
    }

    #[test]
    fn folding_wraps_to_the_int_width() {
        // (0 + 4) * 40 = 160 wraps to -96 at the default 8 bits.
        let src = "int g; void f() { if ((??(3) + 4) * 40 > 100) { g = 1; } else { g = 2; } }";
        let out = resolve(src, vec![0]);
        assert!(out.contains("g = 2;") && !out.contains("g = 1;"), "{out}");
    }

    #[test]
    fn simplify_folds_nested_blocks() {
        let s = Stmt::Block(vec![Stmt::Block(vec![Stmt::Block(vec![])])]);
        assert_eq!(simplify_stmt(&s, &Config::default()), Stmt::Block(vec![]));
    }
}
