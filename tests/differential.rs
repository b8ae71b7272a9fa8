//! Differential testing of the whole stack against independent Rust
//! reference semantics:
//!
//! * random arithmetic expressions: the synthesizer must recover the
//!   reference evaluator's result through a hole (this exercises
//!   lowering, constant folding, the concrete evaluator, the symbolic
//!   bitvector circuits and the SAT solver against each other);
//! * random two-thread read-modify-write programs: the model checker's
//!   verdict must match a brute-force interleaving enumerator.

use psketch_repro::core::{Config, Options, Synthesis};
use psketch_testutil::{cases, Rng};

// ---------------------------------------------------------------
// Part 1: expression semantics.
// ---------------------------------------------------------------

/// A tiny expression AST mirrored in both PSKETCH source and Rust.
#[derive(Clone, Debug)]
enum E {
    Const(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    DivC(Box<E>, i8),
    ModC(Box<E>, i8),
    Neg(Box<E>),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Not(Box<E>),
}

fn wrap8(v: i64) -> i64 {
    let r = v.rem_euclid(256);
    if r >= 128 {
        r - 256
    } else {
        r
    }
}

impl E {
    fn eval(&self) -> i64 {
        match self {
            E::Const(c) => *c as i64,
            E::Add(a, b) => wrap8(a.eval() + b.eval()),
            E::Sub(a, b) => wrap8(a.eval() - b.eval()),
            E::Mul(a, b) => wrap8(a.eval().wrapping_mul(b.eval())),
            E::DivC(a, c) => wrap8(a.eval().wrapping_div(*c as i64)),
            E::ModC(a, c) => wrap8(a.eval().wrapping_rem(*c as i64)),
            E::Neg(a) => wrap8(-a.eval()),
            E::Lt(a, b) => i64::from(a.eval() < b.eval()),
            E::Eq(a, b) => i64::from(a.eval() == b.eval()),
            E::And(a, b) => i64::from(a.eval() != 0 && b.eval() != 0),
            E::Or(a, b) => i64::from(a.eval() != 0 || b.eval() != 0),
            E::Not(a) => i64::from(a.eval() == 0),
        }
    }

    fn to_source(&self) -> String {
        match self {
            E::Const(c) => {
                if *c < 0 {
                    format!("(0 - {})", -(*c as i64))
                } else {
                    c.to_string()
                }
            }
            E::Add(a, b) => format!("({} + {})", a.to_source(), b.to_source()),
            E::Sub(a, b) => format!("({} - {})", a.to_source(), b.to_source()),
            E::Mul(a, b) => format!("({} * {})", a.to_source(), b.to_source()),
            E::DivC(a, c) => format!("({} / {})", a.to_source(), c),
            E::ModC(a, c) => format!("({} % {})", a.to_source(), c),
            E::Neg(a) => format!("(-{})", a.to_source()),
            E::Lt(a, b) => format!("({} < {})", a.to_source(), b.to_source()),
            E::Eq(a, b) => format!("({} == {})", a.to_source(), b.to_source()),
            E::And(a, b) => format!("(({} != 0) && ({} != 0))", a.to_source(), b.to_source()),
            E::Or(a, b) => format!("(({} != 0) || ({} != 0))", a.to_source(), b.to_source()),
            E::Not(a) => format!("(!({} != 0))", a.to_source()),
        }
    }
}

/// Random expression tree, recursion bounded by `depth`.
fn random_expr(rng: &mut Rng, depth: usize) -> E {
    if depth == 0 || rng.below(3) == 0 {
        return E::Const(rng.any_i8());
    }
    let d = depth - 1;
    match rng.below(11) {
        0 => E::Add(Box::new(random_expr(rng, d)), Box::new(random_expr(rng, d))),
        1 => E::Sub(Box::new(random_expr(rng, d)), Box::new(random_expr(rng, d))),
        2 => E::Mul(Box::new(random_expr(rng, d)), Box::new(random_expr(rng, d))),
        3 => {
            let mag = rng.range_i64(1, 13) as i8;
            let c = if rng.any_bool() { mag } else { -mag };
            E::DivC(Box::new(random_expr(rng, d)), c)
        }
        4 => {
            let c = rng.range_i64(1, 13) as i8;
            E::ModC(Box::new(random_expr(rng, d)), c)
        }
        5 => E::Neg(Box::new(random_expr(rng, d))),
        6 => E::Lt(Box::new(random_expr(rng, d)), Box::new(random_expr(rng, d))),
        7 => E::Eq(Box::new(random_expr(rng, d)), Box::new(random_expr(rng, d))),
        8 => E::And(Box::new(random_expr(rng, d)), Box::new(random_expr(rng, d))),
        9 => E::Or(Box::new(random_expr(rng, d)), Box::new(random_expr(rng, d))),
        _ => E::Not(Box::new(random_expr(rng, d))),
    }
}

/// The synthesizer must fill `??(8)` with exactly the reference
/// value of a random expression — concrete and symbolic semantics
/// agree with the Rust oracle bit for bit.
#[test]
fn expression_semantics_match_reference() {
    cases(48, |rng| {
        let e = random_expr(rng, 4);
        let expected = wrap8(e.eval());
        let src = format!(
            "int g;
             harness void main() {{
                 g = {};
                 assert g == ??(8) - 128;
             }}",
            e.to_source()
        );
        let out = Synthesis::new(&src, Options::default())
            .unwrap_or_else(|err| panic!("{err}\n{src}"))
            .run();
        let r = out
            .resolution
            .unwrap_or_else(|| panic!("unresolvable: {src}"));
        // hole - 128 == expected  =>  hole = expected + 128 (0..=255).
        assert_eq!(
            r.assignment.value(0) as i64,
            expected + 128,
            "expr {} evaluated {} (source {})",
            e.to_source(),
            expected,
            src
        );
    });
}

// ---------------------------------------------------------------
// Part 2: interleaving semantics.
// ---------------------------------------------------------------

/// One thread op: an atomic add of `c`, or a racy two-step
/// read-modify-write add of `c`.
#[derive(Clone, Copy, Debug)]
enum OpA {
    Atomic(i8),
    Racy(i8),
}

/// Brute-force all interleavings of the micro-steps and collect the
/// possible final values of `g`.
fn possible_finals(threads: &[Vec<OpA>]) -> std::collections::BTreeSet<i64> {
    #[derive(Clone)]
    struct Th {
        ops: Vec<OpA>,
        op_ix: usize,
        /// For a racy op: Some(read value) once the read happened.
        pending: Option<i64>,
    }
    fn dfs(g: i64, ths: &mut Vec<Th>, out: &mut std::collections::BTreeSet<i64>) {
        let mut any = false;
        for t in 0..ths.len() {
            if ths[t].op_ix >= ths[t].ops.len() {
                continue;
            }
            any = true;
            let op = ths[t].ops[ths[t].op_ix];
            match (op, ths[t].pending) {
                (OpA::Atomic(c), _) => {
                    ths[t].op_ix += 1;
                    dfs(wrap8(g + c as i64), ths, out);
                    ths[t].op_ix -= 1;
                }
                (OpA::Racy(_), None) => {
                    ths[t].pending = Some(g);
                    dfs(g, ths, out);
                    ths[t].pending = None;
                }
                (OpA::Racy(c), Some(read)) => {
                    ths[t].pending = None;
                    ths[t].op_ix += 1;
                    dfs(wrap8(read + c as i64), ths, out);
                    ths[t].op_ix -= 1;
                    ths[t].pending = Some(read);
                }
            }
        }
        if !any {
            out.insert(g);
        }
    }
    let mut ths: Vec<Th> = threads
        .iter()
        .map(|ops| Th {
            ops: ops.clone(),
            op_ix: 0,
            pending: None,
        })
        .collect();
    let mut out = std::collections::BTreeSet::new();
    dfs(0, &mut ths, &mut out);
    out
}

fn thread_source(ops: &[OpA], tid: usize) -> String {
    let mut out = String::new();
    for (k, op) in ops.iter().enumerate() {
        match op {
            OpA::Atomic(c) => out.push_str(&format!(
                "                    atomic {{ g = g + ({c}); }}\n"
            )),
            OpA::Racy(c) => out.push_str(&format!(
                "                    int t{tid}_{k} = g; g = t{tid}_{k} + ({c});\n"
            )),
        }
    }
    out
}

fn random_op(rng: &mut Rng) -> OpA {
    let c = rng.range_i64(-3, 3) as i8;
    if rng.any_bool() {
        OpA::Atomic(c)
    } else {
        OpA::Racy(c)
    }
}

fn random_ops(rng: &mut Rng) -> Vec<OpA> {
    let n = 1 + rng.below(2);
    (0..n).map(|_| random_op(rng)).collect()
}

/// The model checker accepts `assert g == V` exactly when the
/// brute-force interleaving oracle says V is the *only* possible
/// final value.
#[test]
fn checker_verdict_matches_interleaving_oracle() {
    cases(24, |rng| {
        let t0 = random_ops(rng);
        let t1 = random_ops(rng);
        let threads = vec![t0.clone(), t1.clone()];
        let possible = possible_finals(&threads);
        // The serial (t0 then t1) value is always possible.
        let serial: i64 = wrap8(
            t0.iter()
                .chain(&t1)
                .map(|op| match op {
                    OpA::Atomic(c) | OpA::Racy(c) => *c as i64,
                })
                .sum(),
        );
        assert!(possible.contains(&serial));

        let src = format!(
            "int g;
             harness void main() {{
                 fork (i; 2) {{
                     if (i == 0) {{
{}                   }} else {{
{}                   }}
                 }}
                 assert g == ({serial});
             }}",
            thread_source(&t0, 0),
            thread_source(&t1, 1),
        );
        let s = Synthesis::new(&src, Options::default()).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let a = s.lowered().holes.identity_assignment();
        let cex = s.verify_candidate(&a);
        let deterministic = possible.len() == 1;
        assert_eq!(
            cex.is_none(),
            deterministic,
            "possible finals {:?}, asserted {}, checker cex: {:?}\n{}",
            possible,
            serial,
            cex.map(|c| c.failure.kind),
            src
        );
    });
}

// ---------------------------------------------------------------
// Part 3: front-end robustness.
// ---------------------------------------------------------------

#[test]
fn deeply_nested_expressions_parse() {
    // The recursive-descent parser burns ~10 stack frames per nesting
    // level; run the deep case on a thread with a generous stack so
    // the test measures the parser, not the default stack size.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let mut e = String::from("1");
            for _ in 0..200 {
                e = format!("({e} + 1)");
            }
            let src = format!("harness void main() {{ int x = {e}; assert x > 0 || x < 1; }}");
            psketch_repro::lang::check_program(&src).expect("deep nesting parses");
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn wide_programs_lower() {
    // 200 globals, 200 assignments.
    let mut src = String::new();
    for k in 0..200 {
        src.push_str(&format!("int g{k};\n"));
    }
    src.push_str("harness void main() {\n");
    for k in 0..200 {
        src.push_str(&format!("    g{k} = {};\n", k % 100));
    }
    src.push_str("    assert g199 == 99;\n}\n");
    let out = Synthesis::new(&src, Options::default()).unwrap().run();
    assert!(out.resolved());
}

#[test]
fn int_width_is_configurable() {
    for width in [4u32, 8, 12] {
        let max = (1i64 << (width - 1)) - 1;
        let src = format!(
            "int g;
             harness void main() {{
                 g = {max} + 1;
                 assert g < 0;
             }}"
        );
        let opts = Options {
            config: Config {
                int_width: width,
                ..Config::default()
            },
            ..Options::default()
        };
        let out = Synthesis::new(&src, opts).unwrap().run();
        assert!(out.resolved(), "width {width}: wrap-around must hold");
    }
}

#[test]
fn out_of_range_widths_are_source_errors() {
    let src = "int g; harness void main() { g = ??; assert g == 2; }";
    // A reference is held in `int_width` bits, so the pool must stay
    // below 2^int_width.
    let heap = "struct N { int v = 1; } N p; int g;
                harness void main() { p = new N(); g = p.v + ??(2); assert g == 3; }";
    for (src, int_width, hole_width, pool) in [
        (src, 0, 3, 8),
        (src, 63, 3, 8),
        (src, 64, 3, 8),
        (src, 8, 0, 8),
        (src, 8, 31, 8),
        (src, 8, 64, 8),
        (heap, 4, 3, 16),
        (heap, 8, 3, 256),
    ] {
        let opts = Options {
            config: Config {
                int_width,
                hole_width,
                pool,
                ..Config::default()
            },
            ..Options::default()
        };
        let err = match Synthesis::new(src, opts) {
            Ok(_) => panic!(
                "int width {int_width}, hole width {hole_width}, pool {pool} accepted:\n{src}"
            ),
            Err(e) => e,
        };
        assert!(err.message.contains("width"), "{err}");
    }
    // The largest pool the width holds still resolves.
    let opts = Options {
        config: Config {
            int_width: 4,
            pool: 15,
            ..Config::default()
        },
        ..Options::default()
    };
    let out = Synthesis::new(heap, opts).unwrap().run();
    assert_eq!(out.resolution.expect("resolves").assignment.value(0), 2);
}
