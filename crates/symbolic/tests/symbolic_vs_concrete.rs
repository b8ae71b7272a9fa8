//! Differential tests: the symbolic evaluator against the concrete
//! checker on full sequential replays.
//!
//! For a worker-free program, the sequential order replays the whole
//! execution; with the candidate's holes substituted as constants,
//! `fail(Sk_t[c])` must be *exactly* the checker's verdict. This pins
//! the two evaluators (bitvector circuits vs native arithmetic, mux
//! heaps vs array heaps, demand-conditioned vs lazy failures) against
//! each other over every operation the IR supports.

use psketch_exec::check;
use psketch_ir::{desugar::desugar_program, lower::lower_program, Assignment, Config, Lowered};
use psketch_symbolic::bv::{Bv, NARROW};
use psketch_symbolic::circuit::Circuit;
use psketch_symbolic::eval::SymEval;
use psketch_symbolic::project::sequential_order;
use psketch_testutil::{cases, Rng};
use std::collections::{BTreeSet, HashMap};

fn lowered(src: &str, cfg: &Config) -> Lowered {
    let p = psketch_lang::check_program(src).unwrap();
    let (sk, holes) = desugar_program(&p, cfg).unwrap();
    lower_program(&sk, holes, cfg).unwrap()
}

/// Symbolically replays a worker-free program under constant holes;
/// returns whether it fails.
fn symbolic_fails(l: &Lowered, a: &Assignment) -> bool {
    let w = l.config.int_width as usize;
    let mut c = Circuit::new();
    let holes: Vec<Bv<NARROW>> = (0..l.holes.num_holes())
        .map(|h| Bv::constant(&mut c, a.value(h as u32) as i64, w))
        .collect();
    let order = sequential_order(l);
    let ev = SymEval::new(&mut c, l, &holes, &HashMap::new());
    let fail = ev.run(&mut c, &order, &BTreeSet::new(), order.len());
    match fail.as_const() {
        Some(b) => b,
        None => c.eval(fail, &HashMap::new()),
    }
}

fn agree(src: &str) {
    let cfg = Config::default();
    let l = lowered(src, &cfg);
    assert!(l.workers.is_empty(), "sequential programs only: {src}");
    // Try every assignment if the space is small, else the identity.
    let total: u128 = l.holes.candidate_space();
    let assignments: Vec<Assignment> = if l.holes.num_holes() <= 2 && total <= 64 {
        let mut out = vec![vec![]];
        for h in 0..l.holes.num_holes() {
            let d = l.holes.domain(h as u32);
            out = out
                .into_iter()
                .flat_map(|p: Vec<u64>| {
                    (0..d).map(move |v| {
                        let mut q = p.clone();
                        q.push(v);
                        q
                    })
                })
                .collect();
        }
        out.into_iter().map(Assignment::from_values).collect()
    } else {
        vec![l.holes.identity_assignment()]
    };
    for a in assignments {
        let concrete_ok = check(&l, &a).is_ok();
        let symbolic_ok = !symbolic_fails(&l, &a);
        assert_eq!(
            concrete_ok, symbolic_ok,
            "evaluators disagree on {a} for:\n{src}"
        );
    }
}

#[test]
fn agreement_on_arithmetic() {
    agree("int g; harness void main() { g = 7 * 6 - 2; assert g == 40; }");
    agree("int g; harness void main() { g = 100 + 100; assert g < 0; }"); // wraps
    agree("int g; harness void main() { g = (0 - 17) % 5; assert g == 0 - 2; }");
    agree("int g; harness void main() { g = (0 - 17) / 5; assert g == 0 - 3; }");
}

#[test]
fn agreement_on_holes() {
    agree("int g; harness void main() { g = ??(2) + ??(2); assert g != 7; }");
    agree("int g; harness void main() { g = ??(2); assert g * g != 9; }");
}

#[test]
fn agreement_on_heap() {
    agree(
        "struct N { int v; N next; }
         harness void main() {
             N a = new N(1, null);
             N b = new N(2, a);
             assert b.next.v == 1;
             b.next.v = 5;
             assert a.v == 5;
         }",
    );
    // Null dereference fails in both.
    agree(
        "struct N { int v; N next; }
         harness void main() {
             N a = new N(1, null);
             assert a.next.v == 0;
         }",
    );
    // Lazy &&: no failure in either.
    agree(
        "struct N { int v; N next; }
         harness void main() {
             N a = new N(1, null);
             assert !(a.next != null && a.next.v == 3);
         }",
    );
}

#[test]
fn agreement_on_arrays() {
    agree(
        "int[4] a;
         harness void main() {
             a[0] = 10; a[3] = 13;
             int i = 3;
             assert a[i] == 13;
             a[i - 3] = 99;
             assert a[0] == 99;
         }",
    );
    // Out-of-bounds fails in both.
    agree(
        "int[4] a;
         harness void main() {
             int i = 4;
             a[i] = 1;
         }",
    );
    // Hole-indexed access: some hole values are OOB.
    agree(
        "int[4] a;
         harness void main() {
             a[??(3)] = 1;
             assert a[0] + a[1] + a[2] + a[3] == 1;
         }",
    );
}

#[test]
fn agreement_on_pool_exhaustion() {
    agree(
        "struct N { int v; }
         harness void main() {
             int k = 0;
             while (k < 9) { N n = new N(k); k = k + 1; }
         }",
    );
}

#[test]
fn agreement_on_atomics() {
    agree(
        "int g = 5;
         harness void main() {
             int old = AtomicSwap(g, 9);
             assert old == 5 && g == 9;
             bit ok = CAS(g, 9, 11);
             assert ok && g == 11;
             bit no = CAS(g, 9, 12);
             assert !no && g == 11;
             int prev = AtomicReadAndDecr(g);
             assert prev == 11 && g == 10;
         }",
    );
}

/// Randomized: straight-line int programs with a hole must agree
/// for every hole value.
#[test]
fn randomized_agreement() {
    cases(64, |rng: &mut Rng| {
        let c1 = rng.range_i64(-20, 19);
        let c2 = rng.range_i64(1, 8);
        let c3 = rng.range_i64(-20, 19);
        let target = rng.range_i64(-40, 39);
        let src = format!(
            "int g;
             harness void main() {{
                 g = ??(3) * {c2} + ({c1});
                 if (g > {c3}) {{ g = g - {c2}; }}
                 assert g != {target};
             }}"
        );
        let cfg = Config::default();
        let l = lowered(&src, &cfg);
        for v in 0..8u64 {
            let a = Assignment::from_values(vec![v]);
            let concrete_ok = check(&l, &a).is_ok();
            let symbolic_ok = !symbolic_fails(&l, &a);
            assert_eq!(concrete_ok, symbolic_ok, "hole={} src={}", v, src);
        }
    });
}
