//! Soundness properties of the CEGIS loop, checked against brute
//! force on small candidate spaces:
//!
//! * progress: every counterexample trace refutes the candidate that
//!   produced it (otherwise the loop would cycle);
//! * soundness of "yes": a resolved candidate passes the model checker,
//!   and so does the program printed for it;
//! * soundness of "NO": when the synthesizer answers unresolvable,
//!   exhaustive enumeration confirms every candidate fails;
//! * under-approximation: observations never eliminate a candidate
//!   that the checker accepts.

use psketch_repro::core::{Config, Options, Synthesis};
use psketch_repro::exec::check;
use psketch_repro::ir::{Assignment, HoleTable, Lowered};
use psketch_repro::symbolic::synth::{trace_reproduces, Synthesizer};

/// Enumerates every assignment of a (small) hole table.
fn enumerate_assignments(table: &HoleTable) -> Vec<Assignment> {
    let mut out = vec![vec![]];
    for h in 0..table.num_holes() {
        let d = table.domain(h as u32);
        let mut next = Vec::new();
        for prefix in &out {
            for v in 0..d {
                let mut p = prefix.clone();
                p.push(v);
                next.push(p);
            }
        }
        out = next;
    }
    out.into_iter().map(Assignment::from_values).collect()
}

/// True when `a` satisfies the sketch's static constraints (reorder
/// permutation-ness), via concrete evaluation.
fn satisfies_constraints(l: &Lowered, a: &Assignment) -> bool {
    use psketch_repro::lang::ast::{BinOp, Expr};
    fn eval(e: &Expr, a: &Assignment) -> i64 {
        match e {
            Expr::HoleRef(h, _, _) => a.value(*h) as i64,
            Expr::Int(v, _) => *v,
            Expr::Binary(op, x, y, _) => {
                let (x, y) = (eval(x, a), eval(y, a));
                match op {
                    BinOp::Ne => i64::from(x != y),
                    BinOp::Eq => i64::from(x == y),
                    BinOp::And => i64::from(x != 0 && y != 0),
                    BinOp::Or => i64::from(x != 0 || y != 0),
                    _ => panic!("unexpected constraint op"),
                }
            }
            other => panic!("unexpected constraint expr {other:?}"),
        }
    }
    l.holes.constraints().iter().all(|c| eval(c, a) != 0)
}

/// Runs brute-force ground truth vs. the CEGIS answer on one sketch.
fn cross_validate(src: &str) {
    let s = Synthesis::new(src, Options::default()).unwrap_or_else(|e| panic!("{e}"));
    let l = s.lowered();
    assert!(
        l.holes.candidate_space() <= 4096,
        "keep cross-validation spaces small"
    );

    // Ground truth by enumeration.
    let all = enumerate_assignments(&l.holes);
    let correct: Vec<&Assignment> = all
        .iter()
        .filter(|a| satisfies_constraints(l, a) && check(l, a).is_ok())
        .collect();

    // CEGIS with per-iteration progress checks.
    let mut synth = Synthesizer::new(l);
    let mut resolved = None;
    for _ in 0..200 {
        match synth.next_candidate() {
            Err(_) => break,
            Ok(cand) => {
                let out = check(l, &cand);
                match out.counterexample() {
                    None => {
                        resolved = Some(cand);
                        break;
                    }
                    Some(cex) => {
                        assert!(
                            trace_reproduces(l, cex, &cand),
                            "trace fails to refute its own candidate {cand} in {src}"
                        );
                        for good in &correct {
                            assert!(
                                !trace_reproduces(l, cex, good),
                                "the trace of {cand} refutes the correct {good} in {src}"
                            );
                        }
                        synth.add_trace(cex);
                    }
                }
            }
        }
    }
    match (&resolved, correct.is_empty()) {
        (Some(cand), false) => {
            assert!(
                check(l, cand).is_ok(),
                "CEGIS returned a bad candidate for {src}"
            );
            // The program printed for it, lowered again, passes too.
            let source = s.resolution_source(cand);
            let printed = Synthesis::new(&source, Options::default())
                .unwrap_or_else(|e| panic!("{e}\n{source}"));
            let p = printed.lowered();
            assert!(
                check(p, &p.holes.identity_assignment()).is_ok(),
                "the printed resolution of {cand} fails:\n{source}"
            );
        }
        (None, true) => {} // both say unresolvable
        (Some(cand), true) => {
            panic!("CEGIS resolved {cand} but enumeration found no correct candidate:\n{src}")
        }
        (None, false) => {
            panic!(
                "CEGIS said NO but {} correct candidate(s) exist (e.g. {}):\n{src}",
                correct.len(),
                correct[0]
            )
        }
    }
}

#[test]
fn cross_validation_constants() {
    cross_validate("int g; harness void main() { g = ??(3); assert g == 6; }");
    cross_validate("int g; harness void main() { g = ??(2); assert g == 9; }"); // NO
    cross_validate("int g; harness void main() { g = ??(2) + ??(2); assert g == 5 && g > 4; }");
    // A full-width hole: candidate 200 means -56 at int width 8, as
    // the literal 200 does, in the synthesizer and the checker alike.
    cross_validate("int g; harness void main() { g = ??(8); assert g == -56; }");
    // (0 + 4) * 40 = 160 wraps to -96 at int width 8: the printed
    // resolution keeps the else branch, as the checker does.
    cross_validate(
        "int g;
         harness void main() {
             if ((??(3) + 4) * 40 > 100) { g = 1; } else { g = 2; }
             assert g == 2;
         }",
    );
}

#[test]
fn holes_wider_than_int_width_are_rejected() {
    // Each sketch has a correct candidate only beyond the 2^8 values
    // an 8-bit int can tell apart; answering NO would be unsound.
    for src in [
        "int g; harness void main() { g = ??(9); assert g == 5; }",
        "int g;
         harness void main() {
             int a = 1; int b = 2; int c = 3; int d = 4;
             g = {| (a|b|c|d|1|2|3) (+|-) (a|b|c|d|1|2|3) (+|-) (a|b|c|d|1|2|3) |};
             assert g == 12;
         }",
    ] {
        let err = match Synthesis::new(src, Options::default()) {
            Ok(s) => panic!(
                "answered {} instead of an error:\n{src}",
                s.run().resolvable()
            ),
            Err(e) => e,
        };
        assert!(err.message.contains("int width 8"), "{err}");
    }
}

#[test]
fn cross_validation_reorder() {
    cross_validate(
        "int g;
         harness void main() {
             reorder { g = g + 1; g = g * 2; g = g + 3; }
             assert g == 5;
         }",
    );
    // (0+1)*2+3 = 5 exists; also check an unsatisfiable target.
    cross_validate(
        "int g;
         harness void main() {
             reorder { g = g + 1; g = g * 2; }
             assert g == 7;
         }",
    );
}

#[test]
fn cross_validation_concurrent_race() {
    cross_validate(
        "int g;
         harness void main() {
             fork (i; 2) {
                 if (??(1) == 0) { int t = g; g = t + 1; }
                 else { int old = AtomicReadAndIncr(g); }
             }
             assert g == 2;
         }",
    );
}

#[test]
fn cross_validation_conditional_atomics() {
    cross_validate(
        "int turn; int done0; int done1;
         harness void main() {
             fork (i; 2) {
                 if (i == 0) {
                     done0 = 1;
                     atomic { turn = ??(1); }
                 } else {
                     atomic (turn == 1);
                     done1 = done0 + 1;
                 }
             }
             assert done1 == 2;
         }",
    );
}

#[test]
fn cross_validation_choice_locations() {
    cross_validate(
        "struct E { E next; int v; }
         E a; E b;
         harness void main() {
             a = new E(null, 1);
             b = new E(null, 2);
             fork (i; 2) {
                 int old = AtomicReadAndIncr({| (a|b).v |});
             }
             assert a.v == 3 || b.v == 4;
         }",
    );
}

#[test]
fn cross_validation_deadlocks() {
    // Only matching lock orders avoid deadlock.
    cross_validate(
        "struct Lock { int owner = -1; }
         Lock x; Lock y; int g;
         void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
         void unlock(Lock l) { l.owner = -1; }
         harness void main() {
             x = new Lock(); y = new Lock();
             fork (i; 2) {
                 if (??(1) == 0) {
                     if (i == 0) { lock(x); lock(y); } else { lock(y); lock(x); }
                 } else { lock(x); lock(y); }
                 g = g + 1;
                 unlock(y); unlock(x);
             }
             assert g == 2;
         }",
    );
    // A conditional atomic that blocks in the prologue: no other
    // thread can run, so the trace must refute its candidate by the
    // blocked step alone.
    cross_validate(
        "int g; harness void main() { g = ??(1); atomic (g == 1) { g = 2; } assert g == 2; }",
    );
    // The blocked step is checked after the untraced `g = 1` before
    // it, which unblocks it for every candidate with the second hole 1.
    cross_validate(
        "int g;
         harness void main() {
             g = ??(1);
             if (??(1) == 1) { g = 1; }
             atomic (g == 1) { g = 2; }
             assert g == 2;
         }",
    );
    // The same in the epilogue, after every worker has run.
    cross_validate(
        "int g;
         harness void main() {
             fork (i; 2) { g = ??(1); }
             atomic (g == 1) { g = 2; }
             assert g == 2;
         }",
    );
}

#[test]
fn sequential_equivalence_cross_validation() {
    // Sequential mode ground truth: enumerate holes, verify by SAT.
    let src = "int s(int x) { return x * 4; }
               int f(int x) implements s { return x * ??(3); }";
    let synth = Synthesis::new(src, Options::default()).unwrap();
    let l = synth.lowered();
    let good: Vec<Assignment> = enumerate_assignments(&l.holes)
        .into_iter()
        .filter(|a| psketch_repro::symbolic::verify_sequential(l, a).is_none())
        .collect();
    assert_eq!(good.len(), 1);
    assert_eq!(good[0].value(0), 4);
    let out = synth.run();
    assert_eq!(out.resolution.unwrap().assignment.value(0), 4);
}

/// Options for an `int` of `int_width` bits.
fn at_width(int_width: u32) -> Options {
    Options {
        config: Config {
            int_width,
            ..Config::default()
        },
        ..Options::default()
    }
}

/// Widths past 16 bits take the synthesizer's wide bitvector class. A
/// harness sketch at 40 and 62 bits runs the loop, each of its traces
/// refuting its own candidate (`add_trace`, `trace_reproduces`), and
/// an `implements` sketch at 32 bits runs `verify_sequential` and
/// `add_input`.
#[test]
fn wide_programs_resolve() {
    let harness = "int g; harness void main() { g = ??(4) * 100000; assert g == 700000; }";
    for width in [40, 62] {
        let s = Synthesis::new(harness, at_width(width)).unwrap();
        let l = s.lowered();
        let mut synth = Synthesizer::new(l);
        let mut traces = 0;
        let resolved = loop {
            let cand = synth.next_candidate().expect("resolvable");
            let Some(cex) = check(l, &cand).counterexample().cloned() else {
                break cand;
            };
            assert!(trace_reproduces(l, &cex, &cand), "width {width}: {cand}");
            synth.add_trace(&cex);
            traces += 1;
        };
        assert_eq!(resolved.value(0), 7, "width {width}");
        assert!(traces > 0, "width {width}");
        let out = s.run();
        let source = out.resolution.expect("resolves").source;
        assert!(source.contains("g = 700000;"), "width {width}:\n{source}");
    }
    let seq = "int s(int x) { return x * 4; }
               int f(int x) implements s { return x * ??(3); }";
    let s = Synthesis::new(seq, at_width(32)).unwrap();
    let l = s.lowered();
    assert!(
        psketch_repro::symbolic::verify_sequential(l, &Assignment::from_values(vec![4])).is_none()
    );
    let cex = psketch_repro::symbolic::verify_sequential(l, &Assignment::from_values(vec![3]));
    let x = cex.expect("x * 3 differs from x * 4")[0];
    assert_ne!((x * 3) as i32, (x * 4) as i32, "{x} is no counterexample");
    let out = s.run();
    assert!(out.stats.iterations >= 2, "an input was observed");
    assert_eq!(out.resolution.expect("resolves").assignment.value(0), 4);
}

#[test]
fn unknown_is_not_reported_as_no() {
    // With a tiny state budget the checker returns Unknown; the driver
    // must not claim definite unresolvability.
    let opts = Options {
        max_states: 3,
        max_iterations: 5,
        ..Options::default()
    };
    let out = Synthesis::new(
        "int g;
         harness void main() {
             fork (i; 3) { g = g + 1; g = g + 1; }
             assert g >= 0;
         }",
        opts,
    )
    .unwrap()
    .run();
    assert!(!out.resolved());
    assert!(!out.definitely_unresolvable, "budget exhaustion is not NO");
}
