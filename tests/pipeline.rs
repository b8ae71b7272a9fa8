//! Cross-crate integration: the full pipeline from source text to
//! synthesized implementation, exercising lang → ir → exec → symbolic
//! → core together.

use psketch_repro::core::{Mode, Options, Synthesis};
use psketch_repro::exec::{check, FailureKind};
use psketch_repro::ir::{desugar::desugar_program, lower::lower_program, Assignment, Config};

#[test]
fn parse_to_check_roundtrip() {
    let src = "
        struct Node { int v; Node next; }
        Node head;
        harness void main() {
            head = new Node(1, null);
            head.next = new Node(2, null);
            fork (i; 2) {
                int old = AtomicReadAndIncr(head.v);
            }
            assert head.v == 3;
            assert head.next.v == 2;
        }";
    let cfg = Config::default();
    let p = psketch_repro::lang::check_program(src).unwrap();
    let (sk, holes) = desugar_program(&p, &cfg).unwrap();
    let l = lower_program(&sk, holes, &cfg).unwrap();
    let out = check(&l, &l.holes.identity_assignment());
    assert!(out.is_ok(), "{:?}", out.counterexample());
    assert!(out.stats.states > 1);
}

#[test]
fn synthesis_modes_autodetect() {
    let concurrent = Synthesis::new(
        "int g; harness void main() { g = ??(2); assert g == 1; }",
        Options::default(),
    )
    .unwrap();
    assert_eq!(*concurrent.mode(), Mode::Harness);

    let sequential = Synthesis::new(
        "int s(int x) { return x + 1; } int f(int x) implements s { return x + ??(1); }",
        Options::default(),
    )
    .unwrap();
    assert!(matches!(sequential.mode(), Mode::Equivalence(n) if n == "f"));
    let out = sequential.run();
    assert_eq!(out.resolution.unwrap().assignment.value(0), 1);
}

#[test]
fn resolution_source_reparses_and_verifies() {
    // The printed resolution must itself be a valid, hole-free
    // program that passes verification.
    let src = "
        int g;
        harness void main() {
            reorder { g = g + 2; g = g * 3; }
            assert g == 6;
        }";
    let s = Synthesis::new(src, Options::default()).unwrap();
    let out = s.run();
    let r = out.resolution.expect("resolvable: (0+2)*3 = 6");
    let reparsed = psketch_repro::lang::check_program(&r.source)
        .unwrap_or_else(|e| panic!("resolved source invalid: {e}\n{}", r.source));
    let cfg = Config::default();
    let (sk2, holes2) = desugar_program(&reparsed, &cfg).unwrap();
    assert_eq!(holes2.num_holes(), 0, "resolution left holes behind");
    let l2 = lower_program(&sk2, holes2, &cfg).unwrap();
    let out2 = check(&l2, &Assignment::from_values(vec![]));
    assert!(
        out2.is_ok(),
        "resolved program fails: {:?}",
        out2.counterexample()
    );
}

#[test]
fn counterexamples_replay_deterministically() {
    let src = "
        int g;
        harness void main() {
            fork (i; 2) { int t = g; g = t + 1; }
            assert g == 2;
        }";
    let cfg = Config::default();
    let p = psketch_repro::lang::check_program(src).unwrap();
    let (sk, holes) = desugar_program(&p, &cfg).unwrap();
    let l = lower_program(&sk, holes, &cfg).unwrap();
    let a = l.holes.identity_assignment();
    let c1 = check(&l, &a);
    let c2 = check(&l, &a);
    let t1 = c1.counterexample().expect("racy");
    let t2 = c2.counterexample().expect("racy");
    assert_eq!(t1.steps, t2.steps, "checker must be deterministic");
    assert_eq!(t1.failure.kind, FailureKind::AssertFailed);
}

#[test]
fn every_failure_kind_is_reachable() {
    let cases: &[(&str, FailureKind)] = &[
        (
            "harness void main() { assert 1 == 2; }",
            FailureKind::AssertFailed,
        ),
        (
            "struct N { int v; } N g; harness void main() { int x = g.v; }",
            FailureKind::NullDeref,
        ),
        (
            "int[3] a; harness void main() { int i = 5; a[i] = 1; }",
            FailureKind::OutOfBounds,
        ),
        (
            "struct N { int v; }
             harness void main() {
                 int k = 0;
                 while (k < 20) { N n = new N(1); k = k + 1; }
             }",
            FailureKind::PoolExhausted,
        ),
        (
            "int g;
             harness void main() {
                 fork (i; 2) { atomic (g == 1) { } }
             }",
            FailureKind::Deadlock,
        ),
    ];
    for (src, want) in cases {
        let cfg = Config {
            unroll: 24,
            ..Config::default()
        };
        let p = psketch_repro::lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower_program(&sk, holes, &cfg).unwrap();
        let out = check(&l, &l.holes.identity_assignment());
        let cex = out
            .counterexample()
            .unwrap_or_else(|| panic!("{src} passed"));
        assert_eq!(cex.failure.kind, *want, "{src}");
    }
}

#[test]
fn statistics_are_consistent() {
    let s = Synthesis::new(
        "int g;
         harness void main() {
             fork (i; 2) {
                 if (??(1) == 0) { int t = g; g = t + 1; }
                 else { int old = AtomicReadAndIncr(g); }
             }
             assert g == 2;
         }",
        Options::default(),
    )
    .unwrap();
    let out = s.run();
    assert!(out.resolved());
    let st = &out.stats;
    assert!(st.iterations >= 2, "needs at least one counterexample");
    assert!(st.total >= st.s_solve);
    assert!(st.total >= st.v_solve);
    assert!(st.cost.check.states > 0);
    assert_eq!(st.candidate_space, 2);
}
