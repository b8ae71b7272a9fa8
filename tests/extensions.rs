//! The paper's omitted benchmarks (§8.2: "we have sketched other data
//! structures that we omit here, including a doubly-linked list and
//! full version of the lazy list-based set"), reconstructed as
//! extensions, plus the multi-solution (autotuning) API of §8.3.1.

use psketch_repro::core::{Config, Options, Synthesis};
use psketch_repro::suite::dlist::{dlist_source, DlistVariant};
use psketch_repro::suite::set::{set_source, SetVariant};
use psketch_repro::suite::workload::Workload;

#[test]
fn doubly_linked_list_synthesis() {
    let src = dlist_source(DlistVariant::Sketch, 1);
    let opts = Options {
        config: Config {
            unroll: 6,
            pool: 6,
            ..Config::default()
        },
        ..Options::default()
    };
    let s = Synthesis::new(&src, opts).unwrap();
    let out = s.run();
    let r = out.resolution.expect("dlist resolves");
    let ins = s.resolve_function("insertAfter", &r.assignment).unwrap();
    // Safe publication: forward link before reachability.
    assert!(
        ins.find("n.next = q").unwrap() < ins.find("p.next = n").unwrap(),
        "{ins}"
    );
    // Backward consistency established too (epilogue enforces it).
    assert!(
        ins.contains("q.prev = n") || ins.contains("n.prev = p"),
        "{ins}"
    );
}

#[test]
fn two_lock_lazy_remove_resolves_where_one_lock_cannot() {
    // The same mixed add/remove workload answers NO with one lock
    // (paper §8.2.4) and resolves with the standard two locks — the
    // "full version" the paper mentions.
    let w = Workload::parse("ar(ar|ar)").unwrap();
    let opts = Options {
        config: Config {
            unroll: w.total_inserts() + 3,
            pool: w.total_inserts() + 3,
            ..Config::default()
        },
        ..Options::default()
    };

    let one_lock = Synthesis::new(&set_source(SetVariant::Lazy, &w), opts.clone())
        .unwrap()
        .run();
    assert!(one_lock.definitely_unresolvable, "one lock: NO");

    let two_locks = Synthesis::new(&set_source(SetVariant::LazyTwoLock, &w), opts)
        .unwrap()
        .run();
    assert!(two_locks.resolved(), "two locks: yes");
}

#[test]
fn enumerate_collects_reorder_freedom() {
    // Three independent writes to distinct globals: all 6 orders are
    // correct and enumerable.
    let s = Synthesis::new(
        "int a; int b; int c;
         harness void main() {
             reorder { a = 1; b = 2; c = 3; }
             assert a == 1 && b == 2 && c == 3;
         }",
        Options::default(),
    )
    .unwrap();
    let all = s.enumerate(100);
    assert_eq!(all.len(), 6);
    let unique: std::collections::HashSet<String> = all.iter().map(|r| r.source.clone()).collect();
    assert_eq!(unique.len(), 6, "resolutions must be distinct programs");
}

#[test]
fn exponential_encoding_reaches_every_permutation() {
    // Regression for a desugaring bug: insertion positions must range
    // over the expanded representation, or some permutations (e.g.
    // the identity) become unreachable. With three independent
    // writes, both encodings must reach all 3! orders.
    use psketch_repro::core::ReorderEncoding;
    let src = "int a; int b; int c;
         harness void main() {
             reorder { a = 1; b = 2; c = 3; }
             assert a == 1 && b == 2 && c == 3;
         }";
    for enc in [ReorderEncoding::Quadratic, ReorderEncoding::Exponential] {
        let opts = Options {
            config: Config {
                reorder: enc,
                ..Config::default()
            },
            ..Options::default()
        };
        let s = Synthesis::new(src, opts).unwrap();
        let all = s.enumerate(200);
        let distinct: std::collections::HashSet<String> =
            all.iter().map(|r| r.source.clone()).collect();
        assert_eq!(
            distinct.len(),
            6,
            "{enc:?} reaches {} of 6 permutations",
            distinct.len()
        );
    }
}

#[test]
fn reduction_toggle_preserves_verdicts() {
    use psketch_repro::ir::{desugar::desugar_program, lower::lower_program};
    let cases = [
        ("int g; harness void main() { fork (i; 2) { int t = g; g = t + 1; } assert g == 2; }", false),
        ("int g; harness void main() { fork (i; 2) { atomic { int t = g; g = t + 1; } } assert g == 2; }", true),
    ];
    for (src, expect_ok) in cases {
        for reduce in [true, false] {
            let cfg = Config {
                reduce_local_steps: reduce,
                ..Config::default()
            };
            let p = psketch_repro::lang::check_program(src).unwrap();
            let (sk, holes) = desugar_program(&p, &cfg).unwrap();
            let l = lower_program(&sk, holes, &cfg).unwrap();
            let a = l.holes.identity_assignment();
            let out = psketch_repro::exec::check(&l, &a);
            assert_eq!(out.is_ok(), expect_ok, "reduce={reduce}: {src}");
        }
    }
}
