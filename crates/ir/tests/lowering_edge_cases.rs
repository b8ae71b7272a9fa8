//! Edge cases of the lowering pipeline: constructs at the boundaries
//! of what the paper's language supports.

use psketch_ir::{desugar::desugar_program, lower, Config, Op, Rv};
use psketch_lang::check_program;

fn lower_ok(src: &str) -> psketch_ir::Lowered {
    let cfg = Config::default();
    let p = check_program(src).unwrap();
    let (sk, holes) = desugar_program(&p, &cfg).unwrap();
    lower::lower_program(&sk, holes, &cfg).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

fn lower_err(src: &str) -> String {
    let cfg = Config::default();
    let p = check_program(src).unwrap();
    match desugar_program(&p, &cfg).and_then(|(sk, holes)| lower::lower_program(&sk, holes, &cfg)) {
        Err(e) => e.message,
        Ok(_) => panic!("expected lowering to fail:\n{src}"),
    }
}

#[test]
fn harness_locals_after_fork_are_shared() {
    let l = lower_ok(
        "int g;
         harness void main() {
             fork (i; 2) { g = g + 1; }
             int seen = g;
             assert seen >= 1;
         }",
    );
    // `seen` is hoisted to a global and written by the epilogue.
    assert!(l.globals.iter().any(|s| s.name == "seen$h"));
    assert!(l
        .epilogue
        .steps
        .iter()
        .any(|s| matches!(s.op, Op::Assign(psketch_ir::Lv::Global(_), _))));
}

#[test]
fn fork_count_via_define() {
    let l = lower_ok(
        "#define N 3
         int g;
         harness void main() {
             fork (i; N) { g = g + 1; }
         }",
    );
    assert_eq!(l.workers.len(), 3);
}

#[test]
fn fork_count_arithmetic_constant() {
    let l = lower_ok(
        "int g;
         harness void main() {
             fork (i; 1 + 1) { g = g + i; }
         }",
    );
    assert_eq!(l.workers.len(), 2);
}

#[test]
fn while_with_complex_condition_unrolls() {
    let l = lower_ok(
        "struct N { int v; N next; }
         N head;
         harness void main() {
             head = new N(1, null);
             head.next = new N(2, null);
             N c = head;
             int sum = 0;
             while (c != null && sum < 100) {
                 sum = sum + c.v;
                 c = c.next;
             }
             assert sum == 3;
         }",
    );
    // Termination-bound assertion present.
    let asserts = l
        .prologue
        .steps
        .iter()
        .filter(|s| matches!(s.op, Op::Assert(_)))
        .count();
    assert!(asserts >= 2, "loop bound + user assert");
}

#[test]
fn nested_calls_inline_transitively() {
    let l = lower_ok(
        "int inc(int x) { return x + 1; }
         int inc2(int x) { return inc(inc(x)); }
         int g;
         harness void main() { g = inc2(g); assert g == 2; }",
    );
    assert!(l.prologue.locals.iter().any(|s| s.name.contains("inc2")));
    assert!(l.prologue.locals.iter().any(|s| s.name.contains("inc.")));
}

#[test]
fn shared_holes_across_threads_and_calls() {
    // The same static `??` site must be one hole even though the
    // function is inlined into two workers twice each.
    let l = lower_ok(
        "int g;
         void bump() { g = g + ??(2); }
         harness void main() {
             fork (i; 2) { bump(); bump(); }
         }",
    );
    assert_eq!(l.holes.num_holes(), 1, "holes are per static site");
    // And the hole is referenced from both workers.
    for w in &l.workers {
        let uses_hole = w
            .steps
            .iter()
            .any(|s| matches!(&s.op, Op::Assign(_, rv) if rv_mentions_hole(rv)));
        assert!(uses_hole, "worker {} must reference the hole", w.name);
    }
}

fn rv_mentions_hole(rv: &Rv) -> bool {
    match rv {
        Rv::Hole(_) => true,
        Rv::Binary(_, a, b) => rv_mentions_hole(a) || rv_mentions_hole(b),
        Rv::Unary(_, a) => rv_mentions_hole(a),
        Rv::Ite(c, a, b) => rv_mentions_hole(c) || rv_mentions_hole(a) || rv_mentions_hole(b),
        Rv::Field { obj, .. } => rv_mentions_hole(obj),
        Rv::GlobalDyn { ix, .. } | Rv::LocalDyn { ix, .. } => rv_mentions_hole(ix),
        _ => false,
    }
}

#[test]
fn equivalence_mode_with_array_returns() {
    let cfg = Config::default();
    let p = check_program(
        "int[3] spec(int[3] a) {
             int[3] r;
             r[0] = a[2]; r[1] = a[1]; r[2] = a[0];
             return r;
         }
         int[3] rev(int[3] a) implements spec {
             int[3] r;
             r[0] = a[??(2)]; r[1] = a[1]; r[2] = a[??(2)];
             return r;
         }",
    )
    .unwrap();
    let (sk, holes) = desugar_program(&p, &cfg).unwrap();
    let l = lower::lower_equivalence(&sk, holes, "rev", &cfg).unwrap();
    // Three input slots (flattened array).
    assert_eq!(l.globals.iter().filter(|g| g.is_input).count(), 3);
    // Elementwise equality asserts.
    let asserts = l
        .prologue
        .steps
        .iter()
        .filter(|s| matches!(s.op, Op::Assert(_)))
        .count();
    assert_eq!(asserts, 3);
}

#[test]
fn errors_for_unsupported_shapes() {
    assert!(lower_err(
        "int g;
         harness void main() {
             if (g == 0) { fork (i; 2) { g = 1; } }
         }"
    )
    .contains("fork"));
    assert!(lower_err(
        "int g;
         harness void main() {
             int n = 2;
             int x = g / n;
         }"
    )
    .contains("non-constant"));
    // A hole is no constant divisor either: the symbolic evaluator's
    // constant-divisor `expect`s cannot be reached from source.
    for op in ["/", "%"] {
        assert!(lower_err(&format!(
            "int g;
             harness void main() {{
                 int x = g {op} ??(2);
             }}"
        ))
        .contains("division by a non-constant is not supported"));
    }
    assert!(lower_err(
        "struct Lock { int owner; }
         Lock lk;
         int probe() { lk.owner = 1; return 1; }
         harness void main() {
             lk = new Lock(0);
             atomic (probe() == 1) { }
         }"
    )
    .contains("pure"));
}

#[test]
fn guards_never_read_shared_state() {
    // The key lowering invariant for trace projection (§6): guards
    // must be thread-local. Check it over a construct-rich program.
    let l = lower_ok(
        "struct N { int v; N next; }
         N head; int g;
         int f(int x) { if (x > 0) { return x; } return 0 - x; }
         harness void main() {
             head = new N(5, null);
             fork (i; 2) {
                 int k = f(i);
                 while (k < 2) { k = k + 1; }
                 if (head.v > 3) { atomic { g = g + k; } }
             }
             assert g >= 0;
         }",
    );
    for tid in 0..l.num_threads() {
        for (ix, step) in l.thread(tid).steps.iter().enumerate() {
            assert!(
                !psketch_ir::Footprint::of_rv(&step.guard).is_shared(),
                "thread {tid} step {ix} guard reads shared: {}",
                step.guard
            );
        }
    }
}

#[test]
fn visible_step_counts_stay_reasonable() {
    // A sanity bound that keeps the model checker's branching factor
    // in SPIN territory: the queueE2 worker has tens (not hundreds)
    // of shared steps.
    let l = lower_ok(
        "struct E { Object v; E next; int taken; }
         E tail;
         void Enqueue(Object x) {
             E tmp = null;
             E n = new E(x, null, 0);
             reorder {
                 tmp = AtomicSwap(tail, n);
                 tmp.next = n;
             }
         }
         harness void main() {
             tail = new E(0, null, 1);
             fork (i; 2) { Enqueue(i + 1); }
             assert tail != null;
         }",
    );
    let visible = l.workers[0].steps.iter().filter(|s| s.shared).count();
    assert!(visible <= 20, "worker has {visible} shared steps");
}
