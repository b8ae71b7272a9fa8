//! Differential testing of the checking engine against the
//! clone-per-transition reference engine, across the example suite.
//!
//! The engine runs a sealed [`CompiledProgram`]; the reference engine
//! (`psketch_exec::reference`) interprets the unsealed
//! `(Lowered, Assignment)` pair and shares none of its code, which
//! makes it an independent oracle. For every suite sketch and a
//! handful of candidates (the identity assignment plus seeded random
//! hole values) the two must agree. With partial-order reduction off,
//! both are deterministic depth-first searches over the same
//! canonical state set in the same worker order, so the comparison is
//! exact: identical verdicts, state and transition counts, and
//! counterexample traces and schedules.
//!
//! With reduction **on**, the engine explores a provably sufficient
//! subset of each state's enabled workers, chosen with the artifact's
//! candidate-sharpened footprint masks, so the contract weakens to
//! verdict equivalence: identical pass/fail classification, every
//! counterexample still refutes the candidate, and — whenever the full
//! search completed — the reduced search never visits more states
//! than full expansion did. The artifact-level
//! contracts (replay, sampling, sharpened-footprint refinement) are
//! checked in `tests/compiled_differential.rs`.

use psketch_repro::exec::reference::check_ref_with_limit;
use psketch_repro::exec::{
    check_compiled, check_with_limit, CheckOutcome, CompiledProgram, Interrupt, SearchLimits,
    Verdict,
};
use psketch_repro::ir::{desugar, lower, Assignment, Lowered};
use psketch_repro::suite::figure9_runs;
use psketch_repro::symbolic::trace_reproduces;
use psketch_testutil::Rng;

/// Bounds each exploration so the whole suite stays test-sized. Both
/// engines dedup by canonical state identity, so (reduction off) they
/// reach the limit or finish under it on exactly the same searches.
const MAX_STATES: usize = 10_000;

fn limits(por: bool) -> SearchLimits {
    SearchLimits {
        por,
        ..SearchLimits::states(MAX_STATES)
    }
}

fn lowered(source: &str, config: &psketch_repro::ir::Config) -> Lowered {
    let p = psketch_repro::lang::check_program(source).unwrap();
    let (sk, holes) = desugar::desugar_program(&p, config).unwrap();
    lower::lower_program(&sk, holes, config).unwrap()
}

/// The identity assignment plus `extra` random ones.
fn candidates(l: &Lowered, extra: usize, rng: &mut Rng) -> Vec<Assignment> {
    let mut out = vec![l.holes.identity_assignment()];
    for _ in 0..extra {
        let values = (0..l.holes.num_holes())
            .map(|h| rng.below(l.holes.domain(h as u32) as usize) as u64)
            .collect();
        out.push(Assignment::from_values(values));
    }
    out
}

/// Exact equivalence: verdict, state/transition counts, and
/// counterexample step sequences and schedules all match.
fn assert_exact(reference: &CheckOutcome, got: &CheckOutcome, label: &str) {
    assert_eq!(
        reference.stats.states, got.stats.states,
        "{label}: engines disagree on the state count"
    );
    assert_eq!(
        reference.stats.transitions, got.stats.transitions,
        "{label}: engines disagree on the transition count"
    );
    match (&reference.verdict, &got.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert_eq!(
                reference.stats.terminal_states, got.stats.terminal_states,
                "{label}"
            );
        }
        (Verdict::Fail(rc), Verdict::Fail(gc)) => {
            assert_eq!(rc.steps, gc.steps, "{label}: counterexample traces differ");
            assert_eq!(
                rc.schedule, gc.schedule,
                "{label}: counterexample schedules differ"
            );
            assert_eq!(
                rc.failure.kind, gc.failure.kind,
                "{label}: failure kinds differ"
            );
        }
        (Verdict::Unknown(rw), Verdict::Unknown(gw)) => {
            assert_eq!(*rw, Interrupt::StateLimit, "{label}: no deadline installed");
            assert_eq!(rw, gw, "{label}");
        }
        (r, g) => panic!("{label}: reference verdict {r:?}, engine verdict {g:?}"),
    }
}

fn compare(l: &Lowered, a: &Assignment, label: &str) {
    let cp = CompiledProgram::compile(l, a);
    let old = check_ref_with_limit(l, a, MAX_STATES);

    // Reduction off: both engines are deterministic DFS over the same
    // canonical state set in the same worker order, so everything —
    // verdict, counts, counterexample — must match exactly.
    let new = check_compiled(&cp, &limits(false));
    assert_exact(&old, &new, label);
    // A full-expansion run must never report reduction activity.
    assert_eq!(new.stats.por_ample_hits, 0, "{label}: por off yet active");
    assert_eq!(new.stats.states_pruned, 0, "{label}: por off yet pruning");

    // Reduction on: verdict equivalence against the full search, plus
    // the cost contract — when the full search completed, the reduced
    // one never visits more states.
    let por_seq = check_compiled(&cp, &limits(true));
    match (&old.verdict, &por_seq.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert!(
                por_seq.stats.states <= old.stats.states,
                "{label}: reduction explored more states ({} > {})",
                por_seq.stats.states,
                old.stats.states
            );
        }
        (Verdict::Pass, v) => panic!("{label}: full search passes, reduced search {v:?}"),
        (Verdict::Fail(_), Verdict::Fail(cex)) => {
            assert!(
                trace_reproduces(l, cex, a),
                "{label}: reduced-search cex does not refute candidate"
            );
        }
        (Verdict::Fail(_), v) => panic!("{label}: full search fails, reduced search {v:?}"),
        // Full search hit the state limit: the reduced search visits a
        // subset of the reachable states, so it may legitimately
        // finish (either way) or hit the limit itself.
        (Verdict::Unknown(_), Verdict::Fail(cex)) => {
            assert!(trace_reproduces(l, cex, a), "{label}: invalid reduced cex");
        }
        (Verdict::Unknown(_), Verdict::Unknown(w)) => {
            assert_eq!(*w, Interrupt::StateLimit, "{label}");
        }
        (Verdict::Unknown(_), Verdict::Pass) => {}
    }
    if por_seq.stats.states_pruned > 0 {
        assert!(
            por_seq.stats.por_ample_hits > 0,
            "{label}: pruning without ample hits"
        );
    }
}

#[test]
fn engines_agree_on_suite_sketches() {
    // One run per distinct benchmark keeps the test tractable; the
    // generated sources differ only in workload within a benchmark.
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(13);
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        for (ix, a) in candidates(&l, 2, &mut rng).iter().enumerate() {
            compare(&l, a, &format!("{} candidate {ix}", run.benchmark));
        }
    }
}

#[test]
fn engines_agree_on_small_programs() {
    let programs = [
        // Deterministic pass.
        "int g;
         harness void main() {
             fork (i; 2) { int old = AtomicReadAndIncr(g); }
             assert g == 2;
         }",
        // Lost-update race: fails.
        "int g;
         harness void main() {
             fork (i; 2) { int t = g; g = t + 1; }
             assert g == 2;
         }",
        // Deadlock.
        "int a; int b;
         harness void main() {
             fork (i; 2) {
                 if (i == 0) { atomic (a == 1) { } b = 1; }
                 else { atomic (b == 1) { } a = 1; }
             }
         }",
        // Sequential-only program: no fork, prologue does everything.
        "int g;
         harness void main() {
             g = g + 1;
             assert g == 1;
         }",
        // Three threads, bigger interleaving space.
        "int g;
         harness void main() {
             fork (i; 3) { g = g + 1; g = g + 1; }
             assert g >= 2;
         }",
        // Disjoint per-thread cells: maximal independence, the
        // reduction's best case.
        "int a; int b;
         harness void main() {
             fork (i; 2) {
                 if (i == 0) { a = a + 1; a = a + 1; }
                 else { b = b + 1; b = b + 1; }
             }
             assert a == 2 && b == 2;
         }",
        // Hole-guarded branching: folding eliminates one arm.
        "int g;
         harness void main() {
             fork (i; 2) {
                 if (??(1) == 0) { int old = AtomicReadAndIncr(g); }
                 else { g = g + 1; }
             }
             assert g == 2;
         }",
        // Hole-indexed array writes: the static footprint is the whole
        // array, the candidate-sharpened one a single cell.
        "int[4] a;
         harness void main() {
             fork (i; 2) { a[??(2) + i] = 1; }
             assert a[0] >= 0;
         }",
        // pid() written to a shared global: the workers differ only
        // in the value they store.
        "int owner;
         harness void main() {
             fork (i; 2) { owner = pid(); }
             assert owner >= 1;
         }",
    ];
    let cfg = psketch_repro::ir::Config::default();
    let mut rng = Rng::new(17);
    for (px, src) in programs.iter().enumerate() {
        let l = lowered(src, &cfg);
        for (ix, a) in candidates(&l, 3, &mut rng).iter().enumerate() {
            compare(&l, a, &format!("program {px} candidate {ix}"));
        }
    }
}

/// On a workload with real independence the reduction must actually
/// fire: fewer states than full expansion, ample hits and pruned
/// expansions reported, same verdict.
#[test]
fn reduction_prunes_disjoint_updates() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int a; int b; int c;
         harness void main() {
             fork (i; 3) {
                 if (i == 0) { a = a + 1; a = a + 1; }
                 else { if (i == 1) { b = b + 1; b = b + 1; }
                        else { c = c + 1; c = c + 1; } }
             }
             assert a == 2 && b == 2 && c == 2;
         }",
        &cfg,
    );
    let cp = CompiledProgram::compile(&l, &l.holes.identity_assignment());
    let full = check_compiled(&cp, &limits(false));
    let red = check_compiled(&cp, &limits(true));
    assert!(full.is_ok() && red.is_ok());
    assert!(
        red.stats.states < full.stats.states,
        "reduction did not prune: {} vs {}",
        red.stats.states,
        full.stats.states
    );
    assert!(red.stats.por_ample_hits > 0);
    assert!(red.stats.states_pruned > 0);
    assert_eq!(full.stats.por_ample_hits, 0);
}

/// The engine's accounting must reflect its zero-clone design: a
/// sequential search journals writes and never clones, while the
/// reference engine clones per transition and journals nothing.
#[test]
fn accounting_reflects_engine_design() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int g;
         harness void main() {
             fork (i; 2) { int old = AtomicReadAndIncr(g); }
             assert g == 2;
         }",
        &cfg,
    );
    let a = l.holes.identity_assignment();
    let new = check_compiled(&CompiledProgram::compile(&l, &a), &limits(false));
    assert!(new.is_ok());
    assert!(
        new.stats.journal_writes > 0,
        "the engine journals its writes"
    );
    assert_eq!(new.stats.state_clones, 0, "sequential search never clones");
    let old = check_ref_with_limit(&l, &a, MAX_STATES);
    assert!(old.is_ok());
    assert!(
        old.stats.state_clones >= old.stats.transitions as usize,
        "reference engine clones at least once per transition"
    );
}

/// The pass/unknown boundary is claim-based in both engines and sits
/// at exactly the reachable state count: a limit of N (the exact
/// count) passes, N-1 is unknown with stats clamped to the limit.
#[test]
fn state_limit_boundary_is_exact() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int g;
         harness void main() {
             fork (i; 3) { int old = AtomicReadAndIncr(g); }
             assert g == 3;
         }",
        &cfg,
    );
    let a = l.holes.identity_assignment();
    let full = check_with_limit(&l, &a, usize::MAX);
    assert!(full.is_ok(), "baseline must pass");
    let n = full.stats.states;
    assert!(n > 2, "sketch must have a nontrivial state space");
    let engines: [(&str, &dyn Fn(usize) -> CheckOutcome); 2] = [
        ("engine", &|max| check_with_limit(&l, &a, max)),
        ("reference", &|max| check_ref_with_limit(&l, &a, max)),
    ];
    for (name, check) in engines {
        let exact = check(n);
        assert!(exact.is_ok(), "{name}: limit == reachable count must pass");
        assert_eq!(exact.stats.states, n, "{name}");
        let under = check(n - 1);
        assert!(
            matches!(under.verdict, Verdict::Unknown(Interrupt::StateLimit)),
            "{name}: limit == count-1 must be unknown, got {:?}",
            under.verdict
        );
        assert_eq!(under.stats.states, n - 1, "{name}: clamped to the limit");
    }
}

/// Failures before the interleaving search starts (prologue assertion,
/// first local-step absorption) report the work actually done — one
/// examined state and the executed trace steps — identically in both
/// engines, not zeroed counters.
#[test]
fn early_failures_report_real_counts() {
    let cfg = psketch_repro::ir::Config::default();
    // Prologue failure: the assert runs before any fork.
    let prologue = lowered(
        "int g;
         harness void main() {
             g = 3;
             assert g == 4;
             fork (i; 2) { g = g + 1; }
         }",
        &cfg,
    );
    // Initial-advance failure: each thread's first local burst trips.
    let advance = lowered(
        "int g;
         harness void main() {
             fork (i; 1) { int t = 1; assert t == 2; }
         }",
        &cfg,
    );
    for (name, l) in [("prologue", &prologue), ("advance", &advance)] {
        let a = l.holes.identity_assignment();
        let got = check_with_limit(l, &a, MAX_STATES);
        assert!(matches!(got.verdict, Verdict::Fail(_)), "{name}");
        assert_eq!(got.stats.states, 1, "{name}: one context was examined");
        assert!(got.stats.transitions > 0, "{name}: steps were executed");
        assert_exact(&check_ref_with_limit(l, &a, MAX_STATES), &got, name);
    }
}
