//! Differential testing of the parallel model checker against the
//! sequential one, across the benchmark suite.
//!
//! For every suite sketch and a handful of candidates (the identity
//! assignment plus seeded random hole values), the parallel checker at
//! 2, 4 and 8 threads must agree with the sequential verdict. When the
//! candidate fails, the parallel counterexample may be a *different*
//! interleaving than the sequential one, so instead of comparing traces
//! we assert that the parallel trace actually refutes the candidate
//! (symbolic replay reproduces the failure).

use psketch_repro::exec::{
    check_parallel_compiled, check_with_limit, CheckOutcome, CompiledProgram, Interrupt,
    SearchLimits, Verdict,
};
use psketch_repro::ir::{desugar, lower, Assignment, Lowered};
use psketch_repro::suite::figure9_runs;
use psketch_repro::symbolic::trace_reproduces;
use psketch_testutil::Rng;

/// Bounds each exploration so the whole suite stays test-sized. Both
/// checkers visit the same canonical state set, so when the sequential
/// search completes under the limit the parallel one does too.
const MAX_STATES: usize = 10_000;

/// Seals `candidate` and checks it with `threads` search threads.
fn check_parallel(
    l: &Lowered,
    candidate: &Assignment,
    max_states: usize,
    threads: usize,
) -> CheckOutcome {
    let cp = CompiledProgram::compile(l, candidate);
    check_parallel_compiled(&cp, &SearchLimits::states(max_states), threads)
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

fn compare(l: &Lowered, a: &Assignment, label: &str) {
    let seq = check_with_limit(l, a, MAX_STATES);
    for threads in [2usize, 4, 8] {
        let par = check_parallel(l, a, MAX_STATES, threads);
        match (&seq.verdict, &par.verdict) {
            (Verdict::Unknown(why), _) => {
                assert_eq!(
                    *why,
                    Interrupt::StateLimit,
                    "{label}: no deadline/cancel installed"
                );
                // Sequential hit the state limit; exploration order
                // differs, so the parallel verdict may legitimately be
                // a (valid) failure found before the limit.
                match &par.verdict {
                    Verdict::Fail(cex) => {
                        assert!(
                            trace_reproduces(l, cex, a),
                            "{label}: parallel cex does not refute candidate"
                        );
                    }
                    Verdict::Unknown(par_why) => {
                        assert_eq!(*par_why, Interrupt::StateLimit, "{label}");
                        // Both clamped to the limit: reported stats
                        // must agree despite the parallel overshoot.
                        assert_eq!(
                            seq.stats.states, par.stats.states,
                            "{label} threads={threads}: clamped unknown stats must agree"
                        );
                    }
                    Verdict::Pass => {
                        panic!(
                            "{label} threads={threads}: sequential hit the state limit; \
                             a passing parallel run would mean the checkers disagree \
                             on the reachable state count"
                        );
                    }
                }
            }
            (Verdict::Pass, v) => {
                assert!(
                    matches!(v, Verdict::Pass),
                    "{label} threads={threads}: sequential passes, parallel {v:?}"
                );
                assert_eq!(
                    seq.stats.states, par.stats.states,
                    "{label} threads={threads}: passing searches must agree on the state count"
                );
                assert_eq!(par.per_thread_states.len(), threads);
            }
            (Verdict::Fail(_), v) => {
                let Verdict::Fail(cex) = v else {
                    panic!("{label} threads={threads}: sequential fails, parallel {v:?}");
                };
                assert!(
                    trace_reproduces(l, cex, a),
                    "{label} threads={threads}: parallel cex does not refute candidate"
                );
            }
        }
    }
}

#[test]
fn parallel_agrees_on_suite_sketches() {
    // One run per distinct benchmark keeps the test tractable; the
    // generated sources differ only in workload within a benchmark.
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(7);
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
fn parallel_agrees_on_small_programs() {
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
        // Three threads, bigger interleaving space.
        "int g;
         harness void main() {
             fork (i; 3) { g = g + 1; g = g + 1; }
             assert g >= 2;
         }",
    ];
    let cfg = psketch_repro::ir::Config::default();
    let mut rng = Rng::new(11);
    for (px, src) in programs.iter().enumerate() {
        let l = lowered(src, &cfg);
        for (ix, a) in candidates(&l, 3, &mut rng).iter().enumerate() {
            compare(&l, a, &format!("program {px} candidate {ix}"));
        }
    }
}

#[test]
fn threads_one_is_the_sequential_path() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int g;
         harness void main() {
             fork (i; 2) { int t = g; g = t + 1; }
             assert g == 2;
         }",
        &cfg,
    );
    let a = l.holes.identity_assignment();
    let seq = check_with_limit(&l, &a, MAX_STATES);
    let par = check_parallel(&l, &a, MAX_STATES, 1);
    // threads = 1 falls back to the sequential checker: identical
    // verdict, stats and (deterministic) counterexample.
    assert_eq!(seq.stats.states, par.stats.states);
    assert_eq!(seq.stats.transitions, par.stats.transitions);
    let (Verdict::Fail(a_cex), Verdict::Fail(b_cex)) = (&seq.verdict, &par.verdict) else {
        panic!("both must fail");
    };
    assert_eq!(a_cex.steps, b_cex.steps);
    assert_eq!(a_cex.failure.kind, b_cex.failure.kind);
}

/// The pass/unknown boundary is claim-based and must sit at exactly
/// the reachable state count for every thread count: a limit of N
/// (the exact count) passes, N-1 is unknown — no thread-count-
/// dependent flip.
#[test]
fn state_limit_boundary_is_thread_count_independent() {
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
    // Establish the exact reachable count with an unbounded
    // sequential search.
    let full = check_with_limit(&l, &a, usize::MAX);
    assert!(full.is_ok(), "baseline must pass");
    let n = full.stats.states;
    assert!(n > 2, "sketch must have a nontrivial state space");
    for threads in [1usize, 2, 4] {
        let exact = check_parallel(&l, &a, n, threads);
        assert!(
            matches!(exact.verdict, Verdict::Pass),
            "threads={threads}: limit == reachable count must pass"
        );
        assert_eq!(exact.stats.states, n, "threads={threads}");
        let under = check_parallel(&l, &a, n - 1, threads);
        assert!(
            matches!(under.verdict, Verdict::Unknown(Interrupt::StateLimit)),
            "threads={threads}: limit == count-1 must be unknown, got {:?}",
            under.verdict
        );
        // Reported stats are clamped to the limit even when racing
        // workers overshot the visited set.
        assert!(
            under.stats.states < n,
            "threads={threads}: clamped stats must respect the limit"
        );
    }
}

/// Failures before the interleaving search starts (prologue assertion,
/// first local-step absorption) must report the work actually done —
/// one examined state and the executed trace steps — identically in
/// both checkers, not zeroed counters.
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
        let seq = check_with_limit(l, &a, MAX_STATES);
        assert!(matches!(seq.verdict, Verdict::Fail(_)), "{name}");
        assert_eq!(seq.stats.states, 1, "{name}: one context was examined");
        assert!(seq.stats.transitions > 0, "{name}: steps were executed");
        for threads in [2usize, 4] {
            let par = check_parallel(l, &a, MAX_STATES, threads);
            assert!(matches!(par.verdict, Verdict::Fail(_)), "{name}");
            assert_eq!(
                par.stats.states, seq.stats.states,
                "{name} threads={threads}: early-failure states must match sequential"
            );
            assert_eq!(
                par.stats.transitions, seq.stats.transitions,
                "{name} threads={threads}: early-failure transitions must match sequential"
            );
        }
    }
}
