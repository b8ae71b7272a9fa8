//! Differential testing of the sealed candidate artifact against the
//! clone-per-transition reference engine, across the example suite.
//!
//! A [`CompiledProgram`] substitutes the candidate's hole values,
//! constant-folds guards and operands, and flattens each worker into a
//! dense pc-indexed micro-op array — but it must be *observationally
//! identical* to interpreting the `(Lowered, Assignment)` pair it was
//! sealed from, which is what the reference engine
//! (`psketch_exec::reference`) does with its own evaluator. With
//! partial-order reduction off, both are deterministic
//! depth-first searches over the same canonical state set in the same
//! worker order, so the comparison is exact: identical verdicts, state
//! and transition counts, and counterexample traces and schedules. The
//! reference's counterexample schedule must replay to the identical
//! execution on the artifact, and every failure that a replay of a
//! random schedule reaches must replay to itself from the workers it
//! fired and refute the candidate symbolically.
//!
//! With reduction **on** the artifact carries candidate-sharpened
//! footprint masks: folded hole values may resolve fork-indexed cells
//! the static analysis had to treat as whole-array. The sharpening's
//! soundness side condition — every sharpened mask is a subset of its
//! static counterpart — is checked as a property over many random
//! candidates, and on a hole-indexed workload the sharpened reduction
//! must actually prune. The reduced searches' verdicts are checked in
//! `tests/engine_differential.rs`.

use psketch_repro::exec::reference::check_ref_with_limit;
use psketch_repro::exec::{
    check_compiled, replay_compiled, CheckOutcome, CompiledProgram, Interrupt, SearchLimits,
    Verdict,
};
use psketch_repro::ir::{desugar, lower, Assignment, Lowered};
use psketch_repro::suite::figure9_runs;
use psketch_repro::symbolic::trace_reproduces;
use psketch_testutil::Rng;

/// Bounds each exploration so the whole suite stays test-sized.
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
fn assert_exact(reference: &CheckOutcome, sealed: &CheckOutcome, label: &str) {
    assert_eq!(
        reference.stats.states, sealed.stats.states,
        "{label}: state counts differ"
    );
    assert_eq!(
        reference.stats.transitions, sealed.stats.transitions,
        "{label}: transition counts differ"
    );
    match (&reference.verdict, &sealed.verdict) {
        (Verdict::Pass, Verdict::Pass) => {
            assert_eq!(
                reference.stats.terminal_states, sealed.stats.terminal_states,
                "{label}"
            );
        }
        (Verdict::Fail(rc), Verdict::Fail(sc)) => {
            assert_eq!(rc.steps, sc.steps, "{label}: counterexample traces differ");
            assert_eq!(
                rc.schedule, sc.schedule,
                "{label}: counterexample schedules differ"
            );
            assert_eq!(
                rc.failure.kind, sc.failure.kind,
                "{label}: failure kinds differ"
            );
        }
        (Verdict::Unknown(rw), Verdict::Unknown(sw)) => {
            assert_eq!(*rw, Interrupt::StateLimit, "{label}: no deadline installed");
            assert_eq!(rw, sw, "{label}");
        }
        (r, s) => panic!("{label}: reference verdict {r:?}, compiled verdict {s:?}"),
    }
}

fn compare(l: &Lowered, a: &Assignment, label: &str) {
    let cp = CompiledProgram::compile(l, a);
    assert!(
        cp.footprint_refines_static(),
        "{label}: sharpened masks must refine the static analysis"
    );

    // Reduction off: the sealed search and the reference engine
    // are the same deterministic DFS — everything matches exactly.
    let reference = check_ref_with_limit(l, a, MAX_STATES);
    let sealed = check_compiled(&cp, &limits(false));
    assert_exact(&reference, &sealed, label);

    // Replay: the reference's counterexample schedule replays on the
    // sealed artifact to the identical execution.
    if let Verdict::Fail(cex) = &reference.verdict {
        let order: Vec<usize> = cex.schedule.iter().map(|&w| w as usize).collect();
        let replayed =
            replay_compiled(&cp, &order).unwrap_or_else(|| panic!("{label}: replay must fail"));
        assert_eq!(replayed.steps, cex.steps, "{label}: replayed trace differs");
        assert_eq!(
            replayed.failure.kind, cex.failure.kind,
            "{label}: replayed failure kind differs"
        );
    }

    // Random schedules: a failing replay reports the workers it
    // actually fired; they replay to the identical execution, and its
    // trace refutes the candidate.
    if l.workers.is_empty() {
        return;
    }
    let mut rng = Rng::new(7);
    for k in 0..8 {
        let order: Vec<usize> = (0..16).map(|_| rng.below(l.workers.len())).collect();
        let Some(cex) = replay_compiled(&cp, &order) else {
            continue;
        };
        let tag = format!("{label} schedule {k}");
        let fired: Vec<usize> = cex.schedule.iter().map(|&w| w as usize).collect();
        let again = replay_compiled(&cp, &fired)
            .unwrap_or_else(|| panic!("{tag}: fired schedule must replay to a failure"));
        assert_eq!(again.steps, cex.steps, "{tag}: fired trace must replay");
        assert_eq!(again.schedule, cex.schedule, "{tag}: fired schedule");
        assert_eq!(again.failure.kind, cex.failure.kind, "{tag}");
        assert!(
            trace_reproduces(l, &cex, a),
            "{tag}: replayed cex does not refute candidate"
        );
    }
}

#[test]
fn compiled_engine_agrees_on_suite_sketches() {
    // One run per distinct benchmark keeps the test tractable; the
    // generated sources differ only in workload within a benchmark.
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(41);
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
fn compiled_engine_agrees_on_small_programs() {
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
    ];
    let cfg = psketch_repro::ir::Config::default();
    let mut rng = Rng::new(43);
    for (px, src) in programs.iter().enumerate() {
        let l = lowered(src, &cfg);
        for (ix, a) in candidates(&l, 3, &mut rng).iter().enumerate() {
            compare(&l, a, &format!("program {px} candidate {ix}"));
        }
    }
}

/// Property: across every suite sketch and many random candidates,
/// the candidate-sharpened footprint masks always refine (are never
/// coarser than) the static hole-agnostic analysis — the soundness
/// side condition the sharpened POR tables depend on.
#[test]
fn sharpened_footprints_always_refine_static() {
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(47);
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        for (ix, a) in candidates(&l, 8, &mut rng).iter().enumerate() {
            let cp = CompiledProgram::compile(&l, a);
            assert!(
                cp.footprint_refines_static(),
                "{} candidate {ix}: sharpened mask coarser than static",
                run.benchmark
            );
        }
    }
}

/// On the hole-indexed-array workload the sharpening must actually
/// fire: the artifact reports strictly-tightened masks, which make the
/// two workers' writes independent, so the reduced search prunes
/// states the full search visits — with the same verdict.
#[test]
fn sharpening_fires_on_hole_indexed_cells() {
    let cfg = psketch_repro::ir::Config::default();
    let l = lowered(
        "int[4] a;
         harness void main() {
             fork (i; 2) { a[??(2) + i] = 1; }
             assert a[0] >= 0;
         }",
        &cfg,
    );
    let cp = CompiledProgram::compile(&l, &l.holes.identity_assignment());
    assert!(
        cp.sharpened_masks() > 0,
        "folded hole must resolve the array index"
    );
    assert!(cp.footprint_refines_static());
    let full = check_compiled(&cp, &limits(false));
    let red = check_compiled(&cp, &limits(true));
    assert!(full.is_ok() && red.is_ok());
    assert!(
        red.stats.states < full.stats.states,
        "sharpened masks must let the reduction prune: {} vs {}",
        red.stats.states,
        full.stats.states
    );
    assert!(red.stats.por_ample_hits > 0);
}
