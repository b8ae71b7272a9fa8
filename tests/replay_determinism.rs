//! Replay determinism across the benchmark suite.
//!
//! Every counterexample the checker reports carries the exact
//! transition-level worker schedule that reached the failure
//! (`CexTrace::schedule`). The schedule-bank prescreen relies on that
//! field being faithful: for every suite workload, replaying a
//! checker-found trace's schedule must reproduce a failure, land the
//! same failure kind, and reach the identical final-state fingerprint
//! on repeated replays — with partial-order reduction both on and
//! off.

use psketch_repro::exec::{
    check_compiled, replay_fp_compiled, CompiledProgram, SearchLimits, Verdict,
};
use psketch_repro::ir::{desugar, lower, Assignment, Lowered};
use psketch_repro::suite::figure9_runs;
use psketch_testutil::Rng;

/// Bounds each exploration so the whole suite stays test-sized.
const MAX_STATES: usize = 10_000;

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

/// Replays `schedule` twice and checks both runs fail identically.
fn assert_replay_deterministic(
    cp: &CompiledProgram,
    cex: &psketch_repro::exec::CexTrace,
    label: &str,
) {
    let order: Vec<usize> = cex.schedule.iter().map(|&w| w as usize).collect();
    let (first, fp1) = replay_fp_compiled(cp, &order);
    let first = first.unwrap_or_else(|| panic!("{label}: replaying the schedule must fail"));
    assert_eq!(
        first.failure.kind, cex.failure.kind,
        "{label}: replay must land the reported failure kind"
    );
    let (second, fp2) = replay_fp_compiled(cp, &order);
    let second = second.unwrap_or_else(|| panic!("{label}: second replay must fail too"));
    assert_eq!(
        fp1, fp2,
        "{label}: repeated replays must reach the same final-state fingerprint"
    );
    assert_eq!(first.steps, second.steps, "{label}: replay must be exact");
    assert_eq!(first.schedule, second.schedule, "{label}");
    // The trace's own schedule records the workers that actually
    // fired; replaying it must converge (a fixed point of replay).
    let again: Vec<usize> = first.schedule.iter().map(|&w| w as usize).collect();
    let (third, fp3) = replay_fp_compiled(cp, &again);
    assert!(third.is_some(), "{label}: the fired schedule must refute");
    assert_eq!(fp1, fp3, "{label}: fired-schedule replay must agree");
}

#[test]
fn replay_reproduces_suite_counterexamples() {
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(23);
    let mut refuted = 0usize;
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        for (ix, a) in candidates(&l, 2, &mut rng).iter().enumerate() {
            let cp = CompiledProgram::compile(&l, a);
            for por in [true, false] {
                let limits = SearchLimits {
                    por,
                    ..SearchLimits::states(MAX_STATES)
                };
                let out = check_compiled(&cp, &limits);
                if let Verdict::Fail(cex) = &out.verdict {
                    refuted += 1;
                    let label = format!("{} candidate {ix} por={por}", run.benchmark);
                    assert_replay_deterministic(&cp, cex, &label);
                }
            }
        }
    }
    assert!(
        refuted > 0,
        "the suite must produce at least one counterexample to exercise replay"
    );
}
