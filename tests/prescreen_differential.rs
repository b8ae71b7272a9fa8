//! Differential testing of the schedule-bank prescreen: prescreen-on
//! and prescreen-off CEGIS must be observationally equivalent.
//!
//! Prescreening replays real executions of the candidate under banked
//! schedules, so it can only *refute* — never accept — and every trace
//! it feeds back is a genuine execution of the refuted candidate. The
//! loop must therefore reach the identical verdict (resolved /
//! definitely unresolvable / unknown).
//!
//! The *assignments* need not be byte-identical when a sketch has
//! several correct resolutions: a prescreen hit feeds back a different
//! (equally valid) counterexample than the exhaustive search would
//! have, and CEGIS is free to converge on any member of the solution
//! set. What is guaranteed — and asserted here — is that each
//! configuration's winner survives the other configuration's full
//! verification, and that a sketch with a unique solution resolves to
//! that same assignment either way.

use psketch_repro::core::{Options, Synthesis};
use psketch_repro::ir::Assignment;
use psketch_repro::suite::figure9_runs;

/// One representative run per distinct benchmark, capped to the quick
/// rows so the whole matrix stays test-sized.
const QUICK: &[&str] = &["queueE1", "barrier1", "fineset1", "lazyset", "dinphilo"];

fn run_with(source: &str, options: Options) -> (Option<Vec<u64>>, bool) {
    let out = Synthesis::new(source, options).expect("lowers").run();
    (
        out.resolution.map(|r| r.assignment.values().to_vec()),
        out.definitely_unresolvable,
    )
}

#[test]
fn prescreen_on_off_agree_across_suite() {
    let mut seen = std::collections::HashSet::new();
    for run in figure9_runs() {
        if !QUICK.contains(&run.benchmark) || !seen.insert(run.benchmark) {
            continue;
        }
        // A prescreen-free checker for cross-verifying winners.
        let referee = Synthesis::new(
            &run.source,
            Options {
                prescreen: false,
                ..run.options.clone()
            },
        )
        .expect("lowers");
        let on = run_with(
            &run.source,
            Options {
                prescreen: true,
                ..run.options.clone()
            },
        );
        let off = run_with(
            &run.source,
            Options {
                prescreen: false,
                ..run.options.clone()
            },
        );
        let label = format!("{}/{}", run.benchmark, run.test);
        assert_eq!(
            on.0.is_some(),
            off.0.is_some(),
            "{label}: prescreen must not change resolvability"
        );
        assert_eq!(
            on.1, off.1,
            "{label}: prescreen must not change unresolvability proofs"
        );
        assert_eq!(on.0.is_some(), run.expected_resolvable, "{label}");
        // Every winner must survive the other configuration's
        // exhaustive verification: prescreen never accepts.
        for (who, values) in [("on", &on.0), ("off", &off.0)] {
            if let Some(values) = values {
                let a = Assignment::from_values(values.clone());
                assert!(
                    referee.verify_candidate(&a).is_none(),
                    "{label}: prescreen-{who} winner must verify exhaustively"
                );
            }
        }
    }
}

/// With a unique solution the converged assignment is pinned: both
/// configurations must land exactly on it.
#[test]
fn prescreen_preserves_unique_resolutions() {
    let src = "int g;
         harness void main() {
             fork (i; 2) {
                 if (??(1) == 0) { int t = g; g = t + 1; }
                 else { int old = AtomicReadAndIncr(g); }
             }
             assert g == 2;
         }";
    let on = run_with(
        src,
        Options {
            prescreen: true,
            ..Options::default()
        },
    );
    let off = run_with(
        src,
        Options {
            prescreen: false,
            ..Options::default()
        },
    );
    assert_eq!(on, off);
    assert_eq!(on.0, Some(vec![1]));
}
