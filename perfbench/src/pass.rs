//! The untraced pass: every sketch through `Synthesis::new` and
//! `Synthesis::run_report`, timed from outside, exactly as a user runs
//! it.

use psketch_core::{RunReport, Synthesis};
use psketch_suite::BenchmarkRun;
use std::time::{Duration, Instant};

/// What a CEGIS run did: its verdict, every candidate it tried, in
/// order, and the winner. Two runs of one sketch at one thread and a
/// portfolio of one must produce equal trajectories.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trajectory {
    /// `"yes"`, `"NO"` or `"unknown"`.
    pub resolvable: String,
    /// Candidate hole values, one entry per iteration.
    pub candidates: Vec<Vec<u64>>,
    /// The resolving hole values, when resolved.
    pub winner: Option<Vec<u64>>,
}

impl Trajectory {
    /// The trajectory a run report records.
    pub fn of_report(report: &RunReport) -> Trajectory {
        Trajectory {
            resolvable: report.resolvable.clone(),
            candidates: report.records.iter().map(|r| r.candidate.clone()).collect(),
            winner: report.resolution.clone(),
        }
    }

    /// CEGIS iterations: one per candidate tried.
    pub fn iterations(&self) -> usize {
        self.candidates.len()
    }

    /// Why this trajectory is not the verdict `run` expects, if it is
    /// not: the verdict differs from the paper's, or the run stopped
    /// without one.
    pub fn verdict_error(&self, run: &BenchmarkRun) -> Option<String> {
        let expected = if run.expected_resolvable { "yes" } else { "NO" };
        (self.resolvable != expected).then(|| {
            format!(
                "{} {}: verdict {}, expected {expected}",
                run.benchmark, run.test, self.resolvable
            )
        })
    }
}

/// One sketch's untraced run.
pub struct Untraced {
    /// `Synthesis::new`: parse, typecheck, desugar and lower.
    pub setup: Duration,
    /// `Synthesis::run_report`: the CEGIS loop to a verdict.
    pub wall: Duration,
    /// What the run did.
    pub trajectory: Trajectory,
    /// A budget stopped the run.
    pub budget_tripped: bool,
}

/// Runs one sketch to a verdict.
///
/// # Errors
///
/// The sketch does not lower.
pub fn untraced(run: &BenchmarkRun) -> Result<Untraced, String> {
    let t0 = Instant::now();
    let synthesis = Synthesis::new(&run.source, run.options.clone())
        .map_err(|e| format!("{} {}: {e}", run.benchmark, run.test))?;
    let setup = t0.elapsed();
    let t1 = Instant::now();
    let (outcome, report) = synthesis.run_report();
    let wall = t1.elapsed();
    let trajectory = Trajectory::of_report(&report);
    assert_eq!(
        report.iterations,
        trajectory.iterations(),
        "a t1p1 run records one iteration per candidate"
    );
    Ok(Untraced {
        setup,
        wall,
        trajectory,
        budget_tripped: outcome.budget_trip.is_some(),
    })
}
