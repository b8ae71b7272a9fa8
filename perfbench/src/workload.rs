//! The benchmark's workloads: fixed Figure 9 sketches grouped by the
//! CEGIS phase that dominates their time to verdict.

use psketch_core::VerifierKind;
use psketch_suite::dinphilo::{dinphilo_source, PhiloVariant};
use psketch_suite::{figure9_runs, BenchmarkRun};

/// One workload: a named, fixed set of sketches run to a verdict once
/// per pass.
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// The sketches, each with the suite's options pinned to one
    /// search thread and a portfolio of one.
    pub sketches: Vec<BenchmarkRun>,
}

/// `(name, why, [(benchmark, test)])`.
type Definition = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

const WORKLOADS: &[Definition] = &[
    (
        "smodel",
        "fineset2 ar(ar|ar) and ar(aaaa|rrrr): symbolic trace encoding (Smodel) dominates wall time and peak memory",
        &[("fineset2", "ar(ar|ar)"), ("fineset2", "ar(aaaa|rrrr)")],
    ),
    // SAT-bound sketches (bank hits, an UNSAT proof) and checker-bound
    // ones (a single iteration whose check sweeps the whole space of a
    // passing candidate) share one workload: two workloads leave each
    // run long enough to average out a noisy shared host.
    (
        "sat_check",
        "queueDE2, barrier2 and the lazyset NO row (SAT dominates) plus dinphilo N=5 T=3/T=4 and queueE1 (one exhaustive check each)",
        &[
            ("queueDE2", "ed(ed|ed)"),
            ("barrier2", "N=2,B=3"),
            ("lazyset", "ar(ar|ar)"),
            ("dinphilo", "N=5,T=3"),
            ("dinphilo", "N=5,T=4"),
            ("queueE1", "ed(ed|ed)"),
        ],
    ),
];

/// Names of every workload, in definition order.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|(name, _, _)| *name).collect()
}

/// The workload called `name`, or `None` when there is none.
pub fn workload(name: &str) -> Option<Workload> {
    let (name, why, rows) = WORKLOADS.iter().find(|(n, _, _)| *n == name)?;
    let registry = figure9_runs();
    let sketches = rows
        .iter()
        .map(|(benchmark, test)| pinned(sketch(&registry, benchmark, test)))
        .collect();
    Some(Workload {
        name,
        why,
        sketches,
    })
}

/// A Figure 9 row, or `dinphilo N=5,T=4`: the Figure 9 sketch at one
/// more round per philosopher, with the `N=5,T=3` row's options.
fn sketch(registry: &[BenchmarkRun], benchmark: &str, test: &str) -> BenchmarkRun {
    let find = |test: &str| {
        registry
            .iter()
            .find(|r| r.benchmark == benchmark && r.test == test)
            .cloned()
    };
    if let Some(run) = find(test) {
        return run;
    }
    assert_eq!(
        (benchmark, test),
        ("dinphilo", "N=5,T=4"),
        "workload sketch is neither a Figure 9 row nor the deeper dinphilo bound"
    );
    let base = find("N=5,T=3").expect("dinphilo N=5,T=3 is a Figure 9 row");
    BenchmarkRun {
        test: test.to_string(),
        source: dinphilo_source(PhiloVariant::Sketch, 5, 4),
        paper_iterations: None,
        paper_total_secs: None,
        ..base
    }
}

/// Pins the trajectory-determining options: one search thread, one
/// candidate per iteration, exhaustive verification.
fn pinned(mut run: BenchmarkRun) -> BenchmarkRun {
    run.options.threads = 1;
    run.options.portfolio = 1;
    run.options.verifier = VerifierKind::Exhaustive;
    run
}

/// `benchmark test`, the label a sketch goes by in output.
pub fn label(run: &BenchmarkRun) -> String {
    format!("{} {}", run.benchmark, run.test)
}
