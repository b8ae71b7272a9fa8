//! A CEGIS run is a function of the sketch and the options: every
//! candidate is verified on the calling thread, so repeating a run in
//! one process must propose the same candidates in the same order and
//! take the same SAT search. The barrier1 rows refute candidates with
//! deadlock traces, whose deadlock set the synthesizer encodes, so they
//! pin that the encoding does not depend on hash-set iteration order.

use psketch_repro::core::Synthesis;
use psketch_repro::suite::figure9_runs;

#[test]
fn barrier1_runs_repeat_exactly() {
    let runs: Vec<_> = figure9_runs()
        .into_iter()
        .filter(|r| r.benchmark == "barrier1")
        .collect();
    assert_eq!(runs.len(), 2, "barrier1 has two Figure 9 rows");
    for run in &runs {
        let label = format!("{} [{}]", run.benchmark, run.test);
        let s = Synthesis::new(&run.source, run.options.clone()).expect("row lowers");
        let trajectory = || {
            let (_, report) = s.run_report();
            let candidates: Vec<Vec<u64>> =
                report.records.iter().map(|r| r.candidate.clone()).collect();
            (candidates, report.sat.decisions, report.resolvable.clone())
        };
        let first = trajectory();
        assert_eq!(first.2, "yes", "{label} resolves");
        for rerun in 1..4 {
            assert_eq!(
                trajectory(),
                first,
                "{label}: run {rerun} differs from run 0 in its candidates or SAT decisions"
            );
        }
    }
}
