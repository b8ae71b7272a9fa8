//! Each run-report record splits its Smodel time and counts what its
//! observation added, on a Figure 9 row that feeds several traces back
//! (fineset2 `ar(ar|ar)`, whose projections read heap fields again and
//! again).

use psketch_repro::core::Synthesis;
use psketch_repro::suite::figure9_runs;

#[test]
fn records_split_smodel_and_count_what_each_trace_added() {
    let run = figure9_runs()
        .into_iter()
        .find(|r| r.benchmark == "fineset2" && r.test == "ar(ar|ar)")
        .expect("fineset2 ar(ar|ar) is a Figure 9 row");
    let (out, report) = Synthesis::new(&run.source, run.options.clone())
        .expect("row lowers")
        .run_report();
    assert!(out.resolved());
    let traces = report.records.iter().filter(|r| r.verdict == "trace");
    assert!(traces.count() > 1, "the row feeds several traces back");
    for r in &report.records {
        let label = format!("iteration {}", r.iteration);
        let o = &r.observation;
        // The two phases are timed back to back inside the whole.
        assert!(
            o.eval_time + o.tseitin_time <= o.encode_time,
            "{label}: {:?} + {:?} > {:?}",
            o.eval_time,
            o.tseitin_time,
            o.encode_time
        );
        assert!(o.field_read_hits <= o.field_reads, "{label}");
        if r.verdict != "trace" {
            assert_eq!((o.field_reads, o.new_vars, o.new_clauses), (0, 0, 0));
        }
    }
    let hits: usize = report
        .records
        .iter()
        .map(|r| r.observation.field_read_hits)
        .sum();
    assert!(hits > 0, "the row's projections repeat field reads");
    // Between two solves the solver grows by exactly the observation
    // fed back in between.
    for w in report.records.windows(2) {
        assert_eq!(
            w[1].sat_vars,
            w[0].sat_vars + w[0].observation.new_vars,
            "{}",
            w[0].iteration
        );
        assert_eq!(
            w[1].sat_clauses,
            w[0].sat_clauses + w[0].observation.new_clauses,
            "{}",
            w[0].iteration
        );
    }
}
