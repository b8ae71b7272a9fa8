//! Machine-readable CEGIS schedule-bank ablation → `BENCH_cegis.json`.
//!
//! Runs a small/medium/large trio of Figure 9 sketches through the
//! full CEGIS loop twice, once with the schedule-bank prescreen (the
//! default) and once with `prescreen: false`, and records per-run
//! wall-clock next to the last sample's run totals — every column of
//! the run report's run-level object (`iterations`, the Figure 9 phase
//! times `s_solve_secs` / `s_model_secs` / `v_solve_secs` /
//! `v_model_secs`, `peak_memory`, the SAT counters and the summed
//! verification cost), written by the same
//! [`psketch_core::CegisStats::write_json`]. Every run is sequential,
//! so every column but the timings and `peak_memory` repeats exactly.
//!
//! `prescreen_hits` counts the full checker invocations the bank
//! turned into O(trace) replays. `compile_us` is the time spent
//! sealing candidates, each one fresh. The peak-RSS mark is reset
//! before each cell, so `peak_memory` is that cell's own peak.
//!
//! Usage: `cargo run --release -p psketch-bench --bin bench_cegis
//! [--smoke] [output.json]` (default `BENCH_cegis.json` in the current
//! directory). `--smoke` takes one sample per cell instead of three:
//! CI uses it to validate that the harness runs and the report parses,
//! not to take publishable numbers.

use psketch_bench::{field, write_report, Harness};
use psketch_core::{mem, Json, Options, Synthesis};
use psketch_suite::figure9_runs;
use std::cell::RefCell;
use std::hint::black_box;

/// The `(benchmark, test)` rows measured, spanning ~20ms to ~1s of
/// sequential CEGIS time.
const SKETCHES: &[(&str, &str)] = &[
    ("queueE1", "ed(ed|ed)"),
    ("barrier2", "N=2,B=3"),
    ("fineset2", "ar(ar|ar)"),
];

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_cegis.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let h = Harness::unfiltered(if smoke { 1 } else { 3 });
    let mut rows = Vec::new();

    let runs = figure9_runs();
    for (benchmark, test) in SKETCHES {
        let run = runs
            .iter()
            .find(|r| r.benchmark == *benchmark && r.test == *test)
            .expect("sketch is a Figure 9 row");
        for prescreen in [true, false] {
            let options = Options {
                prescreen,
                ..run.options.clone()
            };
            let tag = if prescreen { "" } else { "-nopre" };
            let id = format!("cegis/{benchmark}/{test}{tag}");
            let last = RefCell::new(None);
            mem::reset_peak_rss();
            let m = h
                .bench(&id, || {
                    let s =
                        Synthesis::new(black_box(&run.source), options.clone()).expect("lowers");
                    let out = s.run();
                    assert_eq!(out.resolved(), run.expected_resolvable, "{id}");
                    *last.borrow_mut() = Some(out);
                })
                .expect("no filter in use");
            let out = last.into_inner().expect("ran at least once");
            let mut row = vec![
                field("sketch", Json::Str(format!("{benchmark}/{test}"))),
                field("prescreen", Json::Bool(prescreen)),
                field("secs_median", Json::Num(m.median.as_secs_f64())),
                field("secs_min", Json::Num(m.min.as_secs_f64())),
                field("resolved", Json::Bool(out.resolved())),
            ];
            out.stats.write_json(&mut row);
            rows.push(Json::Obj(row));
        }
    }

    let meta = vec![
        field("schema", Json::from(9)),
        field("suite", Json::Str("cegis_prescreen_ablation".into())),
        field("cores", Json::from(cores as i64)),
        field("samples", Json::from(h.samples as i64)),
        field("smoke", Json::Bool(smoke)),
        field(
            "note",
            Json::Str(
                "prescreen=false rows are the schedule-bank ablation: \
                 compare each against the prescreen=true row of its \
                 sketch. Every run verifies one candidate per iteration \
                 on one thread. secs_median/secs_min time the whole run; \
                 every other column is the last sample's run totals, \
                 named as in the run report (schema 10). compile_us is \
                 the cumulative candidate-sealing time, every candidate \
                 sealed fresh. peak_memory is the cell's own peak RSS: \
                 the mark is reset before each cell"
                    .into(),
            ),
        ),
    ];
    write_report(&out_path, meta, &rows);
}
