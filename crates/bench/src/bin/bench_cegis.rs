//! Machine-readable CEGIS scaling benchmark → `BENCH_cegis.json`.
//!
//! Runs a small/medium/large trio of Figure 9 sketches through the
//! full CEGIS loop at `threads` ∈ {1, 2, 4, 8} (plus a portfolio-width
//! series at `portfolio` ∈ {1, 3}) and records per-run wall-clock
//! next to the last sample's run totals — every column of the run
//! report's run-level object (`iterations`, the Figure 9 phase times
//! `s_solve_secs` / `s_model_secs` / `v_solve_secs` / `v_model_secs`,
//! `peak_memory`, the SAT counters and the summed verification cost),
//! written by the same [`psketch_core::CegisStats::write_json`]. Thread
//! scaling is bounded by the host's available cores — the `cores`
//! field in the meta block records how many were present when the
//! numbers were taken.
//!
//! Every cell also carries a `prescreen` column: the sequential and
//! portfolio baselines are measured twice, once with the schedule-bank
//! prescreen (the default) and once with `prescreen: false`, so the
//! report doubles as the prescreen ablation. `prescreen_hits` counts
//! the full checker invocations the bank turned into O(trace) replays.
//! `compile_us` is the time spent sealing candidates, each one fresh.
//! The peak-RSS mark is reset before each cell, so `peak_memory` is
//! that cell's own peak.
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

/// `(threads, portfolio, prescreen)` cells. The prescreen-off rows
/// mirror the two baselines so on/off pairs share a configuration.
const CONFIGS: &[(usize, usize, bool)] = &[
    (1, 1, true),
    (1, 1, false),
    (2, 1, true),
    (4, 1, true),
    (8, 1, true),
    (1, 3, true),
    (1, 3, false),
    (4, 3, true),
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
        for &(threads, portfolio, prescreen) in CONFIGS {
            let options = Options {
                threads,
                portfolio,
                prescreen,
                ..run.options.clone()
            };
            let tag = if prescreen { "" } else { "-nopre" };
            let id = format!("cegis/{benchmark}/{test}/t{threads}p{portfolio}{tag}");
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
                field("threads", Json::from(threads as i64)),
                field("portfolio", Json::from(portfolio as i64)),
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
        field("schema", Json::from(8)),
        field("suite", Json::Str("cegis_thread_scaling".into())),
        field("cores", Json::from(cores as i64)),
        field("samples", Json::from(h.samples as i64)),
        field("smoke", Json::Bool(smoke)),
        field(
            "note",
            Json::Str(
                "speedup from threads > cores is not expected; compare \
                 against the cores field. prescreen=false rows are the \
                 schedule-bank ablation: compare them against the \
                 prescreen=true row with the same threads/portfolio. \
                 secs_median/secs_min time the whole run; every other \
                 column is the last sample's run totals, named as in the \
                 run report (schema 8). compile_us is the cumulative \
                 candidate-sealing time, every candidate sealed fresh. \
                 peak_memory is the cell's own peak RSS: the mark is \
                 reset before each cell"
                    .into(),
            ),
        ),
    ];
    write_report(&out_path, meta, &rows);
}
