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
//! sealing candidates, each one fresh. Each cell runs in a child
//! process of its own (this binary with `--cell N`), so `peak_memory`
//! is that cell's own peak.
//!
//! Usage: `cargo run --release -p psketch-bench --bin bench_cegis
//! [--smoke] [--cell N] [output.json]` (default `BENCH_cegis.json` in
//! the current directory). `--smoke` takes one sample per cell instead
//! of three: CI uses it to validate that the harness runs and the
//! report parses, not to take publishable numbers. `--cell N` runs
//! only cell `N` (0-based: each sketch with the prescreen on, then
//! off) in this process and prints its row as the last line, one JSON
//! object, instead of writing the report.

use psketch_bench::{field, write_report, Harness};
use psketch_core::{Json, Options, Synthesis};
use psketch_suite::figure9_runs;
use std::cell::RefCell;
use std::hint::black_box;
use std::process::{Command, Stdio};

/// The `(benchmark, test)` rows measured, spanning ~20ms to ~1s of
/// sequential CEGIS time.
const SKETCHES: &[(&str, &str)] = &[
    ("queueE1", "ed(ed|ed)"),
    ("barrier2", "N=2,B=3"),
    ("fineset2", "ar(ar|ar)"),
];

fn main() {
    let mut smoke = false;
    let mut cell: Option<usize> = None;
    let mut out_path = "BENCH_cegis.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--cell" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) if n < 2 * SKETCHES.len() => cell = Some(n),
                _ => {
                    eprintln!("--cell needs a cell number below {}", 2 * SKETCHES.len());
                    std::process::exit(2);
                }
            },
            _ => out_path = arg,
        }
    }
    let samples = if smoke { 1 } else { 3 };
    if let Some(n) = cell {
        println!("{}", run_cell(n, samples).render());
        return;
    }

    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut rows = Vec::new();
    for n in 0..2 * SKETCHES.len() {
        let mut child = Command::new(&exe);
        child.args(["--cell", &n.to_string()]);
        if smoke {
            child.arg("--smoke");
        }
        let out = child
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| panic!("cannot run {}: {e}", exe.display()));
        assert!(out.status.success(), "cell {n} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (timing, row) = stdout
            .trim_end()
            .rsplit_once('\n')
            .expect("a cell prints its timing, then its row");
        println!("{timing}");
        rows.push(Json::parse(row).unwrap_or_else(|e| panic!("cell {n} printed {row:?}: {e}")));
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let meta = vec![
        field("schema", Json::from(9)),
        field("suite", Json::Str("cegis_prescreen_ablation".into())),
        field("cores", Json::from(cores as i64)),
        field("samples", Json::from(samples as i64)),
        field("smoke", Json::Bool(smoke)),
        field(
            "note",
            Json::Str(
                "prescreen=false rows are the schedule-bank ablation: \
                 compare each against the prescreen=true row of its \
                 sketch. Every run verifies one candidate per iteration \
                 on one thread. secs_median/secs_min time the whole run; \
                 every other column is the last sample's run totals, \
                 named as in the run report (schema 16). compile_us is \
                 the cumulative candidate-sealing time, every candidate \
                 sealed fresh. peak_memory is the cell's own peak RSS: \
                 each cell runs in a process of its own"
                    .into(),
            ),
        ),
    ];
    write_report(&out_path, meta, &rows);
}

/// Times cell `n` over `samples` runs and returns its report row.
fn run_cell(n: usize, samples: usize) -> Json {
    let (benchmark, test) = SKETCHES[n / 2];
    let prescreen = n.is_multiple_of(2);
    let runs = figure9_runs();
    let run = runs
        .iter()
        .find(|r| r.benchmark == benchmark && r.test == test)
        .expect("sketch is a Figure 9 row");
    let options = Options {
        prescreen,
        ..run.options.clone()
    };
    let tag = if prescreen { "" } else { "-nopre" };
    let id = format!("cegis/{benchmark}/{test}{tag}");
    let last = RefCell::new(None);
    let m = Harness::unfiltered(samples)
        .bench(&id, || {
            let s = Synthesis::new(black_box(&run.source), options.clone()).expect("lowers");
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
    Json::Obj(row)
}
