//! Engine-level checker benchmark → `BENCH_checker.json`.
//!
//! Measures raw model-checking throughput (states explored per second)
//! and peak RSS on Table 1 workloads, comparing the one checking
//! engine in two configurations with the reference oracle on the
//! *same* resolved candidate. The candidate is sealed into a
//! hole-free micro-op program once per workload, as CEGIS seals it
//! once per iteration and reuses it across prescreen and exhaustive
//! check (the one-time sealing cost is the `compile_us` column). The
//! engine then sweeps it with ample-set partial-order reduction
//! (`compiled-por`, the default configuration) and with full
//! interleaving expansion (`compiled`); the reference
//! clone-per-transition engine (`clone`) interprets the unsealed
//! program. The `compiled` and `clone` rows sweep the identical state
//! space end to end; the `compiled-por` row visits a provably
//! sufficient subset of it, and the `states` / `states_pruned` columns
//! quantify the reduction.
//!
//! Each workload is first synthesised to completion; the winning
//! candidate's exhaustive verification — the hot path of every CEGIS
//! run, since a correct candidate's search cannot stop early — is then
//! timed for each engine.
//!
//! Usage: `cargo run --release -p psketch-bench --bin bench_checker
//! [--smoke] [output.json]` (default `BENCH_checker.json` in the
//! current directory). `--smoke` takes one sample per cell instead of
//! five: CI uses it to validate that the harness runs and the report
//! parses, not to take publishable numbers.

use psketch_bench::{field, write_report, Harness};
use psketch_core::{mem, Json, Options, Synthesis, VerifyCost};
use psketch_exec::{
    check_compiled, reference::check_ref_with_limit, CheckOutcome, CompiledProgram, SearchLimits,
    Verdict,
};
use psketch_ir::Config;
use psketch_suite::barrier::{barrier_source, BarrierVariant};
use psketch_suite::dinphilo::{dinphilo_source, PhiloVariant};
use psketch_suite::figure9_runs;
use std::cell::RefCell;
use std::hint::black_box;

/// The Figure 9 `(benchmark, test)` rows measured. Both resolve, so
/// the timed search is a full Pass-verdict state-space sweep.
const SKETCHES: &[(&str, &str)] = &[("barrier2", "N=2,B=3"), ("fineset2", "ar(ar|ar)")];

const MAX_STATES: usize = 50_000_000;

/// A checker workload: a Table 1 sketch plus its lowering bounds.
struct Load {
    name: String,
    source: String,
    options: Options,
}

/// The measured workloads: two Figure 9 rows, a five-philosopher
/// dining table with a two-step think/eat loop (a large sweep whose
/// hole-resolved fork slots the sharpened footprints localize), and a
/// wider barrier (four workers) where per-transition work is small
/// and the state is large — the regime that exposes per-transition
/// copying cost.
fn workloads() -> Vec<Load> {
    let runs = figure9_runs();
    let mut out: Vec<Load> = SKETCHES
        .iter()
        .map(|(benchmark, test)| {
            let run = runs
                .iter()
                .find(|r| r.benchmark == *benchmark && r.test == *test)
                .expect("sketch is a Figure 9 row");
            Load {
                name: format!("{benchmark}/{test}"),
                source: run.source.clone(),
                options: run.options.clone(),
            }
        })
        .collect();
    out.push(Load {
        name: "dinphilo/N=5,T=2".into(),
        source: dinphilo_source(PhiloVariant::Sketch, 5, 2),
        options: Options {
            config: Config {
                hole_width: 3,
                unroll: 4,
                pool: 2,
                ..Config::default()
            },
            ..Options::default()
        },
    });
    out.push(Load {
        name: "barrier1/N=4,B=2".into(),
        source: barrier_source(BarrierVariant::Restricted, 4, 2),
        options: Options {
            config: Config {
                hole_width: 2,
                unroll: 4,
                pool: 2,
                ..Config::default()
            },
            ..Options::default()
        },
    });
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_checker.json".to_string();
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
    let h = Harness::unfiltered(if smoke { 1 } else { 5 });
    let mut rows = Vec::new();

    for load in workloads() {
        let synthesis =
            Synthesis::new(&load.source, load.options.clone()).expect("workload lowers");
        let outcome = synthesis.run();
        let candidate = outcome
            .resolution
            .expect("Table 1 workload resolves")
            .assignment;
        let lowered = synthesis.lowered();

        // Sealed once per candidate, exactly as a CEGIS iteration
        // seals it once and reuses the artifact across prescreen and
        // exhaustive check. The one-time sealing cost is
        // surfaced in the compile_us column, not folded into the
        // timed sweep; so is the sharpening diagnostic, which builds
        // the POR tables here rather than in the first timed sample.
        let cp = CompiledProgram::compile(lowered, &candidate);
        let sharpened_masks = cp.sharpened_masks();

        let cp = &cp;
        let sweep = |por: bool| {
            let limits = SearchLimits {
                por,
                ..SearchLimits::states(MAX_STATES)
            };
            move || check_compiled(black_box(cp), &limits)
        };
        // (engine, runs the sealed artifact, timed search)
        type Engine<'a> = (&'static str, bool, Box<dyn Fn() -> CheckOutcome + 'a>);
        let engines: [Engine; 3] = [
            ("compiled-por", true, Box::new(sweep(true))),
            ("compiled", true, Box::new(sweep(false))),
            (
                "clone",
                false,
                Box::new(|| {
                    check_ref_with_limit(black_box(lowered), black_box(&candidate), MAX_STATES)
                }),
            ),
        ];
        for (engine, sealed, check) in engines {
            let id = format!("checker/{}/{engine}", load.name);
            let last = RefCell::new(None);
            // Peak RSS is process-wide and monotonic, so it can't
            // attribute memory to a single cell. Instead sample the
            // current RSS around the run and report the growth this
            // engine caused (clamped at zero: the allocator may also
            // return pages between runs).
            let rss_before = mem::current_rss_bytes();
            let m = h
                .bench(&id, || {
                    let out = check();
                    assert!(
                        matches!(out.verdict, Verdict::Pass),
                        "{id}: the resolved candidate must pass"
                    );
                    *last.borrow_mut() = Some(out);
                })
                .expect("no filter in use");
            let rss_delta = mem::current_rss_bytes()
                .zip(rss_before)
                .map(|(after, before)| after.saturating_sub(before));
            let out = last.into_inner().expect("ran at least once");
            let states_per_sec = out.stats.states as f64 / m.median.as_secs_f64();
            // The sealing columns describe the artifact the row ran;
            // the reference engine runs none. A bare sweep has no
            // prescreen or bank, so those columns read 0.
            let cost = VerifyCost {
                check: out.stats,
                check_time: m.median,
                ..if sealed {
                    VerifyCost::sealed(cp)
                } else {
                    VerifyCost::default()
                }
            };
            let mut row = vec![
                field("sketch", Json::Str(load.name.clone())),
                field("engine", Json::Str(engine.into())),
                field("secs_median", Json::Num(m.median.as_secs_f64())),
                field("secs_min", Json::Num(m.min.as_secs_f64())),
                field("states_per_sec", Json::Num(states_per_sec)),
                field(
                    "rss_delta_bytes",
                    rss_delta.map_or_else(|| Json::Str("n/a".into()), |b| Json::from(b as i64)),
                ),
            ];
            cost.write_json(&mut row);
            let sharpened = if sealed { sharpened_masks } else { 0 };
            row.push(field("sharpened_masks", Json::from(sharpened as i64)));
            rows.push(Json::Obj(row));
        }
    }

    let meta = vec![
        field("schema", Json::from(8)),
        field("suite", Json::Str("checker_engine_throughput".into())),
        field("cores", Json::from(cores as i64)),
        field("samples", Json::from(h.samples as i64)),
        field("smoke", Json::Bool(smoke)),
        field(
            "note",
            Json::Str(
                "compiled and clone sweep the identical state space of \
                 the resolved candidate; compiled-por (ample-set \
                 reduction, the default configuration) explores a \
                 sound subset. The compiled rows run the candidate \
                 sealed once into a hole-free micro-op program — as \
                 CEGIS seals once per iteration and reuses the artifact \
                 across prescreen and exhaustive check — with \
                 candidate-sharpened POR masks (sharpened_masks); the \
                 one-time sealing cost is the compile_us column, \
                 outside the timed sweep. clone is the reference \
                 engine, which interprets the unsealed program and \
                 reports 0 in the sealing columns. rss_delta_bytes is \
                 the resident-set growth sampled around each cell's \
                 runs (0 when the allocator reused earlier capacity). \
                 The search and sealing columns are written by the run \
                 report's cost writer, so the prescreen and bank \
                 columns of a bare sweep read 0"
                    .into(),
            ),
        ),
    ];
    write_report(&out_path, meta, &rows);
}
