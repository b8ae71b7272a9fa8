//! Engine-level checker benchmark → `BENCH_checker.json`.
//!
//! Measures raw model-checking throughput (states explored per second)
//! and peak RSS on Table 1 workloads, comparing the one checking
//! engine in three configurations with the reference oracle on the
//! *same* resolved candidate. The candidate is sealed into a
//! hole-free micro-op program once per workload, as CEGIS seals it
//! once per iteration and reuses it across prescreen, sampler and
//! exhaustive check (the one-time sealing cost is the `compile_us`
//! column). The engine then sweeps it with ample-set partial-order
//! reduction and thread-symmetry canonicalization (`compiled-por`, the
//! default configuration), with symmetry only (`compiled-sym`), and
//! with full interleaving expansion and identity canonicalization
//! (`compiled`); the reference clone-per-transition engine (`clone`)
//! interprets the unsealed program. The `compiled` and `clone` rows
//! sweep the identical state space end to end; the `compiled-por` and
//! `compiled-sym` rows visit provably sufficient subsets of it, and
//! the `states` / `states_pruned` / `sym_collapses` columns quantify
//! each reduction. The Table 1 workers all read their fork index
//! (senses, fork slots), so on those rows the sound asymmetry fallback
//! keeps `compiled-sym` identical to `compiled`; the `symcounter`
//! workload is genuinely symmetric and shows the orbit collapse.
//!
//! Each workload is first synthesised to completion; the winning
//! candidate's exhaustive verification — the hot path of every CEGIS
//! run, since a correct candidate's search cannot stop early — is then
//! timed for each engine. A `seal-ablation` row per workload times
//! sealing the winner from scratch against resealing it incrementally
//! from a one-hole-perturbed artifact (the CEGIS-iteration pattern)
//! and asserts the two artifacts are bit-identical.
//!
//! Usage: `cargo run --release -p psketch-bench --bin bench_checker
//! [--smoke] [output.json]` (default `BENCH_checker.json` in the
//! current directory). `--smoke` takes one sample per cell instead of
//! five: CI uses it to validate that the harness runs and the report
//! parses, not to take publishable numbers.

use psketch_bench::{Harness, JsonValue, JsonWriter};
use psketch_core::{mem, Options, Synthesis};
use psketch_exec::{
    check_compiled, reference::check_ref_with_limit, CheckOutcome, CompiledProgram, SearchLimits,
    Verdict,
};
use psketch_ir::{Assignment, Config};
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
    // Interchangeable workers with no fork-index dependence: the
    // thread-symmetry reduction's best case (up to 4! states per
    // orbit collapse to one).
    out.push(Load {
        name: "symcounter/N=4".into(),
        source: "int g;
                 harness void main() {
                     fork (i; 4) { int t = g; g = t + 1; }
                     assert g >= 1;
                 }"
        .into(),
        options: Options::default(),
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
    let mut w = JsonWriter::new();

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
        // seals it once and reuses the artifact across prescreen,
        // sampler and exhaustive check. The one-time sealing cost is
        // surfaced in the compile_us column, not folded into the
        // timed sweep.
        let cp = CompiledProgram::compile(lowered, &candidate);

        let cp = &cp;
        let sweep = |por: bool, symmetry: bool| {
            let limits = SearchLimits {
                por,
                symmetry,
                ..SearchLimits::states(MAX_STATES)
            };
            move || check_compiled(black_box(cp), &limits)
        };
        // (engine, runs the sealed artifact, timed search)
        type Engine<'a> = (&'static str, bool, Box<dyn Fn() -> CheckOutcome + 'a>);
        let engines: [Engine; 4] = [
            ("compiled-por", true, Box::new(sweep(true, true))),
            ("compiled-sym", true, Box::new(sweep(false, true))),
            ("compiled", true, Box::new(sweep(false, false))),
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
            // the reference engine runs none.
            let artifact = |v: u64| JsonValue::Int(if sealed { v as i64 } else { 0 });
            w.record(&[
                ("sketch", JsonValue::Str(load.name.clone())),
                ("engine", JsonValue::Str(engine.into())),
                ("secs_median", JsonValue::Num(m.median.as_secs_f64())),
                ("secs_min", JsonValue::Num(m.min.as_secs_f64())),
                ("states", JsonValue::Int(out.stats.states as i64)),
                ("transitions", JsonValue::Int(out.stats.transitions as i64)),
                (
                    "terminal_states",
                    JsonValue::Int(out.stats.terminal_states as i64),
                ),
                ("states_per_sec", JsonValue::Num(states_per_sec)),
                (
                    "journal_writes",
                    JsonValue::Int(out.stats.journal_writes as i64),
                ),
                (
                    "state_clones",
                    JsonValue::Int(out.stats.state_clones as i64),
                ),
                (
                    "por_ample_hits",
                    JsonValue::Int(out.stats.por_ample_hits as i64),
                ),
                (
                    "por_fallbacks",
                    JsonValue::Int(out.stats.por_fallbacks as i64),
                ),
                (
                    "states_pruned",
                    JsonValue::Int(out.stats.states_pruned as i64),
                ),
                (
                    "sym_collapses",
                    JsonValue::Int(out.stats.sym_collapses as i64),
                ),
                ("compile_us", artifact(cp.compile_us())),
                ("sharpened_masks", artifact(cp.sharpened_masks())),
                ("reseal_us", artifact(cp.reseal_us())),
                ("threads_reused", artifact(cp.threads_reused())),
                (
                    "rss_delta_bytes",
                    match rss_delta {
                        Some(b) => JsonValue::Int(b as i64),
                        None => JsonValue::Str("n/a".into()),
                    },
                ),
            ]);
        }

        // Reseal ablation: the CEGIS-iteration pattern. Perturb the
        // winner's first hole (flip the low bit — every hole is at
        // least one bit wide, so the value stays in domain), seal the
        // perturbed candidate fresh, then reseal it back to the
        // winner. Threads that never read the flipped hole keep their
        // micro-op arrays and footprints verbatim; the fresh vs
        // reseal medians quantify the incremental-sealing win. The
        // hole-free symcounter row degenerates to the identity reseal
        // (every thread reused).
        let mut vals = candidate.values().to_vec();
        if let Some(v) = vals.first_mut() {
            *v ^= 1;
        }
        let perturbed = Assignment::from_values(vals);
        let fresh_m = h
            .bench(&format!("checker/{}/seal-fresh", load.name), || {
                black_box(CompiledProgram::compile(
                    black_box(lowered),
                    black_box(&candidate),
                ));
            })
            .expect("no filter in use");
        let prev = CompiledProgram::compile(lowered, &perturbed);
        let resealed = RefCell::new(None);
        let reseal_m = h
            .bench(&format!("checker/{}/seal-reseal", load.name), || {
                *resealed.borrow_mut() = Some(CompiledProgram::reseal(
                    black_box(&prev),
                    lowered,
                    black_box(&candidate),
                ));
            })
            .expect("no filter in use");
        let rcp = resealed.into_inner().expect("ran at least once");
        assert!(
            rcp.artifact_eq(cp),
            "{}: resealed artifact must be identical to the fresh seal",
            load.name
        );
        w.record(&[
            ("sketch", JsonValue::Str(load.name.clone())),
            ("engine", JsonValue::Str("seal-ablation".into())),
            (
                "fresh_seal_us",
                JsonValue::Int(fresh_m.median.as_micros() as i64),
            ),
            (
                "reseal_us",
                JsonValue::Int(reseal_m.median.as_micros() as i64),
            ),
            (
                "threads_reused",
                JsonValue::Int(rcp.threads_reused() as i64),
            ),
            (
                "threads_total",
                JsonValue::Int(lowered.workers.len() as i64 + 2),
            ),
        ]);
    }

    let doc = w.render(&[
        ("schema", JsonValue::Int(4)),
        ("suite", JsonValue::Str("checker_engine_throughput".into())),
        ("cores", JsonValue::Int(cores as i64)),
        ("samples", JsonValue::Int(h.samples as i64)),
        ("smoke", JsonValue::Bool(smoke)),
        (
            "note",
            JsonValue::Str(
                "compiled and clone sweep the identical state space of \
                 the resolved candidate; compiled-por (ample-set \
                 reduction + thread-symmetry canonicalization, the \
                 default configuration) and compiled-sym (symmetry \
                 only) explore sound subsets. The compiled rows run \
                 the candidate sealed once into a hole-free micro-op \
                 program — as CEGIS seals once per iteration and \
                 reuses the artifact across prescreen, sampler and \
                 exhaustive check — with candidate-sharpened POR masks \
                 (sharpened_masks); the one-time sealing cost is the \
                 compile_us column, outside the timed sweep. clone is \
                 the reference engine, which interprets the unsealed \
                 program and reports 0 in the sealing columns. \
                 Table 1 workers read their fork index, so the sound \
                 deferred-sort fallback keeps compiled-sym state \
                 counts equal to compiled there (nonzero sym_collapses \
                 on the barrier rows are noncanonical revisits, not \
                 orbit merges); the symcounter row is genuinely \
                 symmetric and shows the real orbit collapse. \
                 rss_delta_bytes is the resident-set growth sampled \
                 around each cell's runs (0 when the allocator reused \
                 earlier capacity), replacing the old process-wide \
                 monotonic peak that later rows inherited. The \
                 seal-ablation row per sketch is the incremental-\
                 sealing ablation: fresh_seal_us seals the winner \
                 from scratch, reseal_us reseals it from an artifact \
                 whose first hole was flipped, threads_reused counts \
                 the threads (of threads_total: prologue + workers + \
                 epilogue) carried over verbatim; the resealed \
                 artifact is asserted bit-identical to the fresh seal"
                    .into(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc).expect("write BENCH_checker.json");
    println!("wrote {out_path}");
}
