//! A small CLI for the PSKETCH synthesizer.
//!
//! ```text
//! psketch <file.psk> [--unroll N] [--pool N] [--hole-width N]
//!         [--int-width N] [--reorder quad|exp] [--max-iters N]
//!         [--no-por] [--no-prescreen] [--bank-cap N] [--timeout SECS]
//!         [--state-budget N] [--memory-budget MIB]
//!         [--report-json PATH] [--dump-ir] [--explain]
//! ```
//!
//! Reads a sketch, runs CEGIS, prints statistics and — when the sketch
//! resolves — the synthesized program. `--report-json` additionally
//! writes the machine-readable run report (schema-stable JSON, one
//! record per CEGIS iteration). The budget flags bound the run: an
//! over-budget run exits 4 ("unknown") and names the tripped budget.

use psketch_core::{render_stats, Config, Options, ReorderEncoding, Synthesis};
use psketch_suite::CheckerArgs;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: psketch <file.psk> [--unroll N] [--pool N] [--hole-width N] \
         [--int-width N] [--reorder quad|exp] [--max-iters N] \
         [--no-por] [--no-prescreen] [--bank-cap N] [--timeout SECS] \
         [--state-budget N] [--memory-budget MIB] [--report-json PATH] \
         [--dump-ir] [--explain]"
    );
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let checker = match CheckerArgs::try_extract(&mut args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    };
    let mut file = None;
    let mut config = Config::default();
    let mut max_iterations = 200;
    let mut wall_timeout = None;
    let mut state_budget = None;
    let mut memory_budget = None;
    let mut report_json: Option<String> = None;
    let mut dump_ir = false;
    let mut explain = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> usize {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("bad value for {what}");
                usage()
            })
        };
        match a.as_str() {
            "--unroll" => config.unroll = num("--unroll"),
            "--pool" => config.pool = num("--pool"),
            "--hole-width" => config.hole_width = num("--hole-width") as u32,
            "--int-width" => config.int_width = num("--int-width") as u32,
            "--max-iters" => max_iterations = num("--max-iters"),
            "--reorder" => {
                config.reorder = match it.next().map(String::as_str) {
                    Some("quad") => ReorderEncoding::Quadratic,
                    Some("exp") => ReorderEncoding::Exponential,
                    _ => usage(),
                }
            }
            "--timeout" => wall_timeout = Some(Duration::from_secs(num("--timeout") as u64)),
            "--state-budget" => state_budget = Some(num("--state-budget")),
            "--memory-budget" => {
                let bytes = (num("--memory-budget") as u64).checked_mul(1024 * 1024);
                memory_budget = Some(bytes.unwrap_or_else(|| {
                    eprintln!("bad value for --memory-budget");
                    usage()
                }));
            }
            "--report-json" => match it.next() {
                Some(path) => report_json = Some(path.clone()),
                None => usage(),
            },
            "--dump-ir" => dump_ir = true,
            "--explain" => explain = true,
            "--help" | "-h" => usage(),
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            std::process::exit(1);
        }
    };
    let mut opts = Options {
        config,
        max_iterations,
        wall_timeout,
        state_budget,
        memory_budget,
        ..Options::default()
    };
    checker.apply(&mut opts);
    let synthesis = match Synthesis::new(&source, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "candidate space |C| = {:.3e} ({} holes)",
        synthesis.candidate_space() as f64,
        synthesis.lowered().holes.num_holes()
    );
    if dump_ir {
        eprintln!("{}", psketch_exec::format_lowered(synthesis.lowered()));
    }
    let (out, report) = synthesis.run_report();
    if let Some(path) = &report_json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    eprint!("{}", render_stats(&file, synthesis_mode(&synthesis), &out));
    match out.resolution {
        Some(r) => {
            println!("{}", r.source);
        }
        None if out.definitely_unresolvable => {
            println!("NO: the sketch cannot be resolved.");
            if explain {
                // Show why a representative candidate fails.
                let a = synthesis.lowered().holes.identity_assignment();
                if let Some(cex) = synthesis.verify_candidate(&a) {
                    eprintln!(
                        "counterexample for the identity candidate:\n{}",
                        psketch_exec::format_trace(synthesis.lowered(), &cex)
                    );
                }
            }
            std::process::exit(3);
        }
        None => {
            match &out.budget_trip {
                Some(trip) => println!(
                    "unknown: {} budget tripped in {} ({}).",
                    trip.budget.label(),
                    trip.phase,
                    trip.detail
                ),
                None => println!("unknown: budget exhausted before convergence."),
            }
            std::process::exit(4);
        }
    }
}

fn synthesis_mode(s: &Synthesis) -> &'static str {
    match s.mode() {
        psketch_core::Mode::Harness => "harness",
        psketch_core::Mode::Equivalence(_) => "implements",
    }
}
