//! Regenerates the paper's Table 1: benchmark summary with
//! candidate-space sizes |C|.
//!
//! `table1 --dump <benchmark>` instead prints that benchmark's sketch
//! source to stdout (so scripts and CI can feed a Table-1 workload to
//! the `psketch` CLI without duplicating the source). The shared
//! checker flags — `--no-por`, `--no-prescreen`, `--bank-cap N` —
//! adjust the benchmark options (space sizing itself never runs the
//! checker, so they only matter to tooling that reuses these options).
//! Any other argument is rejected with the usage line and exit
//! status 2.

use psketch_core::Synthesis;
use psketch_suite::{table1_entries, CheckerArgs};

const USAGE: &str = "table1 [--dump <benchmark>] [--no-por] [--no-prescreen] [--bank-cap N]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let checker = CheckerArgs::extract(&mut args, USAGE);
    let dump = match &args[..] {
        [] => None,
        [flag, name] if flag == "--dump" => Some(name),
        _ => {
            eprintln!("unexpected arguments: {}", args.join(" "));
            eprintln!("usage: {USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(name) = dump {
        match table1_entries()
            .iter()
            .find(|e| e.benchmark == name.as_str())
        {
            Some(entry) => {
                println!("{}", entry.run.source);
                return;
            }
            None => {
                let known: Vec<&str> = table1_entries().iter().map(|e| e.benchmark).collect();
                eprintln!("unknown benchmark '{name}'; known: {}", known.join(", "));
                std::process::exit(2);
            }
        }
    }
    println!(
        "{:<10} {:<48} {:>12} {:>10}",
        "Sketch", "Description", "|C| (ours)", "|C| paper"
    );
    println!("{}", "-".repeat(84));
    for entry in table1_entries() {
        let mut options = entry.run.options.clone();
        checker.apply(&mut options);
        let s = Synthesis::new(&entry.run.source, options).expect("benchmark lowers");
        let space = s.candidate_space();
        let rendered = if space < 1000 {
            space.to_string()
        } else {
            format!("10^{:.1}", s.lowered().holes.log10_candidate_space())
        };
        println!(
            "{:<10} {:<48} {:>12} {:>10}",
            entry.benchmark, entry.description, rendered, entry.paper_space
        );
    }
}
