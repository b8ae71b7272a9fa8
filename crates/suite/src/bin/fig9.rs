//! Regenerates the paper's Figure 9: per-test performance of the
//! synthesizer on every benchmark workload.
//!
//! Prints one block per test with the same quantities the paper
//! reports (Resolvable, Itns, Total, Ssolve, Smodel, Vsolve, Vmodel,
//! memory) plus a trailing machine-readable TSV table. The peak-RSS
//! mark is reset before each row, so its memory column is that row's
//! own peak.
//!
//! Usage: `cargo run --release -p psketch-suite --bin fig9 [filter]
//! [--report-json DIR] [--no-por] [--no-prescreen] [--bank-cap N]`
//! where `filter` restricts to benchmarks whose name contains it,
//! `--report-json` writes one machine-readable run report per row
//! into `DIR` as `<benchmark>_<test>.json`, `--no-por` disables the
//! checker's partial-order reduction (full interleaving expansion),
//! and `--no-prescreen`/`--bank-cap` control the schedule-bank
//! prescreen ablation. Any other argument starting with `-` is
//! rejected with the usage line and exit status 2.

use psketch_core::{mem, render_stats, Synthesis};
use psketch_suite::{figure9_runs, CheckerArgs};

const USAGE: &str = "fig9 [filter] [--report-json DIR] [--no-por] [--no-prescreen] [--bank-cap N]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let checker = CheckerArgs::extract(&mut args, USAGE);
    let mut filter = String::new();
    let mut report_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report-json" => match it.next() {
                Some(dir) => report_dir = Some(dir.clone()),
                None => {
                    eprintln!("--report-json needs a directory");
                    eprintln!("usage: {USAGE}");
                    std::process::exit(2);
                }
            },
            other if !other.starts_with('-') => filter = other.to_string(),
            other => {
                eprintln!("unknown argument {other}");
                eprintln!("usage: {USAGE}");
                std::process::exit(2);
            }
        }
    }
    if let Some(dir) = &report_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(1);
        }
    }
    let mut tsv = vec![
        "benchmark\ttest\tresolvable\texpected\titns\tpaper_itns\ttotal_s\tpaper_total_s\tssolve_s\tsmodel_s\tvsolve_s\tvmodel_s\tlog10_C\tstates\tpruned\tmem_mib".to_string(),
    ];
    let mut mismatches = 0;
    for run in figure9_runs() {
        if !run.benchmark.contains(&filter) {
            continue;
        }
        let mut options = run.options.clone();
        checker.apply(&mut options);
        mem::reset_peak_rss();
        let s = match Synthesis::new(&run.source, options) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{} [{}]: {e}", run.benchmark, run.test);
                continue;
            }
        };
        let (out, report) = s.run_report();
        if let Some(dir) = &report_dir {
            let path = format!("{dir}/{}_{}.json", run.benchmark, run.test);
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("cannot write {path}: {e}");
            }
        }
        print!("{}", render_stats(run.benchmark, &run.test, &out));
        let agreed = out.resolved() == run.expected_resolvable;
        if !agreed {
            mismatches += 1;
            println!(
                "  ** MISMATCH: paper reports {}",
                if run.expected_resolvable { "yes" } else { "NO" }
            );
        }
        if let Some(p) = run.paper_iterations {
            println!(
                "  paper: Itns {}  Total {:.0}s (2 GHz Core 2 Duo, 2008)",
                p,
                run.paper_total_secs.unwrap_or(0.0)
            );
        }
        println!();
        let st = &out.stats;
        tsv.push(format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.1}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.2}\t{}\t{}\t{}",
            run.benchmark,
            run.test,
            out.resolvable(),
            if run.expected_resolvable { "yes" } else { "NO" },
            st.iterations,
            run.paper_iterations.unwrap_or(0),
            st.total.as_secs_f64(),
            run.paper_total_secs.unwrap_or(0.0),
            st.s_solve.as_secs_f64(),
            st.s_model.as_secs_f64(),
            st.v_solve.as_secs_f64(),
            st.v_model.as_secs_f64(),
            st.log10_space,
            st.cost.check.states,
            st.cost.check.states_pruned,
            st.peak_memory.map_or_else(
                || "n/a".to_string(),
                |b| format!("{:.1}", b as f64 / (1024.0 * 1024.0))
            ),
        ));
    }
    println!("==== TSV ====");
    for line in &tsv {
        println!("{line}");
    }
    println!(
        "==== outcome agreement: {}/{} rows match the paper ====",
        tsv.len() - 1 - mismatches,
        tsv.len() - 1
    );
}
