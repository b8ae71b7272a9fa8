//! Regenerates the paper's Figure 9: per-test performance of the
//! synthesizer on every benchmark workload.
//!
//! Prints one block per test with the same quantities the paper
//! reports (Resolvable, Itns, Total, Ssolve, Smodel, Vsolve, Vmodel,
//! memory) plus a trailing machine-readable TSV table. Each row runs in
//! a child process of its own (this binary with `--row N`), so its
//! memory column is that row's own peak, not the high-water mark of
//! the rows before it.
//!
//! Usage: `cargo run --release -p psketch-suite --bin fig9 [filter]
//! [--row N] [--report-json DIR] [--no-por] [--no-prescreen]
//! [--bank-cap N]` where `filter` restricts to benchmarks whose name
//! contains it, `--row N` runs only row `N` (0-based, in Figure 9's
//! order) in this process and prints its block followed by its TSV
//! line, `--report-json` writes one machine-readable run report per
//! row into `DIR` as `<benchmark>_<test>.json`, `--no-por` disables the
//! checker's partial-order reduction (full interleaving expansion),
//! and `--no-prescreen`/`--bank-cap` control the schedule-bank
//! prescreen ablation. Any other argument starting with `-` is
//! rejected with the usage line and exit status 2.

use psketch_core::{render_stats, Synthesis};
use psketch_suite::{figure9_runs, BenchmarkRun, CheckerArgs};
use std::process::{Command, Stdio};

const USAGE: &str =
    "fig9 [filter] [--row N] [--report-json DIR] [--no-por] [--no-prescreen] [--bank-cap N]";

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.clone();
    let checker = CheckerArgs::extract(&mut args, USAGE);
    let mut filter = String::new();
    let mut row: Option<usize> = None;
    let mut report_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report-json" => match it.next() {
                Some(dir) => report_dir = Some(dir.clone()),
                None => usage_error("--report-json needs a directory"),
            },
            "--row" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => row = Some(n),
                None => usage_error("--row needs a row number"),
            },
            other if !other.starts_with('-') => filter = other.to_string(),
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if let Some(dir) = &report_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(1);
        }
    }
    let runs = figure9_runs();
    if let Some(n) = row {
        let Some(run) = runs.get(n) else {
            usage_error(&format!("--row {n}: Figure 9 has {} rows", runs.len()))
        };
        let mut options = run.options.clone();
        checker.apply(&mut options);
        match run_row(run, options, report_dir.as_deref()) {
            Some((block, tsv)) => println!("{block}{tsv}"),
            None => std::process::exit(1),
        }
        return;
    }

    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate the fig9 binary: {e}");
        std::process::exit(1)
    });
    let mut tsv = vec![
        "benchmark\ttest\tresolvable\texpected\titns\tpaper_itns\ttotal_s\tpaper_total_s\tssolve_s\tsmodel_s\tvsolve_s\tvmodel_s\tlog10_C\tstates\tpruned\tmem_mib".to_string(),
    ];
    let mut mismatches = 0;
    let mut failed = 0;
    for (n, run) in runs.iter().enumerate() {
        if !run.benchmark.contains(&filter) {
            continue;
        }
        // The child parses the same arguments, so it applies the
        // checker flags and writes the row's report itself.
        let out = Command::new(&exe)
            .args(&argv)
            .args(["--row", &n.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| {
                eprintln!("cannot run {}: {e}", exe.display());
                std::process::exit(1)
            });
        let stdout = String::from_utf8_lossy(&out.stdout);
        let printed = stdout.trim_end().rsplit_once('\n');
        let Some((block, line)) = printed.filter(|_| out.status.success()) else {
            // The child said why on standard error.
            failed += 1;
            continue;
        };
        println!("{block}");
        let fields: Vec<&str> = line.split('\t').collect();
        if (fields[2] == "yes") != (fields[3] == "yes") {
            mismatches += 1;
        }
        tsv.push(line.to_string());
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
    if failed > 0 {
        eprintln!("{failed} rows failed");
        std::process::exit(1);
    }
}

/// Runs one row: its printed block and its TSV line, or `None` (after
/// saying why) when the sketch does not lower.
fn run_row(
    run: &BenchmarkRun,
    options: psketch_core::Options,
    report_dir: Option<&str>,
) -> Option<(String, String)> {
    let s = match Synthesis::new(&run.source, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{} [{}]: {e}", run.benchmark, run.test);
            return None;
        }
    };
    let (out, report) = s.run_report();
    if let Some(dir) = report_dir {
        let path = format!("{dir}/{}_{}.json", run.benchmark, run.test);
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
        }
    }
    let mut block = render_stats(run.benchmark, &run.test, &out);
    if out.resolved() != run.expected_resolvable {
        block += &format!(
            "  ** MISMATCH: paper reports {}\n",
            if run.expected_resolvable { "yes" } else { "NO" }
        );
    }
    if let Some(p) = run.paper_iterations {
        block += &format!(
            "  paper: Itns {}  Total {:.0}s (2 GHz Core 2 Duo, 2008)\n",
            p,
            run.paper_total_secs.unwrap_or(0.0)
        );
    }
    block.push('\n');
    let st = &out.stats;
    let tsv = format!(
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
    );
    Some((block, tsv))
}
