//! Regenerates the paper's Figure 10: log10 |C| against the number of
//! CEGIS iterations, for the Figure 9 tests.
//!
//! Prints the (x, y) series plus a least-squares fit and a crude ASCII
//! scatter plot; the paper observes an approximately linear
//! correlation. `--json PATH` additionally writes the series as a JSON
//! array of `{test, log10_space, iterations}` objects; `--no-por`
//! disables the checker's partial-order reduction, and
//! `--no-prescreen`/`--bank-cap` control the schedule-bank prescreen.

use psketch_core::{Json, Synthesis};
use psketch_suite::{figure9_runs, CheckerArgs};

const USAGE: &str = "fig10 [--json PATH] [--no-por] [--no-prescreen] [--bank-cap N]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let checker = CheckerArgs::extract(&mut args, USAGE);
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("usage: {USAGE}");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("usage: {USAGE}");
                std::process::exit(2);
            }
        }
    }
    let mut points: Vec<(f64, f64, String)> = Vec::new();
    for run in figure9_runs() {
        let mut options = run.options.clone();
        checker.apply(&mut options);
        let Ok(s) = Synthesis::new(&run.source, options) else {
            continue;
        };
        let out = s.run();
        if !out.resolved() {
            continue; // the paper plots resolved sketches
        }
        points.push((
            out.stats.log10_space,
            out.stats.iterations as f64,
            format!("{} [{}]", run.benchmark, run.test),
        ));
    }
    if let Some(path) = &json_path {
        let series = Json::Arr(
            points
                .iter()
                .map(|(x, y, name)| {
                    Json::Obj(vec![
                        ("test".to_string(), Json::Str(name.clone())),
                        ("log10_space".to_string(), Json::Num(*x)),
                        ("iterations".to_string(), Json::Num(*y)),
                    ])
                })
                .collect(),
        );
        if let Err(e) = std::fs::write(path, series.render()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{:<28} {:>10} {:>6}", "test", "log10|C|", "itns");
    for (x, y, name) in &points {
        println!("{name:<28} {x:>10.2} {y:>6.0}");
    }
    // Least-squares fit y = a x + b.
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() > 1e-9 {
        let a = (n * sxy - sx * sy) / denom;
        let b = (sy - a * sx) / n;
        println!("\nleast-squares fit: itns = {a:.2} * log10|C| + {b:.2}");
        // Correlation coefficient.
        let syy: f64 = points.iter().map(|p| p.1 * p.1).sum();
        let r = (n * sxy - sx * sy) / ((n * sxx - sx * sx).sqrt() * (n * syy - sy * sy).sqrt());
        println!("correlation r = {r:.2}");
    }
    // ASCII scatter.
    let max_x = points.iter().map(|p| p.0).fold(1.0, f64::max);
    let max_y = points.iter().map(|p| p.1).fold(1.0, f64::max);
    let (w, h) = (60usize, 16usize);
    let mut grid = vec![vec![' '; w + 1]; h + 1];
    for (x, y, _) in &points {
        let cx = ((x / max_x) * w as f64).round() as usize;
        let cy = h - ((y / max_y) * h as f64).round() as usize;
        grid[cy][cx] = '*';
    }
    println!("\nitns ^ (max {max_y:.0})");
    for row in grid {
        println!("     |{}", row.iter().collect::<String>());
    }
    println!("     +{}> log10|C| (max {max_x:.1})", "-".repeat(w));
}
