//! Runs one workload for a fixed time and prints its metrics.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--spans FILE] [--commit REV]`
//!
//! With `--trace 0` the run repeats untraced passes and reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics. The seed fixes the
//! sketch order of every pass. Every verdict is checked against the
//! paper's, every winner is re-verified by the reference engine, and
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

use psketch_core::{Json, Synthesis};
use psketch_exec::{reference::check_ref, Verdict};
use psketch_ir::Assignment;
use psketch_perfbench::fidelity;
use psketch_perfbench::metrics::{
    column_medians, layer_totals, pass_totals, MetricDef, END_TO_END, LAYER_TIMES, PER_LAYER,
};
use psketch_perfbench::pass::{untraced, Trajectory, Untraced};
use psketch_perfbench::trace::{traced, Traced};
use psketch_perfbench::workload::{self, label, Workload};
use psketch_suite::BenchmarkRun;
use psketch_testutil::Rng;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE] [--commit REV]";

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spans, mut commit) = (None, "unknown".to_string());
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::workload(&name).ok_or(format!(
        "unknown workload {name}; one of {}",
        workload::names().join(", ")
    ))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
        commit,
    })
}

/// One benchmark run's state: the seeded sketch order, each sketch's
/// reference trajectory, and every error found.
struct Bench<'w> {
    w: &'w Workload,
    rng: Rng,
    orders: Vec<Vec<usize>>,
    reference: Vec<Trajectory>,
    errors: Vec<String>,
    attempted: usize,
}

impl Bench<'_> {
    /// The next pass's sketch order: a seeded permutation.
    fn next_order(&mut self) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.w.sketches.len()).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.rng.below(i + 1));
        }
        self.orders.push(v.clone());
        v
    }

    /// Counts a verdict that differs from the paper's, or a tripped
    /// budget, as an error.
    fn check_verdict(&mut self, run: &BenchmarkRun, t: &Trajectory, tripped: bool) {
        if tripped {
            self.errors
                .push(format!("{}: a budget tripped", label(run)));
        }
        self.errors.extend(t.verdict_error(run));
    }

    /// An untimed pass in definition order that fixes every sketch's
    /// reference trajectory. The order is fixed so that the peak
    /// memory read after it does not depend on the seed: which sketch
    /// runs first changes how the allocator's heap grows.
    ///
    /// # Errors
    ///
    /// A sketch does not lower.
    fn warm_up(&mut self) -> Result<(), String> {
        let w = self.w;
        for run in &w.sketches {
            self.attempted += 1;
            let u = untraced(run)?;
            self.check_verdict(run, &u.trajectory, u.budget_tripped);
            self.reference.push(u.trajectory);
        }
        Ok(())
    }

    fn untraced_pass(&mut self) -> Result<Vec<Untraced>, String> {
        let mut pass = Vec::new();
        for ix in self.next_order() {
            let run = &self.w.sketches[ix];
            self.attempted += 1;
            let u = untraced(run)?;
            self.check_verdict(run, &u.trajectory, u.budget_tripped);
            if u.trajectory != self.reference[ix] {
                self.errors.push(format!(
                    "{}: the trajectory changed between passes",
                    label(run)
                ));
            }
            pass.push(u);
        }
        Ok(pass)
    }

    /// A traced pass. A trajectory that differs from the untraced one
    /// is an error: the traced numbers would describe another run.
    fn traced_pass(&mut self) -> Result<Vec<(usize, Traced)>, String> {
        let mut pass = Vec::new();
        for ix in self.next_order() {
            let run = &self.w.sketches[ix];
            self.attempted += 1;
            let t = traced(run)?;
            self.check_verdict(run, &t.trajectory, t.budget_tripped);
            fidelity(&self.reference[ix], &t).map_err(|e| format!("{}: {e}", label(run)))?;
            pass.push((ix, t));
        }
        Ok(pass)
    }

    /// Re-verifies every winner with the clone-based reference engine.
    fn oracle(&mut self) {
        for (run, t) in self.w.sketches.iter().zip(&self.reference) {
            let Some(winner) = &t.winner else { continue };
            let s = match Synthesis::new(&run.source, run.options.clone()) {
                Ok(s) => s,
                Err(e) => {
                    self.errors.push(format!("{}: {e}", label(run)));
                    continue;
                }
            };
            let candidate = Assignment::from_values(winner.clone());
            let verdict = check_ref(s.lowered(), &candidate).verdict;
            match verdict {
                Verdict::Pass => {}
                Verdict::Fail(_) => self.errors.push(format!(
                    "{}: the reference engine refutes winner {winner:?}",
                    label(run)
                )),
                Verdict::Unknown(why) => self.errors.push(format!(
                    "{}: the reference engine stopped ({}) on winner {winner:?}",
                    label(run),
                    why.label()
                )),
            }
        }
    }
}

fn metrics_json(defs: &[MetricDef], values: &[f64]) -> Json {
    Json::Obj(
        defs.iter()
            .zip(values)
            .map(|(d, &v)| {
                let fields = vec![
                    ("value".to_string(), Json::Num(v)),
                    ("unit".to_string(), Json::Str(d.unit.to_string())),
                ];
                (d.name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

fn write_spans(path: &str, w: &Workload, passes: &[Vec<(usize, Traced)>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (p, pass) in passes.iter().enumerate() {
        for (ix, t) in pass {
            for s in &t.spans {
                let line = Json::Obj(vec![
                    ("pass".into(), Json::Num(p as f64)),
                    ("sketch".into(), Json::Str(label(&w.sketches[*ix]))),
                    ("iteration".into(), Json::Num(s.iteration as f64)),
                    ("layer".into(), Json::Str(s.layer.name().into())),
                    ("shadow".into(), Json::Bool(s.layer.is_shadow())),
                    ("start_s".into(), Json::Num(s.start.as_secs_f64())),
                    ("dur_s".into(), Json::Num(s.dur.as_secs_f64())),
                ]);
                writeln!(out, "{}", line.render())?;
            }
        }
    }
    out.flush()
}

/// Where the numbers come from: machine, seed, orders, workload and
/// what each per-layer metric should move.
fn provenance(args: &Args, b: &Bench<'_>) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        ("workload".into(), s(args.workload.name)),
        ("why".into(), s(args.workload.why)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("commit".into(), s(&args.commit)),
        ("available_parallelism".into(), Json::Num(cores as f64)),
        (
            "sketches".into(),
            Json::Arr(
                args.workload
                    .sketches
                    .iter()
                    .map(|r| s(&label(r)))
                    .collect(),
            ),
        ),
        (
            "pass_orders".into(),
            Json::Arr(
                b.orders
                    .iter()
                    .map(|o| Json::Arr(o.iter().map(|&i| Json::Num(i as f64)).collect()))
                    .collect(),
            ),
        ),
        (
            "per_layer_moves".into(),
            Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|d| (d.name.to_string(), s(&format!("{} on {}", d.moves, d.on))))
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let mut b = Bench {
        w,
        rng: Rng::new(args.seed),
        orders: Vec::new(),
        reference: Vec::new(),
        errors: Vec::new(),
        attempted: 0,
    };
    b.warm_up()?;
    let rss = psketch_core::mem::peak_rss_bytes()
        .ok_or("no /proc/self/status: peak memory is unmeasurable")? as f64
        / (1024.0 * 1024.0);

    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut untraced_passes: Vec<Vec<f64>> = Vec::new();
    let mut traced_passes: Vec<Vec<(usize, Traced)>> = Vec::new();
    while untraced_passes.len() < MIN_PASSES || t0.elapsed() < budget {
        untraced_passes.push(pass_totals(&b.untraced_pass()?));
        if args.trace {
            traced_passes.push(b.traced_pass()?);
        }
    }
    let measured = t0.elapsed();

    let t_oracle = Instant::now();
    b.oracle();
    println!(
        "workload {}: {} sketches, {} untraced and {} traced passes in {:.1} s, oracle {:.1} s",
        w.name,
        w.sketches.len(),
        untraced_passes.len(),
        traced_passes.len(),
        measured.as_secs_f64(),
        t_oracle.elapsed().as_secs_f64()
    );
    let walls: Vec<String> = untraced_passes
        .iter()
        .map(|r| format!("{:.3}", r[0]))
        .collect();
    println!("  pass wall_s: {}", walls.join(" "));
    let medians = column_medians(&untraced_passes);
    let (wall_s, setup_s, iterations) = (medians[0], medians[1], medians[2]);
    let e2e = [wall_s, setup_s, rss, iterations];
    println!(
        "  medians of {} untraced passes; peak memory after the warm-up pass",
        untraced_passes.len()
    );
    for (d, v) in END_TO_END.iter().zip(&e2e) {
        println!("  {:<14} {v:>14.6} {}", d.name, d.unit);
    }

    let metrics = if args.trace {
        let per_pass: Vec<Vec<f64>> = traced_passes
            .iter()
            .map(|p| layer_totals(&p.iter().map(|(_, t)| t).collect::<Vec<_>>()))
            .collect();
        let mut layers = column_medians(&per_pass);
        let index = |name: &str| {
            PER_LAYER
                .iter()
                .position(|d| d.name == name)
                .expect("known metric")
        };
        layers[index("trace.overhead_s")] = layers[index("cegis.wall_s")] - wall_s;
        let wall = layers[index("cegis.wall_s")];
        let (top, top_s) = LAYER_TIMES
            .iter()
            .map(|n| (*n, layers[index(n)]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("layer times are listed");
        println!(
            "  largest layer: {top} {top_s:.6} s of {wall:.6} s traced wall; unattributed {:.2}%",
            100.0 * layers[index("cegis.unattributed_share")]
        );
        for (d, v) in PER_LAYER.iter().zip(&layers) {
            println!("  {:<28} {v:>16.6} {}", d.name, d.unit);
        }
        if let Some(path) = &args.spans {
            write_spans(path, w, &traced_passes).map_err(|e| format!("{path}: {e}"))?;
        }
        metrics_json(PER_LAYER, &layers)
    } else {
        metrics_json(END_TO_END, &e2e)
    };
    println!("provenance {}", provenance(args, &b).render());
    for e in &b.errors {
        eprintln!("error: {e}");
    }
    let correct = b.errors.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(b.attempted as f64)),
        ("failed".into(), Json::Num(b.errors.len() as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.render());
    Ok(correct)
}
