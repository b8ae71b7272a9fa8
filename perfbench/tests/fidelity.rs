//! The traced loop must do exactly what `Synthesis::run_report` does,
//! its spans must fit its wall time, and the metric tables must match
//! `BENCHMARK.json`.

use psketch_core::{Json, Options};
use psketch_perfbench::metrics::{layer_totals, MetricDef, END_TO_END, PER_LAYER};
use psketch_perfbench::pass::untraced;
use psketch_perfbench::trace::{traced, Layer};
use psketch_perfbench::{fidelity, workload};
use psketch_suite::BenchmarkRun;

/// Lock placement by reorder: several iterations, schedule-bank hits
/// and reseals.
const REORDER: &str = "struct Lock { int owner = -1; }
     Lock lk; int g;
     void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
     void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }
     harness void main() {
         lk = new Lock();
         fork (i; 2) {
             int t = 0;
             reorder { lock(lk); t = g; g = t + 1; unlock(lk); }
         }
         assert g == 2;
     }";

fn inline(source: &str, expected_resolvable: bool) -> BenchmarkRun {
    BenchmarkRun {
        benchmark: "inline",
        test: "t".into(),
        source: source.into(),
        options: Options::default(),
        expected_resolvable,
        paper_iterations: None,
        paper_total_secs: None,
    }
}

#[test]
fn traced_loop_matches_run_report() {
    let run = inline(REORDER, true);
    let u = untraced(&run).expect("lowers");
    let t = traced(&run).expect("lowers, and every reseal equals a fresh seal");
    fidelity(&u.trajectory, &t).expect("same trajectory");
    assert!(u.trajectory.verdict_error(&run).is_none());
    assert!(t.trajectory.iterations() > 1, "several iterations");
    assert!(t.counters.prescreen_hits > 0, "the bank refutes");
    assert!(t.counters.reseals > 0, "later candidates reseal");
    assert_eq!(t.counters.reseals as usize, t.trajectory.iterations() - 1);
}

#[test]
fn spans_and_unattributed_add_up_to_wall_time() {
    let run = inline(REORDER, true);
    let t = traced(&run).expect("lowers");
    let m = layer_totals(&[&t]);
    let get = |name: &str| m[PER_LAYER.iter().position(|d| d.name == name).unwrap()];
    let wall = get("cegis.wall_s");
    let unattributed = get("cegis.unattributed_s");
    assert!(unattributed >= 0.0);
    let spans: f64 = t
        .spans
        .iter()
        .filter(|s| !s.layer.is_shadow() && !s.layer.is_setup())
        .map(|s| s.dur.as_secs_f64())
        .sum();
    assert!((spans + unattributed - wall).abs() < 1e-9);
    // Shadow work is outside the wall time it is compared against.
    assert!(t.time(Layer::FreshSealShadow) > std::time::Duration::ZERO);
}

#[test]
fn unresolvable_sketch_ends_in_an_unsat_span() {
    let run = inline(
        "int g; harness void main() { g = ??(2); assert g == 9; }",
        false,
    );
    let u = untraced(&run).expect("lowers");
    let t = traced(&run).expect("lowers");
    fidelity(&u.trajectory, &t).expect("same trajectory");
    assert_eq!(t.trajectory.resolvable, "NO");
    let last_solve = t
        .spans
        .iter()
        .rev()
        .find(|s| matches!(s.layer, Layer::Solve | Layer::SolveUnsat))
        .unwrap();
    assert_eq!(last_solve.layer, Layer::SolveUnsat);
}

#[test]
fn fidelity_rejects_a_different_trajectory() {
    let run = inline(REORDER, true);
    let u = untraced(&run).expect("lowers");
    let t = traced(&run).expect("lowers");

    let mut other = u.trajectory.clone();
    other.candidates[0][0] ^= 1;
    assert!(fidelity(&other, &t).is_err(), "a changed candidate");

    let mut other = u.trajectory.clone();
    other.candidates.pop();
    assert!(fidelity(&other, &t).is_err(), "a missing iteration");

    let mut other = u.trajectory.clone();
    other.winner = None;
    assert!(fidelity(&other, &t).is_err(), "a different winner");
}

#[test]
fn wrong_verdicts_are_errors() {
    let run = inline(
        "int g; harness void main() { g = ??(2); assert g == 9; }",
        true,
    );
    let u = untraced(&run).expect("lowers");
    assert!(u.trajectory.verdict_error(&run).is_some());
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("valid JSON");
    // `(name, unit, better)` of every metric listed under `key`.
    let listed = |key: &str| -> Vec<[String; 3]> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                ["name", "unit", "better"]
                    .map(|f| m.get(f).and_then(Json::as_str).unwrap().to_string())
            })
            .collect()
    };
    let defined = |defs: &[MetricDef]| -> Vec<[String; 3]> {
        defs.iter()
            .map(|d| [d.name, d.unit, d.better].map(str::to_string))
            .collect()
    };
    assert_eq!(listed("end_to_end"), defined(END_TO_END));
    assert_eq!(listed("per_layer"), defined(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, workload::names());
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert_eq!(workload::workload(name).unwrap().why, why);
    }
}

#[test]
fn workloads_are_pinned_to_one_thread_and_one_candidate() {
    for name in workload::names() {
        let w = workload::workload(name).unwrap();
        assert!(!w.sketches.is_empty());
        for run in &w.sketches {
            assert_eq!((run.options.threads, run.options.portfolio), (1, 1));
        }
    }
}
