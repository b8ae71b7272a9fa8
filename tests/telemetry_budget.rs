//! Integration tests for run telemetry and resource budgets: the JSON
//! run report round-trips through the bundled parser, budget-tripped
//! runs terminate with unknown and a structured reason, and the
//! human-readable report covers every new field.

use psketch_repro::core::telemetry::{BudgetKind, Json, RunReport};
use psketch_repro::core::{render_stats, Options, Synthesis};
use std::time::Duration;

const RACY_SKETCH: &str = "int g;
     harness void main() {
         fork (i; 3) { int t = g; g = t + 1; }
         assert g == ??(2);
     }";

#[test]
fn run_report_json_round_trips() {
    let s = Synthesis::new(
        "int g; harness void main() { g = ??(3); assert g == 6; }",
        Options::default(),
    )
    .unwrap();
    let (out, report) = s.run_report();
    assert!(out.resolved());

    let text = report.to_json();
    let v = Json::parse(&text).expect("report must be valid JSON");

    // Every schema-stable key must be present.
    for key in [
        "schema",
        "resolvable",
        "resolution",
        "budget_trip",
        "iterations",
        "total_secs",
        "s_solve_secs",
        "s_model_secs",
        "v_solve_secs",
        "v_model_secs",
        "candidate_space",
        "log10_space",
        "states",
        "transitions",
        "terminal_states",
        "peak_memory",
        "synth_nodes",
        "sat_decisions",
        "sat_propagations",
        "sat_conflicts",
        "sat_restarts",
        "symbolic_bytes",
        "prescreen_secs",
        "check_secs",
        "records",
    ] {
        assert!(v.get(key).is_some(), "missing key '{key}'");
    }

    // Parsed values mirror the typed report.
    assert_eq!(
        v.get("schema").unwrap().as_f64(),
        Some(RunReport::SCHEMA as f64)
    );
    assert_eq!(v.get("resolvable").unwrap().as_str(), Some("yes"));
    assert_eq!(
        v.get("iterations").unwrap().as_f64(),
        Some(report.iterations as f64)
    );
    assert_eq!(
        v.get("states").unwrap().as_f64(),
        Some(report.cost.check.states as f64)
    );
    assert_eq!(
        v.get("candidate_space").unwrap().as_str(),
        Some(report.candidate_space.to_string().as_str())
    );
    let recs = v.get("records").unwrap().as_arr().unwrap();
    assert_eq!(recs.len(), report.records.len());
    assert_eq!(recs.len(), out.stats.iterations);
    for (parsed, typed) in recs.iter().zip(&report.records) {
        assert_eq!(
            parsed.get("iteration").unwrap().as_f64(),
            Some(typed.iteration as f64)
        );
        assert_eq!(
            parsed.get("verdict").unwrap().as_str(),
            Some(typed.verdict.as_str())
        );
        let cand = parsed.get("candidate").unwrap().as_arr().unwrap();
        let cand: Vec<u64> = cand.iter().map(|j| j.as_f64().unwrap() as u64).collect();
        assert_eq!(cand, typed.candidate);
    }
    // The winning candidate is the last record.
    assert_eq!(
        recs.last().unwrap().get("verdict").unwrap().as_str(),
        Some("correct")
    );
}

#[test]
fn wall_budget_trips_to_unknown() {
    let out = Synthesis::new(
        RACY_SKETCH,
        Options {
            wall_timeout: Some(Duration::ZERO),
            ..Options::default()
        },
    )
    .unwrap()
    .run();
    assert!(!out.resolved());
    assert!(!out.definitely_unresolvable);
    let trip = out.budget_trip.expect("wall trip");
    assert_eq!(trip.budget, BudgetKind::Wall);
    assert_eq!(trip.budget.label(), "wall");
    assert!(!trip.phase.is_empty());
}

#[test]
fn state_budget_trips_to_unknown_with_partial_stats() {
    let (out, report) = Synthesis::new(
        RACY_SKETCH,
        Options {
            state_budget: Some(3),
            ..Options::default()
        },
    )
    .unwrap()
    .run_report();
    assert!(!out.resolved());
    let trip = out.budget_trip.expect("state trip");
    assert_eq!(trip.budget, BudgetKind::States);
    assert_eq!(trip.phase, "verify");
    // Partial stats survive the trip and respect the budget.
    assert!(out.stats.cost.check.states <= 3);
    assert!(out.stats.iterations >= 1);
    assert!(!report.records.is_empty());
    assert!(report
        .records
        .iter()
        .any(|r| r.verdict.starts_with("unknown:")));
    // The report carries the trip too.
    let v = Json::parse(&report.to_json()).unwrap();
    let t = v.get("budget_trip").unwrap();
    assert_eq!(t.get("budget").unwrap().as_str(), Some("states"));
    assert_eq!(t.get("phase").unwrap().as_str(), Some("verify"));
}

#[test]
fn budgets_do_not_disturb_conclusive_runs() {
    let (out, report) = Synthesis::new(
        "int g; harness void main() { g = ??(2); assert g == 1; }",
        Options {
            wall_timeout: Some(Duration::from_secs(600)),
            state_budget: Some(1_000_000),
            ..Options::default()
        },
    )
    .unwrap()
    .run_report();
    assert!(out.resolved());
    assert!(out.budget_trip.is_none());
    assert_eq!(report.resolvable, "yes");
    assert_eq!(report.budget_trip, None);
}

/// A wall budget past what the clock can represent is no budget.
#[test]
fn unrepresentable_wall_budget_never_trips() {
    let out = Synthesis::new(
        "int g; harness void main() { g = ??(2); assert g == 1; }",
        Options {
            wall_timeout: Some(Duration::MAX),
            ..Options::default()
        },
    )
    .unwrap()
    .run();
    assert!(out.resolved());
    assert!(out.budget_trip.is_none());
}

#[test]
fn pretty_report_covers_new_fields() {
    let s = Synthesis::new(RACY_SKETCH, Options::default()).unwrap();
    let out = s.run();
    let pretty = render_stats("demo", "t", &out);
    for needle in [
        "Resolvable:",
        "Itns:",
        "Ssolve",
        "peak mem",
        "transitions",
        "terminal",
        "decisions",
        "propagations",
        "conflicts",
        "restarts",
        "watches",
        "circuit",
        "symbolic",
        "prescreen",
    ] {
        assert!(pretty.contains(needle), "missing '{needle}' in:\n{pretty}");
    }
    // Budget line appears exactly when a budget tripped.
    assert!(!pretty.contains("budget:"));
    let tripped = Synthesis::new(
        RACY_SKETCH,
        Options {
            state_budget: Some(2),
            ..Options::default()
        },
    )
    .unwrap()
    .run();
    let pretty = render_stats("demo", "t", &tripped);
    assert!(pretty.contains("budget: states tripped in verify"));
}
