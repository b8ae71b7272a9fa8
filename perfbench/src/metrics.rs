//! Metric definitions and per-pass aggregation.

use crate::pass::Untraced;
use crate::trace::{Layer, Traced};
use std::time::Duration;

/// A metric's definition: name, unit, which direction is better, and
/// for a per-layer metric the end-to-end metric and workload it should
/// move.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workload it should move it on.
    pub on: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// End-to-end metrics, from the untraced passes.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", "lower", "", ""),
    def("setup_s", "s", "lower", "", ""),
    def("peak_rss_mib", "MiB", "lower", "", ""),
    def("iterations", "count", "lower", "", ""),
];

/// Per-layer metrics, from the traced passes.
pub const PER_LAYER: &[MetricDef] = &[
    def("lang.check_program_s", "s", "lower", "setup_s", "smodel"),
    def("ir.desugar_s", "s", "lower", "setup_s", "smodel"),
    def("ir.lower_s", "s", "lower", "setup_s", "smodel"),
    def("ir.resolve_s", "s", "lower", "wall_s", "sat_check"),
    def("symbolic.synth_new_s", "s", "lower", "wall_s", "smodel"),
    def("symbolic.add_trace_s", "s", "lower", "wall_s", "smodel"),
    def("symbolic.project_s", "s", "lower", "wall_s", "smodel"),
    def("symbolic.drop_s", "s", "lower", "wall_s", "smodel"),
    def("symbolic.traces", "count", "lower", "iterations", "smodel"),
    def("symbolic.nodes", "count", "lower", "peak_rss_mib", "smodel"),
    def("sat.solve_s", "s", "lower", "wall_s", "sat_check"),
    def("sat.unsat_s", "s", "lower", "wall_s", "sat_check"),
    def(
        "sat.solve_calls",
        "count",
        "lower",
        "iterations",
        "sat_check",
    ),
    def("sat.decisions", "count", "lower", "wall_s", "sat_check"),
    def("sat.propagations", "count", "lower", "wall_s", "sat_check"),
    def("sat.conflicts", "count", "lower", "wall_s", "sat_check"),
    def("sat.restarts", "count", "lower", "wall_s", "sat_check"),
    def("sat.learnts", "count", "lower", "wall_s", "sat_check"),
    def("sat.clauses", "count", "lower", "wall_s", "sat_check"),
    def("exec.seal_s", "s", "lower", "wall_s", "smodel"),
    def("exec.reseal_s", "s", "lower", "wall_s", "smodel"),
    def("exec.reseals", "count", "lower", "wall_s", "sat_check"),
    def(
        "exec.threads_reused",
        "count",
        "higher",
        "wall_s",
        "sat_check",
    ),
    def(
        "exec.holes_changed_mean",
        "count",
        "lower",
        "wall_s",
        "sat_check",
    ),
    def("exec.fresh_seal_shadow_s", "s", "lower", "wall_s", "smodel"),
    def("exec.prescreen_s", "s", "lower", "wall_s", "sat_check"),
    def(
        "exec.prescreen_calls",
        "count",
        "lower",
        "wall_s",
        "sat_check",
    ),
    def(
        "exec.prescreen_hits",
        "count",
        "higher",
        "wall_s",
        "sat_check",
    ),
    def(
        "exec.prescreen_replays",
        "count",
        "lower",
        "wall_s",
        "sat_check",
    ),
    def(
        "exec.prescreen_hit_ratio",
        "ratio",
        "higher",
        "wall_s",
        "sat_check",
    ),
    def("exec.bank_record_s", "s", "lower", "wall_s", "sat_check"),
    def("exec.check_s", "s", "lower", "wall_s", "sat_check"),
    def("exec.check_calls", "count", "lower", "wall_s", "sat_check"),
    def("exec.states", "count", "lower", "peak_rss_mib", "sat_check"),
    def("exec.transitions", "count", "lower", "wall_s", "sat_check"),
    def("exec.states_per_s", "1/s", "higher", "wall_s", "sat_check"),
    def(
        "exec.journal_writes",
        "count",
        "lower",
        "wall_s",
        "sat_check",
    ),
    def(
        "exec.states_pruned",
        "count",
        "higher",
        "wall_s",
        "sat_check",
    ),
    def(
        "exec.sym_collapses",
        "count",
        "higher",
        "wall_s",
        "sat_check",
    ),
    def("cegis.wall_s", "s", "lower", "wall_s", "all"),
    def("cegis.unattributed_s", "s", "lower", "wall_s", "all"),
    def(
        "cegis.unattributed_share",
        "ratio",
        "lower",
        "wall_s",
        "all",
    ),
    def("trace.overhead_s", "s", "lower", "wall_s", "all"),
];

/// The disjoint layer times: the largest of them names a workload's
/// bottleneck.
pub const LAYER_TIMES: &[&str] = &[
    "lang.check_program_s",
    "ir.desugar_s",
    "ir.lower_s",
    "ir.resolve_s",
    "symbolic.synth_new_s",
    "symbolic.add_trace_s",
    "symbolic.drop_s",
    "sat.solve_s",
    "exec.seal_s",
    "exec.prescreen_s",
    "exec.bank_record_s",
    "exec.check_s",
];

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One untraced pass's end-to-end metrics, without memory: wall, setup
/// and iterations summed over the pass's sketches.
pub fn pass_totals(pass: &[Untraced]) -> Vec<f64> {
    vec![
        secs(pass.iter().map(|u| u.wall).sum()),
        secs(pass.iter().map(|u| u.setup).sum()),
        pass.iter()
            .map(|u| u.trajectory.iterations())
            .sum::<usize>() as f64,
    ]
}

/// One traced pass's per-layer metrics, in [`PER_LAYER`] order, with
/// `trace.overhead_s` left at 0 (it needs the untraced passes).
pub fn layer_totals(pass: &[&Traced]) -> Vec<f64> {
    let time = |layer: Layer| secs(pass.iter().map(|t| t.time(layer)).sum());
    let count = |f: fn(&Traced) -> u64| pass.iter().map(|t| f(t)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall = secs(pass.iter().map(|t| t.cegis_wall).sum());
    let attributed = secs(pass.iter().map(|t| t.attributed()).sum());
    let reseal: Duration = pass
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.layer == Layer::Seal && s.iteration > 1)
        .map(|s| s.dur)
        .sum();
    let check = time(Layer::Check);
    let reseals = count(|t| t.counters.reseals);
    let prescreen_calls = count(|t| t.counters.prescreen_calls);
    let prescreen_hits = count(|t| t.counters.prescreen_hits);
    let states = count(|t| t.counters.states);
    let values: Vec<(&str, f64)> = vec![
        ("lang.check_program_s", time(Layer::LangCheck)),
        ("ir.desugar_s", time(Layer::Desugar)),
        ("ir.lower_s", time(Layer::Lower)),
        ("ir.resolve_s", time(Layer::Resolve)),
        ("symbolic.synth_new_s", time(Layer::SynthNew)),
        ("symbolic.add_trace_s", time(Layer::AddTrace)),
        ("symbolic.project_s", time(Layer::ProjectShadow)),
        ("symbolic.drop_s", time(Layer::SynthDrop)),
        ("symbolic.traces", count(|t| t.counters.traces)),
        ("symbolic.nodes", count(|t| t.counters.nodes)),
        ("sat.solve_s", time(Layer::Solve) + time(Layer::SolveUnsat)),
        ("sat.unsat_s", time(Layer::SolveUnsat)),
        ("sat.solve_calls", count(|t| t.counters.solve_calls)),
        ("sat.decisions", count(|t| t.counters.decisions)),
        ("sat.propagations", count(|t| t.counters.propagations)),
        ("sat.conflicts", count(|t| t.counters.conflicts)),
        ("sat.restarts", count(|t| t.counters.restarts)),
        ("sat.learnts", count(|t| t.counters.learnts)),
        ("sat.clauses", count(|t| t.counters.clauses)),
        ("exec.seal_s", time(Layer::Seal)),
        ("exec.reseal_s", secs(reseal)),
        ("exec.reseals", reseals),
        ("exec.threads_reused", count(|t| t.counters.threads_reused)),
        (
            "exec.holes_changed_mean",
            ratio(count(|t| t.counters.holes_changed), reseals),
        ),
        ("exec.fresh_seal_shadow_s", time(Layer::FreshSealShadow)),
        ("exec.prescreen_s", time(Layer::Prescreen)),
        ("exec.prescreen_calls", prescreen_calls),
        ("exec.prescreen_hits", prescreen_hits),
        (
            "exec.prescreen_replays",
            count(|t| t.counters.prescreen_replays),
        ),
        (
            "exec.prescreen_hit_ratio",
            ratio(prescreen_hits, prescreen_calls),
        ),
        ("exec.bank_record_s", time(Layer::BankRecord)),
        ("exec.check_s", check),
        ("exec.check_calls", count(|t| t.counters.check_calls)),
        ("exec.states", states),
        ("exec.transitions", count(|t| t.counters.transitions)),
        ("exec.states_per_s", ratio(states, check)),
        ("exec.journal_writes", count(|t| t.counters.journal_writes)),
        ("exec.states_pruned", count(|t| t.counters.states_pruned)),
        ("exec.sym_collapses", count(|t| t.counters.sym_collapses)),
        ("cegis.wall_s", wall),
        ("cegis.unattributed_s", wall - attributed),
        ("cegis.unattributed_share", ratio(wall - attributed, wall)),
        ("trace.overhead_s", 0.0),
    ];
    assert!(
        values
            .iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|d| d.name)),
        "layer values follow PER_LAYER"
    );
    values.into_iter().map(|(_, v)| v).collect()
}

/// The median of `values`; the mean of the middle two for an even
/// count.
///
/// # Panics
///
/// `values` is empty.
fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The per-index median over passes.
pub fn column_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let width = passes.first().map_or(0, Vec::len);
    (0..width)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}
