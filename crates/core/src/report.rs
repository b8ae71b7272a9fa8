//! Rendering statistics in the paper's Figure 9 format.

use crate::cegis::Outcome;
use std::fmt::Write as _;

/// Peak memory as MiB text, or `"n/a"` when the platform gave no
/// reading (`/proc` unavailable) — never a silent `0.0`.
fn mem_mib(peak_memory: Option<u64>) -> String {
    match peak_memory {
        Some(bytes) => format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        None => "n/a".to_string(),
    }
}

/// Renders an outcome as one Figure-9-style row block.
pub fn render_stats(name: &str, test: &str, outcome: &Outcome) -> String {
    let st = &outcome.stats;
    let cost = &st.cost;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{name} [{test}]  Resolvable: {}  Itns: {}",
        outcome.resolvable(),
        st.iterations
    );
    let _ = writeln!(
        out,
        "  Time (s): Total {:.2}  Ssolve {:.2}  Smodel {:.2}  Vsolve {:.2}  Vmodel {:.2}",
        st.total.as_secs_f64(),
        st.s_solve.as_secs_f64(),
        st.s_model.as_secs_f64(),
        st.v_solve.as_secs_f64(),
        st.v_model.as_secs_f64(),
    );
    let _ = writeln!(
        out,
        "  |C| = {:.3e}  states = {}  peak mem = {} MiB",
        st.candidate_space as f64,
        cost.check.states,
        mem_mib(st.peak_memory)
    );
    let _ = writeln!(
        out,
        "  checker: transitions = {}  terminal = {}",
        cost.check.transitions, cost.check.terminal_states
    );
    if cost.prescreen_replays > 0 {
        let _ = writeln!(
            out,
            "  prescreen: hits = {}  replays = {}  bank = {}",
            cost.prescreen_hits, cost.prescreen_replays, cost.bank_size
        );
    }
    let _ = writeln!(
        out,
        "  sat: decisions = {}  propagations = {}  conflicts = {}  restarts = {}",
        st.sat.decisions, st.sat.propagations, st.sat.conflicts, st.sat.restarts
    );
    if st.sat.propagations > 0 {
        let _ = writeln!(
            out,
            "  sat: {:.0} ns per propagation",
            st.s_solve.as_nanos() as f64 / st.sat.propagations as f64,
        );
    }
    let mib = |bytes: usize| mem_mib(Some(bytes as u64));
    let heap = &st.sat_heap;
    let _ = writeln!(
        out,
        "  heap in use (MiB): solver {} (clauses {}  watches {}  vars {})  circuit {}  program {}",
        mib(heap.total()),
        mib(heap.clause_bytes),
        mib(heap.watch_bytes),
        mib(heap.var_bytes),
        mib(st.circuit_bytes),
        mib(st.lowered_bytes)
    );
    if let Some(trip) = &outcome.budget_trip {
        let _ = writeln!(
            out,
            "  budget: {} tripped in {} ({})",
            trip.budget.label(),
            trip.phase,
            trip.detail
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cegis::{Options, Synthesis};

    #[test]
    fn renders_figure9_block() {
        let out = Synthesis::new(
            "int g; harness void main() { g = ??(2); assert g == 1; }",
            Options::default(),
        )
        .unwrap()
        .run();
        let pretty = render_stats("demo", "t0", &out);
        assert!(pretty.contains("Resolvable: yes"));
        assert!(pretty.contains("Ssolve"));
    }
}
