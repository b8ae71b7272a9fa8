//! End-to-end CEGIS benchmark for PSKETCH.
//!
//! Each workload is a fixed set of Figure 9 sketches. A pass runs every
//! sketch once to a verdict at one search thread and a portfolio of
//! one, where the trajectory is deterministic. Untraced passes go
//! through `psketch_core::Synthesis` and give the end-to-end metrics;
//! traced passes drive the same loop through each crate's public entry
//! points and time every call, which gives the per-layer metrics.

pub mod metrics;
pub mod pass;
pub mod trace;
pub mod workload;

/// Checks that a traced run did exactly what the untraced run of the
/// same sketch did, and that its spans fit inside its wall time.
///
/// # Errors
///
/// Names the first difference.
pub fn fidelity(untraced: &pass::Trajectory, traced: &trace::Traced) -> Result<(), String> {
    let t = &traced.trajectory;
    if t.candidates != untraced.candidates {
        let at = t
            .candidates
            .iter()
            .zip(&untraced.candidates)
            .position(|(a, b)| a != b)
            .unwrap_or(t.candidates.len().min(untraced.candidates.len()));
        return Err(format!(
            "candidate sequences differ at iteration {}: traced {} candidates, untraced {}",
            at + 1,
            t.iterations(),
            untraced.iterations()
        ));
    }
    if t.winner != untraced.winner || t.resolvable != untraced.resolvable {
        return Err(format!(
            "verdicts differ: traced {} {:?}, untraced {} {:?}",
            t.resolvable, t.winner, untraced.resolvable, untraced.winner
        ));
    }
    if traced.attributed() > traced.cegis_wall {
        return Err(format!(
            "spans cover {:?}, more than the traced wall time {:?}",
            traced.attributed(),
            traced.cegis_wall
        ));
    }
    Ok(())
}
