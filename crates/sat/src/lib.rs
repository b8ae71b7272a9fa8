#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the decision engine behind the PSKETCH inductive
//! synthesizer (see the `psketch-core` crate). The paper delegates the
//! inductive-synthesis step to "an efficient, general purpose SAT-based
//! solver"; since no solver crate is available offline, this is a
//! self-contained reimplementation of the classic MiniSat architecture:
//!
//! * two-watched-literal propagation,
//! * first-UIP conflict analysis with clause minimization,
//! * VSIDS-style activity heuristics with phase saving,
//! * Luby restarts and activity-based clause-database reduction,
//! * one flat clause arena, as in MiniSat: each clause of three or
//!   more literals is a run of `u32` words (header, a learnt clause's
//!   activity, literals);
//! * binary clauses, problem or learnt, kept only in their two
//!   watchers, each carrying the other literal; a literal a binary
//!   clause implies records that other literal as its reason, so a
//!   binary clause takes no arena word;
//! * watch lists that hold up to three watchers in place and move to
//!   a heap block only at the fourth, so most literals of a Tseitin
//!   encoding own no allocation.
//!
//! [`Solver::heap_bytes`] reports the bytes the solver has in use, by
//! owner: the clause arena, the watch lists and the per-variable
//! arrays.
//! Clauses may be added between `solve` calls; learnt clauses and
//! heuristic state carry over, which is how the CEGIS loop uses it.
//!
//! # Examples
//!
//! ```
//! use psketch_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! ```

mod lit;
mod solver;

pub use lit::{Lit, Var};
pub use solver::{HeapBytes, SolveResult, Solver, SolverStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivially_sat_empty() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_conflict_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        s.add_clause([Lit::neg(a)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
