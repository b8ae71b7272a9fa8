//! `Solver::add_and` against the three `add_clause` calls it stands
//! for. Random AND networks are built twice, once through `add_and`
//! and once as `[¬v, a]`, `[¬v, b]` and `[v, ¬a, ¬b]`; over several
//! incremental solves both solvers must agree counter for counter:
//! their stats, heap bytes, answers and models. Some gates read an
//! input fixed true or false at level 0, or one literal twice, and so
//! take `add_and`'s generic fallback.

use psketch_sat::{Lit, SolveResult, Solver, Var};
use psketch_testutil::{cases, Rng};
use std::cell::Cell;

/// The same network built into two solvers.
struct Pair {
    direct: Solver,
    generic: Solver,
    /// Every variable, in creation order.
    vars: Vec<Var>,
}

impl Pair {
    fn new_var(&mut self) -> Var {
        let v = self.direct.new_var();
        assert_eq!(self.generic.new_var(), v);
        self.vars.push(v);
        v
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        let ok = self.direct.add_clause(clause.iter().copied());
        assert_eq!(self.generic.add_clause(clause.iter().copied()), ok);
    }

    fn add_and(&mut self, a: Lit, b: Lit) {
        let v = self.direct.add_and(a, b);
        let w = self.generic.new_var();
        self.generic.add_clause([Lit::neg(w), a]);
        self.generic.add_clause([Lit::neg(w), b]);
        self.generic.add_clause([Lit::pos(w), !a, !b]);
        assert_eq!(v, w);
        self.vars.push(v);
        self.assert_same();
    }

    /// A random literal of an existing variable.
    fn lit(&self, rng: &mut Rng) -> Lit {
        Lit::new(*rng.choose(&self.vars), rng.any_bool())
    }

    fn solve(&mut self) -> SolveResult {
        let result = self.direct.solve();
        assert_eq!(self.generic.solve(), result);
        self.assert_same();
        for &v in &self.vars {
            assert_eq!(self.direct.value(v), self.generic.value(v), "{v}");
        }
        result
    }

    fn assert_same(&self) {
        assert_eq!(self.direct.stats(), self.generic.stats());
        assert_eq!(self.direct.heap_bytes(), self.generic.heap_bytes());
        assert_eq!(self.direct.num_vars(), self.generic.num_vars());
    }
}

#[test]
fn direct_gates_equal_three_generic_clauses() {
    // Satisfiable answers, unsatisfiable ones and conflicts, over all
    // cases.
    let seen = Cell::new([0u64; 3]);
    cases(24, |rng| {
        let mut p = Pair {
            direct: Solver::new(),
            generic: Solver::new(),
            vars: Vec::new(),
        };
        let inputs: Vec<Var> = (0..24).map(|_| p.new_var()).collect();
        // Fix two inputs at level 0, one true and one false.
        p.add_clause(&[Lit::pos(inputs[0])]);
        p.add_clause(&[Lit::neg(inputs[1])]);
        let mut counts = seen.get();
        for _ in 0..6 {
            for _ in 0..60 {
                let a = p.lit(rng);
                let b = match rng.below(8) {
                    // A fixed input: the generic fallback.
                    0 => Lit::new(inputs[rng.below(2)], rng.any_bool()),
                    // One variable twice: the fallback as well.
                    1 => Lit::new(a.var(), rng.any_bool()),
                    _ => p.lit(rng),
                };
                p.add_and(a, b);
            }
            // Constrain the network: now and then a unit on a gate, as
            // `assert_true` adds, and random ternary clauses.
            if rng.below(3) == 0 {
                let unit = p.lit(rng);
                p.add_clause(&[unit]);
            }
            for _ in 0..10 {
                let clause = [p.lit(rng), p.lit(rng), p.lit(rng)];
                p.add_clause(&clause);
            }
            match p.solve() {
                SolveResult::Sat => counts[0] += 1,
                SolveResult::Unsat => counts[1] += 1,
                SolveResult::Interrupted => unreachable!("no limits installed"),
            }
        }
        counts[2] += p.direct.stats().conflicts;
        seen.set(counts);
    });
    let [sat, unsat, conflicts] = seen.get();
    assert!(sat > 0 && unsat > 0 && conflicts > 0, "{:?}", seen.get());
}
