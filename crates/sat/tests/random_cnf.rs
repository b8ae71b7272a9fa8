//! Differential testing: CDCL vs. brute-force enumeration on random
//! small CNF formulas, plus model validity checks.

use psketch_sat::{Lit, SolveResult, Solver};
use psketch_testutil::{cases, Rng};

/// Evaluates a CNF (clauses of signed 1-based lits) under assignment
/// bits (bit i = variable i+1).
fn eval_cnf(clauses: &[Vec<i64>], assignment: u32) -> bool {
    clauses.iter().all(|c| {
        c.iter().any(|&l| {
            let bit = (assignment >> (l.unsigned_abs() - 1)) & 1 == 1;
            if l > 0 {
                bit
            } else {
                !bit
            }
        })
    })
}

fn brute_force_sat(num_vars: usize, clauses: &[Vec<i64>]) -> bool {
    (0u32..(1 << num_vars)).any(|a| eval_cnf(clauses, a))
}

/// Random CNF over `num_vars` variables: up to `max_clauses` clauses of
/// 1..=3 literals each.
fn random_cnf(rng: &mut Rng, num_vars: usize, max_clauses: usize) -> Vec<Vec<i64>> {
    let n_clauses = rng.below(max_clauses + 1);
    (0..n_clauses)
        .map(|_| {
            let len = 1 + rng.below(3);
            (0..len)
                .map(|_| {
                    let v = 1 + rng.below(num_vars) as i64;
                    if rng.any_bool() {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn cdcl_agrees_with_brute_force() {
    cases(300, |rng| {
        let num_vars = 1 + rng.below(8);
        let clauses = random_cnf(rng, num_vars, 24);

        let mut s = Solver::new();
        let vars: Vec<_> = (0..num_vars).map(|_| s.new_var()).collect();
        for c in &clauses {
            s.add_clause(
                c.iter()
                    .map(|&l| Lit::new(vars[(l.unsigned_abs() as usize) - 1], l > 0)),
            );
        }
        let got = s.solve();
        let want = brute_force_sat(num_vars, &clauses);
        assert_eq!(got == SolveResult::Sat, want, "clauses: {clauses:?}");

        if got == SolveResult::Sat {
            // The returned model must actually satisfy the formula.
            let mut assignment = 0u32;
            for (i, &v) in vars.iter().enumerate() {
                if s.value(v) == Some(true) {
                    assignment |= 1 << i;
                }
            }
            assert!(eval_cnf(&clauses, assignment), "clauses: {clauses:?}");
        }
    });
}

#[test]
fn hard_random_3sat_instance() {
    // A fixed pseudo-random 3-SAT instance near the phase transition
    // (n=40, m=170): solver must terminate and agree with its own model.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = 40usize;
    let m = 170usize;
    let mut s = Solver::new();
    let vars: Vec<_> = (0..n).map(|_| s.new_var()).collect();
    let mut clauses = Vec::new();
    for _ in 0..m {
        let mut c = Vec::new();
        for _ in 0..3 {
            let v = (next() as usize) % n;
            let sign = next() & 1 == 0;
            c.push(Lit::new(vars[v], sign));
        }
        clauses.push(c.clone());
        s.add_clause(c);
    }
    if s.solve() == SolveResult::Sat {
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.lit_model_value(l) == Some(true)
                    || s.lit_model_value(l).is_none() && !l.is_positive()),
                "model does not satisfy clause"
            );
        }
    }
}
