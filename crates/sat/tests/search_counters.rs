//! Golden search counters: three fixed instances whose decisions,
//! propagations, conflicts, restarts, learnt and problem clauses are
//! pinned to constants. A change to the solver's data layout must
//! leave the search itself untouched, counter for counter; a change
//! that alters the search on purpose updates these constants and says
//! so.

use psketch_sat::{Lit, SolveResult, Solver, SolverStats};

/// A fixed xorshift stream, so the instances do not depend on any
/// other crate's generator.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// PHP(8,7): eight pigeons, seven holes. It is unsatisfiable, needs
/// thousands of conflicts, and reaches the learnt-clause reduction
/// (`reduce_db`) three times, so the delete and compaction paths are
/// pinned too.
#[test]
fn pigeonhole_8_7() {
    let (pigeons, holes) = (8, 7);
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect())
        .collect();
    for row in &p {
        s.add_clause(row.iter().copied());
    }
    for j in 0..holes {
        for (i, a) in p.iter().enumerate() {
            for b in &p[i + 1..] {
                s.add_clause([!a[j], !b[j]]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert_eq!(
        s.stats(),
        SolverStats {
            decisions: 4_861,
            propagations: 49_474,
            conflicts: 3_885,
            restarts: 29,
            learnts: 1_890,
            clauses: 204,
        },
        "PHP(8,7) search moved"
    );
}

/// A seeded random 3-SAT instance near the phase transition.
#[test]
fn random_3sat() {
    let (n, m) = (120, 480);
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    let mut s = Solver::new();
    let vars: Vec<_> = (0..n).map(|_| s.new_var()).collect();
    for _ in 0..m {
        let clause: Vec<Lit> = (0..3)
            .map(|_| Lit::new(vars[rng.below(n)], rng.next() & 1 == 0))
            .collect();
        s.add_clause(clause);
    }
    let result = s.solve();
    assert_eq!(result, SolveResult::Sat);
    assert_eq!(
        s.stats(),
        SolverStats {
            decisions: 620,
            propagations: 12_980,
            conflicts: 473,
            restarts: 5,
            learnts: 473,
            clauses: 476,
        },
        "random 3-SAT search moved"
    );
}

/// A sequence shaped like CEGIS: a few "hole" variables, AND gates
/// over them added three Tseitin clauses at a time, and after each
/// model a fresh batch of gate constraints plus a clause blocking the
/// model's hole bits, until no candidate is left.
#[test]
fn incremental_cegis_sequence() {
    let holes = 12;
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut s = Solver::new();
    let hole: Vec<Lit> = (0..holes).map(|_| Lit::pos(s.new_var())).collect();
    let mut nodes: Vec<Lit> = hole.clone();
    let mut answers = Vec::new();
    let mut candidates = Vec::new();
    for _round in 0..40 {
        // One observation: a batch of AND gates over earlier nodes and
        // a clause over some of them.
        let mut fresh = Vec::new();
        for _ in 0..24 {
            let a = nodes[rng.below(nodes.len())];
            let b = nodes[rng.below(nodes.len())];
            let a = if rng.next() & 1 == 0 { a } else { !a };
            let b = if rng.next() & 1 == 0 { b } else { !b };
            let g = Lit::pos(s.new_var());
            s.add_clause([!g, a]);
            s.add_clause([!g, b]);
            s.add_clause([g, !a, !b]);
            fresh.push(g);
        }
        nodes.extend_from_slice(&fresh);
        let observed: Vec<Lit> = (0..3)
            .map(|_| {
                let g = fresh[rng.below(fresh.len())];
                if rng.next() & 1 == 0 {
                    g
                } else {
                    !g
                }
            })
            .collect();
        s.add_clause(observed);
        let r = s.solve();
        answers.push(r == SolveResult::Sat);
        if r != SolveResult::Sat {
            break;
        }
        let bits: Vec<bool> = hole
            .iter()
            .map(|&h| s.lit_model_value(h) == Some(true))
            .collect();
        candidates.push(bits.iter().rev().fold(0u32, |v, &b| v << 1 | u32::from(b)));
        s.add_clause(
            hole.iter()
                .zip(&bits)
                .map(|(&h, &b)| if b { !h } else { h }),
        );
    }
    let sat_rounds = answers.iter().filter(|&&sat| sat).count();
    assert_eq!((answers.len(), sat_rounds), (30, 29), "answers moved");
    assert_eq!(
        candidates,
        [
            210, 1730, 1546, 3723, 3721, 3753, 3769, 4025, 3897, 3865, 3867, 3899, 3835, 3891,
            3889, 3857, 3859, 3875, 3619, 3747, 3617, 3873, 3745, 2691, 2579, 2611, 2867, 2835,
            2834,
        ],
        "candidates moved"
    );
    assert_eq!(
        s.stats(),
        SolverStats {
            decisions: 242,
            propagations: 9_472,
            conflicts: 22,
            restarts: 0,
            learnts: 16,
            clauses: 1_704,
        },
        "incremental search moved"
    );
}
