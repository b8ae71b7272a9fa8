//! Footprint-soundness property: independence really means
//! commutation.
//!
//! The partial-order reduction is sound only if the effect footprints
//! over-approximate the dynamic behavior of every transition: whenever
//! two enabled workers' current transitions are classified independent
//! by the POR table the engines search with — the sealed candidate's
//! candidate-sharpened masks, which claim more independence than the
//! static hole-agnostic analysis — firing them in either order from
//! the same state must produce *identical* outcomes: the same
//! canonical state vector, the same Zobrist fingerprint, or the same
//! failure. This test drives that property over every suite workload
//! and random candidates with seeded random walks through the real
//! transition system, checking every independent enabled pair at every
//! visited state.

use psketch_repro::exec::walker::Walker;
use psketch_repro::exec::CompiledProgram;
use psketch_repro::ir::{desugar, lower, Assignment, Lowered};
use psketch_repro::suite::figure9_runs;
use psketch_testutil::Rng;

/// Transitions per random walk. Deep enough to reach mid-workload
/// states with heap traffic; small enough to keep the suite sweep
/// test-sized.
const WALK_DEPTH: usize = 48;

/// Independent walks per (workload, candidate) pair.
const WALKS: usize = 3;

fn lowered(source: &str, config: &psketch_repro::ir::Config) -> Lowered {
    let p = psketch_repro::lang::check_program(source).unwrap();
    let (sk, holes) = desugar::desugar_program(&p, config).unwrap();
    lower::lower_program(&sk, holes, config).unwrap()
}

/// Fires `first` then `second` from the current state, captures the
/// outcome, and rewinds. Failures collapse to their display form
/// (kind, thread, step, span) — commuting transitions must fail
/// identically or not at all.
fn run_order(w: &mut Walker, first: usize, second: usize) -> Result<(Vec<i64>, u64), String> {
    let mark = w.mark();
    let out = w
        .fire(first)
        .and_then(|()| w.fire(second))
        .map(|()| (w.canonical(), w.fingerprint()))
        .map_err(|f| f.to_string());
    w.rewind(mark);
    out
}

/// Walks the transition system under a seeded schedule; at every
/// visited state, checks that each enabled pair the footprint layer
/// calls independent commutes. Returns the number of pairs checked.
fn walk(l: &Lowered, a: &Assignment, rng: &mut Rng, label: &str) -> usize {
    let cp = CompiledProgram::compile(l, a);
    let Ok(mut w) = Walker::new(&cp) else {
        // The candidate fails in the prologue before any interleaving
        // exists; there is nothing to commute.
        return 0;
    };
    let mut checked = 0;
    for depth in 0..WALK_DEPTH {
        let enabled = w.enabled_workers();
        for (i, &x) in enabled.iter().enumerate() {
            for &y in &enabled[i + 1..] {
                if !w.independent(x, y) {
                    continue;
                }
                let xy = run_order(&mut w, x, y);
                let yx = run_order(&mut w, y, x);
                assert_eq!(
                    xy, yx,
                    "{label}: depth {depth}: workers {x} and {y} are classified \
                     independent but do not commute"
                );
                checked += 1;
            }
        }
        if enabled.is_empty() {
            break;
        }
        let pick = *rng.choose(&enabled);
        if w.fire(pick).is_err() {
            break;
        }
    }
    checked
}

#[test]
fn independent_transitions_commute_across_suite() {
    let mut seen = std::collections::HashSet::new();
    let mut rng = Rng::new(29);
    let mut total = 0usize;
    for run in figure9_runs() {
        if !seen.insert(run.benchmark) {
            continue;
        }
        let l = lowered(&run.source, &run.options.config);
        let mut cands = vec![l.holes.identity_assignment()];
        let values = (0..l.holes.num_holes())
            .map(|h| rng.below(l.holes.domain(h as u32) as usize) as u64)
            .collect();
        cands.push(Assignment::from_values(values));
        for (cx, a) in cands.iter().enumerate() {
            for wx in 0..WALKS {
                total += walk(
                    &l,
                    a,
                    &mut rng,
                    &format!("{} candidate {cx} walk {wx}", run.benchmark),
                );
            }
        }
    }
    // The property must not pass vacuously: the suite has workloads
    // with genuinely independent transitions (disjoint heap cells,
    // distinct array slots), so the sweep must exercise real pairs.
    assert!(
        total > 0,
        "no independent enabled pair found anywhere in the suite"
    );
}

#[test]
fn independent_transitions_commute_on_crafted_programs() {
    // Hand-written programs aimed at each footprint feature: disjoint
    // globals, statically-resolved array cells, and per-thread heap
    // objects.
    let programs = [
        "int a; int b;
         harness void main() {
             fork (i; 2) {
                 if (i == 0) { a = a + 1; a = a * 2; }
                 else { b = b + 3; b = b * 2; }
             }
         }",
        "int[4] cells;
         harness void main() {
             fork (i; 2) { cells[i] = cells[i] + 1; cells[i + 2] = i; }
             assert cells[0] + cells[1] == 2;
         }",
        "struct Node { int val; Node next; }
         harness void main() {
             fork (i; 2) {
                 Node n = new Node();
                 n.val = i;
                 assert n.val == i;
             }
         }",
    ];
    let cfg = psketch_repro::ir::Config::default();
    let mut total = 0usize;
    for (px, src) in programs.iter().enumerate() {
        let l = lowered(src, &cfg);
        let a = l.holes.identity_assignment();
        psketch_testutil::cases(8, |rng| {
            walk(&l, &a, rng, &format!("crafted {px}"));
        });
        let mut rng = Rng::new(31);
        total += walk(&l, &a, &mut rng, &format!("crafted {px}"));
    }
    assert!(total > 0, "crafted programs must yield independent pairs");
}
