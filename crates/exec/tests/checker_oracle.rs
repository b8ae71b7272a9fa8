//! Checker vs. a hand-rolled interleaving oracle on three-thread
//! programs, plus schedule-replay consistency.

use psketch_exec::{check, replay_compiled, CompiledProgram};
use psketch_ir::{desugar::desugar_program, lower::lower_program, Config, Lowered};
use std::collections::BTreeSet;

fn lowered(src: &str) -> Lowered {
    let cfg = Config::default();
    let p = psketch_lang::check_program(src).unwrap();
    let (sk, holes) = desugar_program(&p, &cfg).unwrap();
    lower_program(&sk, holes, &cfg).unwrap()
}

/// All final values of `g` over interleavings of three two-step
/// (read; write) increment threads, computed independently.
fn rmw_possible(threads: usize) -> BTreeSet<i64> {
    // State: per thread 0 = not started, 1 = read done (holding old g),
    // 2 = done. DFS.
    fn dfs(g: i64, held: &mut Vec<Option<i64>>, phase: &mut Vec<u8>, out: &mut BTreeSet<i64>) {
        let mut progressed = false;
        for t in 0..phase.len() {
            match phase[t] {
                0 => {
                    progressed = true;
                    phase[t] = 1;
                    held[t] = Some(g);
                    dfs(g, held, phase, out);
                    phase[t] = 0;
                    held[t] = None;
                }
                1 => {
                    progressed = true;
                    phase[t] = 2;
                    let new_g = held[t].unwrap() + 1;
                    dfs(new_g, held, phase, out);
                    phase[t] = 1;
                }
                _ => {}
            }
        }
        if !progressed {
            out.insert(g);
        }
    }
    let mut out = BTreeSet::new();
    dfs(0, &mut vec![None; threads], &mut vec![0; threads], &mut out);
    out
}

#[test]
fn three_thread_rmw_outcomes() {
    let possible = rmw_possible(3);
    assert_eq!(possible, BTreeSet::from([1, 2, 3]));
    // The checker agrees: g == 3 is violated (1 and 2 reachable), and
    // g >= 1 always holds.
    let violating = lowered(
        "int g;
         harness void main() {
             fork (i; 3) { int t = g; g = t + 1; }
             assert g == 3;
         }",
    );
    let a = violating.holes.identity_assignment();
    assert!(check(&violating, &a).counterexample().is_some());

    let holding = lowered(
        "int g;
         harness void main() {
             fork (i; 3) { int t = g; g = t + 1; }
             assert g >= 1 && g <= 3;
         }",
    );
    let a = holding.holes.identity_assignment();
    assert!(check(&holding, &a).is_ok());
}

#[test]
fn every_possible_outcome_is_reachable_by_some_replay() {
    // For the 2-thread RMW, both finals {1, 2} must be witnessed by
    // concrete schedules.
    let l = lowered(
        "int g; int seen;
         harness void main() {
             fork (i; 2) { int t = g; g = t + 1; }
             seen = g;
             assert seen == 0 - 99;
         }",
    );
    let a = l.holes.identity_assignment();
    // Every schedule fails the impossible assert; the observed `seen`
    // values live in the traces' failing steps — instead, check the
    // checker explored both terminal values by verifying the two
    // bracketing asserts.
    for (assert_src, ok) in [
        ("assert g == 1 || g == 2;", true),
        ("assert g == 1;", false),
        ("assert g == 2;", false),
    ] {
        let l = lowered(&format!(
            "int g;
             harness void main() {{
                 fork (i; 2) {{ int t = g; g = t + 1; }}
                 {assert_src}
             }}"
        ));
        let a = l.holes.identity_assignment();
        assert_eq!(check(&l, &a).is_ok(), ok, "{assert_src}");
    }
    let _ = (l, a);
}

#[test]
fn replay_agrees_with_checker_on_pass() {
    // On a correct program no schedule may fail.
    let l = lowered(
        "int g;
         harness void main() {
             fork (i; 3) { int old = AtomicReadAndIncr(g); }
             assert g == 3;
         }",
    );
    let a = l.holes.identity_assignment();
    assert!(check(&l, &a).is_ok());
    let cp = CompiledProgram::compile(&l, &a);
    for k in 0..27 {
        let sched = [k % 3, k / 3 % 3, k / 9];
        assert!(replay_compiled(&cp, &sched).is_none(), "{sched:?}");
    }
    assert!(replay_compiled(&cp, &[0, 2, 0, 2]).is_none());
}

#[test]
fn atomic_sections_exclude_interference() {
    // Inside an atomic section a thread observes its own writes
    // without interference; outside it does not.
    let l = lowered(
        "int g;
         harness void main() {
             fork (i; 3) {
                 atomic {
                     g = g + 1;
                     g = g * 2;
                 }
             }
         }",
    );
    let a = l.holes.identity_assignment();
    let out = check(&l, &a);
    assert!(out.is_ok());
    // ((0+1)*2+1)*2+1)*2 = 14 for any order (operation commutes with
    // itself); verify via the epilogue variant.
    let l2 = lowered(
        "int g;
         harness void main() {
             fork (i; 3) {
                 atomic {
                     g = g + 1;
                     g = g * 2;
                 }
             }
             assert g == 14;
         }",
    );
    let a2 = l2.holes.identity_assignment();
    assert!(check(&l2, &a2).is_ok());
}

#[test]
fn conditional_atomic_wakeups_are_not_missed() {
    // Chained handoff across three threads: strict pipeline must
    // verify; the checker's enabledness re-evaluation must see every
    // wake-up.
    let l = lowered(
        "int stage;
         harness void main() {
             fork (i; 3) {
                 atomic (stage == i) { stage = stage + 1; }
             }
             assert stage == 3;
         }",
    );
    let a = l.holes.identity_assignment();
    let out = check(&l, &a);
    assert!(
        out.is_ok(),
        "{:?}",
        out.counterexample().map(|c| &c.failure)
    );
}

#[test]
fn pool_sharing_across_threads() {
    // Allocation counters are shared: 2 threads × 4 allocs with pool 8
    // is fine; with pool 6 it must fail.
    for (pool, ok) in [(8usize, true), (6, false)] {
        let cfg = Config {
            pool,
            ..Config::default()
        };
        let p = psketch_lang::check_program(
            "struct N { int v; }
             harness void main() {
                 fork (i; 2) {
                     N a = new N(1); N b = new N(2); N c = new N(3); N d = new N(4);
                 }
             }",
        )
        .unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower_program(&sk, holes, &cfg).unwrap();
        let a = l.holes.identity_assignment();
        assert_eq!(check(&l, &a).is_ok(), ok, "pool={pool}");
    }
}
