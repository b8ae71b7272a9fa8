//! Trace projection (paper §6).
//!
//! A counterexample trace is specific to the candidate that produced
//! it. To use it as an *observation* against every candidate, the steps
//! of **all** threads — executed or not — are merged into one sequence
//! that maximally preserves the trace:
//!
//! 1. steps that appear in the trace keep their trace order;
//! 2. steps of the same thread keep program order (threads are
//!    straight-line after if-conversion, so this is a total order per
//!    thread);
//! 3. when the trace exposed a deadlock with set `D`, the unexecuted
//!    suffixes of deadlocked threads sort after everything else (a
//!    blocked prologue or epilogue is alone in its phase, so its steps
//!    keep their place).
//!
//! Unexecuted steps are placed immediately before their thread's next
//! executed step — which is exactly where a guard-false step "ran" in
//! the original execution.

use psketch_exec::CexTrace;
use psketch_ir::{Lowered, ThreadId};
use std::collections::HashMap;

/// The merged order of all steps of all threads for one trace.
pub fn project(l: &Lowered, cex: &CexTrace) -> Vec<(ThreadId, usize)> {
    let trace_pos: HashMap<(ThreadId, usize), usize> =
        cex.steps.iter().enumerate().map(|(p, &s)| (s, p)).collect();
    let deadlocked: Vec<ThreadId> = cex.deadlock.iter().map(|&(t, _)| t).collect();
    let inf = cex.steps.len();

    // Phases are sequential in every execution: the prologue precedes
    // all workers and the epilogue follows them, regardless of what the
    // trace managed to execute. Sorting by region first keeps the
    // epilogue's correctness assertions after candidate-dependent
    // worker steps the trace never reached.
    let region = |tid: ThreadId| -> usize {
        if tid == 0 {
            0
        } else if tid <= l.workers.len() {
            1
        } else {
            2
        }
    };
    let mut keyed: Vec<(usize, usize, ThreadId, usize)> = Vec::with_capacity(l.total_steps());
    for tid in 0..l.num_threads() {
        let thread = l.thread(tid);
        let n = thread.steps.len();
        // next_traced[j]: trace position of the first traced step of
        // this thread at index >= j.
        let tail = if deadlocked.contains(&tid) {
            inf + 1
        } else {
            inf
        };
        let mut next_traced = vec![tail; n + 1];
        #[allow(clippy::needless_range_loop)]
        for j in (0..n).rev() {
            next_traced[j] = match trace_pos.get(&(tid, j)) {
                Some(&p) => p,
                None => next_traced[j + 1],
            };
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..n {
            let key = match trace_pos.get(&(tid, j)) {
                Some(&p) => 2 * p + 1,
                None => 2 * next_traced[j],
            };
            keyed.push((region(tid), key, tid, j));
        }
    }
    keyed.sort();
    keyed.into_iter().map(|(_, _, t, j)| (t, j)).collect()
}

/// The merged-order position where the trace ends, and where its
/// deadlock set (if any) is re-evaluated during symbolic replay: just
/// past the last traced step, or, for a conditional atomic that
/// blocked in the prologue or the epilogue, that blocked step's own
/// position, after every earlier step of its phase.
pub fn trace_end_position(l: &Lowered, order: &[(ThreadId, usize)], cex: &CexTrace) -> usize {
    if let [blocked @ (tid, _)] = cex.deadlock[..] {
        if tid == 0 || tid == l.epilogue_tid() {
            return order
                .iter()
                .position(|&s| s == blocked)
                .expect("the projection orders every step");
        }
    }
    let traced: std::collections::HashSet<(ThreadId, usize)> = cex.steps.iter().copied().collect();
    order
        .iter()
        .rposition(|s| traced.contains(s))
        .map(|p| p + 1)
        .unwrap_or(0)
}

/// The canonical order of a sequential (worker-free) program: prologue
/// then epilogue. Used for `implements` equivalence observations.
pub fn sequential_order(l: &Lowered) -> Vec<(ThreadId, usize)> {
    assert!(
        l.workers.is_empty(),
        "sequential order requires a worker-free program"
    );
    let mut out = Vec::with_capacity(l.total_steps());
    for j in 0..l.prologue.steps.len() {
        out.push((0, j));
    }
    let etid = l.epilogue_tid();
    for j in 0..l.epilogue.steps.len() {
        out.push((etid, j));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psketch_exec::{check, Failure, FailureKind};
    use psketch_ir::{desugar::desugar_program, lower::lower_program, Config};
    use psketch_lang::error::Span;

    fn lowered(src: &str) -> Lowered {
        let cfg = Config::default();
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        lower_program(&sk, holes, &cfg).unwrap()
    }

    fn fake_trace(steps: Vec<(ThreadId, usize)>, deadlock: Vec<(ThreadId, usize)>) -> CexTrace {
        CexTrace {
            steps,
            failure: Failure {
                kind: FailureKind::AssertFailed,
                tid: 0,
                step: 0,
                span: Span::default(),
            },
            deadlock,
            schedule: vec![],
        }
    }

    #[test]
    fn projection_is_a_permutation_of_all_steps() {
        let l = lowered(
            "int g;
             harness void main() {
                 g = 1;
                 fork (i; 2) { g = g + i; }
                 assert g >= 0;
             }",
        );
        let out = check(&l, &l.holes.identity_assignment());
        assert!(out.is_ok());
        // Build a synthetic trace from a real failing program instead;
        // here: empty trace still projects all steps.
        let order = project(&l, &fake_trace(vec![], vec![]));
        assert_eq!(order.len(), l.total_steps());
        // Program order preserved per thread.
        for tid in 0..l.num_threads() {
            let ixs: Vec<usize> = order
                .iter()
                .filter(|&&(t, _)| t == tid)
                .map(|&(_, j)| j)
                .collect();
            let mut sorted = ixs.clone();
            sorted.sort_unstable();
            assert_eq!(ixs, sorted, "thread {tid} out of program order");
        }
    }

    #[test]
    fn traced_steps_keep_trace_order() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { g = g + 1; g = g + 1; }
             }",
        );
        // Interleaved trace: w0 s1, w1 s1, w0 s2, w1 s2 (step indices
        // 0-based in each worker; index var init step is 0).
        let t = fake_trace(vec![(1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)], vec![]);
        let order = project(&l, &t);
        let pos = |t_: ThreadId, j: usize| order.iter().position(|&s| s == (t_, j)).unwrap();
        assert!(pos(1, 1) < pos(2, 1));
        assert!(pos(2, 1) < pos(1, 2));
        assert!(pos(1, 2) < pos(2, 2));
    }

    #[test]
    fn untraced_steps_sit_before_next_traced() {
        let l = lowered(
            "int g;
             harness void main() {
                 fork (i; 2) { g = g + 1; g = g + 1; }
             }",
        );
        // Worker 1 traced only at its last step: its earlier steps
        // must still precede it, and (per rule) cluster right before.
        let t = fake_trace(vec![(1, 0), (1, 1), (1, 2), (2, 2)], vec![]);
        let order = project(&l, &t);
        let pos = |t_: ThreadId, j: usize| order.iter().position(|&s| s == (t_, j)).unwrap();
        assert!(pos(2, 0) < pos(2, 2));
        assert!(pos(2, 1) < pos(2, 2));
        // Cluster before (2,2): (2,0) after (1,2)? Untraced with next
        // traced pos 3 → key 6; (1,2) has key 5.
        assert!(pos(1, 2) < pos(2, 0));
    }

    #[test]
    fn deadlocked_suffix_goes_last() {
        let l = lowered(
            "int a; int b;
             harness void main() {
                 fork (i; 2) {
                     if (i == 0) { atomic (a == 1) { } b = 1; }
                     else { atomic (b == 1) { } a = 1; }
                 }
             }",
        );
        let out = check(&l, &l.holes.identity_assignment());
        let cex = out.counterexample().expect("deadlock").clone();
        assert_eq!(cex.failure.kind, FailureKind::Deadlock);
        let order = project(&l, &cex);
        assert_eq!(order.len(), l.total_steps());
        // Both deadlocked blocked steps appear after every epilogue
        // step of non-deadlocked threads... here both workers are
        // deadlocked; their blocked suffixes must come after all
        // traced steps.
        let last_traced_pos = cex
            .steps
            .iter()
            .map(|s| order.iter().position(|o| o == s).unwrap())
            .max()
            .unwrap();
        for &(t, j) in &cex.deadlock {
            let p = order.iter().position(|&s| s == (t, j)).unwrap();
            assert!(p > last_traced_pos, "blocked step not after trace");
        }
    }

    #[test]
    fn sequential_order_covers_program() {
        let l = lowered("int g; harness void main() { g = 1; assert g == 1; }");
        let order = sequential_order(&l);
        assert_eq!(order.len(), l.total_steps());
        assert!(order.iter().all(|&(t, _)| t == 0 || t == l.epilogue_tid()));
    }
}
