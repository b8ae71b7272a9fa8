//! The dying-locals index of a lowered Figure 9 row: between two pcs a
//! worker moves across in one transition, `Thread::dying` names exactly
//! the locals whose liveness the move ends — the locals the checker's
//! incremental fingerprint re-hashes as dead.

use psketch_repro::core::Synthesis;
use psketch_repro::ir::step::LocalId;
use psketch_repro::ir::Thread;
use psketch_repro::suite::figure9_runs;

/// Asserts that `dying(pc0, pc1)` holds exactly the locals live at
/// `pc0` and dead at `pc1`.
fn assert_dying_matches_liveness(t: &Thread, pc0: usize, pc1: usize) {
    let mut got = t.dying(pc0, pc1).to_vec();
    got.sort_unstable();
    let want: Vec<LocalId> = (0..t.locals.len())
        .filter(|&x| t.is_live(pc0, x) && !t.is_live(pc1, x))
        .collect();
    assert_eq!(got, want, "{}: dying({pc0}, {pc1})", t.name);
}

#[test]
fn fineset2_workers_die_as_their_liveness_says() {
    let run = figure9_runs()
        .into_iter()
        .find(|r| r.benchmark == "fineset2" && r.test == "ar(ar|ar)")
        .expect("fineset2 ar(ar|ar) is a Figure 9 row");
    let s = Synthesis::new(&run.source, run.options.clone()).expect("row lowers");
    let l = s.lowered();
    let mut sections = 0;
    let mut died = 0;
    for w in &l.workers {
        let n = w.steps.len();
        for pc in 0..n {
            assert_dying_matches_liveness(w, pc, pc + 1);
            died += w.dying(pc, pc + 1).len();
            if let Some(end) = w.atomic_end(pc) {
                assert_dying_matches_liveness(w, pc, end + 1);
                sections += 1;
            }
        }
        assert_dying_matches_liveness(w, 0, n);
    }
    assert!(sections > 0, "the row has atomic sections");
    assert!(died > 0, "some local dies");
}
