//! Quickstart: synthesize your first concurrent sketch.
//!
//! The sketch below must make a two-thread counter exact. The
//! synthesizer chooses between a racy read-modify-write and a hardware
//! atomic increment, and must order a lock/unlock pair correctly
//! around a critical section.
//!
//! Run with: `cargo run --release --example quickstart`

use psketch_core::{Options, Synthesis};

fn main() {
    let sketch = r#"
        struct Lock { int owner = -1; }
        Lock lk;
        int hits;

        void lock(Lock l) { atomic (l.owner == -1) { l.owner = pid(); } }
        void unlock(Lock l) { assert l.owner == pid(); l.owner = -1; }

        void record() {
            int t = 0;
            reorder {
                lock(lk);
                t = hits;
                hits = t + 1;
                unlock(lk);
            }
        }

        harness void main() {
            lk = new Lock();
            fork (i; 2) {
                record();
            }
            assert hits == 2;
        }
    "#;

    let synthesis = Synthesis::new(sketch, Options::default()).expect("sketch compiles");
    println!(
        "candidate space: {} programs ({} holes)\n",
        synthesis.candidate_space(),
        synthesis.lowered().holes.num_holes()
    );

    let outcome = synthesis.run();
    match outcome.resolution {
        Some(resolution) => {
            println!(
                "resolved after {} iteration(s), {} model-checker states\n",
                outcome.stats.iterations, outcome.stats.cost.check.states
            );
            println!(
                "{}",
                synthesis
                    .resolve_function("record", &resolution.assignment)
                    .expect("record exists")
            );
        }
        None => println!("the sketch cannot be resolved"),
    }
}
