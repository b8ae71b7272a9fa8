//! Ablation: the local-step reduction. `por_on` vs `por_off`: how
//! much the sound absorb-local-steps reduction shrinks the explicit
//! search.

use psketch_bench::Harness;
use psketch_core::Config;
use psketch_exec::check;
use psketch_ir::{desugar::desugar_program, lower::lower_program};
use std::hint::black_box;

fn main() {
    let h = Harness::with_samples(10);
    let src = "
        int g;
        harness void main() {
            fork (i; 2) {
                int a = 1; int b = 2; int d = a + b;
                int t = g;
                g = t + d;
                int e = d * 2; int f = e - 1;
                t = g;
                g = t + f;
            }
            assert g >= 8;
        }";
    for (name, reduce) in [("por_on", true), ("por_off", false)] {
        let cfg = Config {
            reduce_local_steps: reduce,
            ..Config::default()
        };
        let p = psketch_lang::check_program(src).unwrap();
        let (sk, holes) = desugar_program(&p, &cfg).unwrap();
        let l = lower_program(&sk, holes, &cfg).unwrap();
        let a = l.holes.identity_assignment();
        h.bench(&format!("ablation/por/{name}"), || {
            let out = check(black_box(&l), &a);
            assert!(out.is_ok());
            black_box(out.stats.states);
        });
    }
}
