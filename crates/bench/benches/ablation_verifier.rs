//! Ablation: verification strategies and the local-step reduction.
//!
//! * `exhaustive` vs `hybrid(k)`: the hybrid verifier refutes most
//!   candidates with a handful of random schedules and pays for the
//!   exhaustive search only to confirm survivors — same answers,
//!   less state-space work per iteration (dinphilo N=5 explores ~195k
//!   states exhaustively).
//! * `por_on` vs `por_off`: how much the sound absorb-local-steps
//!   reduction shrinks the explicit search.

use psketch_bench::Harness;
use psketch_core::{Config, Options, Synthesis, VerifierKind};
use psketch_exec::check;
use psketch_ir::{desugar::desugar_program, lower::lower_program};
use psketch_suite::dinphilo::{dinphilo_source, PhiloVariant};
use std::hint::black_box;

fn philo_options(verifier: VerifierKind) -> Options {
    Options {
        config: Config {
            hole_width: 3,
            unroll: 4,
            pool: 2,
            ..Config::default()
        },
        verifier,
        ..Options::default()
    }
}

fn main() {
    let h = Harness::with_samples(10);
    let src = dinphilo_source(PhiloVariant::Sketch, 4, 3);
    for (name, kind) in [
        ("exhaustive", VerifierKind::Exhaustive),
        ("hybrid16", VerifierKind::Hybrid { samples: 16 }),
        ("hybrid64", VerifierKind::Hybrid { samples: 64 }),
    ] {
        h.bench(&format!("ablation/verifier/{name}"), || {
            let out = Synthesis::new(black_box(&src), philo_options(kind))
                .unwrap()
                .run();
            assert!(out.resolved());
            black_box((out.stats.iterations, out.stats.cost.sampled_refutations));
        });
    }

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
