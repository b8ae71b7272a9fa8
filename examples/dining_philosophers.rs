//! Synthesizing a deadlock-free chopstick-acquisition policy for the
//! dining philosophers (paper §8.2.5).
//!
//! The policy — which chopstick each philosopher grabs first, as an
//! expression of its index — is a generator hole; the release order is
//! a `reorder`. The verifier enforces deadlock freedom implicitly and
//! the bounded-liveness property that everyone eats `T` times.
//!
//! Run with: `cargo run --release --example dining_philosophers`

use psketch_core::{Config, Options, Synthesis};
use psketch_suite::dinphilo::{dinphilo_source, PhiloVariant};

fn main() {
    for (p, t) in [(3, 2), (5, 2)] {
        let source = dinphilo_source(PhiloVariant::Sketch, p, t);
        let options = Options {
            config: Config {
                hole_width: 3,
                unroll: 4,
                pool: 2,
                ..Config::default()
            },
            ..Options::default()
        };
        let synthesis = Synthesis::new(&source, options).expect("sketch compiles");
        let outcome = synthesis.run();
        let resolution = outcome.resolution.expect("a policy exists");
        println!(
            "P={p}, T={t}: resolved in {} iterations over {} states",
            outcome.stats.iterations, outcome.stats.cost.check.states
        );
        let eat = synthesis
            .resolve_function("eat", &resolution.assignment)
            .unwrap();
        // Show just the policy choice.
        for line in eat.lines().take(11) {
            println!("  {line}");
        }
        println!("  ...\n");
    }
}
