#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Deterministic random-testing support with no external dependencies.
//!
//! The container this repository builds in has no crates.io access, so
//! `proptest`/`rand` cannot be used. This crate provides the two
//! pieces the test suite actually needs: a seedable PRNG with a few
//! convenience samplers, and a [`cases`] driver that reruns a property
//! closure over many seeds and reports the failing seed on panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A splitmix64 PRNG: tiny, fast, and plenty for test-case generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed (any value is fine, including 0).
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9e3779b97f4a7c15))
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform `i8` over its whole domain.
    pub fn any_i8(&mut self) -> i8 {
        self.next_u64() as i8
    }

    /// Uniform boolean.
    pub fn any_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks one element of a slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Runs `body` for `n` seeds (0..n), each with a fresh [`Rng`]. On
/// panic the failing seed is reported so the case can be replayed with
/// `Rng::new(seed)`.
pub fn cases(n: u64, body: impl Fn(&mut Rng)) {
    for seed in 0..n {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property failed at seed {seed} (replay with Rng::new({seed}))");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let v = r.range_i64(-5, 9);
            assert!((-5..=9).contains(&v));
            assert!(r.below(3) < 3);
        }
    }

    #[test]
    fn cases_reports_seed() {
        let hits = std::cell::Cell::new(0);
        cases(16, |rng| {
            let _ = rng.next_u64();
            hits.set(hits.get() + 1);
        });
        assert_eq!(hits.get(), 16);
    }
}
