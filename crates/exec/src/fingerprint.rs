//! 64-bit state fingerprints and the visited set built on them.
//!
//! The checker reduces every canonical state to a 64-bit fingerprint
//! (a splitmix64-style mix over the words) and stores only that. With
//! a 64-bit fingerprint the collision probability over `n` states is
//! about `n^2 / 2^65` — negligible at the state counts this checker
//! reaches — and the `exact-visited` feature keeps the full states
//! around to assert that no collision actually happened.
//!
//! Two hashing paths exist:
//!
//! * [`fingerprint`] hashes a materialized `&[i64]` canonical vector
//!   (used by the reference clone engine and by tests);
//! * [`cell_hash`] / [`combine_fp`] implement the undo engine's
//!   Zobrist-style scheme: each `(position, value)` cell hashes
//!   independently and the state fingerprint is a final avalanche over
//!   the XOR of all cell hashes. XOR composition makes the fingerprint
//!   *incrementally maintainable* — after a fired transition only the
//!   journaled shared cells and the fired worker's pc/locals are
//!   re-hashed, O(writes) instead of O(state) — and dead-local masking
//!   happens during hashing, so no per-state `Vec` is ever allocated.
//!   The visited set accepts pre-computed fingerprints via
//!   [`FpSet::insert_fp_with`]; the state closure is only invoked under
//!   `exact-visited`, which is the one mode that still materializes
//!   full states.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

#[cfg(feature = "exact-visited")]
use std::collections::HashMap;

/// Mixes a canonical state vector down to 64 bits.
pub fn fingerprint(state: &[i64]) -> u64 {
    let mut h: u64 = 0x243f_6a88_85a3_08d3 ^ (state.len() as u64);
    for &x in state {
        h = mix(h, x);
    }
    h
}

/// One splitmix64-style round folding `x` into `h`.
#[inline]
fn mix(h: u64, x: i64) -> u64 {
    let mut z = h ^ (x as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Position-keyed cell hash for XOR-composable (Zobrist-style) state
/// fingerprints: `cell_hash(pos, val)` is a full splitmix64 avalanche
/// of the `(pos, val)` pair, so the XOR of cell hashes over a state is
/// order-independent, well-mixed, and — crucially — *incrementally
/// maintainable*: overwriting cell `pos` from `old` to `new` updates
/// the accumulator with `^= cell_hash(pos, old) ^ cell_hash(pos, new)`
/// in O(1), which is how the undo engine refreshes fingerprints from
/// its journal instead of re-hashing the whole buffer per transition.
#[inline]
pub fn cell_hash(pos: u64, val: i64) -> u64 {
    let mut z = (pos ^ 0x243f_6a88_85a3_08d3)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((val as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Final avalanche over a XOR accumulator of [`cell_hash`] values,
/// salted with the state length so trivially related accumulators of
/// different layouts never collide trivially.
#[inline]
pub fn combine_fp(acc: u64, len: u64) -> u64 {
    mix(acc, len as i64)
}

/// Pass-through hasher for keys that are already fingerprints.
#[derive(Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint sets only hash u64 keys")
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type FpHashSet = HashSet<u64, BuildHasherDefault<IdentityHasher>>;

#[cfg(feature = "exact-visited")]
fn check_collision(exact: &mut HashMap<u64, Vec<i64>>, fp: u64, state: Vec<i64>, fresh: bool) {
    if fresh {
        exact.insert(fp, state);
    } else if let Some(prev) = exact.get(&fp) {
        assert_eq!(
            prev.as_slice(),
            state.as_slice(),
            "fingerprint collision on {fp:#018x}"
        );
    }
}

/// Visited set keyed by state fingerprint.
#[derive(Default)]
pub struct FpSet {
    set: FpHashSet,
    #[cfg(feature = "exact-visited")]
    exact: HashMap<u64, Vec<i64>>,
}

impl FpSet {
    /// An empty set.
    pub fn new() -> FpSet {
        FpSet::default()
    }

    /// Inserts `state`; true when it was not present.
    pub fn insert(&mut self, state: &[i64]) -> bool {
        self.insert_fp_with(fingerprint(state), || state.to_vec())
    }

    /// Inserts a pre-computed fingerprint; true when it was not
    /// present. `state` materializes the canonical vector behind the
    /// fingerprint and is only invoked under `exact-visited` (the mode
    /// that cross-checks fingerprints against full states); every
    /// other build never allocates here.
    pub fn insert_fp_with<F: FnOnce() -> Vec<i64>>(&mut self, fp: u64, state: F) -> bool {
        let fresh = self.set.insert(fp);
        #[cfg(feature = "exact-visited")]
        check_collision(&mut self.exact, fp, state(), fresh);
        #[cfg(not(feature = "exact-visited"))]
        let _ = state;
        fresh
    }

    /// Number of distinct states inserted.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when no state has been inserted.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_differs_on_order_and_length() {
        assert_ne!(fingerprint(&[1, 2]), fingerprint(&[2, 1]));
        assert_ne!(fingerprint(&[0]), fingerprint(&[0, 0]));
        assert_eq!(fingerprint(&[7, -3]), fingerprint(&[7, -3]));
    }

    #[test]
    fn fpset_deduplicates() {
        let mut s = FpSet::new();
        assert!(s.insert(&[1, 2, 3]));
        assert!(!s.insert(&[1, 2, 3]));
        assert!(s.insert(&[3, 2, 1]));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn fpset_accepts_precomputed_fingerprints() {
        let mut s = FpSet::new();
        let fp = fingerprint(&[9, 9]);
        assert!(s.insert_fp_with(fp, || vec![9, 9]));
        assert!(!s.insert(&[9, 9]));
        assert!(!s.insert_fp_with(fp, || vec![9, 9]));
        assert_eq!(s.len(), 1);
    }
}
