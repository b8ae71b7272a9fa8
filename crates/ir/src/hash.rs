//! A multiply-shift hasher for keys a pass numbers itself: expression
//! node addresses here, circuit node refs in the synthesizer. Such keys
//! are not outside input, so the tables keyed by them need no
//! protection against crafted collisions, and SipHash's cost buys
//! nothing.

use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit golden-ratio multiplier the circuit's AND table also
/// hashes with.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds each word into the state with a rotate, an XOR and a
/// multiply; `finish` multiplies once more and XORs the two halves of
/// the 128-bit product, so every key bit reaches the low bits a table
/// indexes by and the high bits it tags slots with.
#[derive(Clone, Copy, Default)]
pub struct WordHasher(u64);

/// Builds [`WordHasher`]s, for `HashMap::with_hasher` and friends.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * u128::from(K);
        p as u64 ^ (p >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        // Sixteen-byte-aligned addresses differ only above bit 4; the
        // low bits of their hashes must still take every value.
        let b = BuildWordHasher::default();
        let low: HashSet<u64> = (0..256u64)
            .map(|i| b.hash_one(0x7f00_0000_0000 + i * 16) & 0xff)
            .collect();
        assert!(low.len() > 128, "{} of 256 low bytes", low.len());
    }

    #[test]
    fn byte_writes_hash_like_their_words() {
        let mut a = WordHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = WordHasher::default();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
    }
}
