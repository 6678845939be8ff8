//! One fixed hasher for maps keyed by ids the simulator generates itself.
//!
//! std's default `RandomState` runs SipHash with a per-process random key:
//! resistant to keys chosen by an adversary, and several times the cost of
//! a multiply per word. The keys hashed on the per-message path (mpisim's
//! `(dst, src, tag)` match bins, netsim's registration buffer ids) are
//! small integers produced by the simulator's own drivers, never external
//! input, so [`IdHasher`] hashes each word with one add and one multiply
//! and rotates once at the end. It has no seed: the same keys hash the
//! same in every process. No observable output may depend on hash order
//! all the same (DESIGN.md §13.4); these maps are only looked up, never
//! iterated into output.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (as in rustc's Fx-family hashers).
const MUL: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for integer keys. See the module docs.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher {
    hash: u64,
}

/// The `BuildHasher` for [`IdHasher`]: `HashMap<K, V, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.hash = self.hash.wrapping_add(n).wrapping_mul(MUL);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; hashbrown
        // picks buckets from the low bits, so rotate the top ones down.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: T) -> u64 {
        IdBuildHasher::default().hash_one(x)
    }

    #[test]
    fn unseeded_and_key_sensitive() {
        // No per-process seed: two builders agree.
        let k = (3u32, 7u32, 100u32);
        assert_eq!(
            IdBuildHasher::default().hash_one(k),
            IdBuildHasher::default().hash_one(k)
        );
        // Field order and every field matter.
        assert_ne!(hash((3u32, 7u32, 100u32)), hash((7u32, 3u32, 100u32)));
        assert_ne!(hash((3u32, 7u32, 100u32)), hash((3u32, 7u32, 101u32)));
        // A byte slice hashes by 8-byte words, the tail zero-padded.
        let mut h = IdHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut g = IdHasher::default();
        g.write_u64(1);
        g.write_u64(2);
        assert_eq!(h.finish(), g.finish());
    }

    #[test]
    fn match_keys_spread_over_buckets() {
        // The low 10 bits pick among 1024 buckets: a ring round's keys
        // (dst, dst - 1, tag) must not pile into a few of them.
        let buckets: HashSet<u64> = (1..513u32)
            .map(|d| hash((d, d - 1, 100u32)) & 1023)
            .collect();
        assert!(buckets.len() > 300, "{} distinct buckets", buckets.len());
    }
}
