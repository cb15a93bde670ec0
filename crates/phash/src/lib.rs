//! FKS-style two-level perfect hashing for `u64` keys.
//!
//! The SE oracle of Wei et al. (SIGMOD 2017) indexes its node-pair set and its
//! enhanced-edge set with "a standard hashing technique, namely the perfect
//! hashing scheme" (citing CLRS). This crate provides that substrate: a static
//! map from `u64` keys to values built in expected linear time that answers
//! lookups in worst-case constant time with zero collisions.
//!
//! # Scheme
//!
//! The classic Fredman–Komlós–Szemerédi construction: a first-level universal
//! hash function distributes the `n` keys into `n` buckets; each bucket with
//! `b` keys gets a second-level table of size `b²` whose hash function is
//! re-drawn until it is injective on the bucket. Choosing first-level functions
//! until `Σ b²  ≤ 4n` keeps total space linear in expectation.
//!
//! # Example
//!
//! ```
//! use phash::PerfectMap;
//! let map = PerfectMap::build(vec![(10u64, "a"), (20, "b"), (7, "c")], 42);
//! assert_eq!(map.get(20), Some(&"b"));
//! assert_eq!(map.get(99), None);
//! assert_eq!(map.len(), 3);
//! ```

#![forbid(unsafe_code)]
mod map;
mod universal;

pub use map::PerfectMap;
pub use universal::{splitmix64, UniversalHash};

/// Packs an unordered pair of 32-bit identifiers into a single `u64` key:
/// the smaller id in the high half, the larger in the low half.
///
/// Node pairs in the SE oracle are *unordered* — geodesic distance is
/// symmetric, so `⟨O, O'⟩` and `⟨O', O⟩` are one pair — and every map keyed
/// by node pairs stores and probes this canonical key, so
/// `pair_key(a, b) == pair_key(b, a)`.
#[inline]
pub const fn pair_key(a: u32, b: u32) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | (hi as u64)
}

/// Unpacks a key produced by [`pair_key`] as `(min, max)`.
#[inline]
pub const fn unpair_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_key_roundtrip() {
        for &(a, b) in &[(0, 0), (1, 2), (u32::MAX, 0), (0, u32::MAX), (7, 7)] {
            assert_eq!(unpair_key(pair_key(a, b)), (a.min(b), a.max(b)));
        }
    }

    #[test]
    fn pair_key_is_symmetric() {
        assert_eq!(pair_key(1, 2), pair_key(2, 1));
        assert_eq!(pair_key(u32::MAX, 0), pair_key(0, u32::MAX));
        assert_ne!(pair_key(1, 2), pair_key(1, 3));
    }
}
