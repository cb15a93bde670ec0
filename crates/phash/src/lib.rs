//! The SE oracle's node-pair table and pair keys.
//!
//! The SE oracle of Wei et al. (SIGMOD 2017) indexes its node-pair set and
//! its enhanced-edge set with "a standard hashing technique, namely the
//! perfect hashing scheme" (citing CLRS), so each of the query's `O(h)`
//! probes costs `O(1)`. This crate departs from that: a [`PairTable`]
//! stores the pairs as one sorted row per node and answers a probe by a
//! binary search within one row. Rows are short (a few hundred partners on
//! a 1,000-site oracle) and cost 12 bytes per pair, so a row search stays
//! in cache where the dependent loads of a two-level hash, at about 64
//! bytes per pair, miss. The table needs no hash functions or seeds, and
//! an image whose keys arrive in ascending order fills it in one pass.
//!
//! # Example
//!
//! ```
//! use phash::{pair_key, PairTable};
//! let table = PairTable::new(4, vec![(pair_key(3, 1), 2.5), (pair_key(0, 2), 1.0)]);
//! assert_eq!(table.get(1, 3), Some(2.5));
//! assert_eq!(table.get(3, 1), Some(2.5));
//! assert_eq!(table.get(0, 1), None);
//! assert_eq!(table.len(), 2);
//! ```

#![forbid(unsafe_code)]
mod table;

pub use table::PairTable;

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

/// SplitMix64 step, the standard seed expander: advances `z` by the
/// golden-ratio increment and finalizes. Exported because every layer
/// that derives independent deterministic streams from one user seed
/// (per-center RNGs in β-estimation, per-thread workloads in tests and
/// examples) needs exactly this mix.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
