//! The node-pair table.

// lint: query-path
use crate::unpair_key;

/// A static map from node pairs to `f64` values, one sorted row per node.
///
/// The entry keyed `(a << 32) | b` lives in row `a`, the key's high half:
/// `first[a]..first[a + 1]` indexes row `a`'s partners in `partner`,
/// ascending, and their values in `dist`. Under a [`crate::pair_key`] the
/// row is the smaller id. [`PairTable::get`] reads two offsets and
/// binary-searches one row, so a hit touches one short contiguous run of
/// `u32`s and one value. The table costs 12 bytes per entry plus 4 per
/// node, and it is a pure function of its entry set: insertion order
/// shapes neither the layout nor [`PairTable::iter`], which walks the keys
/// in ascending order.
#[derive(Debug, Clone)]
pub struct PairTable {
    /// Row offsets into `partner` and `dist`, `n_nodes + 1` of them.
    first: Vec<u32>,
    /// Each row's partner ids (the keys' low halves), ascending.
    partner: Vec<u32>,
    /// The value of each entry, aligned with `partner`.
    dist: Vec<f64>,
}

impl PairTable {
    /// Builds the table over node ids `0..n_nodes` from `(key, value)`
    /// entries in any order: it sorts them and lays them out as
    /// [`Self::from_rows`] takes them.
    ///
    /// # Panics
    /// Panics if two entries share a key or a key names a node outside
    /// `0..n_nodes`. Either is a construction bug upstream (image loaders
    /// reject both first) and must not be masked.
    pub fn new(n_nodes: usize, mut entries: Vec<(u64, f64)>) -> Self {
        assert!(u32::try_from(entries.len()).is_ok(), "more pairs than u32 offsets can index");
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut first = vec![0u32; n_nodes + 1];
        let mut partner = Vec::with_capacity(entries.len());
        let mut dist = Vec::with_capacity(entries.len());
        for (k, d) in entries {
            let (a, b) = unpair_key(k);
            assert!((a.max(b) as usize) < n_nodes, "key {k:#x} names a node outside 0..{n_nodes}");
            first[a as usize + 1] += 1;
            partner.push(b);
            dist.push(d);
        }
        for row in 1..first.len() {
            first[row] += first[row - 1];
        }
        Self::from_rows(first, partner, dist)
    }

    /// Builds the table from its own three arrays, so a source whose keys
    /// arrive in ascending order (a loaded image) fills them in one pass
    /// with no `(key, value)` staging: `first`, the `n_nodes + 1` row
    /// offsets into `partner` and `dist`, starting at 0; `partner`, each
    /// row's partner ids, strictly ascending within the row; `dist`, the
    /// value of each entry, aligned with `partner`.
    ///
    /// # Panics
    /// Panics where [`Self::new`] does: a duplicate key (a partner not
    /// above the one before it in its row) or a key naming a node outside
    /// `0..n_nodes`. Also if the arrays do not fit together: offsets that
    /// do not rise from 0 to `partner.len()`, or `dist` of another length.
    pub fn from_rows(first: Vec<u32>, partner: Vec<u32>, dist: Vec<f64>) -> Self {
        assert!(u32::try_from(partner.len()).is_ok(), "more pairs than u32 offsets can index");
        assert_eq!(partner.len(), dist.len(), "one value per partner");
        let ends = (first.first().copied(), first.last().map(|&e| e as usize));
        assert_eq!(ends, (Some(0), Some(partner.len())), "row offsets must span the partners");
        let n_nodes = first.len() - 1;
        for (row, w) in first.windows(2).enumerate() {
            assert!(w[0] <= w[1], "row offsets must not fall");
            let mut prev = None;
            for &b in &partner[w[0] as usize..w[1] as usize] {
                let k = ((row as u64) << 32) | u64::from(b);
                assert!(prev != Some(b), "duplicate key {k:#x} in PairTable");
                assert!(prev < Some(b), "key {k:#x} out of order in PairTable");
                assert!((b as usize) < n_nodes, "key {k:#x} names a node outside 0..{n_nodes}");
                prev = Some(b);
            }
        }
        Self { first, partner, dist }
    }

    /// The value stored for the unordered pair `{a, b}`, probed under its
    /// canonical key; `None` when absent, including for an id outside the
    /// table.
    #[inline]
    pub fn get(&self, a: u32, b: u32) -> Option<f64> {
        let (row, other) = (a.min(b) as usize, a.max(b));
        let (start, end) = (*self.first.get(row)? as usize, *self.first.get(row + 1)? as usize);
        let at = self.partner[start..end].binary_search(&other).ok()?;
        Some(self.dist[start + at])
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.partner.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.partner.is_empty()
    }

    /// Every `(key, value)` in ascending key order, each key exactly as it
    /// was stored (row id in the high half).
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.first.windows(2).enumerate().flat_map(move |(row, w)| {
            (w[0] as usize..w[1] as usize)
                .map(move |i| (((row as u64) << 32) | self.partner[i] as u64, self.dist[i]))
        })
    }

    /// Heap bytes of the offsets, partners and values.
    pub fn storage_bytes(&self) -> usize {
        (self.first.len() + self.partner.len()) * std::mem::size_of::<u32>()
            + self.dist.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pair_key, splitmix64};
    use std::collections::BTreeMap;

    #[test]
    fn empty_table() {
        for n in [0, 5] {
            let table = PairTable::new(n, vec![]);
            assert!(table.is_empty());
            assert_eq!(table.len(), 0);
            assert_eq!(table.get(0, 0), None);
            assert_eq!(table.get(u32::MAX, 0), None);
            assert_eq!(table.iter().count(), 0);
        }
    }

    #[test]
    fn single_entry() {
        let table = PairTable::new(4, vec![(pair_key(3, 1), 2.5)]);
        assert_eq!(table.get(1, 3), Some(2.5));
        assert_eq!(table.get(3, 1), Some(2.5));
        assert_eq!(table.get(1, 2), None);
        assert_eq!(table.get(3, 3), None);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn all_present_none_missing() {
        // Ids 0..350 are drawn; 350..400 are in the table with empty rows.
        let (n, drawn) = (400u32, 350u64);
        let mut reference = BTreeMap::new();
        let mut x = 0x5eed;
        while reference.len() < 3000 {
            x = splitmix64(x);
            let (a, b) = ((x % drawn) as u32, ((x >> 32) % drawn) as u32);
            reference.insert(pair_key(a, b), (x >> 11) as f64);
        }
        let mut entries: Vec<(u64, f64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        entries.reverse();
        let table = PairTable::new(n as usize, entries);
        assert_eq!(table.len(), reference.len());
        for (&k, &v) in &reference {
            let (a, b) = crate::unpair_key(k);
            assert_eq!((table.get(a, b), table.get(b, a)), (Some(v), Some(v)), "{a}, {b}");
        }
        let mut absent = 0;
        for _ in 0..20_000 {
            x = splitmix64(x);
            let (a, b) = ((x % n as u64) as u32, ((x >> 32) % n as u64) as u32);
            if !reference.contains_key(&pair_key(a, b)) {
                assert_eq!((table.get(a, b), table.get(b, a)), (None, None), "{a}, {b}");
                absent += 1;
            }
        }
        assert!(absent > 10_000, "too few absent probes: {absent}");
        for id in [n, n + 1, u32::MAX] {
            assert_eq!((table.get(id, 0), table.get(0, id), table.get(id, id)), (None, None, None));
        }
    }

    #[test]
    fn iter_returns_everything_in_ascending_order() {
        // A non-canonical key stays in its high half's row, verbatim.
        let raw = (5u64 << 32) | 2;
        let entries = vec![(pair_key(4, 9), 1.0), (raw, 2.0), (pair_key(0, 3), 3.0)];
        let table = PairTable::new(10, entries.clone());
        let mut sorted = entries;
        sorted.sort_by_key(|&(k, _)| k);
        assert_eq!(table.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn from_rows_takes_the_arrays_new_lays_out() {
        let entries = vec![(pair_key(0, 4), 1.0), (pair_key(2, 3), 2.0), (pair_key(0, 1), 3.0)];
        let table = PairTable::new(5, entries);
        let PairTable { first, partner, dist } = table.clone();
        assert_eq!((&first[..], &partner[..]), (&[0, 2, 2, 3, 3, 3][..], &[1, 4, 3][..]));
        let rebuilt = PairTable::from_rows(first, partner, dist);
        assert_eq!(rebuilt.iter().collect::<Vec<_>>(), table.iter().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_rows_panics_on_a_descending_row() {
        let _ = PairTable::from_rows(vec![0, 2, 2], vec![1, 0], vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "names a node outside")]
    fn from_rows_panics_on_a_partner_outside() {
        let _ = PairTable::from_rows(vec![0, 1], vec![1], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_panic() {
        let _ = PairTable::new(3, vec![(pair_key(1, 2), 0.0), (pair_key(2, 1), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "names a node outside")]
    fn out_of_range_id_panics() {
        let _ = PairTable::new(3, vec![(pair_key(0, 3), 1.0)]);
    }
}
