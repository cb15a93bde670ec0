//! The query-serving layer: a shared read-only view of a built oracle and
//! a multi-threaded batch driver.
//!
//! A built [`SeOracle`] is immutable — construction freezes the compressed
//! tree and the node-pair table, and the query path
//! ([`SeOracle::distance`] and the batch variants) only reads them; there
//! is **no interior mutability anywhere on the query path**, which is what
//! makes concurrent serving sound *and* deterministic (a reader cannot
//! observe another reader). [`QueryHandle`] packages that guarantee:
//! freeze the oracle behind an [`Arc`] once, then hand cheap clones to as
//! many serving threads as the workload needs. Every clone answers every
//! query bit-identically to every other clone and to the original oracle.
//!
//! The batch driver [`SeOracle::distance_many_par`] (and its atlas twin)
//! shards a pair slice across [`geodesic::pool`] workers — the same pool
//! construction uses — and reassembles the per-shard results in input
//! order, so the output is independent of the thread count and of
//! scheduling, exactly like the construction pipeline's determinism
//! contract.
//!
//! The one sanctioned exception to "no interior mutability" is the
//! out-of-core atlas backend ([`crate::tilestore::TileStore`], opened via
//! [`crate::Atlas::open_out_of_core`]): its LRU residency cache mutates
//! under queries, but tiles decode to the same bytes no matter when they
//! are (re)loaded and each batch pins at most three tiles via `Arc` (the
//! three it used most recently), so answers remain bit-identical to a
//! fully resident atlas for any budget, thread count, and eviction
//! schedule. Eviction order uses query-ordinal ticks, never a clock. The
//! store's lock covers its bookkeeping and segment reads, not the decode:
//! the shards of a `_par` batch, or any threads sharing a handle, decode
//! different tiles at once and wait on one another only for the same
//! tile, which is decoded once. Beyond the budget, each such caller holds
//! its three pins and at most one tile it is decoding.

// lint: query-path
use crate::oracle::{ProbeStats, QueryError, SeOracle};
use crate::route::{PathIndex, ShortestPath};
use std::ops::Deref;
use std::sync::Arc;

/// Compile-time proof of the thread-safety contract: a built oracle (and
/// therefore a handle) may be shared and sent freely.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SeOracle>();
    assert_send_sync::<QueryHandle>();
};

/// A cheaply clonable, `Send + Sync`, read-only view of a built
/// [`SeOracle`]: it derefs to the oracle, so every query — including the
/// parallel [`SeOracle::distance_many_par`] — is called through it.
///
/// Cloning copies one [`Arc`] — the tree and pair set are shared, never
/// duplicated. Use one handle per serving thread:
///
/// ```
/// use se_oracle::oracle::BuildConfig;
/// use se_oracle::p2p::{EngineKind, P2POracle};
/// use se_oracle::serve::QueryHandle;
/// use terrain::gen::Heightfield;
/// use terrain::poi::sample_uniform;
///
/// let mesh = Heightfield::flat(6, 6, 100.0, 100.0).to_mesh();
/// let pois = sample_uniform(&mesh, 10, 42);
/// let built = P2POracle::build(
///     &mesh, &pois, 0.2, EngineKind::EdgeGraph, &BuildConfig::default(),
/// ).unwrap();
/// let handle = QueryHandle::new(built.into_oracle());
///
/// let worker = handle.clone();
/// let answers = std::thread::spawn(move || {
///     worker.distance_many(&[(0, 1), (2, 3)])
/// }).join().unwrap();
/// assert_eq!(answers[0], handle.distance(0, 1));
/// ```
#[derive(Clone)]
pub struct QueryHandle {
    oracle: Arc<SeOracle>,
    paths: Option<Arc<PathIndex>>,
}

impl QueryHandle {
    /// Freezes `oracle` into a shareable handle.
    pub fn new(oracle: SeOracle) -> Self {
        Self { oracle: Arc::new(oracle), paths: None }
    }

    /// Attaches a [`PathIndex`] so the handle can serve
    /// [`Self::shortest_path`] alongside distances. The index is shared by
    /// every clone, read-only, exactly like the oracle itself.
    ///
    /// # Panics
    /// Panics if the index covers a different site count than the oracle.
    pub fn with_paths(mut self, paths: PathIndex) -> Self {
        assert_eq!(
            paths.n_sites(),
            self.oracle.n_sites(),
            "path index covers {} sites but the oracle has {}; build it from the same site set",
            paths.n_sites(),
            self.oracle.n_sites()
        );
        self.paths = Some(Arc::new(paths));
        self
    }

    /// Whether a [`PathIndex`] is attached ([`Self::shortest_path`] is
    /// available).
    pub fn has_paths(&self) -> bool {
        self.paths.is_some()
    }

    /// The attached path index, if any.
    pub fn paths(&self) -> Option<&PathIndex> {
        self.paths.as_deref()
    }

    /// See [`SeOracle::shortest_path`]. Answers are pure functions of the
    /// query — bit-identical across clones and thread counts, like every
    /// other query on the handle.
    ///
    /// # Panics
    /// Panics if no path index is attached ([`Self::with_paths`]) or an id
    /// is out of range.
    pub fn shortest_path(&self, s: usize, t: usize) -> ShortestPath {
        let paths = self
            .paths
            .as_deref()
            // lint: allow(panic, "documented panic contract; with_paths states the requirement and the message names the fix")
            .expect("no path index attached; build one with QueryHandle::with_paths");
        self.oracle.shortest_path(s, t, paths)
    }

    /// The underlying oracle (also reachable through `Deref`).
    pub fn oracle(&self) -> &SeOracle {
        &self.oracle
    }
}

impl Deref for QueryHandle {
    type Target = SeOracle;

    fn deref(&self) -> &SeOracle {
        &self.oracle
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("n_sites", &self.n_sites())
            .field("epsilon", &self.epsilon())
            .field("n_pairs", &self.oracle.n_pairs())
            .field("has_paths", &self.has_paths())
            .finish()
    }
}

/// Splits `pairs` into contiguous shards, answers each with `kernel` on
/// the worker pool, and concatenates answers and probe counts in shard
/// order (the first failing shard's error wins) — the parallel driver
/// behind both backends' `distance_many_par`. Shards are a few per worker
/// (at least 64 pairs each), so uneven probe costs balance through the
/// pool's atomic queue. Empty and single-pair slices run inline without
/// touching the pool (an empty one never calls `kernel`).
pub(crate) fn shard_pairs(
    pairs: &[(u32, u32)],
    threads: usize,
    kernel: impl Fn(&[(u32, u32)]) -> Result<(Vec<f64>, ProbeStats), QueryError> + Sync,
) -> Result<(Vec<f64>, ProbeStats), QueryError> {
    if pairs.is_empty() {
        return Ok((Vec::new(), ProbeStats::default()));
    }
    let workers = geodesic::pool::resolve_threads(threads);
    if workers <= 1 || pairs.len() < 2 {
        return kernel(pairs);
    }
    let shard_len = pairs.len().div_ceil(workers * 4).max(64);
    let shards: Vec<&[(u32, u32)]> = pairs.chunks(shard_len).collect();
    let per_shard = geodesic::pool::run_indexed(workers, shards.len(), |i| kernel(shards[i]));
    let mut out = Vec::with_capacity(pairs.len());
    let mut stats = ProbeStats::default();
    for shard in per_shard {
        let (answers, shard_stats) = shard?;
        out.extend(answers);
        stats += shard_stats;
    }
    Ok((out, stats))
}

/// A deterministic stream of `len` in-range query pairs for worker
/// `stream`: the workload generator the serving stress tests, examples
/// and benches share. A pure function of its arguments (a splitmix64
/// stream per worker, streams decorrelated by golden-ratio spacing), so
/// a single-threaded replay regenerates any worker's workload exactly —
/// the precondition for asserting concurrent answers against a serial
/// rerun.
///
/// # Panics
/// Panics when `n_sites` is zero (there is no in-range pair to draw).
pub fn pair_stream(salt: u64, stream: u64, len: usize, n_sites: usize) -> Vec<(u32, u32)> {
    assert!(n_sites > 0, "pair_stream needs at least one site");
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut x = salt ^ stream.wrapping_add(1).wrapping_mul(GOLDEN);
    let mut next = move || {
        let v = phash::splitmix64(x);
        x = x.wrapping_add(GOLDEN);
        v
    };
    (0..len).map(|_| ((next() % n_sites as u64) as u32, (next() % n_sites as u64) as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BuildConfig;
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::VertexSiteSpace;
    use terrain::gen::diamond_square;
    use terrain::poi::sample_uniform;
    use terrain::refine::insert_surface_points;

    fn handle(n: usize, seed: u64, eps: f64) -> QueryHandle {
        let mesh = diamond_square(4, 0.6, seed).to_mesh();
        let pois = sample_uniform(&mesh, n, seed ^ 0x5E44);
        let refined = insert_surface_points(&mesh, &pois, None).unwrap();
        let mut sites = refined.poi_vertices.clone();
        sites.sort_unstable();
        sites.dedup();
        let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites);
        QueryHandle::new(SeOracle::build(&sp, eps, &BuildConfig::default()).unwrap())
    }

    /// Every (s, t) over `n` sites, in row-major order.
    fn all_pairs(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32).flat_map(|s| (0..n as u32).map(move |t| (s, t))).collect()
    }

    #[test]
    fn batch_matches_individual_queries() {
        let h = handle(18, 3, 0.2);
        let n = h.n_sites();
        let pairs = all_pairs(n);
        let batch = h.distance_many(&pairs);
        for (&(s, t), &d) in pairs.iter().zip(&batch) {
            assert_eq!(d.to_bits(), h.distance(s as usize, t as usize).to_bits(), "pair ({s},{t})");
        }
    }

    #[test]
    fn batch_with_shared_endpoints_matches() {
        let h = handle(16, 5, 0.2);
        // Fewer pairs than sites, with shared endpoints in both roles, an
        // (s, t) → (t, s) swap, a self pair and a repeated pair.
        let pairs = [(0, 1), (0, 2), (2, 0), (3, 3), (3, 0), (1, 2), (1, 2)];
        let batch = h.distance_many(&pairs);
        for (&(s, t), &d) in pairs.iter().zip(&batch) {
            assert_eq!(d.to_bits(), h.distance(s as usize, t as usize).to_bits());
        }
    }

    #[test]
    fn checked_batch_types_the_first_out_of_range_pair() {
        let h = handle(10, 7, 0.25);
        let n = h.n_sites() as u32;
        let pairs = [(0, 1), (n, 0), (0, n), (u32::MAX, u32::MAX), (2, 3)];
        assert_eq!(
            h.distance_many_checked_with_stats(&pairs),
            Err(QueryError::SiteOutOfRange { index: 1, site: n, n_sites: n as usize })
        );
        let valid = [pairs[0], pairs[4]];
        let (got, _) = h.distance_many_checked_with_stats(&valid).unwrap();
        let want: Vec<f64> =
            valid.iter().map(|&(s, t)| h.distance(s as usize, t as usize)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn batch_panic_names_offending_pair() {
        let h = handle(8, 9, 0.25);
        let n = h.n_sites() as u32;
        let pairs = vec![(0u32, 1u32), (1, n)];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.distance_many(&pairs);
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("pair #1") && msg.contains("distance_many_checked_with_stats"),
            "panic message not actionable: {msg}"
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let h = handle(6, 11, 0.3);
        assert!(h.distance_many(&[]).is_empty());
        assert_eq!(h.distance_many_checked_with_stats(&[]), Ok((vec![], ProbeStats::default())));
        assert!(h.distance_many_par(&[], 4).is_empty());
    }

    #[test]
    fn empty_parallel_batch_skips_the_pool() {
        let h = handle(6, 17, 0.3);
        // The parallel driver must return immediately on an empty slice,
        // for every thread spec including auto-detect — the early return
        // fires before any pool work. `shard_pairs` itself must never
        // invoke its closure for an empty slice.
        for threads in [0usize, 1, 8] {
            assert_eq!(h.distance_many_par(&[], threads), Vec::<f64>::new());
        }
        let out = shard_pairs(&[], 8, |_| panic!("closure must not run"));
        assert_eq!(out, Ok((vec![], ProbeStats::default())));
    }

    #[test]
    fn debug_reports_shape_not_contents() {
        let h = handle(6, 19, 0.3);
        let dbg = format!("{h:?}");
        assert!(dbg.contains("QueryHandle"), "{dbg}");
        assert!(dbg.contains("n_sites") && dbg.contains("epsilon") && dbg.contains("n_pairs"));
        // Clone and original render identically (they share the oracle).
        assert_eq!(dbg, format!("{:?}", h.clone()));
    }

    #[test]
    fn parallel_driver_matches_sequential_for_every_thread_count() {
        let h = handle(15, 13, 0.2);
        let pairs = all_pairs(h.n_sites());
        let seq = h.distance_many(&pairs);
        for threads in [0usize, 1, 2, 5] {
            let par = h.distance_many_par(&pairs, threads);
            assert_eq!(seq.len(), par.len());
            for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "pair {i} with {threads} threads");
            }
        }
    }

    #[test]
    fn handle_serves_paths_when_attached() {
        use crate::p2p::{EngineKind, P2POracle};
        let mesh = diamond_square(4, 0.6, 23).to_mesh();
        let pois = sample_uniform(&mesh, 12, 23 ^ 0x5E44);
        let p2p =
            P2POracle::build(&mesh, &pois, 0.2, EngineKind::EdgeGraph, &BuildConfig::default())
                .unwrap();
        let paths = PathIndex::for_p2p(&p2p, 3);
        let h = QueryHandle::new(p2p.into_oracle()).with_paths(paths);
        assert!(h.has_paths());
        let c = h.clone();
        assert!(
            std::ptr::eq(h.paths().unwrap(), c.paths().unwrap()),
            "clone must share the path index"
        );
        let sp = h.shortest_path(0, 5);
        assert_eq!(sp.distance.to_bits(), h.distance(0, 5).to_bits());
        assert_eq!(c.shortest_path(0, 5), sp);
        // The detour query needs no index and agrees through the handle.
        let delta = 0.5 * h.distance(0, 5);
        assert_eq!(h.pois_within_detour(0, 5, delta), h.oracle().pois_within_detour(0, 5, delta));
        let dbg = format!("{h:?}");
        assert!(dbg.contains("has_paths: true"), "{dbg}");
    }

    #[test]
    #[should_panic(expected = "no path index attached")]
    fn path_query_without_index_panics() {
        let h = handle(6, 25, 0.3);
        h.shortest_path(0, 1);
    }

    #[test]
    fn clones_share_the_oracle() {
        let h = handle(9, 15, 0.25);
        let c = h.clone();
        assert!(std::ptr::eq(h.oracle(), c.oracle()), "clone must share, not copy");
        assert_eq!(h.distance(0, 5).to_bits(), c.distance(0, 5).to_bits());
        assert_eq!(h.epsilon(), c.epsilon());
        assert_eq!(h.n_sites(), c.n_sites());
    }
}
