//! The SE distance oracle: construction (§3.5) and query processing (§3.4).

// lint: query-path
use crate::ctree::CompressedTree;
use crate::enhanced::{EnhancedEdges, EnhancedResolver};
use crate::serve::shard_pairs;
use crate::tree::{PartitionTree, SelectionStrategy, TreeError, NO_NODE};
use crate::wspd::{self, PairDistanceResolver};
use geodesic::cache::CachingSiteSpace;
use geodesic::sitespace::SiteSpace;
use phash::{pair_key, PairTable};
use std::time::Duration;

/// How node-pair distances are obtained during construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstructionMethod {
    /// Enhanced-edge pre-computation + `O(h)` table walks (§3.5 "Efficient
    /// Method"): one bounded SSAD per partition-tree node.
    Efficient,
    /// One SSAD per considered node pair (§3.5 "Naive Method"; the paper's
    /// SE(Naive) baseline).
    Naive,
}

/// Construction-time options.
#[derive(Debug, Clone, Copy)]
pub struct BuildConfig {
    /// Point-selection strategy for partition-tree covering.
    pub strategy: SelectionStrategy,
    /// Efficient (enhanced-edge) or naive pair-distance construction.
    pub method: ConstructionMethod,
    /// RNG seed (point selection).
    pub seed: u64,
    /// Worker threads driving all construction-time SSAD work (partition
    /// tree, enhanced edges). `0` (the default) auto-detects via
    /// [`std::thread::available_parallelism`]. The built oracle is
    /// byte-for-byte identical for every thread count.
    pub threads: usize,
}

impl BuildConfig {
    /// The effective worker count: `threads`, with `0` resolved to the
    /// detected parallelism.
    pub fn resolved_threads(&self) -> usize {
        geodesic::pool::resolve_threads(self.threads)
    }
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            strategy: SelectionStrategy::Random,
            method: ConstructionMethod::Efficient,
            seed: 0x5EED,
            threads: 0,
        }
    }
}

/// Construction failures.
#[derive(Debug)]
pub enum BuildError {
    /// ε must be a positive real (the paper allows ε ≥ 0 but ε = 0 forces
    /// infinite separation; exact oracles are out of scope by §1.3).
    InvalidEpsilon(f64),
    /// Partition-tree construction failed.
    Tree(TreeError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidEpsilon(e) => write!(f, "invalid error parameter ε = {e}"),
            BuildError::Tree(t) => write!(f, "partition tree construction failed: {t}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<TreeError> for BuildError {
    fn from(t: TreeError) -> Self {
        BuildError::Tree(t)
    }
}

/// Timings and counters from one oracle construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// End-to-end build wall clock.
    pub total: Duration,
    /// Partition-tree phase wall clock.
    pub tree: Duration,
    /// Enhanced-edge phase wall clock.
    pub enhanced: Duration,
    /// Node-pair-generation phase wall clock.
    pub pair_gen: Duration,
    /// All SSAD requests issued (tree + enhanced edges + naive pair
    /// distances). `cache_hits` of them were served from the SSAD-reuse
    /// cache without touching the engine.
    pub ssad_runs: u64,
    /// Construction SSAD/distance requests answered from the reuse cache.
    pub cache_hits: u64,
    /// Requests that ran the underlying geodesic engine.
    pub cache_misses: u64,
    /// Worker threads used (the resolved value of [`BuildConfig::threads`]).
    pub workers: usize,
    /// Unordered node pairs examined by the WSPD splitting (Theorem 2).
    pub considered_pairs: u64,
    /// Unordered pairs stored in the oracle (each `{O, O'}` once; a
    /// self pair `⟨O, O⟩` counts once).
    pub stored_pairs: usize,
    /// Original partition-tree node count.
    pub org_nodes: usize,
    /// Compressed-tree node count.
    pub compressed_nodes: usize,
    /// Tree height `h`.
    pub height: u32,
    /// Root radius `r₀`.
    pub r0: f64,
    /// Enhanced-resolver misses answered by direct SSAD (expected 0).
    pub resolver_fallbacks: u64,
}

impl BuildStats {
    /// Records these stats into `reg` under `build_*` metric names —
    /// phase wall clocks as `_us` gauges, SSAD/cache tallies as
    /// counters, and structural sizes as gauges. [`SeOracle::build`]
    /// calls this on [`obs::global`] so any registry consumer (the
    /// `Metrics` wire verb, `bench snapshot`) sees construction cost
    /// without threading `BuildStats` around.
    pub fn record_to(&self, reg: &obs::Registry) {
        let us = |d: Duration| d.as_micros() as u64;
        reg.gauge("build_total_us").set(us(self.total));
        reg.gauge("build_tree_us").set(us(self.tree));
        reg.gauge("build_enhanced_us").set(us(self.enhanced));
        reg.gauge("build_pair_gen_us").set(us(self.pair_gen));
        reg.counter("build_ssad_runs_total").add(self.ssad_runs);
        reg.counter("build_cache_hits_total").add(self.cache_hits);
        reg.counter("build_cache_misses_total").add(self.cache_misses);
        reg.counter("build_considered_pairs_total").add(self.considered_pairs);
        reg.counter("build_resolver_fallbacks_total").add(self.resolver_fallbacks);
        reg.gauge("build_workers").set(self.workers as u64);
        reg.gauge("build_stored_pairs").set(self.stored_pairs as u64);
        reg.gauge("build_org_nodes").set(self.org_nodes as u64);
        reg.gauge("build_compressed_nodes").set(self.compressed_nodes as u64);
        reg.gauge("build_height").set(u64::from(self.height));
    }
}

/// Typed failure of a query — what the checked kernels
/// ([`SeOracle::distance_many_checked_with_stats`],
/// [`crate::atlas::Atlas::distance_many_checked_with_stats`]) report
/// instead of panicking when a request or a persisted image turns out to
/// be invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// A pair referenced a site id outside `0..n_sites`.
    SiteOutOfRange {
        /// Index of the offending pair in the batch.
        index: usize,
        /// The out-of-range id.
        site: u32,
        /// Number of sites the image covers.
        n_sites: usize,
    },
    /// No stored node pair covers `(s, t)` — the unique-node-pair-match
    /// property (Theorem 1) is violated, which only a corrupt or hostile
    /// persisted image can produce (for an atlas: in one of the tile
    /// oracles answering the pair).
    NoCoveringPair {
        /// First site of the uncovered query.
        s: usize,
        /// Second site of the uncovered query.
        t: usize,
    },
    /// An atlas found neither a tile holding both sites nor a portal
    /// route between them. Construction and loading validate that every
    /// tile pair routes, so only a corrupt image gets here.
    NoRoute {
        /// First site of the query.
        s: usize,
        /// Second site of the query.
        t: usize,
    },
    /// An out-of-core atlas could not read or decode tile `tile` from its
    /// backing file, which changed after it was opened. Nothing is cached
    /// for the failure: the next query that needs the tile reads it again.
    TileUnavailable {
        /// The tile whose segment failed.
        tile: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::SiteOutOfRange { index, site, n_sites } => write!(
                f,
                "pair #{index}: site id {site} out of range for an image over {n_sites} sites \
                 (valid ids are 0..{n_sites})"
            ),
            QueryError::NoCoveringPair { s, t } => write!(
                f,
                "no stored node pair covers sites ({s}, {t}) — corrupt oracle image \
                 (Theorem 1 violated); rebuild the image"
            ),
            QueryError::NoRoute { s, t } => write!(
                f,
                "no tile or portal route joins sites ({s}, {t}) — corrupt atlas image; \
                 rebuild the image"
            ),
            QueryError::TileUnavailable { tile } => write!(
                f,
                "tile {tile} is unavailable: its segment no longer reads or decodes from the \
                 backing image, which changed after it was opened"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Probe counters of a query batch — pure counts (no timing), so the
/// serving path can feed a metrics registry without violating the
/// no-clocks query contract. Also the measure of the `O(h)` vs `O(h²)`
/// query ablation ([`SeOracle::distance_naive`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Node-pair table probes, one row search each, performed across the
    /// whole batch (for an atlas: across every tile-oracle leg).
    pub probes: u64,
    /// Always 0. It counted hits in a per-batch layer-array memo, which is
    /// gone: every query reads the layer table the oracle keeps. The
    /// benchmark's `oracle.memo_hit_frac` still reads it; item 1 of
    /// ROADMAP.md ("One benchmark, one comparator") retires both.
    pub scratch_hits: u64,
}

impl std::ops::AddAssign for ProbeStats {
    fn add_assign(&mut self, other: ProbeStats) {
        self.probes += other.probes;
        self.scratch_hits += other.scratch_hits;
    }
}

/// Converts a single-pair query's ids to the kernels' `u32` ids. An id
/// above `u32::MAX` saturates to `u32::MAX`, which no image covers (site
/// ids are stored as `u32`), so it is reported out of range instead of
/// wrapping into range.
pub(crate) fn site_pair(s: usize, t: usize) -> (u32, u32) {
    let id = |x: usize| u32::try_from(x).unwrap_or(u32::MAX);
    (id(s), id(t))
}

/// The kernels' range check: the first pair naming a site outside
/// `0..n_sites` is the error.
pub(crate) fn check_range(pairs: &[(u32, u32)], n_sites: usize) -> Result<(), QueryError> {
    let out = |x: u32| x as usize >= n_sites;
    match pairs.iter().position(|&(s, t)| out(s) || out(t)) {
        None => Ok(()),
        Some(index) => {
            let (s, t) = pairs[index];
            Err(QueryError::SiteOutOfRange { index, site: if out(s) { s } else { t }, n_sites })
        }
    }
}

/// The one panic site of both backends' panicking query wrappers
/// (`distance`, `distance_many`, `distance_many_par`, …): their documented
/// panic is whatever error the checked kernel would have returned.
pub(crate) fn expect_answers<T>(answers: Result<T, QueryError>) -> T {
    answers.unwrap_or_else(|e| {
        // lint: allow(panic, "documented panic contract of the unchecked query wrappers; distance_many_checked_with_stats is the typed alternative")
        panic!("{e}; use distance_many_checked_with_stats for a typed error instead of a panic")
    })
}

/// The Space-Efficient ε-approximate geodesic distance oracle.
///
/// Built over any [`SiteSpace`]; answers site-to-site distance queries in
/// `O(h)` node-pair probes with multiplicative error at most ε (Theorem 1).
pub struct SeOracle {
    eps: f64,
    ctree: CompressedTree,
    /// `pair_key(node_a, node_b)` → center distance, over compressed-tree
    /// node ids; the node pair set of §3.3, each unordered pair stored once
    /// under its canonical key, in the row of its smaller node.
    pairs: PairTable,
    /// Every site's layer array `A_s` (§3.4), row-major with stride
    /// `h + 1` ([`CompressedTree::all_layer_arrays`]), filled at build and
    /// at load: what every query reads.
    layers: Vec<u32>,
    stats: BuildStats,
}

impl SeOracle {
    /// Builds the oracle over `space` with error parameter `eps`.
    pub fn build(space: &dyn SiteSpace, eps: f64, cfg: &BuildConfig) -> Result<Self, BuildError> {
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(BuildError::InvalidEpsilon(eps));
        }
        let span_build = obs::trace::timed("build", "build");
        let mut stats = BuildStats::default();
        let workers = cfg.resolved_threads();
        stats.workers = workers;

        // Every construction phase reads geodesic distances through one
        // SSAD-reuse cache: a center re-visited by a deeper tree layer, the
        // enhanced-edge phase, or a naive/fallback distance query hits
        // memory instead of re-running the engine. Cached labels are
        // bit-identical to fresh runs (see `geodesic::cache`), so this —
        // like the worker pool — leaves the built oracle byte-for-byte
        // unchanged.
        let space = CachingSiteSpace::new(space);

        // Step 1: partition tree + compressed partition tree. Phase
        // durations come from the `build/*` trace spans.
        let span_tree = obs::trace::timed("build", "tree");
        let (org, tree_stats) = PartitionTree::build_with(&space, cfg.strategy, cfg.seed, workers)?;
        let ctree = CompressedTree::from_partition_tree(&org);
        stats.tree = span_tree.finish();
        stats.ssad_runs += tree_stats.ssad_runs;
        stats.org_nodes = org.nodes.len();
        stats.compressed_nodes = ctree.n_nodes();
        stats.height = org.height();
        stats.r0 = org.r0;

        // Steps 2–4: node pair set, with distances resolved per the method.
        let set = match cfg.method {
            ConstructionMethod::Efficient => {
                let span_enh = obs::trace::timed("build", "enhanced-edges");
                let edges = EnhancedEdges::build(&org, &space, eps, workers);
                stats.enhanced = span_enh.finish();
                stats.ssad_runs += edges.ssad_runs;

                let span_pairs = obs::trace::timed("build", "pair-gen");
                let mut resolver = EnhancedResolver::new(&org, &edges, &space);
                let set = wspd::generate(&ctree, eps, &mut resolver);
                stats.pair_gen = span_pairs.finish();
                stats.resolver_fallbacks = resolver.fallbacks;
                stats.ssad_runs += resolver.fallbacks;
                set
            }
            ConstructionMethod::Naive => {
                struct Ssad<'a> {
                    space: &'a dyn SiteSpace,
                    runs: u64,
                }
                impl PairDistanceResolver for Ssad<'_> {
                    fn resolve(&mut self, a: usize, b: usize) -> f64 {
                        self.runs += 1;
                        self.space.distance(a, b)
                    }
                }
                let span_pairs = obs::trace::timed("build", "pair-gen");
                let mut resolver = Ssad { space: &space, runs: 0 };
                let set = wspd::generate(&ctree, eps, &mut resolver);
                stats.pair_gen = span_pairs.finish();
                stats.ssad_runs += resolver.runs;
                set
            }
        };
        stats.considered_pairs = set.considered;
        stats.stored_pairs = set.pairs.len();

        let entries: Vec<(u64, f64)> =
            set.pairs.iter().map(|p| (pair_key(p.a, p.b), p.dist)).collect();
        let pairs = PairTable::new(ctree.n_nodes(), entries);
        let layers = ctree.all_layer_arrays();
        let cache = space.stats();
        stats.cache_hits = cache.hits;
        stats.cache_misses = cache.misses;
        stats.total = span_build.finish();
        stats.record_to(obs::global());

        Ok(Self { eps, ctree, pairs, layers, stats })
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Height `h` of the underlying partition tree (`< 30` on all datasets
    /// the paper reports; Lemma 2 bounds it by the log distance spread).
    pub fn height(&self) -> u32 {
        self.ctree.h
    }

    /// Number of sites indexed.
    pub fn n_sites(&self) -> usize {
        self.ctree.leaf_of_site.len()
    }

    /// Number of stored node pairs.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Construction statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The compressed partition tree (read access for analysis/tests).
    pub fn tree(&self) -> &CompressedTree {
        &self.ctree
    }

    /// Iterates the stored node pairs as `(pair key, distance)` in
    /// ascending key order — the oracle's entire queryable payload besides
    /// the tree (used by [`crate::persist`]). Keys are canonical
    /// [`phash::pair_key`]s: each unordered pair appears once, its smaller
    /// node id in the high half.
    pub fn pair_entries(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.pairs.iter()
    }

    /// Reassembles an oracle from a compressed tree and its node-pair
    /// entries (the inverse of [`Self::tree`] + [`Self::pair_entries`];
    /// used when deserializing) and fills its layer table. The entries
    /// fill the pair table directly: in one pass when they arrive in
    /// ascending key order, as a loaded image's do. Every key must name two
    /// nodes of `ctree`, at most once.
    pub(crate) fn from_parts(eps: f64, ctree: CompressedTree, entries: Vec<(u64, f64)>) -> Self {
        let stats = BuildStats {
            stored_pairs: entries.len(),
            compressed_nodes: ctree.n_nodes(),
            height: ctree.h,
            r0: ctree.r0,
            ..Default::default()
        };
        let pairs = PairTable::new(ctree.n_nodes(), entries);
        let layers = ctree.all_layer_arrays();
        Self { eps, ctree, pairs, layers, stats }
    }

    /// `site`'s row of the layer table: its ancestor at each layer
    /// `0..=h`, or `NO_NODE` where the compressed path skips the layer.
    pub(crate) fn layer_row(&self, site: usize) -> &[u32] {
        let h1 = self.ctree.h as usize + 1;
        &self.layers[site * h1..(site + 1) * h1]
    }

    /// Whether every site's leaf self pair `⟨leaf, leaf⟩` is stored, as in
    /// every built oracle: [`wspd::generate`] splits every diagonal pair
    /// down to the leaves. The loader rejects an image where one is
    /// missing.
    pub(crate) fn stores_leaf_self_pairs(&self) -> bool {
        self.ctree.leaf_of_site.iter().all(|&leaf| self.pairs.get(leaf, leaf).is_some())
    }

    /// ε-approximate geodesic distance between sites `s` and `t` — the
    /// paper's efficient `O(h)` query, as one pair through
    /// [`Self::distance_many_checked_with_stats`].
    ///
    /// Panics when either site id is out of range or the image is
    /// corrupt; the checked kernel reports both as a [`QueryError`].
    pub fn distance(&self, s: usize, t: usize) -> f64 {
        self.distance_many(&[site_pair(s, t)])[0]
    }

    /// Batch query: the distance of every pair, in input order, each
    /// bit-identical to the corresponding [`Self::distance`] call — the
    /// checked kernel's answers, panicking where it returns an error (the
    /// message names the first offending pair).
    pub fn distance_many(&self, pairs: &[(u32, u32)]) -> Vec<f64> {
        expect_answers(self.distance_many_checked_with_stats(pairs)).0
    }

    /// The query kernel: every failure mode is a typed error, never a
    /// panic, so this is the entry point for **untrusted or persisted**
    /// images — a checksum-valid but hostile image can ship a pair set
    /// violating Theorem 1, and bytes from disk must never crash a serving
    /// process. Every other distance entry point wraps it. Ids are checked
    /// first (the first offending pair is the error); answers come in
    /// input order with per-batch [`ProbeStats`], which the serving daemon
    /// feeds to its registry from counts alone (no clocks on the query
    /// path).
    ///
    /// Each pair probes Lemma 3's candidate node pairs over the two
    /// sites' layer arrays `a` and `b` (`a[i]` is the first site's
    /// ancestor at layer `i`, if the compressed tree has one there), in
    /// one bottom-up pass. At each layer `i` from `h` down to 0 it probes
    ///
    /// 1. the same-layer pair `⟨a[i], b[i]⟩`, skipped when both sides are
    ///    the same node above the leaf layer (a node with a positive
    ///    radius is never well-separated from itself, so `⟨O, O⟩` is never
    ///    stored);
    /// 2. `⟨a[k], b[i]⟩` for `k` from `i − 1` down to
    ///    `Layer(parent(b[i]))`;
    /// 3. `⟨a[i], b[k]⟩` for `k` from `i − 1` down to
    ///    `Layer(parent(a[i]))`.
    ///
    /// Each candidate is probed under its canonical key
    /// ([`phash::pair_key`]), because every unordered pair is stored once.
    /// The first stored candidate is the answer. A built oracle stores
    /// exactly one (Theorem 1), so the order changes only the probe count,
    /// `(s, t)` and `(t, s)` meet the same entry and answer
    /// bit-identically, and the first probe, the leaf pair
    /// `⟨a[h], b[h]⟩`, answers most pairs. On a hostile image that stores
    /// two candidates, the first in this order wins, on every path and
    /// thread count.
    ///
    /// Both layer arrays are rows of the table the oracle fills once, at
    /// build and at load, so every pair is pure pair-table probes whatever
    /// the batch size, thread count or backend. The table is
    /// `n_sites × (h + 1) × 4` bytes, inside Theorem 2's `O(nh/ε^{2β})`
    /// space bound, and [`Self::storage_bytes`] charges it.
    pub fn distance_many_checked_with_stats(
        &self,
        pairs: &[(u32, u32)],
    ) -> Result<(Vec<f64>, ProbeStats), QueryError> {
        check_range(pairs, self.n_sites())?;
        self.probe_pairs(pairs)
    }

    /// [`Self::distance_many`] sharded across `threads` pool workers
    /// (`0` = auto-detect). Results come back in input order and are
    /// bit-identical for every thread count. Every shard reads the
    /// oracle's one layer table, so sharding repeats no per-batch work.
    ///
    /// Panics exactly as [`Self::distance_many`] does — ids are checked
    /// up front, so an out-of-range panic fires on the caller's thread,
    /// not inside a worker. An empty slice returns immediately (no pool,
    /// no thread-count resolution).
    pub fn distance_many_par(&self, pairs: &[(u32, u32)], threads: usize) -> Vec<f64> {
        let answers = check_range(pairs, self.n_sites())
            .and_then(|()| shard_pairs(pairs, threads, |chunk| self.probe_pairs(chunk)));
        expect_answers(answers).0
    }

    /// Answers range-checked pairs — the one loop over pairs every
    /// distance entry point runs.
    fn probe_pairs(&self, pairs: &[(u32, u32)]) -> Result<(Vec<f64>, ProbeStats), QueryError> {
        let mut stats = ProbeStats::default();
        let mut out = Vec::with_capacity(pairs.len());
        for &(s, t) in pairs {
            let (s, t) = (s as usize, t as usize);
            let d = self.probe(self.layer_row(s), self.layer_row(t), &mut stats.probes);
            out.push(d.ok_or(QueryError::NoCoveringPair { s, t })?);
        }
        Ok((out, stats))
    }

    /// The `O(h)` probe sequence of §3.4 over two sites' layer arrays, in
    /// the order [`Self::distance_many_checked_with_stats`] documents,
    /// counting probes into `probes`. `None` means no candidate is stored:
    /// Theorem 1 fails, which a built oracle never does but a
    /// checksum-valid yet hostile persisted image can.
    fn probe(&self, a: &[u32], b: &[u32], probes: &mut u64) -> Option<f64> {
        let h = self.ctree.h as usize;
        let nodes = &self.ctree.nodes;
        let root = self.ctree.root;
        let mut get = |x: u32, y: u32| {
            *probes += 1;
            self.pairs.get(x, y)
        };
        // Lemma 3: a stored pair's higher node sits no higher than the
        // lower node's parent.
        let parent_layer = |x: u32| nodes[nodes[x as usize].parent as usize].layer as usize;

        for i in (0..=h).rev() {
            let (ai, bi) = (a[i], b[i]);
            if ai != NO_NODE && bi != NO_NODE && (ai != bi || i == h) {
                if let Some(d) = get(ai, bi) {
                    return Some(d);
                }
            }
            if bi != NO_NODE && bi != root {
                for k in (parent_layer(bi)..i).rev() {
                    if a[k] != NO_NODE {
                        if let Some(d) = get(a[k], bi) {
                            return Some(d);
                        }
                    }
                }
            }
            if ai != NO_NODE && ai != root {
                for k in (parent_layer(ai)..i).rev() {
                    if b[k] != NO_NODE {
                        if let Some(d) = get(ai, b[k]) {
                            return Some(d);
                        }
                    }
                }
            }
        }
        None
    }

    /// The paper's naive `O(h²)` query (baseline for the query ablation):
    /// probes the full Cartesian product of the two root paths. Panics
    /// like [`Self::distance`].
    pub fn distance_naive(&self, s: usize, t: usize) -> (f64, ProbeStats) {
        let answer = check_range(&[site_pair(s, t)], self.n_sites()).and_then(|()| {
            let (a, b) = (self.layer_row(s), self.layer_row(t));
            let mut stats = ProbeStats::default();
            for &na in a.iter().filter(|&&x| x != NO_NODE) {
                for &nb in b.iter().filter(|&&x| x != NO_NODE) {
                    stats.probes += 1;
                    if let Some(d) = self.pairs.get(na, nb) {
                        return Ok((d, stats));
                    }
                }
            }
            Err(QueryError::NoCoveringPair { s, t })
        });
        expect_answers(answer)
    }

    /// Oracle size in memory: compressed tree + node-pair table + layer
    /// table (`n_sites × (h + 1) × 4` bytes; construction scaffolding
    /// excluded). It depends only on the tree and the number of stored
    /// pairs, so an oracle and every reload of its image report the same
    /// size.
    pub fn storage_bytes(&self) -> usize {
        self.ctree.storage_bytes()
            + self.pairs.storage_bytes()
            + self.layers.len() * std::mem::size_of::<u32>()
    }
}

impl std::fmt::Debug for SeOracle {
    /// Shape summary (the pair set and tree are far too large to dump).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeOracle")
            .field("n_sites", &self.n_sites())
            .field("epsilon", &self.eps)
            .field("n_pairs", &self.n_pairs())
            .field("height", &self.height())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::{SiteSpace, VertexSiteSpace};
    use std::sync::Arc;
    use terrain::gen::diamond_square;
    use terrain::poi::sample_uniform;
    use terrain::refine::insert_surface_points;

    fn space(n: usize, seed: u64) -> VertexSiteSpace {
        let mesh = diamond_square(4, 0.6, seed).to_mesh();
        let pois = sample_uniform(&mesh, n, seed ^ 0xF00);
        let refined = insert_surface_points(&mesh, &pois, None).unwrap();
        let mut sites = refined.poi_vertices.clone();
        sites.sort_unstable();
        sites.dedup();
        VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites)
    }

    #[test]
    fn oracle_error_within_epsilon() {
        let sp = space(25, 1);
        let n = sp.n_sites();
        for &eps in &[0.25, 0.1] {
            let oracle = SeOracle::build(&sp, eps, &BuildConfig::default()).unwrap();
            for s in 0..n {
                let exact = sp.all_distances(s);
                for (t, &ex) in exact.iter().enumerate().take(n) {
                    let approx = oracle.distance(s, t);
                    let err = (approx - ex).abs();
                    assert!(
                        err <= eps * ex + 1e-9,
                        "ε={eps} sites ({s},{t}): approx {approx} exact {ex}"
                    );
                }
            }
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let sp = space(10, 3);
        let oracle = SeOracle::build(&sp, 0.2, &BuildConfig::default()).unwrap();
        for s in 0..10 {
            assert_eq!(oracle.distance(s, s), 0.0);
        }
    }

    #[test]
    fn efficient_equals_naive_query() {
        let sp = space(20, 5);
        let oracle = SeOracle::build(&sp, 0.15, &BuildConfig::default()).unwrap();
        let n = sp.n_sites();
        let mut total_eff = 0u64;
        let mut total_naive = 0u64;
        for s in 0..n {
            for t in 0..n {
                let pair = [(s as u32, t as u32)];
                let (de, qe) = oracle.distance_many_checked_with_stats(&pair).unwrap();
                let (dn, qn) = oracle.distance_naive(s, t);
                assert_eq!(de[0], dn, "sites ({s},{t})");
                total_eff += qe.probes;
                total_naive += qn.probes;
            }
        }
        // The efficient query's probe count must not exceed the naive one's
        // in aggregate (it scans a strict subset of candidate pairs).
        assert!(total_eff <= total_naive, "{total_eff} > {total_naive}");
    }

    #[test]
    fn symmetric_answers() {
        // The Naive method resolves each pair with its own SSAD, whose
        // result depends on the source; storing each unordered pair once
        // makes its answers symmetric too.
        let sp = space(15, 7);
        for method in [ConstructionMethod::Efficient, ConstructionMethod::Naive] {
            let cfg = BuildConfig { method, ..Default::default() };
            let oracle = SeOracle::build(&sp, 0.2, &cfg).unwrap();
            for s in 0..15 {
                for t in 0..15 {
                    let (st, ts) = (oracle.distance(s, t), oracle.distance(t, s));
                    assert_eq!(st.to_bits(), ts.to_bits(), "{method:?} ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn naive_construction_matches_efficient_within_eps() {
        let sp = space(12, 9);
        let eps = 0.3;
        let eff = SeOracle::build(&sp, eps, &BuildConfig::default()).unwrap();
        let naive = SeOracle::build(
            &sp,
            eps,
            &BuildConfig { method: ConstructionMethod::Naive, ..Default::default() },
        )
        .unwrap();
        // Same tree (same seed) → identical pair sets and distances.
        assert_eq!(eff.n_pairs(), naive.n_pairs());
        for s in 0..12 {
            for t in 0..12 {
                assert!((eff.distance(s, t) - naive.distance(s, t)).abs() < 1e-9);
            }
        }
        // And the naive method ran at least one SSAD per resolved pair.
        assert!(naive.build_stats().ssad_runs >= eff.build_stats().ssad_runs);
    }

    #[test]
    fn greedy_strategy_also_valid() {
        let sp = space(18, 11);
        let cfg = BuildConfig { strategy: SelectionStrategy::Greedy, ..Default::default() };
        let oracle = SeOracle::build(&sp, 0.2, &cfg).unwrap();
        for s in 0..18 {
            let exact = sp.all_distances(s);
            for (t, &ex) in exact.iter().enumerate().take(18) {
                let approx = oracle.distance(s, t);
                assert!((approx - ex).abs() <= 0.2 * ex + 1e-9);
            }
        }
    }

    #[test]
    fn rejects_bad_epsilon() {
        let sp = space(5, 13);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                SeOracle::build(&sp, eps, &BuildConfig::default()),
                Err(BuildError::InvalidEpsilon(_))
            ));
        }
    }

    #[test]
    fn pair_count_bounded_and_subquadratic_onset() {
        // Theorem 2 bounds the pair set by O(n·h/ε^{2β}) — but the packing
        // constant is ≈ (1/ε)^{2β} ≈ 10⁴ at ε = 0.25, so below a few
        // thousand POIs the WSPD legitimately stores (up to) all n(n+1)/2
        // unordered leaf pairs; the linear regime is an asymptotic
        // statement (the paper's n starts at 4 000). What must hold at
        // *every* scale: never more than n(n+1)/2 unordered pairs, and the
        // growth rate already dipping below quadratic as n rises.
        let cfg = BuildConfig::default();
        let o40 = SeOracle::build(&space(40, 15), 0.25, &cfg).unwrap();
        let o80 = SeOracle::build(&space(80, 15), 0.25, &cfg).unwrap();
        assert!(o40.n_pairs() <= 40 * 41 / 2, "{} pairs for 40 sites", o40.n_pairs());
        assert!(o80.n_pairs() <= 80 * 81 / 2, "{} pairs for 80 sites", o80.n_pairs());
        let pair_ratio = o80.n_pairs() as f64 / o40.n_pairs() as f64;
        assert!(
            pair_ratio < 3.9,
            "doubling n quadrupled the pairs ({pair_ratio}×): no sub-quadratic onset"
        );
        assert!(o80.height() < 30);
    }

    #[test]
    fn single_site_oracle() {
        let sp = space(1, 17);
        let oracle = SeOracle::build(&sp, 0.1, &BuildConfig::default()).unwrap();
        assert_eq!(oracle.distance(0, 0), 0.0);
        assert_eq!(oracle.n_sites(), 1);
    }

    #[test]
    fn build_stats_populated() {
        let sp = space(15, 19);
        let oracle = SeOracle::build(&sp, 0.2, &BuildConfig::default()).unwrap();
        let s = oracle.build_stats();
        assert!(s.ssad_runs > 0);
        assert!(s.considered_pairs >= s.stored_pairs as u64);
        assert!(s.org_nodes >= s.compressed_nodes);
        assert!(s.compressed_nodes < 2 * 15);
        assert!(s.total >= s.tree);
        assert_eq!(s.resolver_fallbacks, 0);
        assert!(s.r0 > 0.0);
        assert!(s.workers >= 1, "resolved worker count must be reported");
        assert!(s.cache_hits > 0, "re-selected centers must hit the SSAD cache");
        assert!(s.cache_misses > 0);
    }

    #[test]
    fn checked_kernel_types_out_of_range_ids() {
        let sp = space(8, 21);
        let n = sp.n_sites();
        let oracle = SeOracle::build(&sp, 0.2, &BuildConfig::default()).unwrap();
        let m = n as u32;
        assert_eq!(
            oracle.distance_many_checked_with_stats(&[(0, 1), (0, m)]),
            Err(QueryError::SiteOutOfRange { index: 1, site: m, n_sites: n })
        );
        assert_eq!(
            oracle.distance_many_checked_with_stats(&[(u32::MAX, 0)]),
            Err(QueryError::SiteOutOfRange { index: 0, site: u32::MAX, n_sites: n })
        );
        for s in 0..n {
            for t in 0..n {
                let (d, _) =
                    oracle.distance_many_checked_with_stats(&[(s as u32, t as u32)]).unwrap();
                assert_eq!(d[0].to_bits(), oracle.distance(s, t).to_bits());
            }
        }
    }

    #[test]
    fn out_of_range_panic_is_actionable() {
        let sp = space(6, 23);
        let oracle = SeOracle::build(&sp, 0.2, &BuildConfig::default()).unwrap();
        let n = sp.n_sites();
        for query in [
            Box::new(|| oracle.distance(n, 0)) as Box<dyn Fn() -> f64 + std::panic::UnwindSafe>,
            Box::new(|| oracle.distance_naive(0, n + 7).0),
            // Above u32::MAX: saturates, never wraps into range.
            Box::new(|| oracle.distance(usize::MAX, 0)),
            Box::new(|| oracle.distance_many(&[(0, 0), (0, n as u32)])[0]),
        ] {
            let err = std::panic::catch_unwind(query).unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("out of range") && msg.contains("distance_many_checked_with_stats"),
                "panic message not actionable: {msg}"
            );
        }
    }

    /// The stored pair covering sites `(s, t)`, found by scanning the
    /// whole product of their root paths.
    fn covering_pair(o: &SeOracle, s: usize, t: usize) -> (u32, u32) {
        let path = |x: usize| o.ctree.path_to_root(o.ctree.leaf_of_site[x]);
        let (ps, pt) = (path(s), path(t));
        let mut found = ps.iter().flat_map(|&x| pt.iter().map(move |&y| (x, y)));
        found.find(|&(x, y)| o.pairs.get(x, y).is_some()).expect("built oracle")
    }

    /// `o` with its pair entries edited by `edit`, rebuilt as a loaded
    /// image would be.
    fn with_entries(o: &SeOracle, edit: impl FnOnce(&mut Vec<(u64, f64)>)) -> SeOracle {
        let mut entries: Vec<(u64, f64)> = o.pair_entries().collect();
        edit(&mut entries);
        SeOracle::from_parts(o.eps, o.ctree.clone(), entries)
    }

    fn all_pairs(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32).flat_map(|s| (0..n as u32).map(move |t| (s, t))).collect()
    }

    /// A built oracle whose site pairs are covered at the leaf layer, by
    /// same-layer pairs above it, and by cross-layer pairs.
    fn mixed_cover_oracle() -> (SeOracle, usize) {
        let sp = space(30, 3);
        (SeOracle::build(&sp, 0.5, &BuildConfig::default()).unwrap(), sp.n_sites())
    }

    #[test]
    fn missing_covering_pair_is_the_same_error_on_every_path() {
        let (built, n) = mixed_cover_oracle();
        let leaf = |x: usize| built.ctree.leaf_of_site[x];
        // A pair answered by its leaf pair: dropping that entry uncovers
        // this pair and its mirror. The search meets `s < t` first, so
        // `(s, t)` is also the first uncovered pair of `all_pairs`.
        let (s, t) = (0..n)
            .flat_map(|s| (0..n).map(move |t| (s, t)))
            .find(|&(s, t)| s != t && covering_pair(&built, s, t) == (leaf(s), leaf(t)))
            .expect("some pair is covered at the leaf layer");
        let key = pair_key(leaf(s), leaf(t));
        let hostile = with_entries(&built, |e| e.retain(|&(k, _)| k != key));
        let err = Err(QueryError::NoCoveringPair { s, t });

        let pair = [(s as u32, t as u32)];
        assert_eq!(hostile.distance_many_checked_with_stats(&pair), err, "one pair");
        assert_eq!(
            hostile.distance_many_checked_with_stats(&[(t as u32, s as u32)]),
            Err(QueryError::NoCoveringPair { s: t, t: s }),
            "mirror"
        );
        let all = all_pairs(n);
        assert_eq!(hostile.distance_many_checked_with_stats(&all), err, "every pair in one batch");
        for threads in [1, 2] {
            let panic = std::panic::catch_unwind(|| hostile.distance_many_par(&all, threads))
                .expect_err("an uncovered pair panics");
            let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(&format!("sites ({s}, {t})")), "{threads} threads: {msg}");
        }
    }

    #[test]
    fn extra_leaf_pair_wins_on_every_path() {
        let (built, n) = mixed_cover_oracle();
        let h = built.ctree.h;
        let layer = |x: u32| built.ctree.nodes[x as usize].layer;
        // A pair covered by a same-layer pair above the leaves: the
        // injected leaf pair precedes it in the kernel's bottom-up order,
        // though a root-first scan would meet the genuine pair first.
        let (s, t) = (0..n)
            .flat_map(|s| (0..n).map(move |t| (s, t)))
            .find(|&(s, t)| {
                let (x, y) = covering_pair(&built, s, t);
                layer(x) == layer(y) && layer(x) < h
            })
            .expect("some pair is covered above the leaf layer");
        let leaf = |x: usize| built.ctree.leaf_of_site[x];
        let injected = built.distance(s, t) + 1.0;
        let hostile = with_entries(&built, |e| e.push((pair_key(leaf(s), leaf(t)), injected)));

        let all = all_pairs(n);
        let at = s * n + t;
        let pair = [(s as u32, t as u32)];
        assert_eq!(hostile.distance_many_checked_with_stats(&pair).unwrap().0, [injected]);
        assert_eq!(hostile.distance_many_checked_with_stats(&all).unwrap().0[at], injected);
        assert_eq!(hostile.distance(s, t), injected);
        assert_eq!(hostile.distance(t, s), injected, "the mirror probes the same key");
        for threads in [1, 2] {
            assert_eq!(hostile.distance_many_par(&all, threads)[at], injected);
        }
    }

    #[test]
    fn thread_counts_build_identical_oracles() {
        let sp = space(18, 25);
        let eps = 0.2;
        let one =
            SeOracle::build(&sp, eps, &BuildConfig { threads: 1, ..Default::default() }).unwrap();
        let four =
            SeOracle::build(&sp, eps, &BuildConfig { threads: 4, ..Default::default() }).unwrap();
        assert_eq!(one.n_pairs(), four.n_pairs());
        let mut a: Vec<(u64, f64)> = one.pair_entries().collect();
        let mut b: Vec<(u64, f64)> = four.pair_entries().collect();
        a.sort_by_key(|&(k, _)| k);
        b.sort_by_key(|&(k, _)| k);
        assert_eq!(a, b, "pair sets must be bit-identical across thread counts");
        for s in 0..sp.n_sites() {
            for t in 0..sp.n_sites() {
                assert_eq!(one.distance(s, t).to_bits(), four.distance(s, t).to_bits());
            }
        }
        assert_eq!(four.build_stats().workers, 4);
    }
}
