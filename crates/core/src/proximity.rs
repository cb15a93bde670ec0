//! Proximity queries over the SE oracle: k-nearest-neighbour, range and
//! reverse-kNN search.
//!
//! §1 of the paper motivates the distance oracle precisely with these
//! queries ("many other applications such as proximity queries (including
//! nearest neighbor queries and range queries) … are built based on the
//! result of the shortest distance query", citing [9, 10, 29, 35, 36]).
//! This module closes the loop: the compressed partition tree is a metric
//! tree — every node's *enlarged* disk (radius `2·r_O`, Distance property)
//! contains its whole representative set — so branch-and-bound search with
//! oracle distances answers proximity queries without touching the mesh.
//!
//! # Semantics
//!
//! All queries rank sites by the *oracle* metric `d̃` (deterministic,
//! symmetric, within ε of the geodesic distance by Theorem 1) with ties
//! broken by site index. Results are therefore exactly reproducible and
//! testable against a brute-force scan of `d̃`; with respect to the true
//! geodesic distance every reported k-NN set is a `(1+ε)/(1−ε)`-approximate
//! k-NN set.
//!
//! # Pruning bounds
//!
//! For a query site `q` and a tree node `O` with center `c` and enlarged
//! radius `R = 2·r_O`, every site `p` below `O` satisfies
//! `d(q,p) ≥ d(q,c) − R` and `d(q,p) ≤ d(q,c) + R` (triangle inequality +
//! Distance property). Converting through `d̃ ∈ [(1−ε)d, (1+ε)d]`:
//!
//! ```text
//! d̃(q,p) ≥ (1−ε)·max(0, d̃(q,c)/(1+ε) − R)      (lower bound, prune)
//! d̃(q,p) ≤ (1+ε)·(d̃(q,c)/(1−ε) + R)            (upper bound, early count)
//! ```
//!
//! Both bounds are conservative w.r.t. the `d̃` ranking, so branch-and-bound
//! returns *identical* results to the brute-force scan.

// lint: query-path
use crate::ctree::CompressedTree;
use crate::oracle::SeOracle;
use geodesic::heap::MinHeap;

/// One proximity-query result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Site index.
    pub site: usize,
    /// Oracle distance `d̃(q, site)`.
    pub distance: f64,
}

/// Work counters for one proximity query (pruning-effectiveness ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProximityStats {
    /// Tree nodes popped from the best-first queue.
    pub nodes_visited: u64,
    /// Oracle distance evaluations (each `O(h)` node-pair probes).
    pub distance_evals: u64,
    /// Subtrees accepted wholesale by the upper bound (range/count only).
    pub subtree_accepts: u64,
}

/// Branch-and-bound proximity search over a built [`SeOracle`].
///
/// Construction is `O(n)` (one subtree-size sweep); the index borrows the
/// oracle and adds `4` bytes per tree node.
pub struct ProximityIndex<'a> {
    oracle: &'a SeOracle,
    /// Number of leaf sites below each compressed-tree node.
    subtree_sites: Vec<u32>,
}

impl<'a> ProximityIndex<'a> {
    /// Builds the index over `oracle`.
    pub fn new(oracle: &'a SeOracle) -> Self {
        let t = oracle.tree();
        let mut subtree_sites = vec![0u32; t.n_nodes()];
        // Children precede parents nowhere in particular, so accumulate via
        // an explicit post-order.
        fn fill(t: &CompressedTree, node: u32, out: &mut [u32]) -> u32 {
            let n = &t.nodes[node as usize];
            let total = if n.children.is_empty() {
                1
            } else {
                n.children.iter().map(|&c| fill(t, c, out)).sum()
            };
            out[node as usize] = total;
            total
        }
        fill(t, t.root, &mut subtree_sites);
        Self { oracle, subtree_sites }
    }

    /// Sites below a node (leaf count of its subtree).
    pub fn subtree_sites(&self, node: u32) -> usize {
        self.subtree_sites[node as usize] as usize
    }

    fn bounds(&self, q: usize, node: u32) -> (f64, f64, f64) {
        // Returns (d̃(q, center), lower bound, upper bound) for the node.
        let t = self.oracle.tree();
        let eps = self.oracle.epsilon();
        let c = t.nodes[node as usize].center as usize;
        let dc = if c == q { 0.0 } else { self.oracle.distance(q, c) };
        let r = t.enlarged_radius(node);
        let lo = (1.0 - eps).max(0.0) * (dc / (1.0 + eps) - r).max(0.0);
        let hi = if eps < 1.0 { (1.0 + eps) * (dc / (1.0 - eps) + r) } else { f64::INFINITY };
        (dc, lo, hi)
    }

    /// The `k` sites nearest to `q` under `d̃` (excluding `q` itself),
    /// sorted by `(distance, site)`. Returns fewer than `k` entries when
    /// the oracle indexes fewer than `k + 1` sites.
    pub fn knn(&self, q: usize, k: usize) -> Vec<Neighbor> {
        self.knn_with_stats(q, k).0
    }

    /// [`Self::knn`] with work counters.
    pub fn knn_with_stats(&self, q: usize, k: usize) -> (Vec<Neighbor>, ProximityStats) {
        let mut stats = ProximityStats::default();
        if k == 0 {
            return (Vec::new(), stats);
        }
        let t = self.oracle.tree();
        // Best-first queue keyed by the node lower bound; results kept in a
        // bounded max-set (linear insert — k is small in every application
        // the paper lists).
        let mut heap: MinHeap<u32> = MinHeap::with_capacity(64);
        let mut best: Vec<Neighbor> = Vec::with_capacity(k + 1);
        let kth = |best: &Vec<Neighbor>| -> f64 {
            if best.len() < k {
                f64::INFINITY
            } else {
                best.last().map_or(f64::INFINITY, |n| n.distance)
            }
        };
        heap.push(0.0, t.root);
        while let Some((lb, node)) = heap.pop() {
            if lb > kth(&best) {
                break; // every remaining node is worse than the k-th best
            }
            stats.nodes_visited += 1;
            let n = &t.nodes[node as usize];
            if n.children.is_empty() {
                let site = n.center as usize;
                if site == q {
                    continue;
                }
                stats.distance_evals += 1;
                let d = self.oracle.distance(q, site);
                if d < kth(&best) || (d == kth(&best) && best.last().is_some_and(|b| site < b.site))
                {
                    let at = best
                        .binary_search_by(|x| x.distance.total_cmp(&d).then(x.site.cmp(&site)))
                        .unwrap_or_else(|i| i);
                    best.insert(at, Neighbor { site, distance: d });
                    best.truncate(k);
                }
            } else {
                for &child in &n.children {
                    stats.distance_evals += 1;
                    let (_, lo, _) = self.bounds(q, child);
                    if lo <= kth(&best) {
                        heap.push(lo, child);
                    }
                }
            }
        }
        (best, stats)
    }

    /// The nearest site to `q` (excluding `q`), or `None` when `q` is the
    /// only site.
    pub fn nearest(&self, q: usize) -> Option<Neighbor> {
        self.knn(q, 1).into_iter().next()
    }

    /// All sites with `d̃(q, site) ≤ radius` (excluding `q`), sorted by
    /// `(distance, site)`.
    pub fn range(&self, q: usize, radius: f64) -> Vec<Neighbor> {
        self.range_with_stats(q, radius).0
    }

    /// [`Self::range`] with work counters.
    pub fn range_with_stats(&self, q: usize, radius: f64) -> (Vec<Neighbor>, ProximityStats) {
        let mut stats = ProximityStats::default();
        let t = self.oracle.tree();
        let mut out = Vec::new();
        let mut stack = vec![t.root];
        while let Some(node) = stack.pop() {
            stats.nodes_visited += 1;
            let n = &t.nodes[node as usize];
            if n.children.is_empty() {
                let site = n.center as usize;
                if site == q {
                    continue;
                }
                stats.distance_evals += 1;
                let d = self.oracle.distance(q, site);
                if d <= radius {
                    out.push(Neighbor { site, distance: d });
                }
            } else {
                stats.distance_evals += 1;
                let (_, lo, _) = self.bounds(q, node);
                if lo > radius {
                    continue; // whole subtree is out of range
                }
                stack.extend(n.children.iter().copied());
            }
        }
        out.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.site.cmp(&b.site)));
        (out, stats)
    }

    /// Number of sites (excluding `q`) with `d̃(q, ·) < bound`, stopping
    /// early once the count reaches `cap`. Subtrees entirely inside the
    /// bound are accepted without per-leaf evaluation via the node upper
    /// bound.
    pub fn count_within(&self, q: usize, bound: f64, cap: usize) -> usize {
        let t = self.oracle.tree();
        let mut count = 0usize;
        let mut stack = vec![t.root];
        let q_leaf = t.leaf_of_site[q];
        while let Some(node) = stack.pop() {
            if count >= cap {
                // A subtree accept can overshoot the cap; clamp like the
                // final return does.
                return count.min(cap);
            }
            let n = &t.nodes[node as usize];
            if n.children.is_empty() {
                let site = n.center as usize;
                if site != q && self.oracle.distance(q, site) < bound {
                    count += 1;
                }
                continue;
            }
            let (_, lo, hi) = self.bounds(q, node);
            if lo >= bound {
                continue;
            }
            if hi < bound && !t.is_ancestor_or_self(node, q_leaf) {
                // Whole subtree strictly inside and cannot contain q.
                count += self.subtree_sites[node as usize] as usize;
                continue;
            }
            stack.extend(n.children.iter().copied());
        }
        count.min(cap)
    }

    /// Reverse k-nearest neighbours: every site `s ≠ q` whose k-NN set
    /// (under `d̃`, ties by site index) contains `q`. The monochromatic
    /// RNN query of \[36\] (§4.1 of the paper) over the POI set.
    ///
    /// For each candidate `s`, `q ∈ kNN(s)` iff fewer than `k` sites beat
    /// `q` in the `(d̃, site)` order, which [`Self::count_within`] decides
    /// with early exit.
    pub fn reverse_knn(&self, q: usize, k: usize) -> Vec<usize> {
        let n = self.oracle.n_sites();
        if k == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for s in 0..n {
            if s == q {
                continue;
            }
            let d_sq = self.oracle.distance(s, q);
            // Sites strictly closer to s than q, plus equal-distance sites
            // with a smaller index (the tie-break order).
            let strictly = self.count_within(s, d_sq, k);
            if strictly >= k {
                continue;
            }
            let ties = (0..n)
                .filter(|&x| x != s && x != q && x < q && self.oracle.distance(s, x) == d_sq)
                .count();
            if strictly + ties < k {
                out.push(s);
            }
        }
        out
    }
}

/// One in-path query result: a POI reachable within the detour budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetourPoi {
    /// Site index of the POI.
    pub site: usize,
    /// Oracle distance `d̃(s, site)` from the route's start.
    pub from_s: f64,
    /// Oracle distance `d̃(site, t)` to the route's end.
    pub to_t: f64,
}

impl DetourPoi {
    /// Total length of the `s → site → t` route through this POI.
    pub fn via(&self) -> f64 {
        self.from_s + self.to_t
    }
}

impl SeOracle {
    /// All POIs worth a detour of at most `delta` on a trip `s → t`: every
    /// site `p ∉ {s, t}` with `d̃(s,p) + d̃(p,t) ≤ d̃(s,t) + delta`, sorted
    /// by `(via-length, site)`.
    ///
    /// The in-path query of §1.1 ("restaurants on the way"), answered
    /// entirely by the oracle metric. Instead of the brute-force dual sweep
    /// (two distance evaluations per site), the compressed partition tree
    /// is pruned branch-and-bound: for a node `O` the module-level lower
    /// bound gives `d̃(q,p) ≥ lo(q, O)` for every `p` below `O`, so the
    /// whole subtree is skipped when `lo(s,O) + lo(t,O)` already exceeds
    /// the budget. Both bounds are conservative, so the result is
    /// *identical* to the brute-force sweep — only cheaper.
    ///
    /// # Panics
    /// Panics if an id is out of range or `delta` is negative or non-finite.
    pub fn pois_within_detour(&self, s: usize, t: usize, delta: f64) -> Vec<DetourPoi> {
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "detour budget must be finite and non-negative, got {delta}"
        );
        let budget = self.distance(s, t) + delta; // validates s and t
        let tree = self.tree();
        let eps = self.epsilon();
        let lo = |q: usize, node: u32| -> f64 {
            let c = tree.nodes[node as usize].center as usize;
            let dc = if c == q { 0.0 } else { self.distance(q, c) };
            let r = tree.enlarged_radius(node);
            (1.0 - eps).max(0.0) * (dc / (1.0 + eps) - r).max(0.0)
        };
        let mut out = Vec::new();
        let mut stack = vec![tree.root];
        while let Some(node) = stack.pop() {
            let n = &tree.nodes[node as usize];
            if n.children.is_empty() {
                let p = n.center as usize;
                if p == s || p == t {
                    continue;
                }
                let from_s = self.distance(s, p);
                if from_s > budget {
                    continue; // via-length can only be larger still
                }
                let to_t = self.distance(p, t);
                if from_s + to_t <= budget {
                    out.push(DetourPoi { site: p, from_s, to_t });
                }
            } else {
                if lo(s, node) + lo(t, node) > budget {
                    continue; // no site below can meet the budget
                }
                stack.extend(n.children.iter().copied());
            }
        }
        out.sort_by(|a, b| a.via().total_cmp(&b.via()).then(a.site.cmp(&b.site)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::BuildConfig;
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::VertexSiteSpace;
    use std::sync::Arc;
    use terrain::gen::diamond_square;
    use terrain::poi::sample_uniform;
    use terrain::refine::insert_surface_points;

    fn oracle(n: usize, seed: u64, eps: f64) -> SeOracle {
        let mesh = diamond_square(4, 0.6, seed).to_mesh();
        let pois = sample_uniform(&mesh, n, seed ^ 0xABC);
        let refined = insert_surface_points(&mesh, &pois, None).unwrap();
        let mut sites = refined.poi_vertices.clone();
        sites.sort_unstable();
        sites.dedup();
        let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites);
        SeOracle::build(&sp, eps, &BuildConfig::default()).unwrap()
    }

    fn brute_knn(o: &SeOracle, q: usize, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = (0..o.n_sites())
            .filter(|&s| s != q)
            .map(|s| Neighbor { site: s, distance: o.distance(q, s) })
            .collect();
        all.sort_by(|a, b| (a.distance, a.site).partial_cmp(&(b.distance, b.site)).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let o = oracle(30, 3, 0.2);
        let idx = ProximityIndex::new(&o);
        for q in 0..o.n_sites() {
            for k in [1usize, 3, 7] {
                assert_eq!(idx.knn(q, k), brute_knn(&o, q, k), "q={q} k={k}");
            }
        }
    }

    #[test]
    fn knn_at_small_eps_matches_brute_force() {
        let o = oracle(20, 5, 0.05);
        let idx = ProximityIndex::new(&o);
        for q in 0..o.n_sites() {
            assert_eq!(idx.knn(q, 5), brute_knn(&o, q, 5), "q={q}");
        }
    }

    fn brute_detour(o: &SeOracle, s: usize, t: usize, delta: f64) -> Vec<DetourPoi> {
        let budget = o.distance(s, t) + delta;
        let mut all: Vec<DetourPoi> = (0..o.n_sites())
            .filter(|&p| p != s && p != t)
            .map(|p| DetourPoi { site: p, from_s: o.distance(s, p), to_t: o.distance(p, t) })
            .filter(|d| d.via() <= budget)
            .collect();
        all.sort_by(|a, b| (a.via(), a.site).partial_cmp(&(b.via(), b.site)).unwrap());
        all
    }

    #[test]
    fn detour_matches_brute_force_dual_sweep() {
        let o = oracle(26, 11, 0.2);
        let diam = (0..o.n_sites())
            .flat_map(|a| (0..o.n_sites()).map(move |b| (a, b)))
            .map(|(a, b)| o.distance(a, b))
            .fold(0.0, f64::max);
        for (s, t) in [(0usize, 1usize), (3, 17), (9, 9), (25, 4)] {
            for delta in [0.0, 0.05 * diam, 0.3 * diam, 2.0 * diam] {
                assert_eq!(
                    o.pois_within_detour(s, t, delta),
                    brute_detour(&o, s, t, delta),
                    "s={s} t={t} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn detour_degenerate_cases() {
        let o = oracle(12, 13, 0.25);
        // Huge budget: everything except the endpoints qualifies.
        let all = o.pois_within_detour(2, 5, f64::MAX / 4.0);
        assert_eq!(all.len(), o.n_sites() - 2);
        assert!(all.iter().all(|d| d.site != 2 && d.site != 5));
        // via() is always within the budget it was admitted under.
        let d_st = o.distance(3, 8);
        for p in o.pois_within_detour(3, 8, 0.1 * d_st) {
            assert!(p.via() <= d_st * 1.1 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn detour_rejects_negative_budget() {
        let o = oracle(8, 17, 0.2);
        o.pois_within_detour(0, 1, -1.0);
    }

    #[test]
    fn knn_edge_cases() {
        let o = oracle(10, 7, 0.25);
        let idx = ProximityIndex::new(&o);
        assert!(idx.knn(0, 0).is_empty());
        // k larger than available sites returns them all.
        let all = idx.knn(0, 100);
        assert_eq!(all.len(), o.n_sites() - 1);
        // nearest == knn(·, 1).
        assert_eq!(idx.nearest(3), idx.knn(3, 1).into_iter().next());
    }

    #[test]
    fn range_matches_brute_force() {
        let o = oracle(25, 9, 0.15);
        let idx = ProximityIndex::new(&o);
        for q in [0usize, 5, 12, 24] {
            let far = brute_knn(&o, q, o.n_sites()).last().unwrap().distance;
            for f in [0.0, 0.3, 0.7, 1.0] {
                let r = far * f;
                let got = idx.range(q, r);
                let want: Vec<Neighbor> = brute_knn(&o, q, o.n_sites())
                    .into_iter()
                    .filter(|nb| nb.distance <= r)
                    .collect();
                assert_eq!(got, want, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn pruning_actually_prunes() {
        // A 1-NN search on a 60-site oracle must not evaluate all leaves.
        let o = oracle(60, 11, 0.2);
        let idx = ProximityIndex::new(&o);
        let (_, stats) = idx.knn_with_stats(0, 1);
        assert!(
            stats.nodes_visited < o.tree().n_nodes() as u64,
            "visited {} of {} nodes",
            stats.nodes_visited,
            o.tree().n_nodes()
        );
    }

    #[test]
    fn count_within_consistent_with_range() {
        let o = oracle(20, 13, 0.2);
        let idx = ProximityIndex::new(&o);
        for q in 0..10 {
            let far = brute_knn(&o, q, o.n_sites()).last().unwrap().distance;
            for f in [0.25, 0.6, 1.1] {
                let bound = far * f;
                let exact =
                    (0..o.n_sites()).filter(|&s| s != q && o.distance(q, s) < bound).count();
                assert_eq!(idx.count_within(q, bound, usize::MAX), exact);
                // Cap is honoured.
                assert_eq!(idx.count_within(q, bound, 2), exact.min(2));
            }
        }
    }

    #[test]
    fn reverse_knn_matches_definition() {
        let o = oracle(18, 17, 0.2);
        let idx = ProximityIndex::new(&o);
        for q in 0..o.n_sites() {
            for k in [1usize, 3] {
                let got = idx.reverse_knn(q, k);
                let want: Vec<usize> = (0..o.n_sites())
                    .filter(|&s| s != q)
                    .filter(|&s| idx.knn(s, k).iter().any(|nb| nb.site == q))
                    .collect();
                assert_eq!(got, want, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn subtree_counts_sum_to_n() {
        let o = oracle(22, 19, 0.25);
        let idx = ProximityIndex::new(&o);
        let t = o.tree();
        assert_eq!(idx.subtree_sites(t.root), 22);
        for (id, node) in t.nodes.iter().enumerate() {
            if !node.children.is_empty() {
                let s: usize = node.children.iter().map(|&c| idx.subtree_sites(c)).sum();
                assert_eq!(s, idx.subtree_sites(id as u32), "node {id}");
            } else {
                assert_eq!(idx.subtree_sites(id as u32), 1);
            }
        }
    }
}
