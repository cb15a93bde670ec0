//! Enhanced edges (§3.5): the pre-computation that makes SE construction
//! efficient.
//!
//! For every node `O` of the *original* partition tree, one bounded SSAD to
//! radius `l·r_O`, `l = 8/ε + 10`, records the geodesic distances to all
//! same-layer node centers inside that disk. Lemma 4 guarantees that every
//! node pair the WSPD generation considers has a same-layer *enhanced node
//! pair* with identical centers, so its distance is answered by an `O(h)`
//! joint walk up the two leaf-to-root paths — replacing one SSAD per
//! considered pair (the naive method) with one SSAD per tree node.

// lint: query-path
use crate::tree::PartitionTree;
use crate::wspd::PairDistanceResolver;
use geodesic::sitespace::SiteSpace;
use phash::{pair_key, PairTable};
use std::collections::BTreeMap;

/// The enhanced-edge index.
pub struct EnhancedEdges {
    /// `pair_key(node_a, node_b)` → center distance, over original-tree
    /// node ids. (Enhanced pairs are symmetric: same layer, same radius.)
    table: PairTable,
    /// Bounded SSAD requests issued (one per worked node). A caching space
    /// serves repeated centers from memory, so engine runs can be fewer —
    /// see `BuildStats::{cache_hits, cache_misses}`.
    pub ssad_runs: u64,
    /// Number of stored edges.
    pub n_edges: usize,
}

impl EnhancedEdges {
    /// Builds all enhanced edges. The per-node SSAD runs are distributed
    /// over `threads` pool workers (`0` = auto-detect); the result is
    /// identical for every thread count.
    pub fn build(org: &PartitionTree, space: &dyn SiteSpace, eps: f64, threads: usize) -> Self {
        assert!(eps > 0.0, "ε must be positive");
        let l = 8.0 / eps + 10.0;

        // Same-layer center → node lookup.
        // center_node[layer] : site → node id.
        let center_node: Vec<BTreeMap<u32, u32>> = org
            .layers
            .iter()
            .map(|layer| layer.iter().map(|&nid| (org.nodes[nid as usize].center, nid)).collect())
            .collect();

        // Work items: every node in a layer with at least two nodes (a
        // single-node layer has no same-layer partners), grouped by center
        // in top-down layer order. One worker owns all of a center's nodes,
        // so with a caching space the first (widest) SSAD of the group
        // serves every deeper repeat without cross-worker duplication.
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut group_of_center: BTreeMap<u32, usize> = BTreeMap::new();
        let mut n_work = 0u64;
        for layer in org.layers.iter().filter(|layer| layer.len() >= 2) {
            for &nid in layer {
                let center = org.nodes[nid as usize].center;
                let g = *group_of_center.entry(center).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(nid);
                n_work += 1;
            }
        }

        let process = |nid: u32| -> Vec<(u64, f64)> {
            let node = &org.nodes[nid as usize];
            let radius = l * org.layer_radius(node.layer);
            let near = space.sites_within(node.center as usize, radius);
            let lookup = &center_node[node.layer as usize];
            let mut out = Vec::new();
            for (site, d) in near {
                if let Some(&other) = lookup.get(&(site as u32)) {
                    // Keep one direction; inclusive at the `l·r_O` boundary,
                    // matching `SiteSpace::sites_within` — a pair sitting
                    // exactly on the disk boundary is stored, not pushed to
                    // the resolver's SSAD fallback.
                    if other > nid && d <= radius {
                        out.push((pair_key(nid, other), d));
                    }
                }
            }
            out
        };

        // Dynamic work queue over the per-center groups; results come back
        // in group order, so the entry list is independent of thread count.
        // Once a group finishes, nothing queries its center again — release
        // its (wide, `l·r`-sized) cached sweep so peak memory tracks the
        // number of in-flight workers, not the whole tree. (A sweep whose
        // engine run turned out exhaustive is kept: it is one dense array's
        // worth of memory and keeps answering point queries — see
        // `CachingSiteSpace::release`.)
        let mut entries: Vec<(u64, f64)> =
            geodesic::pool::run_indexed(threads, groups.len(), |g| {
                let out = groups[g].iter().flat_map(|&nid| process(nid)).collect::<Vec<_>>();
                space.release(org.nodes[groups[g][0] as usize].center as usize);
                out
            })
            .into_iter()
            .flatten()
            .collect();

        // A pair (O, O') can be discovered from both endpoints' SSADs (we
        // filter to `other > nid`, so only from O's run — but duplicate
        // *sites* at equal distance cannot occur). Deduplicate defensively.
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.dedup_by_key(|&mut (k, _)| k);

        let n_edges = entries.len();
        Self { table: PairTable::new(org.nodes.len(), entries), ssad_runs: n_work, n_edges }
    }

    /// Looks up the distance of the enhanced edge between two original-tree
    /// nodes.
    pub fn get(&self, node_a: u32, node_b: u32) -> Option<f64> {
        self.table.get(node_a, node_b)
    }

    /// Heap bytes of the index (construction-time only; dropped after the
    /// node pair set is built).
    pub fn storage_bytes(&self) -> usize {
        self.table.storage_bytes()
    }
}

/// The efficient construction's distance resolver: enhanced-edge walk with
/// an SSAD fallback for (floating-point-boundary) misses.
pub struct EnhancedResolver<'a> {
    org: &'a PartitionTree,
    edges: &'a EnhancedEdges,
    space: &'a dyn SiteSpace,
    /// Resolves answered by the enhanced-edge walk.
    pub hits: u64,
    /// Resolves that fell back to a direct SSAD (expected: none; counted to
    /// surface numerical-boundary anomalies).
    pub fallbacks: u64,
}

impl<'a> EnhancedResolver<'a> {
    /// A resolver walking `edges` over `org`, falling back to `space`.
    pub fn new(org: &'a PartitionTree, edges: &'a EnhancedEdges, space: &'a dyn SiteSpace) -> Self {
        Self { org, edges, space, hits: 0, fallbacks: 0 }
    }
}

impl PairDistanceResolver for EnhancedResolver<'_> {
    fn resolve(&mut self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        // Walk both ancestor chains bottom-up while the ancestors are still
        // centered at `a` / `b` (centers persist downward from the layer a
        // site is first selected, so the match window is a suffix of
        // layers).
        let h = self.org.height();
        for layer in (0..=h).rev() {
            let na = self.org.ancestor(a, layer);
            let nb = self.org.ancestor(b, layer);
            if self.org.nodes[na as usize].center as usize != a
                || self.org.nodes[nb as usize].center as usize != b
            {
                break;
            }
            if let Some(d) = self.edges.get(na, nb) {
                self.hits += 1;
                return d;
            }
        }
        // Lemma 4 guarantees a hit under exact arithmetic; a miss here means
        // a distance sat exactly on the l·r boundary. Answer exactly instead
        // of failing.
        self.fallbacks += 1;
        self.space.distance(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctree::CompressedTree;
    use crate::tree::{PNode, SelectionStrategy};
    use crate::wspd;
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::VertexSiteSpace;
    use std::sync::Arc;
    use terrain::gen::diamond_square;

    fn setup(n: usize, seed: u64) -> (VertexSiteSpace, PartitionTree) {
        let mesh = Arc::new(diamond_square(4, 0.6, seed).to_mesh());
        let nv = mesh.n_vertices();
        let sites: Vec<u32> = (0..n).map(|i| (i * (nv / n)) as u32).collect();
        let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(mesh)), sites);
        let (org, _) = PartitionTree::build(&sp, SelectionStrategy::Random, seed).unwrap();
        (sp, org)
    }

    #[test]
    fn edges_store_exact_distances() {
        let (sp, org) = setup(12, 3);
        let eps = 0.25;
        let edges = EnhancedEdges::build(&org, &sp, eps, 1);
        assert!(edges.n_edges > 0);
        // Root layer skipped.
        assert_eq!(edges.ssad_runs as usize, org.nodes.len() - 1);
        // Spot-check each stored edge against a direct computation.
        let l = 8.0 / eps + 10.0;
        let mut checked = 0;
        for a in 0..org.nodes.len() as u32 {
            for b in a + 1..org.nodes.len() as u32 {
                if let Some(d) = edges.get(a, b) {
                    let (na, nb) = (&org.nodes[a as usize], &org.nodes[b as usize]);
                    assert_eq!(na.layer, nb.layer, "enhanced pair crosses layers");
                    let exact = sp.distance(na.center as usize, nb.center as usize);
                    assert!((d - exact).abs() < 1e-9, "edge ({a},{b}): {d} vs {exact}");
                    assert!(d < l * org.layer_radius(na.layer) + 1e-9);
                    checked += 1;
                    if checked > 40 {
                        return;
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (sp, org) = setup(14, 5);
        let serial = EnhancedEdges::build(&org, &sp, 0.3, 1);
        let parallel = EnhancedEdges::build(&org, &sp, 0.3, 4);
        assert_eq!(serial.n_edges, parallel.n_edges);
        for a in 0..org.nodes.len() as u32 {
            for b in a + 1..org.nodes.len() as u32 {
                assert_eq!(serial.get(a, b).is_some(), parallel.get(a, b).is_some());
                if let (Some(x), Some(y)) = (serial.get(a, b), parallel.get(a, b)) {
                    assert_eq!(x, y);
                }
            }
        }
    }

    #[test]
    fn resolver_matches_direct_distances_in_wspd() {
        // Generate the node pair set with the enhanced resolver and with
        // direct SSAD; distances must agree (Lemma 4).
        let (sp, org) = setup(12, 11);
        let eps = 0.3;
        let ctree = CompressedTree::from_partition_tree(&org);
        let edges = EnhancedEdges::build(&org, &sp, eps, 1);

        struct Direct<'a>(&'a dyn SiteSpace);
        impl PairDistanceResolver for Direct<'_> {
            fn resolve(&mut self, a: usize, b: usize) -> f64 {
                self.0.distance(a, b)
            }
        }
        let mut direct = Direct(&sp);
        let set_direct = wspd::generate(&ctree, eps, &mut direct);

        let mut enh = EnhancedResolver::new(&org, &edges, &sp);
        let set_enh = wspd::generate(&ctree, eps, &mut enh);

        assert_eq!(set_direct.pairs.len(), set_enh.pairs.len());
        for (p, q) in set_direct.pairs.iter().zip(&set_enh.pairs) {
            assert_eq!((p.a, p.b), (q.a, q.b));
            assert!(
                (p.dist - q.dist).abs() < 1e-9,
                "pair ({}, {}): direct {} vs enhanced {}",
                p.a,
                p.b,
                p.dist,
                q.dist
            );
        }
        assert_eq!(enh.fallbacks, 0, "Lemma 4 walk should never miss");
        assert!(enh.hits > 0);
    }

    /// A toy metric space with a hand-set distance matrix — lets tests
    /// place site pairs at *exactly* representable distances.
    struct MatrixSpace {
        d: Vec<Vec<f64>>,
    }

    impl SiteSpace for MatrixSpace {
        fn n_sites(&self) -> usize {
            self.d.len()
        }
        fn site_position(&self, site: usize) -> terrain::geom::Vec3 {
            terrain::geom::Vec3 { x: site as f64, y: 0.0, z: 0.0 }
        }
        fn sites_within(&self, site: usize, radius: f64) -> Vec<(usize, f64)> {
            self.d[site].iter().copied().enumerate().filter(|&(_, d)| d <= radius).collect()
        }
        fn all_distances(&self, site: usize) -> Vec<f64> {
            self.d[site].clone()
        }
        fn distance(&self, a: usize, b: usize) -> f64 {
            self.d[a][b]
        }
    }

    #[test]
    fn boundary_distance_pair_is_stored_not_fallback() {
        // Regression: a same-layer pair at distance *exactly* `l·r_O` used
        // to be dropped (`d < radius`) even though `sites_within` had
        // returned it (`d <= radius`), silently forcing a resolver-fallback
        // SSAD. Fixture: ε = 0.5 → l = 26 (exact in f64); a two-node layer
        // of radius 0.5 → enhanced radius 13.0; the two centers sit at
        // distance exactly 13.0. All values are binary fractions, so the
        // boundary equality is exact, not approximate.
        let eps = 0.5;
        let l = 8.0 / eps + 10.0;
        assert_eq!(l, 26.0);
        let r0 = 1.0; // layer-1 radius 0.5 → enhanced radius l·0.5 = 13.0
        let d01 = 13.0;
        let sp = MatrixSpace { d: vec![vec![0.0, d01], vec![d01, 0.0]] };
        let org = PartitionTree::from_parts(
            vec![
                PNode { center: 0, layer: 0, parent: crate::tree::NO_NODE, children: vec![1, 2] },
                PNode { center: 0, layer: 1, parent: 0, children: vec![] },
                PNode { center: 1, layer: 1, parent: 0, children: vec![] },
            ],
            vec![vec![0], vec![1, 2]],
            r0,
        );
        let edges = EnhancedEdges::build(&org, &sp, eps, 1);
        assert_eq!(
            edges.get(1, 2),
            Some(d01),
            "boundary-distance pair must be stored as an enhanced edge"
        );
        assert_eq!(edges.n_edges, 1);

        // And the resolver answers it from the table, not via fallback.
        let mut r = EnhancedResolver::new(&org, &edges, &sp);
        assert_eq!(r.resolve(0, 1), d01);
        assert_eq!(r.fallbacks, 0, "exact-boundary pair must not fall back to an SSAD");
        assert_eq!(r.hits, 1);
    }

    #[test]
    fn threads_zero_is_auto_and_identical() {
        let (sp, org) = setup(10, 7);
        let auto = EnhancedEdges::build(&org, &sp, 0.3, 0);
        let serial = EnhancedEdges::build(&org, &sp, 0.3, 1);
        assert_eq!(auto.n_edges, serial.n_edges);
        for a in 0..org.nodes.len() as u32 {
            for b in a + 1..org.nodes.len() as u32 {
                assert_eq!(auto.get(a, b), serial.get(a, b));
            }
        }
    }

    #[test]
    fn resolver_zero_for_same_site() {
        let (sp, org) = setup(8, 13);
        let edges = EnhancedEdges::build(&org, &sp, 0.5, 1);
        let mut r = EnhancedResolver::new(&org, &edges, &sp);
        assert_eq!(r.resolve(3, 3), 0.0);
    }
}
