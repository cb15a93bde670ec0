//! The node pair set (§3.3): a well-separated pair decomposition over the
//! compressed partition tree.
//!
//! Two nodes are *well-separated* when the geodesic distance between their
//! centers is at least `(2/ε + 2) · max` of their **enlarged** disk radii
//! (`2·r`, zero for leaves). Starting from `⟨root, root⟩`, every
//! non-well-separated pair is split at its larger-radius node (ties by
//! smaller node id) until all pairs are well-separated. Theorem 1 proves
//! the resulting set has the *unique node pair match property* — for any
//! two POIs exactly one pair contains them — and that the distance
//! associated with the pair ε-approximates theirs.
//!
//! Geodesic distance is symmetric, so the set is generated *unordered*:
//! each pair `{O, O'}` is emitted once. A diagonal pair `⟨O, O⟩` (the
//! root, then each child paired with itself) splits straight into its
//! child pairs `⟨cᵢ, cⱼ⟩` with `i ≤ j`; the two subtrees of an off-diagonal
//! pair are disjoint, so every pair below it is generated in one
//! orientation. The split rule (larger radius, ties by smaller id) does not
//! depend on orientation, so with a symmetric resolver this is exactly the
//! ordered set of the paper with each mirror `⟨O', O⟩` of `⟨O, O'⟩` left
//! out. (The enhanced-edge resolver is symmetric bit for bit; the naive
//! one's per-source SSADs are not, and each pair is now resolved once.)

use crate::ctree::CompressedTree;

/// Resolves geodesic distances between node centers during generation.
///
/// The efficient construction answers from the enhanced-edge hash in
/// `O(h)`; the naive construction runs one SSAD per call (§3.5).
pub trait PairDistanceResolver {
    /// Geodesic distance between sites `a` and `b` (center site indices).
    fn resolve(&mut self, a: usize, b: usize) -> f64;
}

/// One entry of the node pair set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePair {
    /// Compressed-tree node ids. The pair is unordered: `⟨a, b⟩` also
    /// answers `⟨b, a⟩`, whose mirror entry is never generated (key it
    /// with the symmetric `phash::pair_key`).
    pub a: u32,
    /// Second compressed-tree node id of the pair.
    pub b: u32,
    /// Geodesic distance between the centers.
    pub dist: f64,
}

/// Result of node-pair-set generation.
#[derive(Debug, Clone)]
pub struct NodePairSet {
    /// The well-separated pairs with their center distances.
    pub pairs: Vec<NodePair>,
    /// Unordered pairs examined by the splitting procedure (Theorem 2
    /// bounds this by `O(nh/ε^{2β})`).
    pub considered: u64,
    /// Distance-resolver invocations.
    pub resolver_calls: u64,
}

/// Generates the node pair set for separation parameter ε.
pub fn generate(
    ctree: &CompressedTree,
    eps: f64,
    resolver: &mut dyn PairDistanceResolver,
) -> NodePairSet {
    assert!(eps > 0.0, "ε must be positive");
    let sep = 2.0 / eps + 2.0;
    let mut out = Vec::new();
    let mut considered = 0u64;
    let mut resolver_calls = 0u64;

    // Geodesic distance between two nodes' centers; a shared center is 0
    // without a resolver call.
    let mut center_dist = |x: u32, y: u32| {
        let (cx, cy) = (ctree.nodes[x as usize].center, ctree.nodes[y as usize].center);
        if cx == cy {
            0.0
        } else {
            resolver_calls += 1;
            resolver.resolve(cx as usize, cy as usize)
        }
    };

    // (node a, node b, center distance).
    let mut stack: Vec<(u32, u32, f64)> = vec![(ctree.root, ctree.root, 0.0)];

    while let Some((a, b, d)) = stack.pop() {
        considered += 1;
        let children = &ctree.nodes[a as usize].children;
        if a == b && !children.is_empty() {
            // ⟨O, O⟩ above the leaves is never well-separated (d = 0 < a
            // positive radius): split both sides at once, one orientation
            // per child pair.
            for (i, &ci) in children.iter().enumerate() {
                for &cj in &children[i..] {
                    stack.push((ci, cj, center_dist(ci, cj)));
                }
            }
            continue;
        }
        let ra = ctree.enlarged_radius(a);
        let rb = ctree.enlarged_radius(b);
        if d >= sep * ra.max(rb) {
            out.push(NodePair { a, b, dist: d });
            continue;
        }
        // Split the node with the larger radius; ties by smaller node id.
        // (Enlarged radii order identically to radii.)
        let split_a = match ra.total_cmp(&rb) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => a <= b,
        };
        debug_assert!(
            !ctree.nodes[if split_a { a } else { b } as usize].children.is_empty(),
            "splitting a leaf: pair ({a},{b}) at distance {d} with radii ({ra},{rb}) \
             should have been well-separated"
        );
        if split_a {
            for &child in &ctree.nodes[a as usize].children {
                stack.push((child, b, center_dist(child, b)));
            }
        } else {
            for &child in &ctree.nodes[b as usize].children {
                stack.push((a, child, center_dist(a, child)));
            }
        }
    }

    NodePairSet { pairs: out, considered, resolver_calls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctree::CompressedTree;
    use crate::tree::{PartitionTree, SelectionStrategy};
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::{SiteSpace, VertexSiteSpace};
    use std::sync::Arc;
    use terrain::gen::diamond_square;

    struct DirectResolver<'a> {
        space: &'a dyn SiteSpace,
        cache: std::collections::HashMap<(usize, usize), f64>,
    }

    impl PairDistanceResolver for DirectResolver<'_> {
        fn resolve(&mut self, a: usize, b: usize) -> f64 {
            let key = (a.min(b), a.max(b));
            *self.cache.entry(key).or_insert_with(|| self.space.distance(key.0, key.1))
        }
    }

    fn setup(n: usize, seed: u64) -> (VertexSiteSpace, CompressedTree) {
        let mesh = Arc::new(diamond_square(4, 0.6, seed).to_mesh());
        let nv = mesh.n_vertices();
        let sites: Vec<u32> = (0..n).map(|i| (i * (nv / n)) as u32).collect();
        let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(mesh)), sites);
        let (org, _) = PartitionTree::build(&sp, SelectionStrategy::Random, seed).unwrap();
        let c = CompressedTree::from_partition_tree(&org);
        (sp, c)
    }

    fn pairs_for(sp: &VertexSiteSpace, c: &CompressedTree, eps: f64) -> NodePairSet {
        let mut r = DirectResolver { space: sp, cache: Default::default() };
        generate(c, eps, &mut r)
    }

    #[test]
    fn all_pairs_well_separated() {
        let (sp, c) = setup(15, 3);
        let eps = 0.3;
        let set = pairs_for(&sp, &c, eps);
        let sep = 2.0 / eps + 2.0;
        for p in &set.pairs {
            let bound = sep * c.enlarged_radius(p.a).max(c.enlarged_radius(p.b));
            assert!(p.dist >= bound - 1e-9, "pair ({}, {}) not separated", p.a, p.b);
        }
    }

    /// Whether stored pair `p` contains sites with leaves `ls` and `lt`,
    /// in either orientation.
    fn covers(c: &CompressedTree, p: &NodePair, ls: u32, lt: u32) -> bool {
        let within = |x: u32, y: u32| c.is_ancestor_or_self(x, ls) && c.is_ancestor_or_self(y, lt);
        within(p.a, p.b) || within(p.b, p.a)
    }

    #[test]
    fn unique_pair_match_property() {
        // Theorem 1: for every ordered site pair exactly one node pair
        // contains it, in either orientation.
        let (sp, c) = setup(12, 5);
        let set = pairs_for(&sp, &c, 0.4);
        let n = 12;
        for s in 0..n {
            for t in 0..n {
                let (ls, lt) = (c.leaf_of_site[s], c.leaf_of_site[t]);
                let matching = set.pairs.iter().filter(|p| covers(&c, p, ls, lt)).count();
                assert_eq!(matching, 1, "sites ({s},{t}) matched {matching} pairs");
            }
        }
    }

    #[test]
    fn pair_distance_is_eps_approximation() {
        let (sp, c) = setup(10, 7);
        let eps = 0.25;
        let set = pairs_for(&sp, &c, eps);
        let n = 10;
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                let (ls, lt) = (c.leaf_of_site[s], c.leaf_of_site[t]);
                let p = set.pairs.iter().find(|p| covers(&c, p, ls, lt)).unwrap();
                let exact = sp.distance(s, t);
                assert!(
                    (p.dist - exact).abs() <= eps * exact + 1e-9,
                    "sites ({s},{t}): pair dist {} vs exact {exact} (ε = {eps})",
                    p.dist
                );
            }
        }
    }

    #[test]
    fn no_mirror_is_stored() {
        let (sp, c) = setup(12, 9);
        let set = pairs_for(&sp, &c, 0.5);
        for p in set.pairs.iter().filter(|p| p.a != p.b) {
            assert!(
                !set.pairs.iter().any(|q| q.a == p.b && q.b == p.a),
                "({}, {}) is stored with its mirror",
                p.a,
                p.b
            );
        }
    }

    #[test]
    fn no_duplicate_pairs() {
        let (sp, c) = setup(14, 11);
        let set = pairs_for(&sp, &c, 0.3);
        let mut keys: Vec<(u32, u32)> = set.pairs.iter().map(|p| (p.a, p.b)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn smaller_eps_means_more_pairs() {
        let (sp, c) = setup(15, 13);
        let loose = pairs_for(&sp, &c, 0.5).pairs.len();
        let tight = pairs_for(&sp, &c, 0.05).pairs.len();
        assert!(tight >= loose, "tight {tight} < loose {loose}");
    }

    #[test]
    fn self_pairs_exist_for_every_site() {
        // Query s == t must resolve: pair (leaf, leaf) with distance 0.
        let (sp, c) = setup(10, 17);
        let set = pairs_for(&sp, &c, 0.2);
        for s in 0..10 {
            let leaf = c.leaf_of_site[s];
            let found = set.pairs.iter().any(|p| p.a == leaf && p.b == leaf && p.dist == 0.0);
            assert!(found, "no self pair for site {s}");
        }
    }

    #[test]
    fn considered_counts_scale_with_eps() {
        let (sp, c) = setup(15, 19);
        let loose = pairs_for(&sp, &c, 0.5);
        let tight = pairs_for(&sp, &c, 0.05);
        assert!(tight.considered >= loose.considered);
        assert!(loose.considered >= loose.pairs.len() as u64);
    }
}
