//! The compressed partition tree (§3.2, second half).
//!
//! Starting from the original partition tree, every internal node with a
//! single child is contracted (its child re-attaches to its parent) until
//! no such node remains; leaf radii are then set to zero. Nodes keep the
//! layer number they had in the original tree. The result has at most
//! `2n − 1` nodes (Lemma 9) — the key to the oracle's `O(n)`-space
//! "space-efficient" property.

// lint: query-path
use crate::tree::{PartitionTree, NO_NODE};

/// A node of the compressed partition tree.
#[derive(Debug, Clone)]
pub struct CNode {
    /// Site index of the center.
    pub center: u32,
    /// Layer number *in the original partition tree*.
    pub layer: u32,
    /// Parent in the compressed tree (`NO_NODE` for the root).
    pub parent: u32,
    /// Child node ids.
    pub children: Vec<u32>,
    /// Disk radius: `r₀/2^layer` for internal nodes, `0` for leaves.
    pub radius: f64,
}

/// The compressed partition tree `T_compress`.
#[derive(Debug, Clone)]
pub struct CompressedTree {
    /// Nodes, indexed by compressed node id.
    pub nodes: Vec<CNode>,
    /// Root node id.
    pub root: u32,
    /// Root radius of the underlying partition tree.
    pub r0: f64,
    /// Height `h` of the underlying partition tree (layers are `0..=h`).
    pub h: u32,
    /// For each site, its leaf node id.
    pub leaf_of_site: Vec<u32>,
}

impl CompressedTree {
    /// Compresses `T_org`.
    pub fn from_partition_tree(org: &PartitionTree) -> Self {
        let h = org.height();
        let n_sites = org.layers[h as usize].len();

        // Keep the root, all leaves, and every node with ≥ 2 children.
        let keep: Vec<bool> = org
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| {
                node.parent == NO_NODE || node.layer == h || org.nodes[id].children.len() >= 2
            })
            .collect();

        // Map kept original ids to compressed ids.
        let mut cid_of: Vec<u32> = vec![NO_NODE; org.nodes.len()];
        let mut nodes: Vec<CNode> = Vec::new();
        for (id, node) in org.nodes.iter().enumerate() {
            if keep[id] {
                cid_of[id] = nodes.len() as u32;
                let radius = if node.layer == h { 0.0 } else { org.layer_radius(node.layer) };
                nodes.push(CNode {
                    center: node.center,
                    layer: node.layer,
                    parent: NO_NODE,
                    children: Vec::new(),
                    radius,
                });
            }
        }

        // Wire each kept node to its nearest kept ancestor.
        let mut root = NO_NODE;
        for (id, node) in org.nodes.iter().enumerate() {
            if !keep[id] {
                continue;
            }
            let cid = cid_of[id];
            let mut p = node.parent;
            while p != NO_NODE && !keep[p as usize] {
                p = org.nodes[p as usize].parent;
            }
            if p == NO_NODE {
                root = cid;
            } else {
                let pc = cid_of[p as usize];
                nodes[cid as usize].parent = pc;
                nodes[pc as usize].children.push(cid);
            }
        }
        debug_assert_ne!(root, NO_NODE);

        let mut leaf_of_site = vec![NO_NODE; n_sites];
        for &leaf in &org.layers[h as usize] {
            let site = org.nodes[leaf as usize].center as usize;
            leaf_of_site[site] = cid_of[leaf as usize];
        }

        Self { nodes, root, r0: org.r0, h, leaf_of_site }
    }

    /// Number of compressed nodes (`≤ 2n − 1`, Lemma 9).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Radius of the *enlarged* disk of a node (`2·radius`; Distance
    /// property keeps all of the node's representative set inside it).
    pub fn enlarged_radius(&self, node: u32) -> f64 {
        2.0 * self.nodes[node as usize].radius
    }

    /// The path of node ids from `node` up to the root (inclusive).
    pub fn path_to_root(&self, mut node: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.h as usize + 1);
        loop {
            out.push(node);
            let p = self.nodes[node as usize].parent;
            if p == NO_NODE {
                break;
            }
            node = p;
        }
        out
    }

    /// The paper's `A_s` arrays (§3.4) of **all** sites in one flat
    /// row-major buffer (`n_sites × (h + 1)`): entry `i` of row `s` is the
    /// node at layer `i` on the path from `s`'s leaf to the root, or
    /// `NO_NODE` when the compressed path skips layer `i`. One pass over
    /// the tree fills it; [`crate::oracle::SeOracle`] keeps it from build
    /// and load, and every query reads its rows.
    pub fn all_layer_arrays(&self) -> Vec<u32> {
        let h1 = self.h as usize + 1;
        let mut flat = vec![NO_NODE; self.leaf_of_site.len() * h1];
        for (row, &leaf) in flat.chunks_mut(h1).zip(&self.leaf_of_site) {
            let mut node = leaf;
            loop {
                row[self.nodes[node as usize].layer as usize] = node;
                let p = self.nodes[node as usize].parent;
                if p == NO_NODE {
                    break;
                }
                node = p;
            }
        }
        flat
    }

    /// Whether `anc` is `node` or an ancestor of `node`.
    pub fn is_ancestor_or_self(&self, anc: u32, node: u32) -> bool {
        let mut cur = node;
        loop {
            if cur == anc {
                return true;
            }
            let p = self.nodes[cur as usize].parent;
            if p == NO_NODE {
                return false;
            }
            cur = p;
        }
    }

    /// Heap bytes of the compressed tree.
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<CNode>()
            + self.nodes.iter().map(|n| n.children.len() * size_of::<u32>()).sum::<usize>()
            + self.leaf_of_site.len() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SelectionStrategy;
    use geodesic::ich::IchEngine;
    use geodesic::sitespace::VertexSiteSpace;
    use std::sync::Arc;
    use terrain::gen::diamond_square;

    fn build(n_sites: usize, seed: u64) -> (PartitionTree, CompressedTree) {
        let mesh = Arc::new(diamond_square(4, 0.6, seed).to_mesh());
        let nv = mesh.n_vertices();
        let sites: Vec<u32> = (0..n_sites).map(|i| (i * (nv / n_sites)) as u32).collect();
        let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(mesh)), sites);
        let (org, _) = PartitionTree::build(&sp, SelectionStrategy::Random, seed).unwrap();
        let c = CompressedTree::from_partition_tree(&org);
        (org, c)
    }

    #[test]
    fn linear_size_lemma_9() {
        for seed in [1u64, 2, 3] {
            let n = 20;
            let (_, c) = build(n, seed);
            assert!(c.n_nodes() < 2 * n, "{} nodes for {n} sites", c.n_nodes());
            assert!(c.n_nodes() >= n);
        }
    }

    #[test]
    fn no_single_child_internal_nodes() {
        let (_, c) = build(25, 7);
        for (id, node) in c.nodes.iter().enumerate() {
            let is_root = id as u32 == c.root;
            if !node.children.is_empty() && !is_root {
                assert!(node.children.len() >= 2, "node {id} has a single child");
            }
        }
    }

    #[test]
    fn leaves_have_zero_radius_and_cover_all_sites() {
        let (org, c) = build(18, 5);
        let h = org.height();
        for (site, &leaf) in c.leaf_of_site.iter().enumerate() {
            let node = &c.nodes[leaf as usize];
            assert_eq!(node.center as usize, site);
            assert_eq!(node.radius, 0.0);
            assert_eq!(node.layer, h);
            assert!(node.children.is_empty());
        }
    }

    #[test]
    fn layer_numbers_preserved_and_increasing() {
        let (_, c) = build(22, 9);
        for node in &c.nodes {
            if node.parent != NO_NODE {
                assert!(
                    c.nodes[node.parent as usize].layer < node.layer,
                    "parent layer must be strictly higher"
                );
            }
        }
    }

    #[test]
    fn layer_array_matches_path() {
        for seed in [11, 19] {
            let (_, c) = build(16, seed);
            let h1 = c.h as usize + 1;
            let flat = c.all_layer_arrays();
            assert_eq!(flat.len(), 16 * h1);
            for (site, a) in flat.chunks(h1).enumerate() {
                assert_eq!(a[c.h as usize], c.leaf_of_site[site]);
                assert_eq!(a[c.nodes[c.root as usize].layer as usize], c.root);
                // The layer array read in ascending layer order is the
                // root-to-leaf path.
                let on_path: Vec<u32> = a.iter().copied().filter(|&x| x != NO_NODE).collect();
                let mut path = c.path_to_root(c.leaf_of_site[site]);
                path.reverse(); // leaf→root becomes root→leaf
                assert_eq!(path, on_path, "seed {seed} site {site}");
            }
        }
    }

    #[test]
    fn ancestor_predicate() {
        let (_, c) = build(14, 13);
        for site in 0..14 {
            let leaf = c.leaf_of_site[site];
            assert!(c.is_ancestor_or_self(c.root, leaf));
            assert!(c.is_ancestor_or_self(leaf, leaf));
            if leaf != c.root {
                assert!(!c.is_ancestor_or_self(leaf, c.root));
            }
        }
    }

    #[test]
    fn representative_sets_partition_sites() {
        // The leaves below each child of a node partition the leaves below
        // the node itself.
        let (_, c) = build(20, 17);
        fn leaves_below(c: &CompressedTree, node: u32) -> Vec<u32> {
            let mut out = Vec::new();
            let mut stack = vec![node];
            while let Some(x) = stack.pop() {
                let n = &c.nodes[x as usize];
                if n.children.is_empty() {
                    out.push(n.center);
                } else {
                    stack.extend(n.children.iter().copied());
                }
            }
            out.sort_unstable();
            out
        }
        let all = leaves_below(&c, c.root);
        assert_eq!(all.len(), 20);
        let root_children = c.nodes[c.root as usize].children.clone();
        let mut merged: Vec<u32> =
            root_children.iter().flat_map(|&ch| leaves_below(&c, ch)).collect();
        merged.extend(root_children.is_empty().then_some(c.nodes[c.root as usize].center));
        merged.sort_unstable();
        assert_eq!(all, merged);
    }
}
