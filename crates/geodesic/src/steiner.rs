//! Steiner-point graphs `G_ε` over a terrain mesh.
//!
//! The fixed-placement scheme the paper attributes to the baselines [2, 3,
//! 12, 19]: `m` evenly spaced Steiner points are added to every edge, and
//! every pair of boundary nodes of a face that do not lie on the same edge
//! is connected by the face-crossing chord (a straight, on-surface segment).
//! Same-edge nodes are chained with consecutive collinear links, which is
//! exact. Shortest paths on `G_ε` are on-surface paths, hence upper bounds
//! of the geodesic distance, converging to it as `m` grows.
//!
//! This graph is the substrate of the SP-Oracle and K-Algo baselines, of
//! the A2A oracle of Appendix C, and of the fast approximate
//! [`SteinerEngine`].

// lint: query-path
use crate::engine::{GeodesicEngine, SsadResult, SsadStats, Stop};
use crate::heap::IndexedMinHeap;
use std::sync::Arc;
use terrain::geom::Vec3;
use terrain::{EdgeId, FaceId, TerrainMesh, VertexId};

/// Node index in a [`SteinerGraph`]: mesh vertices first (`0..N`), then
/// `m` Steiner nodes per edge.
pub type NodeId = u32;

/// A graph over mesh vertices plus per-edge Steiner points.
#[derive(Debug, Clone)]
pub struct SteinerGraph {
    mesh: Arc<TerrainMesh>,
    /// Steiner points per edge.
    m: usize,
    /// Positions of all nodes (vertices then Steiner points).
    positions: Vec<Vec3>,
    /// CSR adjacency.
    adj_off: Vec<u32>,
    adj_dat: Vec<(NodeId, f64)>,
}

impl SteinerGraph {
    /// Builds the graph with `m` Steiner points per edge (`m ≥ 0`).
    pub fn with_points_per_edge(mesh: Arc<TerrainMesh>, m: usize) -> Self {
        let nv = mesh.n_vertices();
        let ne = mesh.n_edges();
        let n_nodes = nv + ne * m;
        let mut positions = Vec::with_capacity(n_nodes);
        positions.extend_from_slice(mesh.vertices());
        for e in 0..ne as EdgeId {
            let [a, b] = mesh.edge(e).v;
            let pa = mesh.vertex(a);
            let pb = mesh.vertex(b);
            for i in 0..m {
                let t = (i + 1) as f64 / (m + 1) as f64;
                positions.push(pa.lerp(pb, t));
            }
        }

        // Collect undirected arcs, then build CSR with both directions.
        let mut arcs: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let edge_node = |e: EdgeId, i: usize| (nv + (e as usize) * m + i) as NodeId;

        // Along-edge chains (consecutive nodes; collinear partial sums are
        // exact, so longer same-edge hops are unnecessary).
        for e in 0..ne as EdgeId {
            let [a, b] = mesh.edge(e).v;
            let mut chain: Vec<NodeId> = Vec::with_capacity(m + 2);
            chain.push(a);
            for i in 0..m {
                chain.push(edge_node(e, i));
            }
            chain.push(b);
            for pair in chain.windows(2) {
                let w = positions[pair[0] as usize].dist(positions[pair[1] as usize]);
                arcs.push((pair[0], pair[1], w));
            }
        }

        // Face-crossing chords: vertex ↔ opposite-edge nodes and
        // Steiner ↔ Steiner on distinct edges.
        for f in 0..mesh.n_faces() as FaceId {
            let fe = mesh.face_edges(f);
            let fv = mesh.face(f);
            // Vertex to Steiner nodes of the opposite edge.
            for &v in &fv {
                for &e in &fe {
                    let ev = mesh.edge(e).v;
                    if ev[0] == v || ev[1] == v {
                        continue; // same-edge: covered by the chain
                    }
                    for i in 0..m {
                        let n = edge_node(e, i);
                        let w = positions[v as usize].dist(positions[n as usize]);
                        arcs.push((v, n, w));
                    }
                }
            }
            // Steiner-Steiner across distinct edges of the face.
            for ei in 0..3 {
                for ej in ei + 1..3 {
                    for i in 0..m {
                        for j in 0..m {
                            let u = edge_node(fe[ei], i);
                            let v = edge_node(fe[ej], j);
                            let w = positions[u as usize].dist(positions[v as usize]);
                            arcs.push((u, v, w));
                        }
                    }
                }
            }
        }

        // CSR.
        let mut off = vec![0u32; n_nodes + 1];
        for &(a, b, _) in &arcs {
            off[a as usize + 1] += 1;
            off[b as usize + 1] += 1;
        }
        for i in 0..n_nodes {
            off[i + 1] += off[i];
        }
        let mut dat = vec![(0 as NodeId, 0.0f64); off[n_nodes] as usize];
        let mut cursor = off.clone();
        for &(a, b, w) in &arcs {
            dat[cursor[a as usize] as usize] = (b, w);
            cursor[a as usize] += 1;
            dat[cursor[b as usize] as usize] = (a, w);
            cursor[b as usize] += 1;
        }
        Self { mesh, m, positions, adj_off: off, adj_dat: dat }
    }

    /// Number of Steiner points on each edge.
    pub fn points_per_edge(&self) -> usize {
        self.m
    }

    /// Total node count (mesh vertices + Steiner points).
    pub fn n_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Total directed arc count.
    pub fn n_arcs(&self) -> usize {
        self.adj_dat.len()
    }

    /// The underlying terrain mesh.
    pub fn mesh(&self) -> &Arc<TerrainMesh> {
        &self.mesh
    }

    /// Position of node `n` in ambient 3-space.
    pub fn position(&self, n: NodeId) -> Vec3 {
        self.positions[n as usize]
    }

    /// The Steiner node ids lying on edge `e`.
    pub fn edge_nodes(&self, e: EdgeId) -> impl Iterator<Item = NodeId> + '_ {
        let base = self.mesh.n_vertices() + (e as usize) * self.m;
        (base..base + self.m).map(|i| i as NodeId)
    }

    /// All nodes on the boundary of face `f`: its 3 vertices and the
    /// Steiner nodes of its 3 edges.
    pub fn face_nodes(&self, f: FaceId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(3 + 3 * self.m);
        out.extend(self.mesh.face(f));
        for e in self.mesh.face_edges(f) {
            out.extend(self.edge_nodes(e));
        }
        out
    }

    /// Neighbours of a node with edge weights.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.adj_off[n as usize] as usize;
        let hi = self.adj_off[n as usize + 1] as usize;
        self.adj_dat[lo..hi].iter().copied()
    }

    /// Dijkstra from `source` over the Steiner graph.
    ///
    /// `stop` semantics mirror [`GeodesicEngine::ssad`], with targets given
    /// as node ids. Returns dense per-node labels.
    pub fn dijkstra(&self, source: NodeId, stop: GraphStop<'_>) -> GraphResult {
        let n = self.n_nodes();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap = IndexedMinHeap::new();
        heap.reset(n);
        dist[source as usize] = 0.0;
        heap.push_or_decrease(source, 0.0);
        let mut pops = 0u64;

        let mut remaining = 0usize;
        let mut is_target = Vec::new();
        if let GraphStop::Targets(ts) = stop {
            is_target = vec![false; n];
            for &t in ts {
                if !is_target[t as usize] {
                    is_target[t as usize] = true;
                    remaining += 1;
                }
            }
            if is_target[source as usize] {
                remaining -= 1;
            }
        }
        let mut max_target = f64::INFINITY;

        let mut stopped = false;
        // Decrease-key keeps at most one live entry per node, so every pop
        // is a settled node — no stale-entry filter. The relaxation sequence
        // (and therefore every label and the pop count) is identical to the
        // old lazy-deletion binary heap.
        while let Some((key, v)) = heap.pop() {
            pops += 1;
            match stop {
                GraphStop::Radius(r) if key > r => {
                    stopped = true;
                }
                GraphStop::Targets(ts) if remaining == 0 => {
                    if max_target.is_infinite() {
                        max_target = ts.iter().map(|&t| dist[t as usize]).fold(0.0, f64::max);
                    }
                    if key >= max_target {
                        stopped = true;
                    }
                }
                _ => {}
            }
            if stopped {
                break;
            }
            let lo = self.adj_off[v as usize] as usize;
            let hi = self.adj_off[v as usize + 1] as usize;
            for &(u, w) in &self.adj_dat[lo..hi] {
                let nd = key + w;
                if nd < dist[u as usize] {
                    if !is_target.is_empty()
                        && is_target[u as usize]
                        && dist[u as usize].is_infinite()
                    {
                        remaining -= 1;
                    }
                    dist[u as usize] = nd;
                    heap.push_or_decrease(u, nd);
                }
            }
        }
        // Dijkstra never drops relaxations, so a drained queue (no early
        // stop) means every reached label is final, whatever the stop
        // criterion asked for.
        let finalized = if !stopped {
            f64::INFINITY
        } else {
            match stop {
                GraphStop::Radius(r) => r,
                GraphStop::Exhaust => f64::INFINITY,
                GraphStop::Targets(ts) => ts.iter().map(|&t| dist[t as usize]).fold(0.0, f64::max),
            }
        };
        GraphResult { dist, pops, finalized }
    }

    /// Graph distance between two nodes.
    pub fn distance(&self, s: NodeId, t: NodeId) -> f64 {
        if s == t {
            return 0.0;
        }
        self.dijkstra(s, GraphStop::Targets(&[t])).dist[t as usize]
    }

    /// Heap bytes of the graph structure.
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        self.positions.len() * size_of::<Vec3>()
            + self.adj_off.len() * size_of::<u32>()
            + self.adj_dat.len() * size_of::<(NodeId, f64)>()
    }
}

/// The baselines' per-edge Steiner count for an error parameter ε, capped
/// at 24 points per edge.
pub fn points_per_edge_for_epsilon(eps: f64) -> usize {
    assert!(eps > 0.0, "ε must be positive");
    let raw = (1.0 / eps.sqrt()) * (1.0 / eps).ln().max(1.0);
    (raw.ceil() as usize).clamp(1, 24)
}

/// Stop criterion for [`SteinerGraph::dijkstra`] (node-id domain).
#[derive(Debug, Clone, Copy)]
pub enum GraphStop<'a> {
    /// Run until every listed node has a final label.
    Targets(&'a [NodeId]),
    /// Run until every node within graph distance `r` has a final label.
    Radius(f64),
    /// Propagate until exhaustion: all labels final.
    Exhaust,
}

/// Dense result of a Steiner-graph Dijkstra.
#[derive(Debug, Clone)]
pub struct GraphResult {
    /// Graph distance per node (`f64::INFINITY` if unreached).
    pub dist: Vec<f64>,
    /// Queue pops performed.
    pub pops: u64,
    /// Finality horizon: labels `≤ finalized` are final graph distances
    /// (same contract as [`crate::engine::SsadResult::finalized`]).
    pub finalized: f64,
}

/// [`GeodesicEngine`] adapter: approximate geodesics via the Steiner graph.
///
/// Vertex labels are Steiner-graph distances — upper bounds within the
/// graph's approximation factor. Suitable for large-scale oracle sweeps
/// where the exact engine would dominate runtime.
#[derive(Debug, Clone)]
pub struct SteinerEngine {
    graph: SteinerGraph,
}

impl SteinerEngine {
    /// An engine answering vertex queries from `graph`.
    pub fn new(graph: SteinerGraph) -> Self {
        Self { graph }
    }

    /// The underlying Steiner graph.
    pub fn graph(&self) -> &SteinerGraph {
        &self.graph
    }
}

impl GeodesicEngine for SteinerEngine {
    fn name(&self) -> &'static str {
        "steiner-graph"
    }

    fn mesh(&self) -> &TerrainMesh {
        self.graph.mesh()
    }

    fn ssad(&self, source: VertexId, stop: Stop<'_>) -> SsadResult {
        let gstop = match stop {
            // `VertexId` and `NodeId` are both `u32`; mesh vertices keep
            // their ids as graph nodes.
            Stop::Targets(ts) => GraphStop::Targets(ts),
            Stop::Radius(r) => GraphStop::Radius(r),
            Stop::Exhaust => GraphStop::Exhaust,
        };
        let r = self.graph.dijkstra(source as NodeId, gstop);
        let nv = self.graph.mesh().n_vertices();
        let mut dist = r.dist;
        // The graph run's own horizon transfers: targets are vertex ids and
        // survive the truncation below.
        let finalized = r.finalized;
        dist.truncate(nv);
        SsadResult {
            dist,
            finalized,
            stats: SsadStats { events_processed: r.pops, events_created: 0, max_key: 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ich::IchEngine;
    use terrain::gen::{diamond_square, Heightfield};

    #[test]
    fn node_and_arc_counts() {
        let m = Arc::new(Heightfield::flat(3, 3, 1.0, 1.0).to_mesh());
        let ne = m.n_edges();
        let g = SteinerGraph::with_points_per_edge(m.clone(), 2);
        assert_eq!(g.n_nodes(), m.n_vertices() + 2 * ne);
        assert!(g.n_arcs() > 0);
        // m = 0 degenerates to the edge graph.
        let g0 = SteinerGraph::with_points_per_edge(m.clone(), 0);
        assert_eq!(g0.n_nodes(), m.n_vertices());
        assert_eq!(g0.n_arcs(), 2 * ne);
    }

    #[test]
    fn zero_points_equals_edge_graph() {
        use crate::dijkstra::EdgeGraphEngine;
        let mesh = Arc::new(diamond_square(3, 0.6, 5).to_mesh());
        let g = SteinerGraph::with_points_per_edge(mesh.clone(), 0);
        let eg = EdgeGraphEngine::new(mesh.clone());
        let a = g.dijkstra(0, GraphStop::Exhaust);
        let b = eg.ssad(0, Stop::Exhaust);
        for v in 0..mesh.n_vertices() {
            assert!((a.dist[v] - b.dist[v]).abs() < 1e-9, "v{v}");
        }
    }

    #[test]
    fn flat_grid_converges_to_euclidean() {
        let mesh = Arc::new(Heightfield::flat(5, 5, 1.0, 1.0).to_mesh());
        let target = 24usize; // corner (4,4)
        let exact = (32f64).sqrt();
        let mut prev_err = f64::INFINITY;
        for m in [0usize, 1, 3, 6] {
            let g = SteinerGraph::with_points_per_edge(mesh.clone(), m);
            let d = g.dijkstra(0, GraphStop::Exhaust).dist[target];
            let err = d - exact;
            assert!(err >= -1e-9, "graph distance below geodesic at m={m}");
            assert!(err <= prev_err + 1e-12, "error must not grow with m");
            prev_err = err;
        }
        assert!(prev_err < 0.08, "m=6 error too large: {prev_err}");
    }

    #[test]
    fn upper_bounds_exact_geodesic() {
        let mesh = Arc::new(diamond_square(4, 0.6, 77).to_mesh());
        let g = SteinerGraph::with_points_per_edge(mesh.clone(), 3);
        let exact = IchEngine::new(mesh.clone());
        let rg = g.dijkstra(5, GraphStop::Exhaust);
        let re = exact.ssad(5, Stop::Exhaust);
        let mut worst = 0.0f64;
        for v in 0..mesh.n_vertices() {
            assert!(
                rg.dist[v] >= re.dist[v] - 1e-9,
                "v{v}: steiner {} below exact {}",
                rg.dist[v],
                re.dist[v]
            );
            if re.dist[v] > 1e-9 {
                worst = worst.max(rg.dist[v] / re.dist[v]);
            }
        }
        // With m=3 the approximation should be within a few percent.
        assert!(worst < 1.10, "worst ratio {worst}");
    }

    #[test]
    fn engine_adapter_matches_graph() {
        let mesh = Arc::new(diamond_square(3, 0.5, 3).to_mesh());
        let g = SteinerGraph::with_points_per_edge(mesh.clone(), 2);
        let eng = SteinerEngine::new(g.clone());
        let via_engine = eng.ssad(7, Stop::Exhaust);
        let via_graph = g.dijkstra(7, GraphStop::Exhaust);
        for v in 0..mesh.n_vertices() {
            assert_eq!(via_engine.dist[v], via_graph.dist[v]);
        }
        assert_eq!(via_engine.dist.len(), mesh.n_vertices());
    }

    #[test]
    fn face_nodes_complete() {
        let mesh = Arc::new(Heightfield::flat(3, 3, 1.0, 1.0).to_mesh());
        let g = SteinerGraph::with_points_per_edge(mesh.clone(), 2);
        let nodes = g.face_nodes(0);
        assert_eq!(nodes.len(), 3 + 3 * 2);
        // All positions lie on the face plane (flat terrain: z = 0).
        for &n in &nodes {
            assert!(g.position(n).z.abs() < 1e-12);
        }
    }

    #[test]
    fn epsilon_sizing_monotone() {
        let m1 = points_per_edge_for_epsilon(0.25);
        let m2 = points_per_edge_for_epsilon(0.05);
        assert!(m2 >= m1);
        assert!(m1 >= 1);
        assert!(points_per_edge_for_epsilon(1e-9) <= 24);
    }

    #[test]
    fn targets_stop_matches_exhaust() {
        let mesh = Arc::new(diamond_square(3, 0.6, 9).to_mesh());
        let g = SteinerGraph::with_points_per_edge(mesh.clone(), 2);
        let full = g.dijkstra(0, GraphStop::Exhaust);
        let t: NodeId = (mesh.n_vertices() + 5) as NodeId; // a Steiner node
        let part = g.dijkstra(0, GraphStop::Targets(&[t]));
        assert!((part.dist[t as usize] - full.dist[t as usize]).abs() < 1e-12);
    }
}
