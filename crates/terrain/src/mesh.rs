//! The triangulated-irregular-network (TIN) terrain mesh.
//!
//! A [`TerrainMesh`] is an indexed triangle mesh with full adjacency
//! (edge ↔ face ↔ vertex), validated on construction: manifold edges,
//! consistent face orientation, no degenerate faces, single connected
//! component. These are exactly the assumptions the geodesic algorithms
//! (continuous Dijkstra) and the paper's SSAD subroutine rely on.

use crate::geom::{triangle_angle, triangle_area, Vec3};
use std::collections::BTreeMap;
use std::fmt;

/// Index of a vertex in [`TerrainMesh::vertices`].
pub type VertexId = u32;
/// Index of a face in [`TerrainMesh::faces`].
pub type FaceId = u32;
/// Index of an undirected edge.
pub type EdgeId = u32;

/// Sentinel for "no face" on boundary edges.
pub const NO_FACE: FaceId = u32::MAX;

/// An undirected mesh edge with its (at most two) incident faces.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Endpoints with `v[0] < v[1]`.
    pub v: [VertexId; 2],
    /// Incident faces; `faces[1] == NO_FACE` for boundary edges.
    pub faces: [FaceId; 2],
}

impl Edge {
    /// Whether this edge lies on the mesh boundary.
    #[inline]
    pub fn is_boundary(&self) -> bool {
        self.faces[1] == NO_FACE
    }
}

/// Errors detected while building a mesh.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshError {
    /// Fewer than one face or three vertices.
    Empty,
    /// A face references a vertex index `>= vertex count`.
    IndexOutOfBounds { face: usize, index: u32 },
    /// A face repeats a vertex or has (near-)zero area.
    DegenerateFace { face: usize },
    /// More than two faces share an edge.
    NonManifoldEdge { v: [VertexId; 2] },
    /// Two faces traverse a shared edge in the same direction.
    InconsistentOrientation { v: [VertexId; 2] },
    /// The face graph has more than one connected component.
    Disconnected { components: usize },
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::Empty => write!(f, "mesh has no faces or fewer than 3 vertices"),
            MeshError::IndexOutOfBounds { face, index } => {
                write!(f, "face {face} references out-of-bounds vertex {index}")
            }
            MeshError::DegenerateFace { face } => write!(f, "face {face} is degenerate"),
            MeshError::NonManifoldEdge { v } => {
                write!(f, "edge ({}, {}) has more than two incident faces", v[0], v[1])
            }
            MeshError::InconsistentOrientation { v } => {
                write!(f, "faces around edge ({}, {}) are inconsistently oriented", v[0], v[1])
            }
            MeshError::Disconnected { components } => {
                write!(f, "mesh has {components} connected components (expected 1)")
            }
        }
    }
}

impl std::error::Error for MeshError {}

/// Aggregate statistics of a mesh (Table 2 of the paper reports these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshStats {
    pub n_vertices: usize,
    pub n_edges: usize,
    pub n_faces: usize,
    /// Total surface area.
    pub total_area: f64,
    /// Axis-aligned bounding box (min, max).
    pub bbox: (Vec3, Vec3),
    pub mean_edge_len: f64,
    pub min_edge_len: f64,
    pub max_edge_len: f64,
    /// Minimum inner angle over all faces (the paper's θ).
    pub min_inner_angle: f64,
}

/// A validated triangulated terrain surface with adjacency.
#[derive(Debug, Clone)]
pub struct TerrainMesh {
    vertices: Vec<Vec3>,
    faces: Vec<[VertexId; 3]>,
    edges: Vec<Edge>,
    /// `face_edges[f][i]` is the edge between `faces[f][i]` and
    /// `faces[f][(i + 1) % 3]`.
    face_edges: Vec<[EdgeId; 3]>,
    edge_len: Vec<f64>,
    /// CSR adjacency vertex → incident faces.
    v_face_off: Vec<u32>,
    v_face_dat: Vec<FaceId>,
    /// CSR adjacency vertex → incident edges.
    v_edge_off: Vec<u32>,
    v_edge_dat: Vec<EdgeId>,
    /// Sum of incident face angles per vertex (saddle detection).
    angle_sum: Vec<f64>,
    boundary_vertex: Vec<bool>,
    edge_map: BTreeMap<(VertexId, VertexId), EdgeId>,
}

impl TerrainMesh {
    /// Builds and validates a mesh from raw vertex positions and faces.
    pub fn new(vertices: Vec<Vec3>, faces: Vec<[VertexId; 3]>) -> Result<Self, MeshError> {
        if faces.is_empty() || vertices.len() < 3 {
            return Err(MeshError::Empty);
        }
        let nv = vertices.len() as u32;
        for (fi, f) in faces.iter().enumerate() {
            for &v in f {
                if v >= nv {
                    return Err(MeshError::IndexOutOfBounds { face: fi, index: v });
                }
            }
            if f[0] == f[1] || f[1] == f[2] || f[0] == f[2] {
                return Err(MeshError::DegenerateFace { face: fi });
            }
            let area = triangle_area(
                vertices[f[0] as usize],
                vertices[f[1] as usize],
                vertices[f[2] as usize],
            );
            if !(area.is_finite() && area > 1e-30) {
                return Err(MeshError::DegenerateFace { face: fi });
            }
        }

        // Edge table. Track traversal direction per incident face for the
        // orientation check: in a consistently oriented manifold every
        // interior edge is traversed once in each direction.
        let mut edge_map: BTreeMap<(VertexId, VertexId), EdgeId> = BTreeMap::new();
        let mut edges: Vec<Edge> = Vec::with_capacity(faces.len() * 3 / 2);
        let mut edge_dirs: Vec<[bool; 2]> = Vec::new(); // true = traversed as (v0 → v1)
        let mut face_edges: Vec<[EdgeId; 3]> = vec![[0; 3]; faces.len()];
        for (fi, f) in faces.iter().enumerate() {
            for i in 0..3 {
                let a = f[i];
                let b = f[(i + 1) % 3];
                let key = (a.min(b), a.max(b));
                let forward = a == key.0;
                match edge_map.get(&key) {
                    None => {
                        let id = edges.len() as EdgeId;
                        edge_map.insert(key, id);
                        edges.push(Edge { v: [key.0, key.1], faces: [fi as FaceId, NO_FACE] });
                        edge_dirs.push([forward, false]);
                        face_edges[fi][i] = id;
                    }
                    Some(&id) => {
                        let e = &mut edges[id as usize];
                        if e.faces[1] != NO_FACE {
                            return Err(MeshError::NonManifoldEdge { v: e.v });
                        }
                        if edge_dirs[id as usize][0] == forward {
                            return Err(MeshError::InconsistentOrientation { v: e.v });
                        }
                        e.faces[1] = fi as FaceId;
                        edge_dirs[id as usize][1] = forward;
                        face_edges[fi][i] = id;
                    }
                }
            }
        }

        // Connectivity over the face graph.
        let components = count_components(faces.len(), &edges);
        if components != 1 {
            return Err(MeshError::Disconnected { components });
        }

        let edge_len: Vec<f64> = edges
            .iter()
            .map(|e| vertices[e.v[0] as usize].dist(vertices[e.v[1] as usize]))
            .collect();

        // CSR vertex → faces.
        let (v_face_off, v_face_dat) = build_csr(
            vertices.len(),
            faces
                .iter()
                .enumerate()
                .flat_map(|(fi, f)| f.iter().map(move |&v| (v as usize, fi as u32))),
        );
        // CSR vertex → edges.
        let (v_edge_off, v_edge_dat) = build_csr(
            vertices.len(),
            edges
                .iter()
                .enumerate()
                .flat_map(|(ei, e)| e.v.iter().map(move |&v| (v as usize, ei as u32))),
        );

        let mut angle_sum = vec![0.0f64; vertices.len()];
        for f in &faces {
            for i in 0..3 {
                let at = f[i];
                let b = f[(i + 1) % 3];
                let c = f[(i + 2) % 3];
                angle_sum[at as usize] += triangle_angle(
                    vertices[at as usize],
                    vertices[b as usize],
                    vertices[c as usize],
                );
            }
        }

        let mut boundary_vertex = vec![false; vertices.len()];
        for e in &edges {
            if e.is_boundary() {
                boundary_vertex[e.v[0] as usize] = true;
                boundary_vertex[e.v[1] as usize] = true;
            }
        }

        Ok(Self {
            vertices,
            faces,
            edges,
            face_edges,
            edge_len,
            v_face_off,
            v_face_dat,
            v_edge_off,
            v_edge_dat,
            angle_sum,
            boundary_vertex,
            edge_map,
        })
    }

    // ------------------------------------------------------------------
    // Basic accessors
    // ------------------------------------------------------------------

    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.vertices.len()
    }
    #[inline]
    pub fn n_faces(&self) -> usize {
        self.faces.len()
    }
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    pub fn vertex(&self, v: VertexId) -> Vec3 {
        self.vertices[v as usize]
    }

    #[inline]
    pub fn vertices(&self) -> &[Vec3] {
        &self.vertices
    }

    #[inline]
    pub fn face(&self, f: FaceId) -> [VertexId; 3] {
        self.faces[f as usize]
    }

    #[inline]
    pub fn faces(&self) -> &[[VertexId; 3]] {
        &self.faces
    }

    /// The three corner positions of face `f`.
    #[inline]
    pub fn face_points(&self, f: FaceId) -> [Vec3; 3] {
        let [a, b, c] = self.faces[f as usize];
        [self.vertices[a as usize], self.vertices[b as usize], self.vertices[c as usize]]
    }

    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    #[inline]
    pub fn edge_len(&self, e: EdgeId) -> f64 {
        self.edge_len[e as usize]
    }

    /// The edge between `faces[f][i]` and `faces[f][(i+1)%3]`.
    #[inline]
    pub fn face_edges(&self, f: FaceId) -> [EdgeId; 3] {
        self.face_edges[f as usize]
    }

    /// The undirected edge connecting `a` and `b`, if any.
    #[inline]
    pub fn edge_between(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        self.edge_map.get(&(a.min(b), a.max(b))).copied()
    }

    /// Faces incident to vertex `v`.
    #[inline]
    pub fn vertex_faces(&self, v: VertexId) -> &[FaceId] {
        let lo = self.v_face_off[v as usize] as usize;
        let hi = self.v_face_off[v as usize + 1] as usize;
        &self.v_face_dat[lo..hi]
    }

    /// Edges incident to vertex `v`.
    #[inline]
    pub fn vertex_edges(&self, v: VertexId) -> &[EdgeId] {
        let lo = self.v_edge_off[v as usize] as usize;
        let hi = self.v_edge_off[v as usize + 1] as usize;
        &self.v_edge_dat[lo..hi]
    }

    /// The face on the other side of `e` from `f` (`None` on the boundary).
    #[inline]
    pub fn other_face(&self, e: EdgeId, f: FaceId) -> Option<FaceId> {
        let fs = self.edges[e as usize].faces;
        let o = if fs[0] == f { fs[1] } else { fs[0] };
        (o != NO_FACE).then_some(o)
    }

    /// The vertex of face `f` not on edge `e`.
    pub fn opposite_vertex(&self, f: FaceId, e: EdgeId) -> VertexId {
        let ev = self.edges[e as usize].v;
        let fv = self.faces[f as usize];
        for &v in &fv {
            if v != ev[0] && v != ev[1] {
                return v;
            }
        }
        unreachable!("edge {e} not incident to face {f}")
    }

    /// Sum of incident face angles at `v` (radians). Interior flat vertices
    /// have `2π`; saddles exceed `2π`.
    #[inline]
    pub fn vertex_angle_sum(&self, v: VertexId) -> f64 {
        self.angle_sum[v as usize]
    }

    /// Whether geodesic paths may bend at `v`: saddle vertices
    /// (angle sum > 2π) and boundary vertices.
    #[inline]
    pub fn is_pseudo_source_vertex(&self, v: VertexId) -> bool {
        self.boundary_vertex[v as usize]
            || self.angle_sum[v as usize] > 2.0 * std::f64::consts::PI - 1e-9
    }

    #[inline]
    pub fn is_boundary_vertex(&self, v: VertexId) -> bool {
        self.boundary_vertex[v as usize]
    }

    /// Centroid of face `f`.
    pub fn face_centroid(&self, f: FaceId) -> Vec3 {
        let [a, b, c] = self.face_points(f);
        (a + b + c) / 3.0
    }

    /// Aggregate mesh statistics.
    pub fn stats(&self) -> MeshStats {
        let mut lo = self.vertices[0];
        let mut hi = self.vertices[0];
        for v in &self.vertices {
            lo = Vec3::new(lo.x.min(v.x), lo.y.min(v.y), lo.z.min(v.z));
            hi = Vec3::new(hi.x.max(v.x), hi.y.max(v.y), hi.z.max(v.z));
        }
        let total_area: f64 = (0..self.n_faces() as FaceId)
            .map(|f| {
                let [a, b, c] = self.face_points(f);
                triangle_area(a, b, c)
            })
            .sum();
        let mut min_inner_angle = f64::INFINITY;
        for f in &self.faces {
            for i in 0..3 {
                let ang = triangle_angle(
                    self.vertices[f[i] as usize],
                    self.vertices[f[(i + 1) % 3] as usize],
                    self.vertices[f[(i + 2) % 3] as usize],
                );
                min_inner_angle = min_inner_angle.min(ang);
            }
        }
        let sum_len: f64 = self.edge_len.iter().sum();
        let min_edge_len = self.edge_len.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_edge_len = self.edge_len.iter().cloned().fold(0.0, f64::max);
        MeshStats {
            n_vertices: self.n_vertices(),
            n_edges: self.n_edges(),
            n_faces: self.n_faces(),
            total_area,
            bbox: (lo, hi),
            mean_edge_len: sum_len / self.n_edges() as f64,
            min_edge_len,
            max_edge_len,
            min_inner_angle,
        }
    }

    /// Heap bytes used by the mesh.
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        self.vertices.len() * size_of::<Vec3>()
            + self.faces.len() * size_of::<[VertexId; 3]>()
            + self.edges.len() * (size_of::<Edge>() + size_of::<f64>())
            + self.face_edges.len() * size_of::<[EdgeId; 3]>()
            + (self.v_face_off.len() + self.v_edge_off.len()) * size_of::<u32>()
            + (self.v_face_dat.len() + self.v_edge_dat.len()) * size_of::<u32>()
            + self.angle_sum.len() * size_of::<f64>()
            + self.boundary_vertex.len()
            + self.edge_map.len() * (size_of::<(VertexId, VertexId)>() + size_of::<EdgeId>())
    }
}

/// Builds a CSR adjacency from `(bucket, item)` pairs.
fn build_csr(
    n_buckets: usize,
    pairs: impl Iterator<Item = (usize, u32)> + Clone,
) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n_buckets + 1];
    for (b, _) in pairs.clone() {
        off[b + 1] += 1;
    }
    for i in 0..n_buckets {
        off[i + 1] += off[i];
    }
    let mut dat = vec![0u32; off[n_buckets] as usize];
    let mut cursor = off.clone();
    for (b, item) in pairs {
        dat[cursor[b] as usize] = item;
        cursor[b] += 1;
    }
    (off, dat)
}

fn count_components(n_faces: usize, edges: &[Edge]) -> usize {
    let mut parent: Vec<u32> = (0..n_faces as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for e in edges {
        if !e.is_boundary() {
            let (a, b) = (find(&mut parent, e.faces[0]), find(&mut parent, e.faces[1]));
            if a != b {
                parent[a as usize] = b;
            }
        }
    }
    (0..n_faces as u32).filter(|&f| find(&mut parent, f) == f).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles sharing an edge: (0,1,2) and (1,3,2), consistently
    /// oriented.
    pub(crate) fn two_triangles() -> TerrainMesh {
        TerrainMesh::new(
            vec![
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
            ],
            vec![[0, 1, 2], [1, 3, 2]],
        )
        .unwrap()
    }

    #[test]
    fn builds_two_triangle_mesh() {
        let m = two_triangles();
        assert_eq!(m.n_vertices(), 4);
        assert_eq!(m.n_faces(), 2);
        assert_eq!(m.n_edges(), 5);
        let shared = m.edge_between(1, 2).unwrap();
        assert!(!m.edge(shared).is_boundary());
        assert_eq!(m.other_face(shared, 0), Some(1));
        assert_eq!(m.other_face(shared, 1), Some(0));
        assert_eq!(m.opposite_vertex(0, shared), 0);
        assert_eq!(m.opposite_vertex(1, shared), 3);
        // All other edges are boundary.
        let b = (0..m.n_edges() as EdgeId).filter(|&e| m.edge(e).is_boundary()).count();
        assert_eq!(b, 4);
    }

    #[test]
    fn rejects_empty() {
        let r = TerrainMesh::new(vec![], vec![]);
        assert!(matches!(r, Err(MeshError::Empty)));
    }

    #[test]
    fn rejects_out_of_bounds() {
        let r = TerrainMesh::new(
            vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)],
            vec![[0, 1, 7]],
        );
        assert!(matches!(r, Err(MeshError::IndexOutOfBounds { face: 0, index: 7 })));
    }

    #[test]
    fn rejects_degenerate_faces() {
        let r = TerrainMesh::new(
            vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0)],
            vec![[0, 1, 1]],
        );
        assert!(matches!(r, Err(MeshError::DegenerateFace { face: 0 })));
        // Zero area (collinear).
        let r = TerrainMesh::new(
            vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 0.0, 0.0)],
            vec![[0, 1, 2]],
        );
        assert!(matches!(r, Err(MeshError::DegenerateFace { face: 0 })));
    }

    #[test]
    fn rejects_non_manifold() {
        let r = TerrainMesh::new(
            vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
                Vec3::new(1.0, 1.0, 1.0),
            ],
            vec![[0, 1, 2], [1, 0, 3], [0, 1, 4]],
        );
        assert!(matches!(r, Err(MeshError::NonManifoldEdge { .. })));
    }

    #[test]
    fn rejects_inconsistent_orientation() {
        // Second face traverses edge (1,2) in the same direction as the first.
        let r = TerrainMesh::new(
            vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
            ],
            vec![[0, 1, 2], [1, 2, 3]],
        );
        assert!(matches!(r, Err(MeshError::InconsistentOrientation { .. })));
    }

    #[test]
    fn rejects_disconnected() {
        let r = TerrainMesh::new(
            vec![
                Vec3::ZERO,
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(5.0, 5.0, 0.0),
                Vec3::new(6.0, 5.0, 0.0),
                Vec3::new(5.0, 6.0, 0.0),
            ],
            vec![[0, 1, 2], [3, 4, 5]],
        );
        assert!(matches!(r, Err(MeshError::Disconnected { components: 2 })));
    }

    #[test]
    fn vertex_adjacency() {
        let m = two_triangles();
        assert_eq!(m.vertex_faces(0), &[0]);
        let mut f1: Vec<_> = m.vertex_faces(1).to_vec();
        f1.sort_unstable();
        assert_eq!(f1, vec![0, 1]);
        assert_eq!(m.vertex_edges(3).len(), 2);
        assert_eq!(m.vertex_edges(1).len(), 3);
    }

    #[test]
    fn angle_sums_flat_quad() {
        let m = two_triangles();
        // Corner vertices: 90°; the two shared-diagonal vertices: 90° (45+45).
        assert!((m.vertex_angle_sum(0) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((m.vertex_angle_sum(3) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((m.vertex_angle_sum(1) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        // All four are boundary vertices here.
        for v in 0..4 {
            assert!(m.is_boundary_vertex(v));
            assert!(m.is_pseudo_source_vertex(v));
        }
    }

    #[test]
    fn stats_are_sane() {
        let m = two_triangles();
        let s = m.stats();
        assert_eq!(s.n_vertices, 4);
        assert_eq!(s.n_faces, 2);
        assert!((s.total_area - 1.0).abs() < 1e-12);
        assert!((s.bbox.1.x - 1.0).abs() < 1e-12);
        assert!((s.min_inner_angle - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((s.min_edge_len - 1.0).abs() < 1e-12);
        assert!((s.max_edge_len - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn storage_is_positive_and_scales() {
        let m = two_triangles();
        assert!(m.storage_bytes() > 100);
    }
}
