//! Shared fixtures for the integration suite: small deterministic meshes,
//! seeded POI sets, and the refined-mesh → site-space plumbing every layer
//! of the stack needs.
//!
//! Every fixture is a pure function of its seed, so any failure anywhere in
//! the suite reproduces exactly from the test name and the literals at the
//! call site. Mesh seeds and POI seeds are decoupled (`POI_SALT`) so that
//! varying one never silently reshuffles the other.
//!
//! Not every test file uses every helper, hence the `dead_code` allowance —
//! integration tests each compile this module independently.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::Arc;
use terrain_oracle::geodesic::{EdgeGraphEngine, IchEngine, VertexSiteSpace};
use terrain_oracle::oracle::BuildConfig;
use terrain_oracle::prelude::*;
use terrain_oracle::terrain::refine::RefineResult;

/// Decouples POI sampling from mesh generation under a single caller seed.
pub const POI_SALT: u64 = 0xBEEF;

/// Small fractal terrain: `diamond_square` level `k` (grid `(2^k + 1)^2`),
/// roughness `rough`.
pub fn fractal_mesh(k: u32, rough: f64, seed: u64) -> TerrainMesh {
    diamond_square(k, rough, seed).to_mesh()
}

/// [`fractal_mesh`] behind an `Arc` (what the geodesic engines take).
pub fn fractal_mesh_arc(k: u32, rough: f64, seed: u64) -> Arc<TerrainMesh> {
    Arc::new(fractal_mesh(k, rough, seed))
}

/// A fractal mesh plus `n` uniformly sampled POIs on it, both derived from
/// one seed.
pub fn mesh_with_pois(k: u32, rough: f64, seed: u64, n: usize) -> (TerrainMesh, Vec<SurfacePoint>) {
    let mesh = fractal_mesh(k, rough, seed);
    let pois = sample_uniform(&mesh, n, seed ^ POI_SALT);
    (mesh, pois)
}

/// [`mesh_with_pois`] with the mesh behind an `Arc`.
pub fn mesh_with_pois_arc(
    k: u32,
    rough: f64,
    seed: u64,
    n: usize,
) -> (Arc<TerrainMesh>, Vec<SurfacePoint>) {
    let (mesh, pois) = mesh_with_pois(k, rough, seed, n);
    (Arc::new(mesh), pois)
}

/// The standard small P2P oracle fixture: level-4 fractal, `n` POIs,
/// `BuildConfig::default()`.
pub fn build_p2p(seed: u64, n: usize, eps: f64, engine: EngineKind) -> P2POracle {
    let (mesh, pois) = mesh_with_pois(4, 0.6, seed, n);
    P2POracle::build(&mesh, &pois, eps, engine, &BuildConfig::default()).unwrap()
}

/// Refines `pois` into `mesh` and returns the refined mesh together with
/// the deduplicated, sorted site vertex list — the prelude to every
/// site-space construction.
pub fn refine_sites(mesh: &TerrainMesh, pois: &[SurfacePoint]) -> (RefineResult, Vec<u32>) {
    let refined = insert_surface_points(mesh, pois, None).unwrap();
    let mut sites = refined.poi_vertices.clone();
    sites.sort_unstable();
    sites.dedup();
    (refined, sites)
}

/// Vertex site space over the refined mesh with an **exact** (ICH) engine.
pub fn exact_vertex_space(mesh: &TerrainMesh, pois: &[SurfacePoint]) -> VertexSiteSpace {
    let (refined, sites) = refine_sites(mesh, pois);
    VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites)
}

/// Vertex site space over the refined mesh with an **edge-graph** engine
/// (fast upper-bound approximation; what the churn-heavy tests use).
pub fn edge_graph_vertex_space(mesh: &TerrainMesh, pois: &[SurfacePoint]) -> VertexSiteSpace {
    let (refined, sites) = refine_sites(mesh, pois);
    VertexSiteSpace::new(Arc::new(EdgeGraphEngine::new(Arc::new(refined.mesh))), sites)
}

/// A process-unique scratch directory under the system temp dir.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("terrain-oracle-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A site of the atlas image at `path` whose only tile is its home tile
/// (no overlap-fringe copies elsewhere), so the query `(s, s)` reads that
/// one tile and nothing else. Found by opening the image out of core and
/// counting the tiles each such query loads.
pub fn lone_member_site(path: &std::path::Path) -> usize {
    let n = Atlas::open_out_of_core(path, usize::MAX).unwrap().n_sites();
    (0..n)
        .find(|&s| {
            let atlas = Atlas::open_out_of_core(path, usize::MAX).unwrap();
            atlas.distance(s, s);
            atlas.tile_store().unwrap().stats().resident_tiles == 1
        })
        .expect("some site lives in its home tile only")
}
