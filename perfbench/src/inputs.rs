//! Inputs: workload sizes, seeded request pools, and the reference
//! metrics the answer checks compare against.

use bench::setup::Workload;
use geodesic::dijkstra::EdgeGraphEngine;
use geodesic::engine::{GeodesicEngine, Stop};
use geodesic::ich::IchEngine;
use std::sync::Arc;
use terrain::refine::insert_surface_points;
use terrain::{TerrainMesh, VertexId};

/// Pairs per request: the `oracle-loadgen` default and the CI smoke size.
pub const REQUEST_PAIRS: usize = 64;

/// ε of every image the benchmark builds.
pub const EPS: f64 = 0.15;

/// Workload sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] runs every code path in well under a second of set-up.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale of the SF preset for `local` (0.25 ≈ 5k vertices).
    pub local_scale: f64,
    /// Clustered POIs for `local`.
    pub local_pois: usize,
    /// Scale of the SF-small preset for the atlas workloads.
    pub atlas_scale: f64,
    /// Clustered POIs for the atlas workloads.
    pub atlas_pois: usize,
    /// `local` set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Atlas set-ups per run (they are quicker, so there are more).
    pub atlas_setup_reps: usize,
    /// Distinct 64-pair requests per shape; traffic cycles through them.
    pub pool_requests: usize,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Self {
        Sizes {
            local_scale: 0.25,
            local_pois: 1000,
            atlas_scale: 1.0,
            atlas_pois: 60,
            setup_reps: 3,
            atlas_setup_reps: 5,
            pool_requests: 2048,
        }
    }

    /// Tiny inputs for the smoke test.
    pub fn tiny() -> Self {
        Sizes {
            local_scale: 0.02,
            local_pois: 40,
            atlas_scale: 0.3,
            atlas_pois: 12,
            setup_reps: 1,
            atlas_setup_reps: 1,
            pool_requests: 16,
        }
    }
}

/// splitmix64, the source of every request and schedule, so the workload
/// seed fixes the traffic. Terrains and POIs are fixed per workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`salt`) under the workload seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> u32 {
        (self.next_u64() % n as u64) as u32
    }
}

/// `count` requests of 64 uniformly random site pairs.
pub fn random_requests(rng: &mut Rng, n_sites: usize, count: usize) -> Vec<Vec<(u32, u32)>> {
    (0..count)
        .map(|_| (0..REQUEST_PAIRS).map(|_| (rng.below(n_sites), rng.below(n_sites))).collect())
        .collect()
}

/// `count` one-to-many rows: one random source, 64 random targets.
pub fn row_requests(rng: &mut Rng, n_sites: usize, count: usize) -> Vec<Vec<(u32, u32)>> {
    (0..count)
        .map(|_| {
            let s = rng.below(n_sites);
            (0..REQUEST_PAIRS).map(|_| (s, rng.below(n_sites))).collect()
        })
        .collect()
}

/// A reference metric over site vertices: one SSAD per checked source.
pub struct Reference {
    engine: Arc<dyn GeodesicEngine>,
    site_vertices: Vec<VertexId>,
}

impl Reference {
    /// The edge-graph metric `local`'s image approximates.
    pub fn edge_graph(mesh: Arc<TerrainMesh>, site_vertices: Vec<VertexId>) -> Self {
        Reference { engine: Arc::new(EdgeGraphEngine::new(mesh)), site_vertices }
    }

    /// Exact geodesic (ICH) over the atlas sites, numbered as the atlas
    /// numbers them: ascending refined-vertex order, duplicates merged.
    pub fn exact_atlas_sites(w: &Workload) -> Self {
        let refined =
            insert_surface_points(&w.mesh, &w.pois, None).expect("clustered POIs lie on the mesh");
        let mut sites = refined.poi_vertices;
        sites.sort_unstable();
        sites.dedup();
        Reference { engine: Arc::new(IchEngine::new(Arc::new(refined.mesh))), site_vertices: sites }
    }

    /// Reference distance from site `s` to every site.
    pub fn row(&self, s: usize) -> Vec<f64> {
        let r = self.engine.ssad(self.site_vertices[s], Stop::Targets(&self.site_vertices));
        self.site_vertices.iter().map(|&v| r.dist[v as usize]).collect()
    }
}
