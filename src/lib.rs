//! # terrain-oracle
//!
//! A Rust reproduction of **“Distance Oracle on Terrain Surface”** (Victor
//! Junqiu Wei, Raymond Chi-Wing Wong, Cheng Long, David M. Mount — SIGMOD
//! 2017): the **SE** space-efficient ε-approximate geodesic distance oracle
//! together with every substrate it stands on and every baseline it is
//! evaluated against.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`terrain`] | TIN meshes, synthetic terrain generation, POIs, refinement, OFF I/O |
//! | [`geodesic`] | exact continuous-Dijkstra SSAD, edge-graph Dijkstra, Steiner graphs |
//! | [`phash`] | the node-pair table (one sorted row per node) and pair keys |
//! | [`oracle`] (crate `se-oracle`) | partition tree, WSPD node pairs, SE construction & queries, A2A, β estimation, tiled atlas + portal routing |
//! | [`baselines`] | SP-Oracle and K-Algo |
//!
//! ## Quickstart
//!
//! ```
//! use terrain_oracle::prelude::*;
//!
//! // A terrain and some points of interest.
//! let mesh = Preset::SfSmall.mesh(0.3);
//! let pois = sample_uniform(&mesh, 25, 42);
//!
//! // Build the SE oracle with ε = 0.1 over exact geodesics.
//! let oracle = P2POracle::build(
//!     &mesh, &pois, 0.1, EngineKind::Exact, &BuildConfig::default(),
//! ).unwrap();
//!
//! // Microsecond-scale ε-approximate queries.
//! let d = oracle.distance(3, 17);
//! assert!(d > 0.0);
//! ```

#![forbid(unsafe_code)]
pub use baselines;
pub use geodesic;
pub use phash;
pub use se_oracle as oracle;
pub use terrain;

/// The items most applications need.
pub mod prelude {
    pub use baselines::{KAlgo, SpOracle};
    pub use geodesic::engine::{GeodesicEngine, Stop};
    pub use geodesic::{
        geodesic_voronoi, shortest_path, shortest_path_straightened, shortest_vertex_path,
        shortest_vertex_path_straightened, trace_descent_path, EdgeGraphEngine, IchEngine,
        SteinerEngine, SteinerGraph, SurfacePath, VoronoiResult,
    };
    pub use se_oracle::{
        A2AOracle, Atlas, AtlasConfig, AtlasHandle, BuildConfig, ConstructionMethod, DetourPoi,
        DynamicOracle, EngineKind, Neighbor, P2POracle, PathIndex, ProximityIndex, QueryHandle,
        SeOracle, SelectionStrategy, ShortestPath, TileStore, TileStoreStats, EPS_QUANT,
    };
    pub use terrain::gen::{diamond_square, Heightfield, Preset};
    pub use terrain::poi::{
        dedup_pois, sample_clustered, sample_uniform, scale_pois, vertices_as_pois,
    };
    pub use terrain::refine::insert_surface_points;
    pub use terrain::tile::{TileGridConfig, TilePartition};
    pub use terrain::{SurfacePoint, TerrainMesh, Vec3};
}
