//! **SE** — the Space-Efficient ε-approximate geodesic distance oracle of
//! *Distance Oracle on Terrain Surface* (Wei, Wong, Long, Mount — SIGMOD
//! 2017).
//!
//! The oracle indexes a set of `n` POIs on a terrain surface in `O(n)`-ish
//! space (`O(nh/ε^{2β})`, Theorem 2) and answers POI-to-POI geodesic
//! distance queries in `O(h)` time with multiplicative error ≤ ε, where
//! `h < 30` in practice. Components:
//!
//! * [`tree`] — the partition tree (Separation / Covering / Distance
//!   properties, §3.2) with random and greedy point-selection strategies;
//! * [`ctree`] — the compressed partition tree (`≤ 2n − 1` nodes, Lemma 9);
//! * [`wspd`] — the node pair set: a well-separated pair decomposition with
//!   the *unique node pair match* property (Theorem 1);
//! * [`enhanced`] — enhanced edges (§3.5), reducing construction SSAD count
//!   from one-per-pair to one-per-tree-node (Lemma 4);
//! * [`oracle`] — [`oracle::SeOracle`]: construction + the `O(h)` and
//!   `O(h²)` query algorithms (§3.4);
//! * [`p2p`] — P2P/V2V front-ends over a [`terrain::TerrainMesh`];
//! * [`a2a`] — the A2A oracle of Appendix C (POI-independent; also the
//!   `n > N` case of Appendix D);
//! * [`dimension`] — largest-capacity-dimension (β) estimation, Appendix A.
//!
//! Beyond the paper's text, three extensions it motivates or names as
//! future work:
//!
//! * [`proximity`] — kNN / range / reverse-kNN search and the in-path
//!   detour query over the oracle (the proximity queries of §1.1/§4.1);
//! * [`route`] — path reporting: [`route::PathIndex`] +
//!   [`oracle::SeOracle::shortest_path`], routes alongside distances;
//! * [`dynamic`] — POI insertion/removal without a rebuild (the
//!   conclusion's open problem, via the dynamic-WSPD idea of \[14\]);
//! * [`persist`] — versioned, checksummed binary oracle images, with a
//!   compact v2 encoding ([`quant`]: quantized + delta-coded tables,
//!   worst-case decode error ≤ [`quant::EPS_QUANT`]);
//! * [`tilestore`] — the out-of-core atlas backend: lazy per-tile decode
//!   from one `SEAT` image behind a clock-free LRU with a resident-byte
//!   budget;
//! * [`serve`] — the query-serving layer: [`serve::QueryHandle`] (a
//!   shared, `Send + Sync` read-only view that derefs to the oracle) and
//!   the pool-sharded batch driver behind both backends'
//!   `distance_many_par`;
//! * [`atlas`] — the terrain atlas: tiled per-piece oracles with a portal
//!   graph routing cross-tile queries (the scaling layer past one
//!   monolithic construction);
//! * [`net`] — the network serving front end: the `oracled` wire protocol
//!   (sharing [`persist`]'s hardened frame decoder), a coalescing
//!   thread-per-connection server, and a blocking client;
//! * [`telemetry`] — the `obs` observability crate re-exported: metrics
//!   registry (scraped over the wire via [`net`]'s `Metrics` verb),
//!   build-trace spans, and structured logging.
//!
//! # Quickstart
//!
//! ```
//! use se_oracle::oracle::BuildConfig;
//! use se_oracle::p2p::{EngineKind, P2POracle};
//! use terrain::gen::Heightfield;
//! use terrain::poi::sample_uniform;
//!
//! let mesh = Heightfield::flat(6, 6, 100.0, 100.0).to_mesh();
//! let pois = sample_uniform(&mesh, 12, 42);
//! let oracle = P2POracle::build(
//!     &mesh, &pois, 0.1, EngineKind::Exact, &BuildConfig::default(),
//! ).unwrap();
//! let d = oracle.distance(0, 7);
//! let exact = oracle.engine_distance(0, 7);
//! assert!((d - exact).abs() <= 0.1 * exact + 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod a2a;
pub mod atlas;
pub mod ctree;
pub mod dimension;
pub mod dynamic;
pub mod enhanced;
pub mod maxheap;
pub mod net;
pub mod oracle;
pub mod p2p;
pub mod persist;
pub mod proximity;
pub mod quant;
pub mod route;
pub mod serve;
pub mod tilestore;
pub mod tree;
pub mod wspd;

pub use obs as telemetry;

pub use a2a::A2AOracle;
pub use atlas::{Atlas, AtlasConfig, AtlasError, AtlasHandle};
pub use ctree::CompressedTree;
pub use dynamic::{DynamicError, DynamicOracle, SubsetSpace};
pub use oracle::{
    BuildConfig, BuildError, BuildStats, ConstructionMethod, ProbeStats, QueryError, SeOracle,
};
pub use p2p::{EngineKind, P2PError, P2POracle};
pub use persist::PersistError;
pub use proximity::{DetourPoi, Neighbor, ProximityIndex};
pub use quant::EPS_QUANT;
pub use route::{PathIndex, ShortestPath, EPS_PATH};
pub use serve::QueryHandle;
pub use tilestore::{TileStore, TileStoreStats};
pub use tree::{PartitionTree, SelectionStrategy, TreeError};
