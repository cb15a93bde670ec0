//! The terrain atlas: one SE oracle per mesh tile, stitched together by a
//! portal graph for cross-tile query routing.
//!
//! A monolithic [`SeOracle`] build touches the whole mesh on every SSAD,
//! which caps the terrain size one construction can digest. The atlas
//! follows the decomposition recipe of planar-graph oracles
//! (Kawarabayashi–Klein–Sommer's linear-space pieces; Gu–Xu's
//! portal-based oracles): [`terrain::tile`] cuts the terrain into a grid
//! of overlapping tiles with shared seam **portals**, this module builds
//! one independent `SeOracle` per tile — embarrassingly parallel over
//! [`geodesic::pool`], each build reusing its own SSAD cache — and a
//! global **portal graph** whose edges are the per-tile portal–portal
//! distance tables.
//!
//! Every tile indexes three kinds of sites: its **own** sites (homed in
//! its core cell), **guest** sites (homed elsewhere but inside its overlap
//! fringe), and **portal** sites. Queries ([`Atlas::distance`]):
//!
//! * **intra-tile** (both sites homed in one tile): answered by that
//!   tile's oracle directly — one `O(h)` probe sequence (plus any other
//!   tile both sites are guests of, minimized over);
//! * **cross-tile**: the minimum of (a) a direct answer from any tile
//!   containing both sites — overlap makes near-seam pairs, the worst
//!   case for portal routing, share a tile — and (b)
//!   `min over (pᵢ, pⱼ) of d(s, pᵢ) + π(pᵢ, pⱼ) + d(pⱼ, t)` where `d` is
//!   the home tile's oracle and `π` the portal graph's shortest paths.
//!   (b) is read from **portal labels** computed once per site (below),
//!   so it reads no tile and runs no heap.
//!
//! # Portal labels
//!
//! The portal / boundary labelling of Kawarabayashi–Klein–Sommer and
//! Gu–Xu: each site stores its distances to the portals of its piece, and
//! a query becomes a few table reads. At [`Atlas::build`], at
//! [`Atlas::load_from`] and at [`Atlas::open_out_of_core`] every site gets
//! - its **exit legs**: its home tile oracle's distance to every portal of
//!   that tile, in the tile's portal order;
//! - its **reach row**: one Dijkstra over the portal graph seeded with its
//!   exit legs, the label of every portal (`∞` when unreachable).
//!
//! The portal route of `(s, t)` is then `min over t's exit legs k of
//! reach[s][pₖ] + leg_t[k]`, with a strict `<` in the home tile's portal
//! order: `|P_t|` additions. A Dijkstra label is a pure function of its
//! seeds, and that completion adds the same operands in the same order as
//! a per-query Dijkstra seeded from `s` would, so answers, exit portals and
//! [`Atlas::shortest_path`] chains are those of routing each pair on its
//! own. (The factorised `L_s + Π + L_t` would change the float association
//! and cost `|P_s|·|P_t|` additions per pair.)
//!
//! Cost: `n_sites × n_portals × 8` B of reach rows plus 8 B per exit leg,
//! and a `u32` per site and per tile portal to index them, all resident
//! for every atlas and charged by [`Atlas::storage_bytes`]. Building them
//! takes one exit-leg batch per tile and one Dijkstra per site. The reach
//! rows grow as `n_sites × n_portals`, so at scale they outgrow the portal
//! graph they summarise. A load, resident or out of core, computes the exit
//! legs in the one pass that validates every tile, so it decodes no tile
//! twice.
//!
//! A batch is answered in **tile-affine order**: pairs grouped by their
//! unordered home-tile pair, each answer written back to its input slot.
//! Tiles are read only for direct answers, and every such read goes
//! through a per-batch pin set holding the `Arc`s of the three tiles used
//! most recently — a group's two home tiles plus a guest tile both sites
//! share — so a batch pins at most three tiles, and an out-of-core atlas
//! ([`Atlas::open_out_of_core`]) reaches its tile store when a group needs
//! a shared tile it has not pinned, not once per pair (the piece-paging
//! discipline of Kawarabayashi–Klein–Sommer: keep the small boundary
//! structure resident, page the pieces in once). Answers are
//! element-wise, so the order changes no answer.
//!
//! # Accuracy (the ε_route bound)
//!
//! Every leg is a geodesic **path length on a sub-surface**, so the atlas
//! answer is never shorter than `(1 − ε)` × the true geodesic distance
//! (each oracle leg undershoots its own tile metric by at most ε, and
//! tile metrics dominate the global metric). In the other direction the
//! answer can exceed the truth by the oracle ε **plus a routing detour**:
//! the best portal-constrained path is longer than the free optimum by an
//! amount governed by the portal gap along each seam **relative to the
//! query distances** (near-seam pairs are exempt: overlap hands them a
//! shared tile). Keep roughly ten or more portals per seam — the default
//! spacing of 8 on production-size tiles, spacing 1–2 on toy level-4/5
//! fixtures — and the measured detour stays in the low percent range
//! (e.g. ≤ 4 % at spacing 1, ≤ 14 % at spacing 2 on level-4 fractals).
//! The documented conservative bound at such densities is
//! `atlas ≤ monolithic × (1 + ε_route)` with `ε_route = 0.5`
//! ([`EPS_ROUTE`]), which folds both oracles' ±ε and the detour into one
//! constant. Tests assert it; `examples/atlas_region.rs` reports the much
//! tighter measured ratio.
//!
//! Determinism carries over wholesale: tile builds are byte-identical
//! across thread counts (inherited from [`SeOracle::build`]), the portal
//! graph and the label Dijkstra break ties on `(distance bits, portal
//! id)`, and the batch/parallel drivers reassemble shard results in input
//! order — an [`AtlasHandle`] answers bit-identically from any number of
//! threads.

// lint: query-path
use crate::oracle::{
    check_range, expect_answers, site_pair, BuildConfig, BuildError, ProbeStats, QueryError,
    SeOracle,
};
use crate::p2p::{make_engine, EngineKind};
use crate::persist::{
    decode_tile_segment, parse_seat_layout, read_framed, PersistError, ATLAS_MAGIC, ATLAS_VERSION,
    ATLAS_VERSION_COMPACT, IMAGE_FRAME_CAP,
};
use crate::proximity::DetourPoi;
use crate::route::ShortestPath;
use crate::serve::shard_pairs;
use crate::tilestore::TileStore;
use geodesic::path::{shortest_vertex_path_straightened, SurfacePath};
use geodesic::sitespace::VertexSiteSpace;
use geodesic::steiner::SteinerGraph;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::fs::File;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;
use terrain::poi::SurfacePoint;
use terrain::refine::insert_surface_points;
use terrain::tile::{TileError, TileGridConfig, TilePartition};
use terrain::{MeshError, TerrainMesh, VertexId};

/// The documented conservative routing-error constant:
/// `Atlas::distance ≤ SeOracle::distance × (1 + EPS_ROUTE)` against the
/// monolithic oracle over the same sites, provided the tiling keeps
/// roughly ten or more portals per seam (see the module docs for the
/// decomposition into oracle ε and portal detour, and for how portal
/// spacing scales with mesh resolution).
pub const EPS_ROUTE: f64 = 0.5;

/// Compile-time proof the atlas query path is share-and-send safe, like
/// the monolithic serving layer.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Atlas>();
    assert_send_sync::<AtlasHandle>();
};

/// Atlas construction options: the tile grid plus the per-tile oracle
/// build configuration (whose `threads` budget is split between tile-level
/// and within-tile parallelism).
#[derive(Debug, Clone, Copy, Default)]
pub struct AtlasConfig {
    /// Tiling parameters (grid shape, overlap, portal spacing).
    pub grid: TileGridConfig,
    /// Per-tile oracle build options (threads split outer × inner).
    pub build: BuildConfig,
    /// When set, each tile also keeps a Steiner path graph with this many
    /// points per mesh edge, enabling [`Atlas::shortest_path`] (use `≥ 3`
    /// to keep the [`crate::route::EPS_PATH`] contract). `None` (the
    /// default) builds a distance-only atlas; persisted images are always
    /// distance-only, since the path graphs live on the tile meshes.
    pub path_points_per_edge: Option<usize>,
}

/// Atlas construction failures.
#[derive(Debug)]
pub enum AtlasError {
    /// No POIs supplied.
    NoPois,
    /// ε must be a positive real (checked before any tile work starts).
    InvalidEpsilon(f64),
    /// Mesh refinement produced an invalid mesh.
    Refine(MeshError),
    /// Tiling failed (grid too fine, overlap too small, …).
    Tile(TileError),
    /// One tile's oracle construction failed.
    Build {
        /// Index of the failing tile.
        tile: usize,
        /// The tile's construction error.
        source: BuildError,
    },
    /// A site's vertex is missing from its home tile's sub-mesh — the
    /// overlap margin is smaller than the local face size.
    SiteOutsideTile {
        /// Global site index.
        site: usize,
        /// The site's mesh vertex.
        vertex: VertexId,
        /// The tile that should contain it.
        tile: usize,
    },
    /// The portal graph does not connect every tile, so some cross-tile
    /// query would have no route; use a coarser grid or denser portals.
    Unroutable {
        /// Connected components of the portal graph.
        components: usize,
    },
}

impl fmt::Display for AtlasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtlasError::NoPois => write!(f, "POI set is empty"),
            AtlasError::InvalidEpsilon(e) => write!(f, "invalid error parameter ε = {e}"),
            AtlasError::Refine(e) => write!(f, "mesh refinement failed: {e}"),
            AtlasError::Tile(e) => write!(f, "tiling failed: {e}"),
            AtlasError::Build { tile, source } => {
                write!(f, "oracle construction for tile {tile} failed: {source}")
            }
            AtlasError::SiteOutsideTile { site, vertex, tile } => write!(
                f,
                "site {site} (vertex {vertex}) is not in its home tile {tile}'s sub-mesh; \
                 raise the tile overlap"
            ),
            AtlasError::Unroutable { components } => write!(
                f,
                "portal graph splits into {components} components, cross-tile routing would \
                 be incomplete; coarsen the grid or raise overlap/portal density"
            ),
        }
    }
}

impl std::error::Error for AtlasError {}

impl From<TileError> for AtlasError {
    fn from(e: TileError) -> Self {
        AtlasError::Tile(e)
    }
}

/// Timings and shape counters from one atlas construction.
#[derive(Debug, Clone, Default)]
pub struct AtlasBuildStats {
    /// End-to-end build wall clock.
    pub total: Duration,
    /// Partitioning the mesh and planning per-tile site lists.
    pub tiling: Duration,
    /// Building every tile oracle and its portal table (wall clock over
    /// the parallel phase).
    pub oracles: Duration,
    /// Total worker budget ([`BuildConfig::threads`] resolved).
    pub workers: usize,
    /// Concurrent tile builds (the outer level of the split budget).
    pub tile_workers: usize,
    /// Tiles in the grid.
    pub n_tiles: usize,
    /// Seam portal sites across all tiles.
    pub n_portals: usize,
    /// Directed portal-graph edges after per-source dedup.
    pub portal_edges: usize,
    /// Sites per tile oracle (own sites + portal sites).
    pub tile_sites: Vec<usize>,
}

/// One tile's path-reporting payload (only with
/// [`AtlasConfig::path_points_per_edge`]).
struct TilePaths {
    /// Steiner graph over the tile sub-mesh (tile meshes keep global
    /// coordinates, so its polylines live on the global surface).
    graph: SteinerGraph,
    /// Tile-local site id → tile-local mesh vertex (the same order the
    /// tile oracle's site space uses).
    site_vertex: Vec<VertexId>,
}

/// The atlas's optional path-reporting layer.
struct AtlasPaths {
    tiles: Vec<TilePaths>,
    points_per_edge: usize,
}

/// One tile's queryable payload.
pub(crate) struct AtlasTile {
    pub(crate) oracle: SeOracle,
    /// `(global portal id, local site id)`, ascending by portal id.
    pub(crate) portals: Vec<(u32, u32)>,
    /// Row-major `|portals|²` tile-oracle distances — the tile's
    /// contribution to the portal graph, kept for persistence.
    pub(crate) portal_table: Vec<f64>,
}

impl AtlasTile {
    /// Decoded in-memory size of this tile — the unit the out-of-core
    /// resident budget is charged in.
    pub(crate) fn footprint(&self) -> usize {
        use std::mem::size_of;
        self.oracle.storage_bytes()
            + self.portals.len() * size_of::<(u32, u32)>()
            + self.portal_table.len() * size_of::<f64>()
    }
}

/// Where an atlas's decoded tiles live: fully resident (built or eagerly
/// loaded) or behind the out-of-core [`TileStore`], which decodes tile
/// segments on demand under a resident-byte budget. Query code touches
/// tiles only through [`Atlas::tile`], which hands out an [`Arc`] either
/// way. A batch keeps the `Arc`s of at most three tiles in its pin set
/// ([`RouteScratch::tile`]), so eviction never invalidates an answer in
/// flight; decoded memory beyond the store's budget is at most, per
/// batch in flight, its three pinned tiles plus one tile it is decoding.
enum TileSet {
    Resident(Vec<Arc<AtlasTile>>),
    Store(TileStore),
}

/// A tiled SE oracle: per-tile oracles plus a portal graph for cross-tile
/// routing. Built by [`Atlas::build`]; served through [`AtlasHandle`];
/// persisted by `save_to_compact`/`load_from` (see [`crate::persist`]).
pub struct Atlas {
    eps: f64,
    tiles: TileSet,
    /// Home tile of each global site (the unique core cell containing it).
    site_home: Vec<u32>,
    /// Per global site: every `(tile, local site id)` membership —
    /// ascending by tile, always including the home tile. Guests (overlap
    /// fringe memberships) give near-seam pairs a shared tile to answer
    /// from directly.
    site_members: Vec<Vec<(u32, u32)>>,
    /// The portal graph and the per-site portal labels (boxed: seven
    /// tables' headers would double the atlas's inline size).
    routing: Box<PortalRouting>,
    stats: AtlasBuildStats,
    /// Per-tile Steiner path graphs, present only when built with
    /// [`AtlasConfig::path_points_per_edge`].
    paths: Option<AtlasPaths>,
}

impl Atlas {
    /// Builds an atlas over `mesh` with the POIs as sites: refines the
    /// POIs into the mesh, merges co-located ones, and indexes the
    /// resulting distinct sites **in ascending vertex order** (the same
    /// site numbering `tests/common::refine_sites` produces, so atlas and
    /// monolithic oracles built from one POI set agree on site ids).
    pub fn build(
        mesh: &TerrainMesh,
        pois: &[SurfacePoint],
        eps: f64,
        engine: EngineKind,
        cfg: &AtlasConfig,
    ) -> Result<Self, AtlasError> {
        if pois.is_empty() {
            return Err(AtlasError::NoPois);
        }
        let refined = insert_surface_points(mesh, pois, None).map_err(AtlasError::Refine)?;
        let mut sites = refined.poi_vertices;
        sites.sort_unstable();
        sites.dedup();
        Self::build_over_vertices(Arc::new(refined.mesh), sites, eps, engine, cfg)
    }

    /// Core constructor: an atlas over an already refined mesh and a
    /// distinct site vertex list (site `i` is `site_vertices[i]`).
    pub fn build_over_vertices(
        mesh: Arc<TerrainMesh>,
        site_vertices: Vec<VertexId>,
        eps: f64,
        engine: EngineKind,
        cfg: &AtlasConfig,
    ) -> Result<Self, AtlasError> {
        if site_vertices.is_empty() {
            return Err(AtlasError::NoPois);
        }
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(AtlasError::InvalidEpsilon(eps));
        }
        // Phase durations come from `build/*` trace spans, like the tile
        // oracles' own.
        let span_total = obs::trace::timed("build", "atlas");
        let span_tiling = obs::trace::timed("build", "tiling");
        let partition = TilePartition::build(&mesh, &cfg.grid)?;
        let n_tiles = partition.n_tiles();
        let portal_verts = partition.portals();
        let n_portals = portal_verts.len();

        // Per-tile plan: the local site list is every global site the
        // tile's sub-mesh contains — own sites and overlap-fringe guests,
        // in ascending global site order — followed by its portal sites; a
        // portal whose vertex already is a site shares that local id.
        struct Plan {
            /// Tile-local mesh vertex of each local site.
            verts: Vec<VertexId>,
            /// `(global portal id, local site id)`, ascending by portal id.
            portals: Vec<(u32, u32)>,
        }
        let mut plans: Vec<Plan> =
            (0..n_tiles).map(|_| Plan { verts: Vec::new(), portals: Vec::new() }).collect();
        let mut vert_site: Vec<BTreeMap<VertexId, u32>> = vec![BTreeMap::new(); n_tiles];
        let mut site_home = vec![0u32; site_vertices.len()];
        let mut site_members: Vec<Vec<(u32, u32)>> = vec![Vec::new(); site_vertices.len()];
        // Per tile, the local ids of the sites it homes (their exit legs).
        let mut homed: Vec<Vec<u32>> = vec![Vec::new(); n_tiles];
        for (s, &v) in site_vertices.iter().enumerate() {
            let home = partition.home_tile(mesh.vertex(v));
            if partition.tile(home).local_vertex(v).is_none() {
                return Err(AtlasError::SiteOutsideTile { site: s, vertex: v, tile: home });
            }
            site_home[s] = home as u32;
            for (t, tile) in partition.tiles().iter().enumerate() {
                let Some(local_v) = tile.local_vertex(v) else { continue };
                let plan = &mut plans[t];
                let local = plan.verts.len() as u32;
                plan.verts.push(local_v);
                vert_site[t].insert(v, local);
                site_members[s].push((t as u32, local));
                if t == home {
                    homed[t].push(local);
                }
            }
        }
        for (gid, &pv) in portal_verts.iter().enumerate() {
            for (t, tile) in partition.tiles().iter().enumerate() {
                let Some(local_v) = tile.local_vertex(pv) else { continue };
                let plan = &mut plans[t];
                let local = *vert_site[t].entry(pv).or_insert_with(|| {
                    plan.verts.push(local_v);
                    (plan.verts.len() - 1) as u32
                });
                plan.portals.push((gid as u32, local));
            }
        }
        let tiling = span_tiling.finish();

        // Tile oracles are independent: run them on the worker pool,
        // splitting the thread budget between concurrent tiles (outer) and
        // each tile's own construction pipeline (inner). Either level may
        // take the whole budget — the built atlas is byte-identical for
        // every split because each tile build is.
        let workers = cfg.build.resolved_threads();
        let tile_workers = workers.min(n_tiles).max(1);
        let inner_cfg = BuildConfig { threads: (workers / tile_workers).max(1), ..cfg.build };
        let span_oracles = obs::trace::timed("build", "tile-oracles");
        // Per tile: its oracle, its portal table and its exit legs.
        type TileBuild = Result<(SeOracle, Vec<f64>, Vec<f64>), BuildError>;
        let built: Vec<TileBuild> = geodesic::pool::run_indexed(tile_workers, n_tiles, |t| {
            let plan = &plans[t];
            let engine = make_engine(partition.tile(t).mesh.clone(), engine);
            let space = VertexSiteSpace::new(engine, plan.verts.clone());
            let oracle = SeOracle::build(&space, eps, &inner_cfg)?;
            // The tile's portal–portal table and the exit legs of the
            // sites it homes: one oracle batch each.
            let portal_locals: Vec<u32> = plan.portals.iter().map(|&(_, l)| l).collect();
            let table = oracle.distance_many(&site_portal_pairs(&plan.portals, &portal_locals));
            let legs = oracle.distance_many(&site_portal_pairs(&plan.portals, &homed[t]));
            Ok((oracle, table, legs))
        });
        let oracles = span_oracles.finish();

        // Path graphs must be captured here: the per-tile site lists are
        // consumed by the tile assembly below, and the tile meshes are not
        // retained anywhere else.
        let paths = cfg.path_points_per_edge.map(|m| AtlasPaths {
            points_per_edge: m,
            tiles: plans
                .iter()
                .enumerate()
                .map(|(t, plan)| TilePaths {
                    graph: SteinerGraph::with_points_per_edge(partition.tile(t).mesh.clone(), m),
                    site_vertex: plan.verts.clone(),
                })
                .collect(),
        });

        let mut tiles = Vec::with_capacity(n_tiles);
        let mut legs = Vec::new();
        for (t, (r, plan)) in built.into_iter().zip(plans).enumerate() {
            let (oracle, portal_table, tile_legs) =
                r.map_err(|source| AtlasError::Build { tile: t, source })?;
            tiles.push(AtlasTile { oracle, portals: plan.portals, portal_table });
            legs.extend(tile_legs);
        }
        let routing = PortalRouting::new(&portal_views(&tiles), n_portals, &site_home, legs)
            .map_err(|components| AtlasError::Unroutable { components })?;
        let stats = AtlasBuildStats {
            total: span_total.finish(),
            tiling,
            oracles,
            workers,
            tile_workers,
            n_tiles,
            n_portals,
            portal_edges: routing.graph_adj.len(),
            tile_sites: tiles.iter().map(|t| t.oracle.n_sites()).collect(),
        };
        Ok(Self {
            eps,
            tiles: TileSet::Resident(tiles.into_iter().map(Arc::new).collect()),
            site_home,
            site_members,
            routing: Box::new(routing),
            stats,
            paths,
        })
    }

    /// Opens a `SEAT` image **out of core**: tile segments stay on disk
    /// and are decoded on demand into an LRU of resident tiles capped at
    /// `resident_budget` decoded bytes (a budget smaller than one tile
    /// still admits that single tile — the floor is "one resident tile at
    /// a time"). Works for `SEAT` v1 and v2 images alike; answers are
    /// bit-identical to a fully resident [`Atlas::load_from`] of the same
    /// bytes, for any budget and any eviction schedule (see
    /// `tests/out_of_core.rs`).
    ///
    /// # Validation happens once, at open
    ///
    /// The open reads the whole image transiently through the frame reader
    /// every image loader and the wire protocol share, so the frame header,
    /// length and payload checksum are checked exactly as a resident load
    /// checks them. It then runs the one validating pass that
    /// [`Atlas::load_from`] runs, so the two accept the same images and
    /// report the same fault for a corrupt one: every tile segment is
    /// decoded once, one at a time (each nested oracle image carries its
    /// own checksum), and yields the exit legs of the sites it homes; every
    /// membership is checked against the decoded tiles; the portal graph is
    /// checked for routability and the portal labels are built. A tile
    /// whose oracle fails a label leg fails the open as
    /// [`PersistError::Corrupt`]. The open keeps only each tile's portal
    /// list and table, so besides the image bytes it holds one decoded tile
    /// at a time, and it loads no tile through the store and leaves the
    /// store's counters at zero.
    ///
    /// The file the open read through stays open for the store's tile
    /// reads. After a successful open the only failures left on the tile
    /// path are environmental — the backing file shrank or was rewritten
    /// underneath the store. A query reports those as
    /// [`QueryError::TileUnavailable`] without caching anything, so the
    /// store stays healthy and the next miss on the tile reads it again.
    ///
    /// The store's hit/miss/load/eviction counters and resident gauges
    /// live in its own registry ([`TileStore::registry`], reached through
    /// [`Self::tile_store`]).
    pub fn open_out_of_core(
        path: &std::path::Path,
        resident_budget: usize,
    ) -> Result<Self, PersistError> {
        let mut file = File::open(path)?;
        let versions = ATLAS_VERSION..=ATLAS_VERSION_COMPACT;
        let (version, payload) = read_framed(&mut file, ATLAS_MAGIC, versions, IMAGE_FRAME_CAP)?;
        Self::from_image(payload, version, Some((file, resident_budget)))
    }

    /// The one validating pass over a `SEAT` payload of format `version`
    /// behind [`Atlas::load_from`] and [`Atlas::open_out_of_core`], whose
    /// docs give its order. Without a `store` the atlas keeps the decoded
    /// tiles. With one (the image's open file and a resident budget) it
    /// keeps only their portal lists and tables until the labels are built,
    /// and serves tiles from a [`TileStore`] over the file.
    pub(crate) fn from_image(
        payload: Vec<u8>,
        version: u32,
        store: Option<(File, usize)>,
    ) -> Result<Self, PersistError> {
        let layout = parse_seat_layout(&payload, version)?;
        let n_tiles = layout.segments.len();
        let homed = homed_locals(&layout.site_home, &layout.site_members, n_tiles)
            .map_err(PersistError::Corrupt)?;
        let mut oracles = Vec::new();
        let mut portal_data = Vec::with_capacity(n_tiles);
        let mut decoded_sizes = Vec::with_capacity(n_tiles);
        let mut tile_sites = Vec::with_capacity(n_tiles);
        let mut legs = Vec::new();
        for (&(off, len), homed) in layout.segments.iter().zip(&homed) {
            let tile = decode_tile_segment(&payload[off..off + len], version, layout.n_portals)?;
            legs.extend(exit_legs(&tile, homed).map_err(PersistError::Corrupt)?);
            decoded_sizes.push(tile.footprint());
            tile_sites.push(tile.oracle.n_sites());
            let AtlasTile { oracle, portals, portal_table } = tile;
            if store.is_none() {
                oracles.push(oracle);
            }
            portal_data.push((portals, portal_table));
        }
        drop(payload);
        // The layout checked every membership's tile; the local ids need
        // the decoded tiles.
        for members in &layout.site_members {
            if members.iter().any(|&(t, l)| l as usize >= tile_sites[t as usize]) {
                return Err(PersistError::Corrupt("site membership local id out of range"));
            }
        }
        let views: Vec<PortalView<'_>> =
            portal_data.iter().map(|(p, t)| (p.as_slice(), t.as_slice())).collect();
        let routing = PortalRouting::new(&views, layout.n_portals, &layout.site_home, legs)
            .map_err(|_| PersistError::Corrupt("portal graph does not connect every tile"))?;
        let stats = AtlasBuildStats {
            n_tiles,
            n_portals: layout.n_portals,
            portal_edges: routing.graph_adj.len(),
            tile_sites,
            ..Default::default()
        };
        let tiles = match store {
            None => TileSet::Resident(
                oracles
                    .into_iter()
                    .zip(portal_data)
                    .map(|(oracle, (portals, portal_table))| {
                        Arc::new(AtlasTile { oracle, portals, portal_table })
                    })
                    .collect(),
            ),
            Some((file, budget)) => {
                // Segment spans are payload-relative; the 16-byte frame
                // header precedes the payload in the file.
                let segments =
                    layout.segments.iter().map(|&(off, len)| (16 + off as u64, len)).collect();
                TileSet::Store(TileStore::new(
                    file,
                    segments,
                    decoded_sizes,
                    version,
                    layout.n_portals,
                    budget,
                ))
            }
        };
        // Persisted images carry no tile meshes, so loaded atlases are
        // distance-only (see [`AtlasConfig::path_points_per_edge`]).
        Ok(Self {
            eps: layout.eps,
            tiles,
            site_home: layout.site_home,
            site_members: layout.site_members,
            routing: Box::new(routing),
            stats,
            paths: None,
        })
    }

    /// The out-of-core tile store behind this atlas, when it was opened
    /// with [`Self::open_out_of_core`] (`None` for built or eagerly loaded
    /// atlases). Exposes residency statistics and the metrics registry.
    pub fn tile_store(&self) -> Option<&TileStore> {
        match &self.tiles {
            TileSet::Store(s) => Some(s),
            TileSet::Resident(_) => None,
        }
    }

    /// The error parameter ε of every tile oracle.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Number of (global) sites indexed.
    pub fn n_sites(&self) -> usize {
        self.site_home.len()
    }

    /// Number of tiles.
    pub fn n_tiles(&self) -> usize {
        match &self.tiles {
            TileSet::Resident(v) => v.len(),
            TileSet::Store(s) => s.n_tiles(),
        }
    }

    /// Number of portals in the routing graph.
    pub fn n_portals(&self) -> usize {
        self.routing.n_portals()
    }

    /// Construction statistics (shape counters only after a reload).
    pub fn build_stats(&self) -> &AtlasBuildStats {
        &self.stats
    }

    /// Home tile of site `s`.
    pub fn tile_of_site(&self, s: usize) -> usize {
        self.site_home[s] as usize
    }

    /// Whether `(s, t)` consults the portal graph (`false` for same-home
    /// pairs, which tile oracles answer directly).
    pub fn is_cross_tile(&self, s: usize, t: usize) -> bool {
        self.site_home[s] != self.site_home[t]
    }

    /// Atlas size: every tile oracle plus the portal tables and graph,
    /// and the portal labels (`n_sites × n_portals × 8` B of reach rows,
    /// 8 B per exit leg, and their `u32` indexes; see the module docs).
    /// For an out-of-core atlas the tile term is the *full* decoded size
    /// (what a resident load would cost — the resident budget bounds what
    /// is actually held; see [`TileStore::stats`]); the labels are resident
    /// either way.
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        let tile_bytes = match &self.tiles {
            TileSet::Resident(v) => v.iter().map(|t| t.footprint()).sum::<usize>(),
            TileSet::Store(s) => s.decoded_bytes_total(),
        };
        tile_bytes
            + self.site_home.len() * size_of::<u32>()
            + self.site_members.iter().map(|m| m.len() * size_of::<(u32, u32)>()).sum::<usize>()
            + self.routing.bytes()
    }

    /// The one way query (and persistence) code reaches a tile. Resident
    /// atlases clone the tile's `Arc`; out-of-core atlases go through the
    /// store, which may decode the segment (a miss) and evict others —
    /// the returned `Arc` keeps this tile's data alive for the caller
    /// regardless, so mid-query eviction cannot invalidate it. A segment
    /// that no longer reads is [`QueryError::TileUnavailable`]. Distance
    /// batches call it through their pin set ([`RouteScratch::tile`]),
    /// only for a tile the batch has not pinned.
    pub(crate) fn tile(&self, t: usize) -> Result<Arc<AtlasTile>, QueryError> {
        match &self.tiles {
            TileSet::Resident(v) => Ok(Arc::clone(&v[t])),
            TileSet::Store(s) => s.tile(t),
        }
    }

    pub(crate) fn site_homes(&self) -> &[u32] {
        &self.site_home
    }

    pub(crate) fn site_members(&self) -> &[Vec<(u32, u32)>] {
        &self.site_members
    }

    /// ε-routed geodesic distance between sites `s` and `t`, as one pair
    /// through [`Self::distance_many_checked_with_stats`] (see the module
    /// docs for the accuracy contract).
    ///
    /// Panics when either site id is out of range or the image (or an
    /// out-of-core atlas's backing file) is corrupt; the checked kernel
    /// reports both as a [`QueryError`].
    pub fn distance(&self, s: usize, t: usize) -> f64 {
        self.distance_many(&[site_pair(s, t)])[0]
    }

    /// Batch query, bit-identical to calling [`Self::distance`] per pair
    /// in input order — the checked kernel's answers, panicking where it
    /// returns an error (the message names the first offending pair).
    pub fn distance_many(&self, pairs: &[(u32, u32)]) -> Vec<f64> {
        expect_answers(self.distance_many_checked_with_stats(pairs)).0
    }

    /// The atlas query kernel, with the same contract as
    /// [`SeOracle::distance_many_checked_with_stats`]: ids are checked
    /// first, every failure is a typed [`QueryError`], and answers come in
    /// input order. Each pair is the minimum over every tile holding both
    /// sites (same-home pairs always have one; overlap gives near-seam
    /// pairs one too) and, for cross-home pairs, the portal route. Tile
    /// answers go through each tile oracle's own kernel, so a corrupt tile
    /// is [`QueryError::NoCoveringPair`] for the pair it failed, and their
    /// [`ProbeStats`] add into the batch total. The portal route is read
    /// from the per-site portal labels (see the module docs): it reads no
    /// tile, runs no heap and adds no probes, so a cross-home pair that
    /// shares no tile reports 0 probes and never reaches an out-of-core
    /// atlas's store.
    ///
    /// Pairs are answered grouped by their unordered home-tile pair
    /// (input order within a group) and written back in input order.
    /// Every tile access goes through the batch's pin set, the `Arc`s of
    /// the three tiles used most recently, so a batch pins at most three
    /// tiles and an out-of-core atlas reaches its store only when a group
    /// needs a tile it has not pinned. The pin set is the batch's only
    /// scratch, and answers never depend on batch history. The error is
    /// still the first failing pair in input order: once a pair fails,
    /// only pairs at lower input indices are answered.
    pub fn distance_many_checked_with_stats(
        &self,
        pairs: &[(u32, u32)],
    ) -> Result<(Vec<f64>, ProbeStats), QueryError> {
        check_range(pairs, self.n_sites())?;
        self.route_pairs(pairs)
    }

    /// [`Self::distance_many`] sharded across `threads` pool workers
    /// (`0` = auto-detect): results in input order, bit-identical for
    /// every thread count. Each shard runs the kernel's home-tile-pair
    /// order over its own pin set, so a call pins at most three tiles per
    /// worker. An empty slice returns immediately without touching the
    /// pool.
    ///
    /// Panics exactly as [`Self::distance_many`] does — ids are checked
    /// up front, so an out-of-range panic fires on the caller's thread.
    pub fn distance_many_par(&self, pairs: &[(u32, u32)], threads: usize) -> Vec<f64> {
        let answers = check_range(pairs, self.n_sites())
            .and_then(|()| shard_pairs(pairs, threads, |chunk| self.route_pairs(chunk)));
        expect_answers(answers).0
    }

    /// Answers range-checked pairs over one pin set — the one loop over
    /// pairs every atlas distance entry point runs — in the home-tile-pair
    /// order the kernel documents, each answer written to its input slot.
    /// Answers are element-wise, so the order changes neither them nor
    /// the [`ProbeStats`] sums. Once a pair fails, only lower input
    /// indices still run, so the error is the input-order loop's.
    fn route_pairs(&self, pairs: &[(u32, u32)]) -> Result<(Vec<f64>, ProbeStats), QueryError> {
        let mut order: Vec<(u32, u32, usize)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| {
                let (hs, ht) = (self.site_home[s as usize], self.site_home[t as usize]);
                (hs.min(ht), hs.max(ht), i)
            })
            .collect();
        order.sort_unstable();
        let mut scratch = RouteScratch::new();
        let mut stats = ProbeStats::default();
        let mut out = vec![0.0; pairs.len()];
        let mut failed: Option<(usize, QueryError)> = None;
        for (_, _, i) in order {
            if failed.is_some_and(|(f, _)| f < i) {
                continue;
            }
            let (s, t) = pairs[i];
            match self.answer(s as usize, t as usize, &mut scratch, &mut stats) {
                Ok((d, _)) => out[i] = d,
                Err(e) => failed = Some((i, e)),
            }
        }
        match failed {
            Some((_, e)) => Err(e),
            None => Ok((out, stats)),
        }
    }

    /// One range-checked pair: the distance and what realised it — the
    /// lowest-numbered tile holding both sites on ties, and a direct
    /// answer over an equal portal route, which [`Self::shortest_path`]
    /// rebuilds a polyline from. Only shared tiles go through `scratch`.
    fn answer(
        &self,
        s: usize,
        t: usize,
        scratch: &mut RouteScratch,
        stats: &mut ProbeStats,
    ) -> Result<(f64, Via), QueryError> {
        let (ms, mt) = (&self.site_members[s], &self.site_members[t]);
        let mut best = (f64::INFINITY, None);
        // Sorted-by-tile membership lists intersect with two pointers.
        let (mut i, mut j) = (0usize, 0usize);
        while i < ms.len() && j < mt.len() {
            match ms[i].0.cmp(&mt[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let (tile, a, b) = (ms[i].0 as usize, ms[i].1, mt[j].1);
                    let d = self.leg(scratch.tile(self, tile)?, &[(a, b)], (s, t), stats)?[0];
                    if d < best.0 {
                        best = (d, Some(Via::Tile { tile, a, b }));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let (hs, ht) = (self.site_home[s], self.site_home[t]);
        if hs != ht {
            let no_route = QueryError::NoRoute { s, t };
            let ls = local_in(ms, hs).ok_or(no_route)?;
            let lt = local_in(mt, ht).ok_or(no_route)?;
            if let Some((d, exit)) = self.routing.route(s, t, ht as usize) {
                // Strict `<`: on a tie the direct answer wins.
                if d < best.0 {
                    best = (d, Some(Via::Portals { ls, lt, exit }));
                }
            }
        }
        match best {
            (d, Some(via)) => Ok((d, via)),
            (_, None) => Err(QueryError::NoRoute { s, t }),
        }
    }

    /// Answers tile-local `pairs` through `tile`'s oracle kernel, adding
    /// its probes to `stats`. Any failure means the tile is corrupt, and
    /// is reported as [`QueryError::NoCoveringPair`] for the atlas pair
    /// `(s, t)` being answered.
    fn leg(
        &self,
        tile: &AtlasTile,
        pairs: &[(u32, u32)],
        (s, t): (usize, usize),
        stats: &mut ProbeStats,
    ) -> Result<Vec<f64>, QueryError> {
        let (d, leg_stats) = tile
            .oracle
            .distance_many_checked_with_stats(pairs)
            .map_err(|_| QueryError::NoCoveringPair { s, t })?;
        *stats += leg_stats;
        Ok(d)
    }

    /// Whether this atlas was built with path support
    /// ([`AtlasConfig::path_points_per_edge`]).
    pub fn has_paths(&self) -> bool {
        self.paths.is_some()
    }

    /// Steiner points per edge of the path layer, if present.
    pub fn path_points_per_edge(&self) -> Option<usize> {
        self.paths.as_ref().map(|p| p.points_per_edge)
    }

    /// Answers a distance query *and* reports a route realising it —
    /// the atlas counterpart of [`SeOracle::shortest_path`].
    ///
    /// `distance` is bit-identical to [`Atlas::distance`]`(s, t)`: both
    /// come from the same kernel call, whose record of what realised the
    /// answer drives the polyline. It is assembled from per-tile Steiner
    /// paths: when a shared tile answers the query, one in-tile path;
    /// otherwise the source leg, one leg per portal-graph hop (each
    /// reconstructed inside the tile whose portal table produced that edge
    /// weight), and the destination leg, concatenated at the shared portal
    /// vertices. The portal chain comes from re-running the source's
    /// label Dijkstra for its predecessors — the run that produced the
    /// reach row the distance was read from. Tile sub-meshes keep global
    /// coordinates, so the result lies on the global surface and its
    /// length obeys
    /// `distance / ((1 + ε)(1 + EPS_ROUTE)) ≤ length ≤ distance × (1 + EPS_PATH)`
    /// under the same engine/portal-density conditions as [`EPS_ROUTE`]
    /// and [`crate::route::EPS_PATH`].
    ///
    /// Every call is a pure function of `(s, t)` — bit-identical across
    /// clones and thread counts, like the distance entry points.
    ///
    /// # Panics
    /// Panics if an id is out of range or the atlas has no path layer
    /// (built with the default distance-only config, or reloaded from a
    /// persisted image).
    pub fn shortest_path(&self, s: usize, t: usize) -> ShortestPath {
        expect_answers(check_range(&[site_pair(s, t)], self.n_sites()));
        // lint: allow(panic, "documented panic contract; persisted atlas images are distance-only by design")
        let paths = self.paths.as_ref().expect(
            "atlas has no path layer; build it with AtlasConfig::path_points_per_edge \
             (persisted atlas images answer distances only)",
        );
        let answer = self.answer(s, t, &mut RouteScratch::new(), &mut ProbeStats::default());
        let path = answer.and_then(|(distance, via)| {
            let path = match via {
                Via::Tile { tile, a, b } => tile_leg(&paths.tiles[tile], a, b),
                Via::Portals { ls, lt, exit } => {
                    let (hs, ht) = (self.site_home[s] as usize, self.site_home[t] as usize);
                    let chain = self.routing.chain(s, hs, exit);
                    self.portal_route_path(paths, (s, t), ((hs, ls), (ht, lt)), &chain)?
                }
            };
            Ok(ShortestPath { distance, path })
        });
        expect_answers(path)
    }

    /// Concatenates the per-tile legs of the portal route of `(s, t)` into
    /// one polyline: source site → entry portal (home tile), portal →
    /// portal (the tile whose table realised each graph edge), exit portal
    /// → target site (destination tile). Legs join at shared portal
    /// vertices, which carry identical global coordinates in both tiles.
    /// `chain` runs entry → exit and is never empty. Routing tables that
    /// contradict the tiles are [`QueryError::NoRoute`].
    fn portal_route_path(
        &self,
        paths: &AtlasPaths,
        pair: (usize, usize),
        ((ts, ls), (tt, lt)): ((usize, u32), (usize, u32)),
        chain: &[u32],
    ) -> Result<SurfacePath, QueryError> {
        let (entry, exit) = (chain[0], chain[chain.len() - 1]);
        let mut pts = tile_leg(&paths.tiles[ts], ls, self.portal_site_in(ts, entry, pair)?).points;
        for w in chain.windows(2) {
            let (a, b) = (w[0], w[1]);
            let tile = self.tile_realising_edge(a, b, pair)?;
            let leg = tile_leg(
                &paths.tiles[tile],
                self.portal_site_in(tile, a, pair)?,
                self.portal_site_in(tile, b, pair)?,
            );
            append_leg(&mut pts, leg);
        }
        let last = tile_leg(&paths.tiles[tt], self.portal_site_in(tt, exit, pair)?, lt);
        append_leg(&mut pts, last);
        Ok(SurfacePath::from_points(pts))
    }

    /// Local site id of global portal `gid` inside `tile`. Routes only
    /// cross portals of the tiles they pass through, so a miss means
    /// corrupt routing tables: [`QueryError::NoRoute`] for the pair
    /// `(s, t)` being routed.
    fn portal_site_in(
        &self,
        tile: usize,
        gid: u32,
        (s, t): (usize, usize),
    ) -> Result<u32, QueryError> {
        let tt = self.tile(tile)?;
        let k = tt
            .portals
            .binary_search_by_key(&gid, |&(g, _)| g)
            .map_err(|_| QueryError::NoRoute { s, t })?;
        Ok(tt.portals[k].1)
    }

    /// The lowest-numbered tile whose portal table produced the portal
    /// graph edge `a → b` (the dedup in [`build_portal_graph`] keeps the
    /// minimum weight, which is some tile's table entry verbatim, so a
    /// bitwise match exists unless the routing tables are corrupt, which
    /// is [`QueryError::NoRoute`] for the pair `(s, t)` being routed).
    fn tile_realising_edge(
        &self,
        a: u32,
        b: u32,
        (s, t): (usize, usize),
    ) -> Result<usize, QueryError> {
        let no_route = QueryError::NoRoute { s, t };
        let row = self.routing.edges(a);
        let w = row[row.binary_search_by_key(&b, |&(v, _)| v).map_err(|_| no_route)?].1;
        for tile in 0..self.n_tiles() {
            let tt = self.tile(tile)?;
            let Ok(pi) = tt.portals.binary_search_by_key(&a, |&(g, _)| g) else { continue };
            let Ok(pj) = tt.portals.binary_search_by_key(&b, |&(g, _)| g) else { continue };
            if tt.portal_table[pi * tt.portals.len() + pj].to_bits() == w.to_bits() {
                return Ok(tile);
            }
        }
        Err(no_route)
    }

    /// All POIs worth a detour of at most `delta` on a trip `s → t` — the
    /// atlas counterpart of [`SeOracle::pois_within_detour`], with the
    /// identical admission rule `d̃(s,p) + d̃(p,t) ≤ d̃(s,t) + delta` over
    /// the atlas metric and the same `(via-length, site)` ordering.
    ///
    /// The atlas has no global partition tree to prune with, so this is
    /// the exact dual sweep: one batch from `s` to every site, then one
    /// back to `t` from the sites still within budget. Results are exact
    /// by construction and bit-identical across thread counts. Needs no
    /// path layer.
    ///
    /// # Panics
    /// Panics if an id is out of range or `delta` is negative or
    /// non-finite.
    pub fn pois_within_detour(&self, s: usize, t: usize, delta: f64) -> Vec<DetourPoi> {
        let d_st = self.distance(s, t);
        assert!(
            delta >= 0.0 && delta.is_finite(),
            "detour budget must be finite and non-negative, got {delta}"
        );
        let budget = d_st + delta;
        let (s32, t32) = site_pair(s, t);
        let others: Vec<u32> =
            (0..self.n_sites() as u32).filter(|&p| p != s32 && p != t32).collect();
        let from_s = self.distance_many(&others.iter().map(|&p| (s32, p)).collect::<Vec<_>>());
        // The via-length can only grow past a site already over budget.
        let near: Vec<(u32, f64)> =
            others.into_iter().zip(from_s).filter(|&(_, d)| d <= budget).collect();
        let to_t = self.distance_many(&near.iter().map(|&(p, _)| (p, t32)).collect::<Vec<_>>());
        let mut out: Vec<DetourPoi> = near
            .into_iter()
            .zip(to_t)
            .filter(|&((_, from_s), to_t)| from_s + to_t <= budget)
            .map(|((p, from_s), to_t)| DetourPoi { site: p as usize, from_s, to_t })
            .collect();
        out.sort_by(|a, b| a.via().total_cmp(&b.via()).then(a.site.cmp(&b.site)));
        out
    }
}

/// What realised an atlas answer.
#[derive(Debug, Clone, Copy)]
enum Via {
    /// A tile holding both sites answered directly, from local sites
    /// `a` and `b`.
    Tile { tile: usize, a: u32, b: u32 },
    /// A portal route from local site `ls` of the source's home tile to
    /// `lt` of the target's, leaving the portal graph at `exit`.
    Portals { ls: u32, lt: u32, exit: u32 },
}

/// Shortest in-tile Steiner path between two tile-local sites,
/// straightened so edge quantisation does not accumulate across the
/// concatenated legs of a portal route.
fn tile_leg(tile: &TilePaths, a: u32, b: u32) -> SurfacePath {
    shortest_vertex_path_straightened(
        &tile.graph,
        tile.site_vertex[a as usize],
        tile.site_vertex[b as usize],
    )
    // lint: allow(panic, "invariant: tile sub-meshes are validated connected at construction")
    .expect("tile sub-meshes are connected")
}

/// Appends `leg` to `pts`, dropping the duplicated junction point (legs
/// meet at a shared portal vertex whose coordinates are identical in both
/// tiles' sub-meshes).
fn append_leg(pts: &mut Vec<terrain::Vec3>, leg: SurfacePath) {
    let dup = pts.last() == leg.points.first();
    debug_assert!(dup, "portal legs must join at the shared portal vertex");
    pts.extend(leg.points.into_iter().skip(usize::from(dup)));
}

/// The local site id of home tile `tile` in a membership list (present
/// in every validated image; `None` only for a corrupt one).
#[inline]
fn local_in(members: &[(u32, u32)], tile: u32) -> Option<u32> {
    members.iter().find(|&&(t, _)| t == tile).map(|&(_, local)| local)
}

impl fmt::Debug for Atlas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Atlas")
            .field("n_sites", &self.n_sites())
            .field("epsilon", &self.eps)
            .field("n_tiles", &self.n_tiles())
            .field("n_portals", &self.n_portals())
            .finish()
    }
}

/// Tiles a batch keeps pinned: the tiles a home-tile-pair group's direct
/// answers read, its two home tiles plus a guest tile both sites share.
/// With two, a pair answered from a guest tile (shared by both sites, home
/// to neither) evicts a home tile in the middle of its group.
const PIN_TILES: usize = 3;

/// A batch's tile pin set, its only scratch: the [`PIN_TILES`] tiles used
/// most recently, most recent first. Every tile access of
/// [`Atlas::answer`] goes through [`Self::tile`]; the pins persist for the
/// batch.
struct RouteScratch {
    pins: Vec<(usize, Arc<AtlasTile>)>,
}

impl RouteScratch {
    fn new() -> Self {
        Self { pins: Vec::with_capacity(PIN_TILES) }
    }

    /// Tile `t` of `atlas`, from the pin set when pinned; otherwise
    /// fetched through [`Atlas::tile`] and pinned in place of the least
    /// recently used pin.
    fn tile(&mut self, atlas: &Atlas, t: usize) -> Result<&Arc<AtlasTile>, QueryError> {
        let k = match self.pins.iter().position(|&(p, _)| p == t) {
            Some(k) => k,
            None => {
                let tile = atlas.tile(t)?;
                self.pins.truncate(PIN_TILES - 1);
                self.pins.push((t, tile));
                self.pins.len() - 1
            }
        };
        if k > 0 {
            self.pins[..=k].rotate_right(1);
        }
        Ok(&self.pins[0].1)
    }
}

/// Predecessor of a portal label realised by seeding from the source
/// site rather than by a graph edge.
const SEEDED: u32 = u32::MAX;

/// Everything cross-tile routing reads, resident for built, loaded and
/// out-of-core atlases alike: the portal graph and the per-site portal
/// labels (see the module docs). Each table is one flat allocation.
struct PortalRouting {
    /// CSR portal graph: `graph_adj[graph_off[p]..graph_off[p + 1]]` are
    /// `(neighbour, weight)` edges, ascending by neighbour, min weight per
    /// neighbour.
    graph_off: Vec<u32>,
    graph_adj: Vec<(u32, f64)>,
    /// Tile `t`'s portal ids, in its portal order:
    /// `tile_gids[tile_off[t]..tile_off[t + 1]]`.
    tile_off: Vec<u32>,
    tile_gids: Vec<u32>,
    /// Where each site's exit legs start in `legs`; a site has one per
    /// portal of its home tile.
    leg_at: Vec<u32>,
    /// Exit legs: each site's home tile oracle distance to every portal of
    /// that tile, in the tile's portal order. Grouped by home tile, sites
    /// ascending within a tile — the order [`site_portal_pairs`] asks each
    /// tile for them.
    legs: Vec<f64>,
    /// Reach rows, `n_sites × n_portals` row-major: row `s` holds every
    /// portal's label in the portal-graph Dijkstra seeded with `s`'s exit
    /// legs, `INFINITY` when unreachable.
    reach: Vec<f64>,
}

impl PortalRouting {
    /// Assembles the portal graph from every tile's portal view and the
    /// labels from `legs` (every tile's exit legs, concatenated in tile
    /// order): one seeded Dijkstra per site. Fails with the component count
    /// when the portal graph does not connect every tile.
    fn new(
        views: &[PortalView<'_>],
        n_portals: usize,
        site_home: &[u32],
        legs: Vec<f64>,
    ) -> Result<Self, usize> {
        if let Some(components) = routing_components(views, n_portals) {
            return Err(components);
        }
        let (graph_off, graph_adj) = build_portal_graph(views, n_portals);
        let mut tile_off = Vec::with_capacity(views.len() + 1);
        tile_off.push(0u32);
        let mut tile_gids = Vec::new();
        for &(portals, _) in views {
            tile_gids.extend(portals.iter().map(|&(gid, _)| gid));
            tile_off.push(tile_gids.len() as u32);
        }
        let n_legs = |t: usize| tile_off[t + 1] - tile_off[t];
        // Each tile's block of legs starts after the blocks of the tiles
        // before it; within a block, sites come in ascending order.
        let mut next = vec![0u32; views.len()];
        for &h in site_home {
            next[h as usize] += n_legs(h as usize);
        }
        let mut at = 0u32;
        for block in &mut next {
            (*block, at) = (at, at + *block);
        }
        debug_assert_eq!(at as usize, legs.len(), "one exit leg per site and home portal");
        let leg_at = site_home
            .iter()
            .map(|&h| {
                let start = next[h as usize];
                next[h as usize] += n_legs(h as usize);
                start
            })
            .collect();
        let mut routing =
            Self { graph_off, graph_adj, tile_off, tile_gids, leg_at, legs, reach: Vec::new() };
        let mut reach = vec![f64::INFINITY; site_home.len() * n_portals];
        let mut prev = vec![SEEDED; n_portals];
        if n_portals > 0 {
            for (s, row) in reach.chunks_exact_mut(n_portals).enumerate() {
                routing.dijkstra(routing.seeds(s, site_home[s] as usize), row, &mut prev);
            }
        }
        routing.reach = reach;
        Ok(routing)
    }

    fn n_portals(&self) -> usize {
        self.graph_off.len() - 1
    }

    /// Decoded size of every table.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.graph_off.len() + self.tile_off.len() + self.tile_gids.len() + self.leg_at.len())
            * size_of::<u32>()
            + self.graph_adj.len() * size_of::<(u32, f64)>()
            + (self.legs.len() + self.reach.len()) * size_of::<f64>()
    }

    /// Portal `p`'s out-edges, ascending by neighbour.
    fn edges(&self, p: u32) -> &[(u32, f64)] {
        let (lo, hi) = (self.graph_off[p as usize], self.graph_off[p as usize + 1]);
        &self.graph_adj[lo as usize..hi as usize]
    }

    /// Site `s`'s exit legs as `(portal id, leg)`, in the portal order of
    /// its home tile `home`.
    fn seeds(&self, s: usize, home: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let gids = &self.tile_gids[self.tile_off[home] as usize..self.tile_off[home + 1] as usize];
        gids.iter().copied().zip(self.legs[self.leg_at[s] as usize..].iter().copied())
    }

    /// The atlas's one Dijkstra: fills `dist` with every portal's label
    /// seeded with `seeds` (applied in order; `INFINITY` when unreachable)
    /// and `prev` with the portal whose edge set each label ([`SEEDED`] for
    /// a seed's own). The min-heap orders on `(distance bits, portal id)`:
    /// non-negative finite distances order identically by bits and by
    /// value, and the id tie-break makes the settle order, hence every f64
    /// accumulation, deterministic.
    fn dijkstra(
        &self,
        seeds: impl Iterator<Item = (u32, f64)>,
        dist: &mut [f64],
        prev: &mut [u32],
    ) {
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut relax = |heap: &mut BinaryHeap<_>, dist: &mut [f64], p: u32, d: f64, from: u32| {
            if d < dist[p as usize] {
                dist[p as usize] = d;
                prev[p as usize] = from;
                heap.push(Reverse((d.to_bits(), p)));
            }
        };
        dist.fill(f64::INFINITY);
        for (p, d) in seeds {
            relax(&mut heap, dist, p, d, SEEDED);
        }
        while let Some(Reverse((bits, u))) = heap.pop() {
            if bits > dist[u as usize].to_bits() {
                continue; // stale entry
            }
            let du = dist[u as usize];
            for &(v, w) in self.edges(u) {
                relax(&mut heap, dist, v, du + w, u);
            }
        }
    }

    /// The portal route from site `s` to site `t`, homed in tile `ht`:
    /// `min over t's exit legs k of reach[s][pₖ] + leg_t[k]`, strict `<` in
    /// `ht`'s portal order, with its exit portal `pₖ` (`None` when no
    /// portal of `ht` is reachable).
    fn route(&self, s: usize, t: usize, ht: usize) -> Option<(f64, u32)> {
        let n = self.n_portals();
        let reach = &self.reach[s * n..(s + 1) * n];
        let mut best: Option<(f64, u32)> = None;
        for (gid, leg) in self.seeds(t, ht) {
            let via = reach[gid as usize] + leg;
            if via < best.map_or(f64::INFINITY, |(d, _)| d) {
                best = Some((via, gid));
            }
        }
        best
    }

    /// The portal chain, entry → `exit`, of a route from site `s` (homed
    /// in `hs`) that left the graph through `exit`: the predecessors of a
    /// re-run of the Dijkstra that built `s`'s reach row lead back from
    /// `exit` to a seed.
    fn chain(&self, s: usize, hs: usize, exit: u32) -> Vec<u32> {
        let n = self.n_portals();
        let (mut dist, mut prev) = (vec![f64::INFINITY; n], vec![SEEDED; n]);
        self.dijkstra(self.seeds(s, hs), &mut dist, &mut prev);
        let mut chain = vec![exit];
        let mut p = exit;
        while prev[p as usize] != SEEDED {
            p = prev[p as usize];
            chain.push(p);
        }
        chain.reverse();
        chain
    }
}

/// `(site, portal)` local-id query pairs from each of `sites` to every
/// portal in `portals`, row-major in portal order: a tile's exit legs when
/// `sites` are the sites it homes (ascending by global site), its portal
/// table when they are its portals.
fn site_portal_pairs(portals: &[(u32, u32)], sites: &[u32]) -> Vec<(u32, u32)> {
    sites.iter().flat_map(|&l| portals.iter().map(move |&(_, p)| (l, p))).collect()
}

/// The exit legs of the sites a decoded `tile` homes (local ids `homed`,
/// ascending by global site), through its oracle's checked kernel. A
/// local id outside the tile or a failing leg means a corrupt image, so
/// loads report it here and a query never meets it.
fn exit_legs(tile: &AtlasTile, homed: &[u32]) -> Result<Vec<f64>, &'static str> {
    if homed.iter().any(|&l| l as usize >= tile.oracle.n_sites()) {
        return Err("site membership local id out of range");
    }
    let pairs = site_portal_pairs(&tile.portals, homed);
    match tile.oracle.distance_many_checked_with_stats(&pairs) {
        Ok((legs, _)) => Ok(legs),
        Err(_) => Err("tile oracle fails a portal label leg"),
    }
}

/// Per tile, the local ids of the sites it homes, ascending by global
/// site: what [`exit_legs`] takes.
fn homed_locals(
    site_home: &[u32],
    site_members: &[Vec<(u32, u32)>],
    n_tiles: usize,
) -> Result<Vec<Vec<u32>>, &'static str> {
    let mut homed = vec![Vec::new(); n_tiles];
    for (&home, members) in site_home.iter().zip(site_members) {
        let local = local_in(members, home).ok_or("site home missing from its memberships")?;
        homed[home as usize].push(local);
    }
    Ok(homed)
}

/// One tile's contribution to the portal graph — its `(global, local)`
/// portal list and row-major portal table — borrowed from a built tile or
/// from what a load keeps of a decoded one.
type PortalView<'a> = (&'a [(u32, u32)], &'a [f64]);

/// The portal views of a resident tile slice.
fn portal_views(tiles: &[AtlasTile]) -> Vec<PortalView<'_>> {
    tiles.iter().map(|t| (t.portals.as_slice(), t.portal_table.as_slice())).collect()
}

/// Tiles that share a portal can route to each other; if that relation
/// does not connect all tiles, returns `Some(component count)`.
fn routing_components(tiles: &[PortalView<'_>], n_portals: usize) -> Option<usize> {
    if tiles.len() <= 1 {
        return None;
    }
    let mut parent: Vec<u32> = (0..tiles.len() as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut owner: Vec<u32> = vec![u32::MAX; n_portals];
    for (t, &(portals, _)) in tiles.iter().enumerate() {
        for &(gid, _) in portals {
            let o = owner[gid as usize];
            if o == u32::MAX {
                owner[gid as usize] = t as u32;
            } else {
                let (a, b) = (find(&mut parent, o), find(&mut parent, t as u32));
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
    }
    let components = (0..tiles.len() as u32).filter(|&t| find(&mut parent, t) == t).count();
    (components > 1).then_some(components)
}

/// Assembles the CSR portal graph from every tile's portal table:
/// ascending neighbours per source, minimum weight kept when several tiles
/// connect the same portal pair.
fn build_portal_graph(tiles: &[PortalView<'_>], n_portals: usize) -> (Vec<u32>, Vec<(u32, f64)>) {
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_portals];
    for &(portals, table) in tiles {
        let p = portals.len();
        for i in 0..p {
            let gi = portals[i].0 as usize;
            for j in 0..p {
                if i != j {
                    adj[gi].push((portals[j].0, table[i * p + j]));
                }
            }
        }
    }
    let mut off = Vec::with_capacity(n_portals + 1);
    off.push(0u32);
    let mut flat = Vec::new();
    for mut edges in adj {
        edges.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        edges.dedup_by_key(|e| e.0);
        flat.extend(edges);
        off.push(flat.len() as u32);
    }
    (off, flat)
}

/// A cheaply clonable, `Send + Sync`, read-only view of a built [`Atlas`]
/// — the atlas twin of [`crate::serve::QueryHandle`]. It derefs to the
/// atlas, so every query is called through it. Cloning copies one
/// [`Arc`]; every clone answers every query bit-identically.
#[derive(Clone)]
pub struct AtlasHandle {
    atlas: Arc<Atlas>,
}

impl AtlasHandle {
    /// Freezes `atlas` into a shareable handle.
    pub fn new(atlas: Atlas) -> Self {
        Self { atlas: Arc::new(atlas) }
    }

    /// The underlying atlas (also reachable through `Deref`).
    pub fn atlas(&self) -> &Atlas {
        &self.atlas
    }
}

impl Deref for AtlasHandle {
    type Target = Atlas;

    fn deref(&self) -> &Atlas {
        &self.atlas
    }
}

impl fmt::Debug for AtlasHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtlasHandle")
            .field("n_sites", &self.n_sites())
            .field("epsilon", &self.epsilon())
            .field("n_tiles", &self.n_tiles())
            .field("n_portals", &self.n_portals())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geodesic::engine::GeodesicEngine;
    use terrain::gen::diamond_square;
    use terrain::poi::sample_uniform;

    /// Refined level-4 fractal fixture: `(mesh, distinct site vertices)`.
    fn fixture(n: usize, seed: u64) -> (Arc<TerrainMesh>, Vec<VertexId>) {
        let mesh = diamond_square(4, 0.6, seed).to_mesh();
        let pois = sample_uniform(&mesh, n, seed ^ 0xA71A);
        let refined = insert_surface_points(&mesh, &pois, None).unwrap();
        let mut sites = refined.poi_vertices;
        sites.sort_unstable();
        sites.dedup();
        (Arc::new(refined.mesh), sites)
    }

    fn atlas(n: usize, seed: u64, eps: f64) -> (Atlas, Arc<TerrainMesh>, Vec<VertexId>) {
        let (mesh, sites) = fixture(n, seed);
        let a = Atlas::build_over_vertices(
            mesh.clone(),
            sites.clone(),
            eps,
            EngineKind::EdgeGraph,
            &AtlasConfig::default(),
        )
        .unwrap();
        (a, mesh, sites)
    }

    #[test]
    fn answers_bracket_the_engine_metric() {
        let eps = 0.2;
        let (mesh, sites) = fixture(24, 3);
        // The ε_route ceiling assumes portals dense enough that seam gaps
        // stay small against query distances; on a 17×17 level-4 mesh that
        // means spacing 2 (every other seam row), the analogue of the
        // default spacing 8 on production-size tiles.
        let cfg = AtlasConfig {
            grid: TileGridConfig { portal_spacing: 2, ..Default::default() },
            ..Default::default()
        };
        let a = Atlas::build_over_vertices(
            mesh.clone(),
            sites.clone(),
            eps,
            EngineKind::EdgeGraph,
            &cfg,
        )
        .unwrap();
        assert!(a.n_tiles() == 4 && a.n_portals() > 0);
        let engine = geodesic::dijkstra::EdgeGraphEngine::new(mesh);
        let mut cross = 0;
        for s in 0..sites.len() {
            for t in 0..sites.len() {
                let d = a.distance(s, t);
                let exact = engine.distance(sites[s], sites[t]);
                assert!(
                    d >= (1.0 - eps) * exact - 1e-9,
                    "({s},{t}): atlas {d} under the geodesic floor {exact}"
                );
                assert!(
                    d <= (1.0 + eps) * (1.0 + EPS_ROUTE) * exact + 1e-9,
                    "({s},{t}): atlas {d} beyond the routed ceiling (exact {exact})"
                );
                cross += a.is_cross_tile(s, t) as usize;
            }
        }
        assert!(cross > 0, "fixture never exercised the portal route");
    }

    #[test]
    fn single_tile_atlas_is_bitwise_monolithic() {
        let (mesh, sites) = fixture(15, 5);
        let eps = 0.2;
        let cfg = AtlasConfig {
            grid: TileGridConfig { nx: 1, ny: 1, ..Default::default() },
            ..Default::default()
        };
        let a = Atlas::build_over_vertices(
            mesh.clone(),
            sites.clone(),
            eps,
            EngineKind::EdgeGraph,
            &cfg,
        )
        .unwrap();
        assert_eq!(a.n_tiles(), 1);
        assert_eq!(a.n_portals(), 0);
        let engine = make_engine(mesh, EngineKind::EdgeGraph);
        let space = VertexSiteSpace::new(engine, sites.clone());
        let mono = SeOracle::build(&space, eps, &cfg.build).unwrap();
        for s in 0..sites.len() {
            for t in 0..sites.len() {
                assert_eq!(a.distance(s, t).to_bits(), mono.distance(s, t).to_bits());
            }
        }
    }

    #[test]
    fn batch_and_parallel_match_single_queries() {
        let (a, _, sites) = atlas(18, 7, 0.25);
        let h = AtlasHandle::new(a);
        let n = sites.len() as u32;
        let pairs: Vec<(u32, u32)> = (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
        let want: Vec<u64> =
            pairs.iter().map(|&(s, t)| h.distance(s as usize, t as usize).to_bits()).collect();
        let batch: Vec<u64> = h.distance_many(&pairs).into_iter().map(f64::to_bits).collect();
        assert_eq!(batch, want, "batch must equal per-pair queries bit for bit");
        for threads in [0usize, 1, 3] {
            let par: Vec<u64> =
                h.distance_many_par(&pairs, threads).into_iter().map(f64::to_bits).collect();
            assert_eq!(par, want, "threads = {threads}");
        }
    }

    #[test]
    fn checked_kernel_types_failures() {
        let (mut a, _, sites) = atlas(10, 9, 0.25);
        let n = sites.len() as u32;
        assert_eq!(
            a.distance_many_checked_with_stats(&[(0, 1), (u32::MAX, 0), (0, n)]),
            Err(QueryError::SiteOutOfRange { index: 1, site: u32::MAX, n_sites: n as usize })
        );
        let pairs = [(0, 1), (2, 3), (3, 3)];
        let (got, _) = a.distance_many_checked_with_stats(&pairs).unwrap();
        assert_eq!(got, a.distance_many(&pairs));
        // A pair answered through a shared tile reports that tile's
        // probes; a pair routed from the labels alone reports none.
        let (mut shared, mut routed) = (0u64, 0u64);
        for s in 0..n {
            for t in 0..n {
                let (_, stats) = a.distance_many_checked_with_stats(&[(s, t)]).unwrap();
                if share_a_tile(&a, s as usize, t as usize) {
                    assert!(stats.probes >= 1, "({s},{t}): shared-tile answers report probes");
                    shared += 1;
                } else {
                    assert_eq!(stats.probes, 0, "({s},{t}): label routes make no probe");
                    routed += 1;
                }
            }
        }
        assert!(shared > 0 && routed > 0, "the fixture must exercise both kinds of pair");
        let all: Vec<(u32, u32)> = (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
        let (_, stats) = a.distance_many_checked_with_stats(&all).unwrap();
        assert!(stats.probes >= shared, "a batch reports every shared-tile answer's probes");

        // A site whose home tile is missing from its memberships — only a
        // corrupt image says so — fails its cross-tile pairs with NoRoute.
        let (s, t) = (0..sites.len())
            .flat_map(|s| (0..sites.len()).map(move |t| (s, t)))
            .find(|&(s, t)| a.is_cross_tile(s, t))
            .unwrap();
        let home = a.site_home[s];
        a.site_members[s].retain(|&(tile, _)| tile != home);
        assert_eq!(
            a.distance_many_checked_with_stats(&[(s as u32, t as u32)]),
            Err(QueryError::NoRoute { s, t })
        );
    }

    #[test]
    fn batch_error_is_the_first_failing_pair_in_input_order() {
        // Tile-affine order visits pairs by home-tile pair, but the error
        // must stay the input-order loop's. A site homed in tile 0 loses
        // its home membership, so each of its cross-tile pairs fails; the
        // one at the lower input index sorts after the other.
        let (a, _, sites) = atlas(24, 3, 0.25);
        let n = sites.len();
        let homed = |tile: usize| (0..n).find(|&x| a.tile_of_site(x) == tile);
        let s = homed(0).unwrap();
        // Sites homed in other tiles, ascending by home tile.
        let far: Vec<usize> = (1..a.n_tiles()).filter_map(homed).collect();
        assert!(far.len() >= 2, "the fixture must home sites in two other tiles");
        let (near, late) = (far[0], far[far.len() - 1]);
        // A valid pair whose home-tile pair sorts last of the three.
        let u = homed(a.n_tiles() - 1).unwrap();
        let batch = [(u as u32, u as u32), (s as u32, late as u32), (s as u32, near as u32)];

        let path = std::env::temp_dir()
            .join(format!("terrain-oracle-atlas-first-error-{}.seat", std::process::id()));
        std::fs::write(&path, a.save_bytes_compact(false)).unwrap();
        let mut ooc = Atlas::open_out_of_core(&path, 0).unwrap();
        let mut resident = a;
        for atlas in [&mut resident, &mut ooc] {
            let home = atlas.site_home[s];
            atlas.site_members[s].retain(|&(tile, _)| tile != home);
            assert_eq!(
                atlas.distance_many_checked_with_stats(&batch),
                Err(QueryError::NoRoute { s, t: late })
            );
        }
        // An out-of-range id is still rejected before any tile work: the
        // store is not reached at all.
        let accesses = |a: &Atlas| {
            let st = a.tile_store().unwrap().stats();
            st.hits + st.misses
        };
        let before = accesses(&ooc);
        let mut bad = batch.to_vec();
        bad.push((0, n as u32));
        assert_eq!(
            ooc.distance_many_checked_with_stats(&bad),
            Err(QueryError::SiteOutOfRange { index: 3, site: n as u32, n_sites: n })
        );
        assert_eq!(accesses(&ooc), before, "the range check must precede every tile access");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn label_routed_pairs_reach_no_tile() {
        // Cross-tile pairs whose membership lists do not intersect are
        // answered from the portal labels alone: out of core at the floor
        // budget, a batch of them reaches the store zero times and answers
        // bit-identically to the resident atlas.
        let (a, _, sites) = atlas(24, 3, 0.25);
        let n = sites.len() as u32;
        let pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|s| (0..n).map(move |t| (s, t)))
            .filter(|&(s, t)| !share_a_tile(&a, s as usize, t as usize))
            .collect();
        assert!(!pairs.is_empty(), "the fixture must have pairs sharing no tile");

        let path = std::env::temp_dir()
            .join(format!("terrain-oracle-atlas-label-routes-{}.seat", std::process::id()));
        std::fs::write(&path, a.save_bytes_compact(false)).unwrap();
        let ooc = Atlas::open_out_of_core(&path, 0).unwrap();
        std::fs::remove_file(&path).unwrap();
        let accesses = || {
            let st = ooc.tile_store().unwrap().stats();
            st.hits + st.misses
        };
        assert_eq!(accesses(), 0, "the open must build the labels without the store");
        let (got, stats) = ooc.distance_many_checked_with_stats(&pairs).unwrap();
        assert_eq!(accesses(), 0, "label-routed pairs must not reach the store");
        assert_eq!(stats.probes, 0, "label-routed pairs make no tile probe");
        let bits = |d: Vec<f64>| d.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(a.distance_many(&pairs)));
    }

    #[test]
    fn a_tile_failing_a_label_leg_fails_the_load_and_the_open() {
        // Tile 0's oracle keeps its tree and its leaf self pairs (distance
        // 0) but loses every other stored pair: its image still decodes,
        // but no exit leg to another site has a covering pair. The labels
        // are built at load, so the load and the out-of-core open both
        // reject the image, and no query ever meets the tile.
        let (mut a, _, _) = atlas(12, 45, 0.25);
        let TileSet::Resident(tiles) = &mut a.tiles else { unreachable!("a built atlas") };
        let t0 = Arc::clone(&tiles[0]);
        let tree = t0.oracle.tree().clone();
        let self_pairs = tree.leaf_of_site.iter().map(|&l| (phash::pair_key(l, l), 0.0)).collect();
        let self_pairs = phash::PairTable::new(tree.n_nodes(), self_pairs);
        let hollow = SeOracle::from_parts(t0.oracle.epsilon(), tree, self_pairs);
        tiles[0] = Arc::new(AtlasTile {
            oracle: hollow,
            portals: t0.portals.clone(),
            portal_table: t0.portal_table.clone(),
        });
        let bytes = a.save_bytes_compact(false);
        let failing = |r: Result<Atlas, PersistError>| {
            matches!(r, Err(PersistError::Corrupt("tile oracle fails a portal label leg")))
        };
        assert!(failing(Atlas::load_bytes(&bytes)), "the resident load must reject the tile");
        let path = std::env::temp_dir()
            .join(format!("terrain-oracle-atlas-hollow-tile-{}.seat", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        assert!(failing(Atlas::open_out_of_core(&path, 0)), "the open must reject the tile");
        std::fs::remove_file(&path).unwrap();
    }

    /// Whether sites `s` and `t` share a tile, so that tile's oracle
    /// answers the pair directly.
    fn share_a_tile(a: &Atlas, s: usize, t: usize) -> bool {
        a.site_members[s].iter().any(|&(x, _)| a.site_members[t].iter().any(|&(y, _)| x == y))
    }

    #[test]
    fn out_of_range_panics_are_actionable() {
        let (a, _, sites) = atlas(8, 11, 0.3);
        let n = sites.len();
        for (what, f) in [
            (
                "distance",
                Box::new(|| {
                    a.distance(n, 0);
                }) as Box<dyn Fn() + std::panic::UnwindSafe + '_>,
            ),
            (
                "distance_many",
                Box::new(|| {
                    a.distance_many(&[(0, 0), (0, n as u32)]);
                }),
            ),
        ] {
            let err = std::panic::catch_unwind(f).unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("out of range") && msg.contains("distance_many_checked_with_stats"),
                "{what}: panic message not actionable: {msg}"
            );
        }
    }

    #[test]
    fn empty_batches_are_empty_without_pool_work() {
        let (a, _, _) = atlas(6, 13, 0.3);
        let h = AtlasHandle::new(a);
        assert!(h.distance_many(&[]).is_empty());
        assert_eq!(h.distance_many_checked_with_stats(&[]), Ok((vec![], ProbeStats::default())));
        assert!(h.distance_many_par(&[], 0).is_empty());
        assert!(h.distance_many_par(&[], 7).is_empty());
    }

    #[test]
    fn thread_splits_build_identical_atlases() {
        let (mesh, sites) = fixture(16, 15);
        let eps = 0.2;
        let build = |threads| {
            let cfg = AtlasConfig {
                build: BuildConfig { threads, ..Default::default() },
                ..Default::default()
            };
            Atlas::build_over_vertices(
                mesh.clone(),
                sites.clone(),
                eps,
                EngineKind::EdgeGraph,
                &cfg,
            )
            .unwrap()
        };
        let one = build(1);
        let many = build(5); // outer tiles + inner pipeline both engaged
        assert_eq!(one.n_portals(), many.n_portals());
        for s in 0..sites.len() {
            for t in 0..sites.len() {
                assert_eq!(one.distance(s, t).to_bits(), many.distance(s, t).to_bits());
            }
        }
    }

    #[test]
    fn clones_share_the_atlas_and_debug_reports_shape() {
        let (a, _, _) = atlas(9, 17, 0.25);
        let h = AtlasHandle::new(a);
        let c = h.clone();
        assert!(std::ptr::eq(h.atlas(), c.atlas()), "clone must share, not copy");
        assert_eq!(h.distance(0, 5).to_bits(), c.distance(0, 5).to_bits());
        let dbg = format!("{h:?}");
        assert!(dbg.contains("AtlasHandle") && dbg.contains("n_tiles"), "{dbg}");
        assert!(format!("{:?}", h.atlas()).contains("Atlas"));
    }

    #[test]
    fn empty_pois_rejected() {
        let mesh = diamond_square(3, 0.6, 19).to_mesh();
        assert!(matches!(
            Atlas::build(&mesh, &[], 0.2, EngineKind::EdgeGraph, &AtlasConfig::default()),
            Err(AtlasError::NoPois)
        ));
    }

    #[test]
    fn bad_epsilon_rejected_before_any_tile_work() {
        let (mesh, sites) = fixture(6, 25);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Atlas::build_over_vertices(
                    mesh.clone(),
                    sites.clone(),
                    eps,
                    EngineKind::EdgeGraph,
                    &AtlasConfig::default(),
                ),
                Err(AtlasError::InvalidEpsilon(_))
            ));
        }
    }

    #[test]
    fn bad_grid_reported_as_tile_error() {
        let (mesh, sites) = fixture(8, 21);
        let cfg = AtlasConfig {
            grid: TileGridConfig { nx: 0, ..Default::default() },
            ..Default::default()
        };
        assert!(matches!(
            Atlas::build_over_vertices(mesh, sites, 0.2, EngineKind::EdgeGraph, &cfg),
            Err(AtlasError::Tile(TileError::BadConfig(_)))
        ));
    }

    #[test]
    fn build_stats_are_populated() {
        let (a, _, _) = atlas(14, 23, 0.2);
        let s = a.build_stats();
        assert_eq!(s.n_tiles, 4);
        assert!(s.n_portals > 0 && s.portal_edges > 0);
        assert_eq!(s.tile_sites.len(), 4);
        assert!(s.tile_sites.iter().all(|&n| n > 0));
        assert!(s.workers >= 1 && s.tile_workers >= 1);
        assert!(s.total >= s.oracles);
    }

    #[test]
    fn path_layer_answers_match_distances_and_stay_on_surface() {
        let (mesh, sites) = fixture(24, 91);
        let cfg = AtlasConfig {
            grid: TileGridConfig { portal_spacing: 2, ..Default::default() },
            path_points_per_edge: Some(3),
            ..Default::default()
        };
        let a = Atlas::build_over_vertices(
            mesh.clone(),
            sites.clone(),
            0.2,
            EngineKind::EdgeGraph,
            &cfg,
        )
        .unwrap();
        assert!(a.has_paths());
        assert_eq!(a.path_points_per_edge(), Some(3));
        let mut cross = 0usize;
        for s in 0..a.n_sites() {
            for t in 0..a.n_sites() {
                let sp = a.shortest_path(s, t);
                assert_eq!(
                    sp.distance.to_bits(),
                    a.distance(s, t).to_bits(),
                    "({s},{t}): path query must not change the metric"
                );
                if s == t {
                    assert_eq!(sp.path.length, 0.0);
                    continue;
                }
                assert_eq!(sp.path.points[0], mesh.vertex(sites[s]), "({s},{t}) start");
                assert_eq!(*sp.path.points.last().unwrap(), mesh.vertex(sites[t]), "({s},{t}) end");
                assert!(
                    sp.path.length <= sp.distance * (1.0 + crate::route::EPS_PATH) + 1e-9,
                    "({s},{t}): path {} breaks EPS_PATH vs {}",
                    sp.path.length,
                    sp.distance
                );
                if a.is_cross_tile(s, t) {
                    cross += 1;
                }
            }
        }
        assert!(cross > 0, "fixture must exercise portal routes");
    }

    #[test]
    #[should_panic(expected = "no path layer")]
    fn distance_only_atlas_rejects_path_queries() {
        let (a, _, _) = atlas(8, 5, 0.25);
        assert!(!a.has_paths());
        a.shortest_path(0, 1);
    }

    #[test]
    fn detour_matches_the_dual_sweep_over_the_atlas_metric() {
        let (a, _, _) = atlas(20, 7, 0.2);
        for (s, t) in [(0usize, 1usize), (3, 17), (11, 2)] {
            let d_st = a.distance(s, t);
            for delta in [0.0, 0.3 * d_st, 3.0 * d_st] {
                let got = a.pois_within_detour(s, t, delta);
                let budget = d_st + delta;
                let mut want: Vec<DetourPoi> = (0..a.n_sites())
                    .filter(|&p| p != s && p != t)
                    .map(|p| DetourPoi {
                        site: p,
                        from_s: a.distance(s, p),
                        to_t: a.distance(p, t),
                    })
                    .filter(|d| d.via() <= budget)
                    .collect();
                want.sort_by(|x, y| (x.via(), x.site).partial_cmp(&(y.via(), y.site)).unwrap());
                assert_eq!(got, want, "s={s} t={t} delta={delta}");
            }
        }
    }
}
