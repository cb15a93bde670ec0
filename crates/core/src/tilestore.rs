//! Out-of-core backing store for atlas tiles.
//!
//! A [`TileStore`] keeps one open handle on a `SEAT` image (v1 or v2) and
//! decodes tile segments on demand, holding at most `resident_budget`
//! decoded bytes in memory. [`crate::Atlas::open_out_of_core`] routes every
//! tile access through `TileStore::tile`, which returns an `Arc`. An atlas
//! batch keeps the `Arc`s of the three tiles it used most recently in a
//! pin set and asks the store only for a tile it has not pinned, so
//! eviction mid-batch never invalidates data the batch still reads, and a
//! batch holds at most three decoded tiles beyond the budget's resident
//! set.
//!
//! # Validation happens once, at open
//!
//! `TileStore::open` reads the whole image transiently through
//! `persist::read_framed`, the frame reader every image loader and the wire
//! protocol share, so the frame header, length and payload checksum are
//! checked exactly as a resident load checks them. It then validates
//! **every** tile segment (each nested oracle image carries its own
//! checksum), retains the atlas-level metadata (portal lists, portal
//! tables, site membership), computes the exit legs of the sites each tile
//! homes for the atlas's portal labels while the tile is decoded, and
//! drops the decoded tiles again — so building the labels loads no tile
//! through the store and leaves its counters alone. A tile whose oracle
//! fails a label leg fails the open as [`PersistError::Corrupt`]. The file
//! handle it read through stays open for the store's tile reads. After a
//! successful open the only failures left on the tile path are
//! environmental — the backing file shrank or was rewritten underneath
//! us. `TileStore::tile` reports those as [`QueryError::TileUnavailable`]
//! without caching anything, so the store stays healthy and the next miss
//! on the tile reads it again.
//!
//! # Determinism
//!
//! Eviction is least-recently-used where "time" is the **query-ordinal
//! tick**: a counter bumped once per `TileStore::tile` call. No clock is
//! read anywhere (oracle-lint d2 stays green), and the decoded bytes of a
//! tile are a pure function of the image, so answers are bit-identical to
//! a fully resident atlas for any budget and any eviction schedule.
//!
//! # Metrics
//!
//! The store registers in its own [`obs::Registry`] (see
//! [`TileStore::registry`]): counters `atlas_tile_hits_total`,
//! `atlas_tile_misses_total`, `atlas_tile_loads_total`,
//! `atlas_tile_load_failures_total`, `atlas_tile_evictions_total` and
//! gauges `atlas_tiles_resident`, `atlas_resident_bytes`. Every miss
//! triggers exactly one load attempt (`loads + load_failures == misses`),
//! and the byte gauge never exceeds the budget while more than one tile is
//! resident.

// lint: query-path

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;
// The store is the one deliberately stateful piece of the query path: an
// LRU cache *is* interior mutability. All of it lives behind this single
// mutex; decoded tile bytes are immutable once published via `Arc`.
// lint: allow(d3, "LRU residency cache: single lock, query-ordinal ticks, decoded tiles immutable behind Arc")
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::atlas::{exit_legs, homed_locals, AtlasTile};
use crate::oracle::QueryError;
use crate::persist::{
    decode_tile_segment, parse_seat_layout, read_framed, PersistError, ATLAS_MAGIC, ATLAS_VERSION,
    ATLAS_VERSION_COMPACT, IMAGE_FRAME_CAP,
};

/// Per-tile portal payload: the tile's `(portal ids, portal–portal
/// distance table)`, kept resident so routing never loads a tile.
pub(crate) type PortalData = (Vec<(u32, u32)>, Vec<f64>);

/// Atlas-level metadata collected while `TileStore::open` validates the
/// image — everything [`crate::Atlas`] needs besides the tiles themselves,
/// including the exit legs the open computes from each tile while it is
/// decoded, so the atlas builds its portal labels without a tile load.
pub(crate) struct StoreMeta {
    /// Error parameter ε shared by every tile oracle.
    pub(crate) eps: f64,
    /// Number of portals in the routing graph.
    pub(crate) n_portals: usize,
    /// Home tile per global site.
    pub(crate) site_home: Vec<u32>,
    /// `(tile, local id)` memberships per global site.
    pub(crate) site_members: Vec<Vec<(u32, u32)>>,
    /// Per-tile `(portals, portal table)` — retained resident so the
    /// portal routing graph never needs a tile load.
    pub(crate) portal_data: Vec<PortalData>,
    /// Every tile's exit legs (the sites it homes, ascending, times its
    /// portals), concatenated in tile order: the input of the atlas's
    /// portal labels, computed during validation.
    pub(crate) exit_legs: Vec<f64>,
    /// Sites per tile (shape statistics).
    pub(crate) tile_sites: Vec<usize>,
}

/// Residency counters and cache statistics, read via [`TileStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStoreStats {
    /// Tile accesses served from the resident set.
    pub hits: u64,
    /// Tile accesses that had to decode the segment from disk.
    pub misses: u64,
    /// Segment decodes performed.
    pub loads: u64,
    /// Misses whose segment no longer read or decoded
    /// ([`QueryError::TileUnavailable`]); `loads + load_failures ==
    /// misses`.
    pub load_failures: u64,
    /// Tiles evicted to stay under the byte budget.
    pub evictions: u64,
    /// Tiles currently resident.
    pub resident_tiles: usize,
    /// Decoded bytes currently resident.
    pub resident_bytes: usize,
    /// Configured resident-byte budget.
    pub budget_bytes: usize,
    /// Total tiles in the backing image.
    pub n_tiles: usize,
}

/// Mutable cache state, all behind one lock.
struct StoreState {
    /// Open handle on the backing image.
    file: File,
    /// Resident decoded tiles (`None` = not resident).
    slots: Vec<Option<Arc<AtlasTile>>>,
    /// Last-access tick per slot (valid only while resident).
    stamp: Vec<u64>,
    /// Query-ordinal clock: bumped once per `TileStore::tile` call.
    tick: u64,
    /// Decoded bytes of the resident set.
    resident_bytes: usize,
    /// Tiles in the resident set.
    resident_tiles: usize,
}

/// Lazily decoding, LRU-evicting tile source for one `SEAT` image. See
/// the module docs for the open-time validation and determinism contract.
pub struct TileStore {
    // lint: allow(d3, "the residency cache state; see module docs")
    state: Mutex<StoreState>,
    /// Absolute `(offset, len)` of each tile segment in the backing file.
    segments: Vec<(u64, usize)>,
    /// Decoded footprint of each tile (measured at open).
    decoded_sizes: Vec<usize>,
    /// Image format version (v1 and v2 segments decode differently).
    version: u32,
    /// Portal-id bound handed to the segment decoder.
    n_portals: usize,
    /// Resident-byte budget (a lone tile may exceed it; see `tile`).
    budget: usize,
    registry: obs::Registry,
    hits: Arc<obs::Counter>,
    misses: Arc<obs::Counter>,
    loads: Arc<obs::Counter>,
    load_failures: Arc<obs::Counter>,
    evictions: Arc<obs::Counter>,
    resident_tiles_g: Arc<obs::Gauge>,
    resident_bytes_g: Arc<obs::Gauge>,
}

impl TileStore {
    /// Opens and fully validates a `SEAT` image for out-of-core serving.
    ///
    /// Reads the whole file once: the frame (through `read_framed`), the
    /// atlas layout, and every tile segment (decoded transiently to
    /// validate it, measure its resident footprint and compute the exit
    /// legs of the sites it homes, then dropped).
    /// Returns the store, which keeps the opened file for its tile reads,
    /// plus the atlas-level [`StoreMeta`] the caller assembles an
    /// [`crate::Atlas`] from. `resident_budget` caps the decoded bytes held
    /// at once.
    pub(crate) fn open(
        path: &Path,
        resident_budget: usize,
    ) -> Result<(TileStore, StoreMeta), PersistError> {
        let mut file = File::open(path)?;
        let versions = ATLAS_VERSION..=ATLAS_VERSION_COMPACT;
        let (version, payload) = read_framed(&mut file, ATLAS_MAGIC, versions, IMAGE_FRAME_CAP)?;

        let layout = parse_seat_layout(&payload, version)?;
        let n_tiles = layout.segments.len();
        let homed = homed_locals(&layout.site_home, &layout.site_members, n_tiles)
            .map_err(PersistError::Corrupt)?;
        let mut segments = Vec::with_capacity(n_tiles);
        let mut decoded_sizes = Vec::with_capacity(n_tiles);
        let mut portal_data = Vec::with_capacity(n_tiles);
        let mut tile_sites = Vec::with_capacity(n_tiles);
        let mut legs = Vec::new();
        for (&(off, seg_len), homed) in layout.segments.iter().zip(&homed) {
            // One tile at a time: the transient decode peak is a single
            // tile, not the whole atlas — the point of out-of-core.
            let tile =
                decode_tile_segment(&payload[off..off + seg_len], version, layout.n_portals)?;
            legs.extend(exit_legs(&tile, homed).map_err(PersistError::Corrupt)?);
            decoded_sizes.push(tile.footprint());
            tile_sites.push(tile.oracle.n_sites());
            // Segment spans are payload-relative; the 16-byte frame header
            // precedes the payload in the file.
            segments.push((16 + off as u64, seg_len));
            let AtlasTile { oracle: _, portals, portal_table } = tile;
            portal_data.push((portals, portal_table));
        }
        for members in &layout.site_members {
            for &(t, l) in members {
                if t as usize >= n_tiles || l as usize >= tile_sites[t as usize] {
                    return Err(PersistError::Corrupt("site membership local id out of range"));
                }
            }
        }
        drop(payload);

        let meta = StoreMeta {
            eps: layout.eps,
            n_portals: layout.n_portals,
            site_home: layout.site_home,
            site_members: layout.site_members,
            portal_data,
            exit_legs: legs,
            tile_sites,
        };
        let registry = obs::Registry::new();
        let store = TileStore {
            // lint: allow(d3, "constructing the residency cache; see module docs")
            state: Mutex::new(StoreState {
                file,
                slots: vec![None; n_tiles],
                stamp: vec![0; n_tiles],
                tick: 0,
                resident_bytes: 0,
                resident_tiles: 0,
            }),
            segments,
            decoded_sizes,
            version,
            n_portals: meta.n_portals,
            budget: resident_budget,
            hits: registry.counter("atlas_tile_hits_total"),
            misses: registry.counter("atlas_tile_misses_total"),
            loads: registry.counter("atlas_tile_loads_total"),
            load_failures: registry.counter("atlas_tile_load_failures_total"),
            evictions: registry.counter("atlas_tile_evictions_total"),
            resident_tiles_g: registry.gauge("atlas_tiles_resident"),
            resident_bytes_g: registry.gauge("atlas_resident_bytes"),
            registry,
        };
        Ok((store, meta))
    }

    /// Returns tile `t`, decoding it from the backing file if it is not
    /// resident and evicting least-recently-used tiles while the resident
    /// set exceeds the byte budget. The just-loaded tile is never evicted
    /// (ticks are unique and monotone, so it always carries the maximal
    /// stamp), which also lets a single tile larger than the budget be
    /// served: the floor is one resident tile.
    ///
    /// A segment that no longer reads or decodes (the file was truncated
    /// or rewritten after `TileStore::open` validated it) is
    /// [`QueryError::TileUnavailable`]: counted, nothing cached, the
    /// resident set untouched.
    pub(crate) fn tile(&self, t: usize) -> Result<Arc<AtlasTile>, QueryError> {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        if let Some(tile) = &st.slots[t] {
            let tile = Arc::clone(tile);
            st.stamp[t] = tick;
            self.hits.inc();
            return Ok(tile);
        }
        self.misses.inc();

        let (off, len) = self.segments[t];
        let mut buf = vec![0u8; len];
        let read = st.file.seek(SeekFrom::Start(off)).and_then(|_| st.file.read_exact(&mut buf));
        let decoded =
            read.ok().and_then(|()| decode_tile_segment(&buf, self.version, self.n_portals).ok());
        let Some(tile) = decoded else {
            self.load_failures.inc();
            return Err(QueryError::TileUnavailable { tile: t });
        };
        let tile = Arc::new(tile);
        st.slots[t] = Some(Arc::clone(&tile));
        st.stamp[t] = tick;
        st.resident_bytes += self.decoded_sizes[t];
        st.resident_tiles += 1;
        self.loads.inc();

        while st.resident_bytes > self.budget && st.resident_tiles > 1 {
            let resident = (0..st.slots.len()).filter(|&i| st.slots[i].is_some());
            let Some(victim) = resident.min_by_key(|&i| st.stamp[i]) else { break };
            st.slots[victim] = None;
            st.resident_bytes -= self.decoded_sizes[victim];
            st.resident_tiles -= 1;
            self.evictions.inc();
        }
        self.resident_tiles_g.set(st.resident_tiles as u64);
        self.resident_bytes_g.set(st.resident_bytes as u64);
        Ok(tile)
    }

    /// Locks the cache state. The only call under the lock that could
    /// panic is the segment decode, which runs before any state changes,
    /// so even a poisoned lock guards valid state and is recovered rather
    /// than propagated.
    fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of tiles in the backing image.
    pub(crate) fn n_tiles(&self) -> usize {
        self.segments.len()
    }

    /// Sum of every tile's decoded footprint (what a fully resident load
    /// would hold), measured during open-time validation.
    pub(crate) fn decoded_bytes_total(&self) -> usize {
        self.decoded_sizes.iter().sum()
    }

    /// The configured resident-byte budget.
    pub fn resident_budget(&self) -> usize {
        self.budget
    }

    /// The registry carrying this store's counters and gauges.
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// A consistent snapshot of the cache statistics.
    pub fn stats(&self) -> TileStoreStats {
        let st = self.lock();
        TileStoreStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            loads: self.loads.get(),
            load_failures: self.load_failures.get(),
            evictions: self.evictions.get(),
            resident_tiles: st.resident_tiles,
            resident_bytes: st.resident_bytes,
            budget_bytes: self.budget,
            n_tiles: self.segments.len(),
        }
    }
}
