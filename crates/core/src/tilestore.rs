//! Out-of-core backing store for atlas tiles.
//!
//! A [`TileStore`] keeps one open handle on a `SEAT` image (v1 or v2) that
//! [`crate::Atlas::open_out_of_core`] has already validated, and decodes
//! tile segments on demand, holding at most `resident_budget` decoded
//! bytes in memory. It is a residency cache and nothing more: the open
//! reads the image, validates every tile and hands the store the segment
//! spans and decoded sizes it measured. The atlas routes every tile access
//! through `TileStore::tile`, which returns an `Arc`. An atlas batch keeps
//! the `Arc`s of the three tiles it used most recently in a pin set and
//! asks the store only for a tile it has not pinned, so eviction mid-batch
//! never invalidates data the batch still reads (see
//! [Concurrency](#concurrency) for the memory bound this gives).
//!
//! # Concurrency
//!
//! The store's one `Mutex` guards bookkeeping only: the slots, their
//! stamps, the tick, the resident totals and the file handle. A miss marks
//! its slot *loading* and reads the segment under the lock, then releases
//! the lock to decode the segment and build the tile's `Arc`, and takes it
//! again to publish the tile and evict. So hits on resident tiles go on
//! while a tile decodes, and two callers decode two different tiles at
//! once. A caller that finds its tile loading waits on the store's one
//! `Condvar` and takes the published tile as a hit, a *load wait*: one
//! decode per tile is in flight, never two. A load that fails or unwinds
//! clears its slot and wakes its waiters from a drop guard, so no slot
//! stays loading after a panic that a server catches; a woken waiter that
//! finds the slot absent retries as its own miss.
//!
//! Memory: the resident set stays within the budget (floor: one tile),
//! and beyond it each concurrent caller holds at most the three tiles its
//! batch pins plus the transient of one miss. That transient is the
//! segment buffer the miss reads plus the tile being built from it, and
//! nothing more: the nested oracle image is checked and parsed in place in
//! the segment buffer, and its pair table is filled straight from the key
//! stream, with no staged copy of either.
//!
//! # Determinism
//!
//! Eviction is least-recently-used where "time" is the **query-ordinal
//! tick**: a counter bumped once per `TileStore::tile` call and once per
//! published load. No clock is read anywhere (oracle-lint d2 stays green),
//! and the decoded bytes of a tile are a pure function of the image, so
//! answers are bit-identical to a fully resident atlas for any budget, any
//! number of callers and any eviction schedule.
//!
//! # Metrics
//!
//! The store registers in its own [`obs::Registry`] (see
//! [`TileStore::registry`]): counters `atlas_tile_hits_total`,
//! `atlas_tile_misses_total`, `atlas_tile_loads_total`,
//! `atlas_tile_load_failures_total`, `atlas_tile_load_waits_total`,
//! `atlas_tile_evictions_total` and gauges `atlas_tiles_resident`,
//! `atlas_resident_bytes`. Every miss makes exactly one load attempt, so
//! `loads + load_failures == misses` whenever no load is in flight; the
//! byte gauge never exceeds the budget while more than one tile is
//! resident.

// lint: query-path

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::Arc;
// The store is the one deliberately stateful piece of the query path: an
// LRU cache *is* interior mutability. All of it lives behind this single
// mutex; decoded tile bytes are immutable once published via `Arc`.
// lint: allow(d3, "LRU residency cache: single lock, query-ordinal ticks, decoded tiles immutable behind Arc")
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::atlas::AtlasTile;
use crate::oracle::QueryError;
use crate::persist::decode_tile_segment;

/// Residency counters and cache statistics, read via [`TileStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStoreStats {
    /// Tile accesses served from the resident set, including the load
    /// waits: accesses that found their tile being decoded by another
    /// caller and took the tile it published.
    pub hits: u64,
    /// Tile accesses that had to decode the segment from disk.
    pub misses: u64,
    /// Segment decodes published into the resident set.
    pub loads: u64,
    /// Misses whose segment no longer read or decoded
    /// ([`QueryError::TileUnavailable`]), or whose load unwound;
    /// `loads + load_failures == misses` whenever no load is in flight.
    pub load_failures: u64,
    /// Hits that waited on another caller's decode of the same tile
    /// instead of decoding it again (single-flight).
    pub load_waits: u64,
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

/// One tile's residency.
#[derive(Clone)]
enum Slot {
    /// Neither resident nor loading.
    Absent,
    /// One caller is decoding the segment outside the lock; other callers
    /// for the tile wait on [`TileStore::tile`]'s condvar.
    Loading,
    /// Decoded and resident, with the tick of its last access.
    Resident { tile: Arc<AtlasTile>, stamp: u64 },
}

/// Mutable cache state, all behind one lock.
struct StoreState {
    /// Open handle on the backing image.
    file: File,
    /// Residency per tile.
    slots: Vec<Slot>,
    /// Query-ordinal clock: bumped once per `TileStore::tile` call and once
    /// per published load.
    tick: u64,
    /// Decoded bytes of the resident set.
    resident_bytes: usize,
    /// Tiles in the resident set.
    resident_tiles: usize,
    /// A test's hold on the next load; see [`Hold`].
    #[cfg_attr(not(test), allow(dead_code))]
    hold: Hold,
}

/// Nothing outside tests: the unit tests' hold point (`tests::Hold`) stops
/// a load outside the lock until the test releases it.
#[cfg(not(test))]
type Hold = ();
#[cfg(test)]
type Hold = Option<Box<tests::Hold>>;

/// Lazily decoding, LRU-evicting tile source for one validated `SEAT`
/// image. See the module docs for the concurrency and determinism
/// contract.
pub struct TileStore {
    // lint: allow(d3, "the residency cache state; see module docs")
    state: Mutex<StoreState>,
    /// Signalled whenever a loading slot settles (published or cleared).
    loaded: Condvar,
    /// Absolute `(offset, len)` of each tile segment in the backing file.
    segments: Vec<(u64, usize)>,
    /// Decoded footprint of each tile (measured by the open).
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
    load_waits: Arc<obs::Counter>,
    evictions: Arc<obs::Counter>,
    resident_tiles_g: Arc<obs::Gauge>,
    resident_bytes_g: Arc<obs::Gauge>,
}

impl TileStore {
    /// A store over `file`, a `SEAT` image of format `version` whose tile
    /// `t` is the segment at absolute `segments[t]` = `(offset, len)` and
    /// decodes to `decoded_sizes[t]` bytes, with `n_portals` portals.
    /// [`crate::Atlas::open_out_of_core`] validated every segment before it
    /// builds one. Nothing is resident yet; `resident_budget` caps the
    /// decoded bytes held at once.
    pub(crate) fn new(
        file: File,
        segments: Vec<(u64, usize)>,
        decoded_sizes: Vec<usize>,
        version: u32,
        n_portals: usize,
        resident_budget: usize,
    ) -> TileStore {
        let registry = obs::Registry::new();
        TileStore {
            // lint: allow(d3, "constructing the residency cache; see module docs")
            state: Mutex::new(StoreState {
                file,
                slots: vec![Slot::Absent; segments.len()],
                tick: 0,
                resident_bytes: 0,
                resident_tiles: 0,
                hold: Hold::default(),
            }),
            loaded: Condvar::new(),
            segments,
            decoded_sizes,
            version,
            n_portals,
            budget: resident_budget,
            hits: registry.counter("atlas_tile_hits_total"),
            misses: registry.counter("atlas_tile_misses_total"),
            loads: registry.counter("atlas_tile_loads_total"),
            load_failures: registry.counter("atlas_tile_load_failures_total"),
            load_waits: registry.counter("atlas_tile_load_waits_total"),
            evictions: registry.counter("atlas_tile_evictions_total"),
            resident_tiles_g: registry.gauge("atlas_tiles_resident"),
            resident_bytes_g: registry.gauge("atlas_resident_bytes"),
            registry,
        }
    }

    /// Returns tile `t`, decoding it from the backing file if it is not
    /// resident and evicting least-recently-used tiles while the resident
    /// set exceeds the byte budget.
    ///
    /// The lock is held for bookkeeping and the segment read only (see the
    /// module docs' Concurrency section): the decode runs outside it, so
    /// hits and loads of other tiles go on meanwhile. A call that finds
    /// `t` loading waits for that load and counts as a hit and a load wait;
    /// if the load fails instead, the call retries as its own miss.
    ///
    /// A published tile is stamped with a fresh tick, so it is the most
    /// recently used tile when its load evicts, and the eviction loop keeps
    /// at least one tile resident: a call never evicts the tile it just
    /// loaded, even though other calls' ticks passed its miss while it
    /// decoded. This also lets a single tile larger than the budget be
    /// served: the floor is one resident tile.
    ///
    /// A segment that no longer reads or decodes (the file was truncated
    /// or rewritten after the open validated it) is
    /// [`QueryError::TileUnavailable`]: counted, nothing cached, the
    /// resident set untouched.
    pub(crate) fn tile(&self, t: usize) -> Result<Arc<AtlasTile>, QueryError> {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        let mut waited = false;
        loop {
            match &mut st.slots[t] {
                Slot::Resident { tile, stamp } => {
                    // A waiter's tick predates the publish stamp: keep the later.
                    *stamp = tick.max(*stamp);
                    let tile = Arc::clone(tile);
                    self.hits.inc();
                    if waited {
                        self.load_waits.inc();
                    }
                    return Ok(tile);
                }
                Slot::Loading => {
                    waited = true;
                    #[cfg(test)]
                    tests::note_wait(&st, t);
                    st = self.loaded.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                Slot::Absent => break,
            }
        }
        self.misses.inc();

        let (off, len) = self.segments[t];
        let mut buf = vec![0u8; len];
        let read = st.file.seek(SeekFrom::Start(off)).and_then(|_| st.file.read_exact(&mut buf));
        st.slots[t] = Slot::Loading;
        #[cfg(test)]
        let hold = tests::take_hold(&mut st);
        drop(st);
        // From here the slot is settled by `load`'s drop, however this
        // call ends: published, failed or unwound.
        let mut load = Load { store: self, t, tile: None };
        #[cfg(test)]
        tests::pass_hold(hold, t);
        let decoded =
            read.ok().and_then(|()| decode_tile_segment(&buf, self.version, self.n_portals).ok());
        let Some(tile) = decoded else {
            return Err(QueryError::TileUnavailable { tile: t });
        };
        let tile = Arc::new(tile);
        load.tile = Some(Arc::clone(&tile));
        drop(load);
        Ok(tile)
    }

    /// Publishes tile `t` into the resident set under a fresh tick and
    /// evicts least-recently-used tiles while the set exceeds the budget
    /// and holds more than one tile. The fresh tick is the largest stamp,
    /// so `t` is never its own load's victim.
    fn publish(&self, st: &mut StoreState, t: usize, tile: Arc<AtlasTile>) {
        st.tick += 1;
        st.slots[t] = Slot::Resident { tile, stamp: st.tick };
        st.resident_bytes += self.decoded_sizes[t];
        st.resident_tiles += 1;
        self.loads.inc();

        while st.resident_bytes > self.budget && st.resident_tiles > 1 {
            let resident = st.slots.iter().enumerate().filter_map(|(i, slot)| match slot {
                Slot::Resident { stamp, .. } => Some((*stamp, i)),
                _ => None,
            });
            let Some((_, victim)) = resident.min() else { break };
            st.slots[victim] = Slot::Absent;
            st.resident_bytes -= self.decoded_sizes[victim];
            st.resident_tiles -= 1;
            self.evictions.inc();
        }
        self.resident_tiles_g.set(st.resident_tiles as u64);
        self.resident_bytes_g.set(st.resident_bytes as u64);
    }

    /// Locks the cache state. Nothing under the lock panics: the decode
    /// runs outside it, and a load that unwinds settles its slot from
    /// [`Load`]'s drop, which takes the lock afresh. So even a poisoned
    /// lock guards consistent state, and it is recovered rather than
    /// propagated.
    fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of tiles in the backing image.
    pub(crate) fn n_tiles(&self) -> usize {
        self.segments.len()
    }

    /// Sum of every tile's decoded footprint (what a fully resident load
    /// would hold), measured by the open's validating pass.
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
            load_waits: self.load_waits.get(),
            evictions: self.evictions.get(),
            resident_tiles: st.resident_tiles,
            resident_bytes: st.resident_bytes,
            budget_bytes: self.budget,
            n_tiles: self.segments.len(),
        }
    }
}

/// A miss's claim on its loading slot, from the moment the lock is
/// released for the decode. Dropping it settles the slot under the lock —
/// publishing `tile` when the decode produced one; otherwise clearing the
/// slot and counting a load failure, which also covers a load that
/// unwinds — and wakes every caller waiting on the slot.
struct Load<'a> {
    store: &'a TileStore,
    t: usize,
    tile: Option<Arc<AtlasTile>>,
}

impl Drop for Load<'_> {
    fn drop(&mut self) {
        let store = self.store;
        let mut st = store.lock();
        match self.tile.take() {
            Some(tile) => store.publish(&mut st, self.t, tile),
            None => {
                st.slots[self.t] = Slot::Absent;
                store.load_failures.inc();
            }
        }
        drop(st);
        store.loaded.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Atlas;
    use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
    use std::thread;
    use std::time::Duration;

    /// The v2 level-4 atlas fixture: four tiles.
    const ATLAS: &[u8] = include_bytes!("../../../tests/fixtures/v2/atlas-l4.seat");

    /// How long a test waits for an event before it fails; a passing run
    /// never waits it out.
    const WAIT: Duration = Duration::from_secs(10);

    /// What a store under a hold tells its test.
    #[derive(Debug, PartialEq, Eq)]
    pub(super) enum Event {
        /// The held load of this tile has read its segment and released
        /// the lock.
        Held(usize),
        /// A caller is about to wait for this tile's load.
        Waiting(usize),
    }

    /// How the test lets the held load go on.
    pub(super) enum Release {
        /// Decode the segment it read.
        Decode,
        /// Panic, as a decode that panics would.
        Unwind,
    }

    /// The hold point: the store's next miss stops after its segment read,
    /// outside the lock, until the test releases it, and every caller that
    /// waits on a loading slot says so. Channels, never sleeps, order the
    /// threads.
    pub(super) struct Hold {
        events: Sender<Event>,
        /// Taken by the next miss; later misses run through.
        release: Option<Receiver<Release>>,
    }

    type Held = (Sender<Event>, Receiver<Release>);

    pub(super) fn note_wait(st: &StoreState, t: usize) {
        if let Some(hold) = &st.hold {
            let _ = hold.events.send(Event::Waiting(t));
        }
    }

    pub(super) fn take_hold(st: &mut StoreState) -> Option<Held> {
        let hold = st.hold.as_mut()?;
        Some((hold.events.clone(), hold.release.take()?))
    }

    /// Stops a held load until the test releases it. A failing test drops
    /// its release sender, which lets the load decode.
    pub(super) fn pass_hold(held: Option<Held>, t: usize) {
        if let Some((events, release)) = held {
            let _ = events.send(Event::Held(t));
            if let Ok(Release::Unwind) = release.recv() {
                panic!("the held load of tile {t} unwinds");
            }
        }
    }

    /// Arms a hold on `store`'s next load.
    fn hold(store: &TileStore) -> (Receiver<Event>, Sender<Release>) {
        let (events_tx, events) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        store.lock().hold = Some(Box::new(Hold { events: events_tx, release: Some(release_rx) }));
        (events, release)
    }

    /// Writes the fixture to a file of its own and opens it out of core.
    fn open_fixture(tag: &str, budget: usize) -> (Arc<Atlas>, std::path::PathBuf) {
        let name = format!("terrain-oracle-tilestore-{tag}-{}.seat", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, ATLAS).unwrap();
        (Arc::new(Atlas::open_out_of_core(&path, budget).unwrap()), path)
    }

    /// The store behind an atlas the fixture opened.
    fn store(atlas: &Atlas) -> &TileStore {
        atlas.tile_store().unwrap()
    }

    /// The store's stats once no load is in flight, where every miss has
    /// made exactly one load attempt.
    fn settled(store: &TileStore) -> TileStoreStats {
        let s = store.stats();
        assert_eq!(s.loads + s.load_failures, s.misses, "{s:?}");
        s
    }

    type Answer = Result<Arc<AtlasTile>, QueryError>;

    /// Calls the store's `tile(t)` on a thread of its own and hands back
    /// its answer. The thread is detached, so a call that never returns
    /// fails the test at its `recv_timeout` instead of hanging a join; a
    /// call that panics disconnects the channel, so its panic still fails
    /// the receiver (or, for a held load told to unwind, shows that it did).
    fn call(atlas: &Arc<Atlas>, t: usize) -> Receiver<Answer> {
        let (tx, rx) = mpsc::channel();
        let atlas = Arc::clone(atlas);
        thread::spawn(move || tx.send(store(&atlas).tile(t)));
        rx
    }

    /// Holds a load of tile 1, queues a second caller for tile 1 behind
    /// it, then releases the load as `how` says. Returns the loader's
    /// answer (`Disconnected` if it unwound) and the waiter's.
    fn held_load_and_waiter(
        atlas: &Arc<Atlas>,
        how: Release,
    ) -> (Result<Answer, RecvTimeoutError>, Answer) {
        let (events, release) = hold(store(atlas));
        let loader = call(atlas, 1);
        assert_eq!(events.recv_timeout(WAIT), Ok(Event::Held(1)));
        let waiter = call(atlas, 1);
        assert_eq!(events.recv_timeout(WAIT), Ok(Event::Waiting(1)));
        let st = store(atlas).stats();
        assert_eq!(st.loads + st.load_failures + 1, st.misses, "one load in flight: {st:?}");
        release.send(how).unwrap();
        let waited = waiter.recv_timeout(WAIT).expect("a settled load must wake its waiter");
        (loader.recv_timeout(WAIT), waited)
    }

    #[test]
    fn a_hit_returns_while_another_tile_decodes() {
        let (atlas, path) = open_fixture("hit", usize::MAX);
        let store = store(&atlas);
        let warm = store.tile(0).unwrap();
        let (events, release) = hold(store);
        let loader = call(&atlas, 1);
        assert_eq!(events.recv_timeout(WAIT), Ok(Event::Held(1)));
        // A decode under the lock would block this hit until the release:
        // the timeout fails the test instead of hanging it.
        let hit = call(&atlas, 0).recv_timeout(WAIT);
        let hit = hit.expect("a hit must not wait for another tile's decode");
        assert!(Arc::ptr_eq(&hit.unwrap(), &warm));
        release.send(Release::Decode).unwrap();
        assert!(loader.recv_timeout(WAIT).unwrap().is_ok());
        let s = settled(store);
        assert_eq!((s.hits, s.misses, s.loads, s.load_waits), (1, 2, 2, 0));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_second_caller_waits_for_the_held_load_and_shares_its_tile() {
        let (atlas, path) = open_fixture("wait", usize::MAX);
        let store = store(&atlas);
        let (loaded, shared) = held_load_and_waiter(&atlas, Release::Decode);
        let (loaded, shared) = (loaded.unwrap().unwrap(), shared.unwrap());
        assert!(Arc::ptr_eq(&loaded, &shared), "the waiter must take the published tile");
        let s = settled(store);
        assert_eq!((s.misses, s.loads, s.hits, s.load_waits), (1, 1, 1, 1));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_held_load_that_fails_wakes_its_waiter_to_retry() {
        let (atlas, path) = open_fixture("fail", usize::MAX);
        let store = store(&atlas);
        // Overwritten in place: the held load reads zeros, which do not
        // decode, and so does the waiter's own retry.
        std::fs::write(&path, vec![0u8; ATLAS.len()]).unwrap();
        let (loaded, retried) = held_load_and_waiter(&atlas, Release::Decode);
        let unavailable = Some(QueryError::TileUnavailable { tile: 1 });
        assert_eq!(loaded.unwrap().err(), unavailable);
        assert_eq!(retried.err(), unavailable);
        let s = settled(store);
        assert_eq!((s.misses, s.load_failures, s.hits, s.load_waits), (2, 2, 0, 0));
        assert_eq!(s.resident_tiles, 0, "a failed load caches nothing");

        // Once the bytes are back, the tile serves again.
        std::fs::write(&path, ATLAS).unwrap();
        assert!(store.tile(1).is_ok());
        let s = settled(store);
        assert_eq!((s.misses, s.loads, s.resident_tiles), (3, 1, 1));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_held_load_that_unwinds_wakes_its_waiter_to_retry() {
        let (atlas, path) = open_fixture("unwind", usize::MAX);
        let store = store(&atlas);
        let (loaded, retried) = held_load_and_waiter(&atlas, Release::Unwind);
        assert_eq!(loaded.err(), Some(RecvTimeoutError::Disconnected), "the held load must unwind");
        // The waiter found the slot absent and loaded the tile itself.
        let retried = retried.unwrap();
        let s = settled(store);
        assert_eq!((s.misses, s.load_failures, s.loads, s.hits, s.load_waits), (2, 1, 1, 0, 0));
        assert!(Arc::ptr_eq(&store.tile(1).unwrap(), &retried), "the retried load serves");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_load_is_never_its_own_eviction_victim() {
        // Budget 0 keeps one tile. While tile 0's load is held, tile 1 is
        // loaded, so its stamp passes the tick of tile 0's miss. Tile 0 is
        // published under a fresh tick, so its publish evicts tile 1.
        let (atlas, path) = open_fixture("victim", 0);
        let store = store(&atlas);
        let (events, release) = hold(store);
        let loader = call(&atlas, 0);
        assert_eq!(events.recv_timeout(WAIT), Ok(Event::Held(0)));
        call(&atlas, 1).recv_timeout(WAIT).unwrap().unwrap();
        release.send(Release::Decode).unwrap();
        let loaded = loader.recv_timeout(WAIT).unwrap().unwrap();
        let s = settled(store);
        assert_eq!((s.loads, s.evictions, s.resident_tiles), (2, 1, 1));
        assert!(Arc::ptr_eq(&store.tile(0).unwrap(), &loaded), "the tile just loaded stays");
        assert_eq!(settled(store).hits, 1);
        std::fs::remove_file(path).unwrap();
    }
}
