//! Out-of-core atlas suite: a level-6 atlas served under a resident
//! budget that forces eviction must answer **bit-identically** to a fully
//! resident load of the same image — from 8 threads at once, with
//! mid-query eviction thrash — and the tile store's counters and gauges
//! must reconcile (`loads == misses`, `resident_bytes ≤ budget`).
//!
//! Also pins the size acceptance of the compact format: the compressed
//! (v2) level-6 `SEAT` image is ≥ 2× smaller than the v1 image of the same
//! atlas, and serving it out-of-core stays within the
//! `(1+ε)(1+EPS_QUANT)` budget — and that a backing file rewritten under a
//! running store fails queries with a typed error, leaves the store
//! healthy, and serves again once the bytes are back.
//!
//! The level-6 image is a checked-in v1 fixture (this build reads v1 but
//! writes only v2), so these runs also cover the tile store's v1 segment
//! walk. One test pins that the fixture decodes to the atlas its
//! constructor builds.

mod common;

use common::{lone_member_site, mesh_with_pois, refine_sites, tmp_dir};
use std::sync::{Arc, OnceLock};
use terrain_oracle::oracle::atlas::{Atlas, AtlasConfig, AtlasHandle};
use terrain_oracle::oracle::serve::pair_stream;
use terrain_oracle::oracle::telemetry::lookup;
use terrain_oracle::oracle::{EngineKind, QueryError, EPS_QUANT};
use terrain_oracle::terrain::tile::TileGridConfig;

const QUERIES: usize = 10_000;
const THREADS: usize = 8;

/// The level-6 fixture: the v1 image of a 2×2 atlas over a 65×65 fractal
/// terrain (constructor in `tests/fixtures/v1/README.md`).
const LEVEL6_V1: &[u8] = include_bytes!("fixtures/v1/atlas-l6.seat");

/// [`LEVEL6_V1`] loaded fully resident, once, shared by every test in the
/// file: the reference each out-of-core run of the same bytes must match.
fn level6_atlas() -> &'static Atlas {
    static A: OnceLock<Atlas> = OnceLock::new();
    A.get_or_init(|| {
        assert_eq!(LEVEL6_V1[4..8], 1u32.to_le_bytes(), "the fixture must be a v1 image");
        Atlas::load_bytes(LEVEL6_V1).unwrap()
    })
}

/// Writes `bytes` to a unique file in the suite's scratch directory.
fn write_image(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = tmp_dir("out-of-core").join(format!("{tag}.seat"));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// The mixed 10k-pair workload (uniform random pairs: same-tile and
/// cross-tile queries interleaved).
fn workload(n_sites: usize) -> Vec<(u32, u32)> {
    pair_stream(0xCAB1E, 7, QUERIES, n_sites)
}

/// Total decoded bytes of the atlas's tiles, measured by opening the
/// image with an unbounded budget and touching every tile.
fn decoded_total(path: &std::path::Path) -> usize {
    let atlas = Atlas::open_out_of_core(path, usize::MAX).unwrap();
    for t in 0..atlas.n_sites() {
        // Touching every site's home tile loads every tile (each tile
        // homes at least one site).
        let _ = atlas.distance(t, t);
    }
    let stats = atlas.tile_store().unwrap().stats();
    assert_eq!(stats.resident_tiles, stats.n_tiles, "unbounded budget must keep every tile");
    stats.resident_bytes
}

#[test]
fn thrashing_out_of_core_run_is_bit_identical_across_8_threads() {
    let atlas = level6_atlas();
    let path = write_image("v1", LEVEL6_V1);
    let pairs = workload(atlas.n_sites());
    let want: Vec<u64> = atlas.distance_many(&pairs).into_iter().map(f64::to_bits).collect();

    let total = decoded_total(&path);
    // A budget under half the decoded size (the acceptance bound) that
    // still admits the largest tile: 2/5 of the total across 4 tiles of
    // comparable size forces continuous eviction under the mixed workload.
    let budget = total * 2 / 5;
    let ooc = Atlas::open_out_of_core(&path, budget).unwrap();
    assert!(ooc.tile_store().is_some(), "out-of-core open must use the tile store");
    let handle = AtlasHandle::new(ooc);
    let got: Vec<u64> =
        handle.distance_many_par(&pairs, THREADS).into_iter().map(f64::to_bits).collect();
    assert_eq!(want, got, "out-of-core answers diverged from the resident run");

    let stats = handle.atlas().tile_store().unwrap().stats();
    assert_eq!(stats.loads, stats.misses, "every miss must trigger exactly one load");
    assert!(stats.evictions >= 1, "a sub-total budget over a mixed workload must evict");
    assert!(
        stats.resident_bytes <= budget,
        "resident {} bytes exceeds the {budget}-byte budget",
        stats.resident_bytes
    );
    assert_eq!(
        stats.evictions,
        stats.loads - stats.resident_tiles as u64,
        "every load is either resident or was evicted"
    );
    assert!(stats.hits + stats.misses > 0, "the workload must touch tiles");
}

#[test]
fn single_tile_floor_budget_still_answers_identically() {
    // Budget 0: the floor is one resident tile — maximal thrash. Answers
    // must not change, and the resident set must never exceed one tile.
    let atlas = level6_atlas();
    let path = write_image("v1-floor", LEVEL6_V1);
    let pairs = workload(atlas.n_sites());
    let want: Vec<u64> = atlas.distance_many(&pairs).into_iter().map(f64::to_bits).collect();

    let ooc = Atlas::open_out_of_core(&path, 0).unwrap();
    let handle = AtlasHandle::new(ooc);
    let got: Vec<u64> =
        handle.distance_many_par(&pairs, THREADS).into_iter().map(f64::to_bits).collect();
    assert_eq!(want, got, "floor-budget answers diverged");

    let stats = handle.atlas().tile_store().unwrap().stats();
    assert_eq!(stats.resident_tiles, 1, "budget 0 must keep exactly the floor tile");
    assert_eq!(stats.loads, stats.misses);
    assert!(stats.evictions >= stats.n_tiles as u64, "every extra load must evict");
}

#[test]
fn floor_budget_batches_reach_the_store_per_group_not_per_pair() {
    // A batch is answered grouped by home-tile pair over a three-tile pin
    // set, so the store sees one access per tile a group newly needs, not
    // one per leg of every pair. Budget 0 keeps one tile resident, so
    // every access that leaves the pin set is a miss at worst.
    let atlas = level6_atlas();
    let path = write_image("v1-grouped", LEVEL6_V1);
    let pairs = workload(atlas.n_sites());
    let want: Vec<u64> = atlas.distance_many(&pairs).into_iter().map(f64::to_bits).collect();

    for (batch, bound) in [(64, pairs.len() / 4), (pairs.len(), 64)] {
        let ooc = Atlas::open_out_of_core(&path, 0).unwrap();
        let got: Vec<u64> = pairs
            .chunks(batch)
            .flat_map(|chunk| ooc.distance_many(chunk))
            .map(f64::to_bits)
            .collect();
        assert_eq!(want, got, "{batch}-pair batches diverged from the resident run");
        let stats = ooc.tile_store().unwrap().stats();
        assert_eq!(stats.loads, stats.misses);
        assert!(
            stats.hits + stats.misses <= bound as u64,
            "{batch}-pair batches made {} store accesses for {} pairs (bound {bound})",
            stats.hits + stats.misses,
            pairs.len()
        );
    }
}

#[test]
fn gauges_and_counters_reconcile_in_the_registry() {
    let path = write_image("v1-metrics", LEVEL6_V1);
    let ooc = Atlas::open_out_of_core(&path, usize::MAX).unwrap();
    let pairs = workload(ooc.n_sites());
    let _ = ooc.distance_many(&pairs);

    let store = ooc.tile_store().unwrap();
    let stats = store.stats();
    let text = store.registry().expose();
    let metric = |name: &str| {
        lookup(&text, name).unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
    };
    assert_eq!(metric("atlas_tile_hits_total"), stats.hits);
    assert_eq!(metric("atlas_tile_misses_total"), stats.misses);
    assert_eq!(metric("atlas_tile_loads_total"), stats.loads);
    assert_eq!(metric("atlas_tile_load_waits_total"), stats.load_waits);
    assert_eq!(metric("atlas_tile_evictions_total"), stats.evictions);
    assert_eq!(metric("atlas_tiles_resident"), stats.resident_tiles as u64);
    assert_eq!(metric("atlas_resident_bytes"), stats.resident_bytes as u64);
    assert_eq!(stats.loads, stats.misses);
    assert_eq!(stats.evictions, 0, "an unbounded budget never evicts");
}

#[test]
fn level6_fixture_decodes_to_its_constructor() {
    // The fixture decodes to exactly the atlas its constructor builds
    // (equal raw v2 re-encodes: raw v2 is lossless and canonical), so every
    // comparison against `level6_atlas()` is a comparison against the build.
    let (mesh, pois) = mesh_with_pois(6, 0.6, 0xC6, 36);
    let (refined, sites) = refine_sites(&mesh, &pois);
    let cfg = AtlasConfig {
        grid: TileGridConfig { portal_spacing: 4, ..Default::default() },
        ..Default::default()
    };
    let built = Atlas::build_over_vertices(
        Arc::new(refined.mesh),
        sites,
        0.25,
        EngineKind::EdgeGraph,
        &cfg,
    )
    .unwrap();
    let atlas = level6_atlas();
    assert!(
        atlas.save_bytes_compact(false) == built.save_bytes_compact(false),
        "the level-6 fixture does not decode to its constructor"
    );
    let pairs = workload(built.n_sites());
    let bits =
        |a: &Atlas| a.distance_many(&pairs).into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(atlas), bits(&built), "the fixture answers differently from its build");
}

#[test]
fn compressed_level6_image_halves_and_serves_out_of_core() {
    // The size acceptance: the compressed level-6 SEAT image is ≥ 2×
    // smaller than v1, and an out-of-core run over it stays within
    // (1+EPS_QUANT) of the resident *uncompressed* answers — composing
    // with the oracle's (1+ε) into the documented total budget. The v2
    // image is the compressed re-encode of the v1 fixture's resident load.
    let atlas = level6_atlas();
    let v1 = LEVEL6_V1;
    let v2 = atlas.save_bytes_compact(true);
    assert!(
        v1.len() >= 2 * v2.len(),
        "compressed image not ≥2× smaller: v1 = {} B, v2 = {} B",
        v1.len(),
        v2.len()
    );

    let path = write_image("v2", &v2);
    let total = decoded_total(&path);
    let ooc = Atlas::open_out_of_core(&path, total * 2 / 5).unwrap();
    let handle = AtlasHandle::new(ooc);
    let pairs = workload(atlas.n_sites());
    let want = atlas.distance_many(&pairs);
    let got = handle.distance_many_par(&pairs, THREADS);
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert!(
            (w - g).abs() <= EPS_QUANT * w.abs() + 1e-12,
            "pair {i}: compressed out-of-core answer {g} vs {w}"
        );
    }

    // And the compressed image out-of-core is bit-identical to the
    // compressed image fully resident (lazy decode is still decode).
    let resident = Atlas::load_bytes(&v2).unwrap();
    let resident_bits: Vec<u64> =
        resident.distance_many(&pairs).into_iter().map(f64::to_bits).collect();
    let ooc_bits: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
    assert_eq!(resident_bits, ooc_bits, "lazy and eager decode of the same image diverged");
}

#[test]
fn rewritten_backing_file_fails_typed_and_recovers() {
    let atlas = level6_atlas();
    let path = write_image("v1-rewritten", LEVEL6_V1);
    let a = lone_member_site(&path);
    let b = (0..atlas.n_sites()).find(|&b| atlas.tile_of_site(b) != atlas.tile_of_site(a)).unwrap();
    let (pa, pb) = ([(a as u32, a as u32)], [(b as u32, b as u32)]);

    // A one-tile budget: after this query, a's home is the one resident tile.
    let ooc = Atlas::open_out_of_core(&path, 0).unwrap();
    let (warm, _) = ooc.distance_many_checked_with_stats(&pa).unwrap();

    // Overwrite the backing file in place: the store's open handle now
    // reads zeros, and b needs a tile that is not resident.
    std::fs::write(&path, vec![0u8; LEVEL6_V1.len()]).unwrap();
    match ooc.distance_many_checked_with_stats(&pb) {
        Err(QueryError::TileUnavailable { tile }) => {
            assert_ne!(tile, atlas.tile_of_site(a), "the resident tile needs no read")
        }
        other => panic!("expected TileUnavailable, got {other:?}"),
    }
    // The store is healthy: the resident tile still answers, and the
    // failure is counted, not cached.
    assert_eq!(ooc.distance_many_checked_with_stats(&pa).unwrap().0, warm);
    let stats = ooc.tile_store().unwrap().stats();
    assert_eq!(stats.load_failures, 1);
    assert_eq!(stats.loads + stats.load_failures, stats.misses);
    assert_eq!(stats.resident_tiles, 1);
    let registry = ooc.tile_store().unwrap().registry();
    assert_eq!(lookup(&registry.expose(), "atlas_tile_load_failures_total"), Some(1));
    // Saving needs every tile, so it fails as an io::Error.
    let err = ooc.save_to_compact(&mut Vec::new(), false).unwrap_err();
    assert!(err.to_string().contains("unavailable"), "{err}");

    // Restore the bytes: the next miss reads the tile again, and answers
    // are bit-identical to a resident load of the same image.
    std::fs::write(&path, LEVEL6_V1).unwrap();
    let pairs = workload(atlas.n_sites());
    for batch in [&pb[..], &pairs[..1000]] {
        let (got, _) = ooc.distance_many_checked_with_stats(batch).unwrap();
        let want = atlas.distance_many(batch);
        assert_eq!(
            got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "answers after the restore diverged from the resident load"
        );
    }
}
