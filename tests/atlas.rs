//! The atlas subsystem's three contracts, exercised end to end:
//!
//! 1. **Bounded answers** — on random fractal terrains,
//!    `Atlas::distance ≤ monolithic SeOracle::distance × (1 + ε_route)`
//!    and never below the `(1 − ε)` × engine-metric geodesic floor
//!    (portal routing may detour, it must never tunnel).
//! 2. **Concurrent ≡ serial** — 8 threads hammering one shared
//!    [`AtlasHandle`] with batch + single-query traffic observe exactly
//!    the answers a single-threaded replay produces, bit for bit.
//! 3. **Served ≡ built** — a `SEAT` image round-trips byte-identically
//!    (including on a level-5, >1k-vertex fixture) and the reloaded atlas
//!    answers bit-identically through every entry point.

mod common;

use common::*;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use terrain_oracle::geodesic::VertexSiteSpace;
use terrain_oracle::oracle::atlas::{Atlas, AtlasConfig, AtlasHandle, EPS_ROUTE};
use terrain_oracle::oracle::oracle::{BuildConfig, SeOracle};
use terrain_oracle::oracle::serve::pair_stream;
use terrain_oracle::prelude::*;
use terrain_oracle::terrain::tile::TileGridConfig;

/// An atlas and a monolithic oracle over the same refined mesh and site
/// list (so site ids agree), plus the exact per-engine site space for
/// lower-bound checks.
fn atlas_and_mono(
    k: u32,
    seed: u64,
    n_pois: usize,
    eps: f64,
    spacing: usize,
) -> (Atlas, SeOracle, VertexSiteSpace) {
    let (mesh, pois) = mesh_with_pois(k, 0.6, seed, n_pois);
    let (refined, sites) = refine_sites(&mesh, &pois);
    let mesh = Arc::new(refined.mesh);
    let cfg = AtlasConfig {
        grid: TileGridConfig { portal_spacing: spacing, ..Default::default() },
        ..Default::default()
    };
    let atlas =
        Atlas::build_over_vertices(mesh.clone(), sites.clone(), eps, EngineKind::EdgeGraph, &cfg)
            .unwrap();
    let space = VertexSiteSpace::new(Arc::new(EdgeGraphEngine::new(mesh.clone())), sites.clone());
    let mono = SeOracle::build(&space, eps, &BuildConfig::default()).unwrap();
    let lower_space = VertexSiteSpace::new(Arc::new(EdgeGraphEngine::new(mesh)), sites);
    (atlas, mono, lower_space)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, rng_seed: 0xA71A_0001, ..ProptestConfig::default() })]

    /// Contract 1: the routed upper bound against the monolithic oracle
    /// and the geodesic lower bound against the engine metric, over
    /// random terrains and POI sets. Portal spacing 2 is the level-4
    /// analogue of the production default (see `se_oracle::atlas` docs on
    /// portal density).
    #[test]
    fn atlas_bounded_by_monolith_and_geodesic_floor(
        seed in 0u64..1000,
        n_pois in 12usize..24,
    ) {
        use terrain_oracle::geodesic::sitespace::SiteSpace;
        let eps = 0.2;
        let (atlas, mono, space) = atlas_and_mono(4, seed, n_pois, eps, 2);
        let n = atlas.n_sites();
        prop_assert_eq!(mono.n_sites(), n);
        let mut cross = 0usize;
        for s in 0..n {
            let floor = space.all_distances(s);
            for (t, &fl) in floor.iter().enumerate() {
                let a = atlas.distance(s, t);
                let m = mono.distance(s, t);
                prop_assert!(
                    a <= m * (1.0 + EPS_ROUTE) + 1e-9,
                    "seed {} sites ({}, {}): atlas {} vs monolithic {} breaches ε_route",
                    seed, s, t, a, m
                );
                prop_assert!(
                    a >= (1.0 - eps) * fl - 1e-9,
                    "seed {} sites ({}, {}): atlas {} tunnels below geodesic floor {}",
                    seed, s, t, a, fl
                );
                cross += atlas.is_cross_tile(s, t) as usize;
            }
        }
        prop_assert!(cross > 0, "fixture never exercised the portal route");
    }
}

/// One shared serving fixture for the concurrency tests: built once, then
/// only queried.
fn shared_handle() -> &'static AtlasHandle {
    static HANDLE: OnceLock<AtlasHandle> = OnceLock::new();
    HANDLE.get_or_init(|| {
        let (atlas, _, _) = atlas_and_mono(4, 977, 20, 0.2, 2);
        AtlasHandle::new(atlas)
    })
}

/// Contract 2: 8 threads, mixed batch + single-query traffic, every
/// thread's answers equal the single-threaded replay of its workload.
#[test]
fn eight_threads_observe_single_threaded_answers() {
    const THREADS: u64 = 8;
    const QUERIES: usize = 1_500;
    let h = shared_handle();
    let n = h.n_sites();
    let workload = |tid: u64| pair_stream(0xA71A_7000, tid, QUERIES, n);

    let replay: Vec<Vec<u64>> = (0..THREADS)
        .map(|tid| h.distance_many(&workload(tid)).into_iter().map(f64::to_bits).collect())
        .collect();

    let live: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|tid| {
                let worker = h.clone();
                scope.spawn(move || {
                    let pairs = workload(tid);
                    let batch = worker.distance_many(&pairs);
                    for (k, &(s, t)) in pairs.iter().enumerate().step_by(89) {
                        assert_eq!(
                            worker.distance(s as usize, t as usize).to_bits(),
                            batch[k].to_bits(),
                            "thread {tid} single query ({s},{t}) disagrees with its batch"
                        );
                    }
                    batch.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("serving thread panicked")).collect()
    });

    for (tid, (l, r)) in live.iter().zip(&replay).enumerate() {
        assert_eq!(l, r, "thread {tid} observed answers differing from the serial replay");
    }
}

/// The parallel batch driver equals the sequential batch for every thread
/// count, including the empty batch (which must not touch the pool).
#[test]
fn parallel_batches_equal_sequential_for_every_thread_count() {
    let h = shared_handle();
    let pairs = pair_stream(0xA71A_8000, 0, 4_000, h.n_sites());
    let seq: Vec<u64> = h.distance_many(&pairs).into_iter().map(f64::to_bits).collect();
    for threads in [0usize, 1, 2, 5] {
        let par: Vec<u64> =
            h.distance_many_par(&pairs, threads).into_iter().map(f64::to_bits).collect();
        assert_eq!(par, seq, "threads = {threads}");
    }
    let (checked, _) = h.distance_many_checked_with_stats(&pairs).unwrap();
    assert!(checked.iter().zip(&seq).all(|(d, &s)| d.to_bits() == s));
    assert!(h.distance_many_par(&[], 0).is_empty());
    assert!(h.distance_many_par(&[], 3).is_empty());
}

/// Contract 3 on the level-5 fixture (1089 mesh vertices before
/// refinement — above the old monolithic test ceiling): byte-identical
/// image round trip, bit-identical answers through every entry point.
#[test]
fn persisted_atlas_byte_identical_level5() {
    let (mesh, pois) = mesh_with_pois(5, 0.6, 1201, 40);
    assert!(mesh.n_vertices() > 1000, "fixture must exceed the ~1k-vertex ceiling");
    let (refined, sites) = refine_sites(&mesh, &pois);
    let cfg = AtlasConfig {
        grid: TileGridConfig { portal_spacing: 4, ..Default::default() },
        ..Default::default()
    };
    let atlas = Atlas::build_over_vertices(
        Arc::new(refined.mesh),
        sites,
        0.25,
        EngineKind::EdgeGraph,
        &cfg,
    )
    .unwrap();

    let bytes = atlas.save_bytes_compact(false);
    let loaded = Atlas::load_bytes(&bytes).expect("reload");
    assert_eq!(bytes, loaded.save_bytes_compact(false), "image not canonical after reload");

    let built = AtlasHandle::new(atlas);
    let served = AtlasHandle::new(loaded);
    assert_eq!(built.n_sites(), served.n_sites());
    assert_eq!(built.epsilon(), served.epsilon());
    let n = built.n_sites() as u32;
    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
    let want: Vec<u64> = built.distance_many(&pairs).into_iter().map(f64::to_bits).collect();
    for got in [served.distance_many(&pairs), served.distance_many_par(&pairs, 3)] {
        let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
        assert_eq!(got, want, "served answers differ from the in-memory atlas");
    }
}

/// FNV-1a 64 over the little-endian bytes of every ordered pair's answer,
/// row by row: `s` ascending, one `distance_many` of `(s, 0..n)` per row.
fn answer_digest(atlas: &Atlas) -> u64 {
    let n = atlas.n_sites() as u32;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in 0..n {
        let row: Vec<(u32, u32)> = (0..n).map(|t| (s, t)).collect();
        for b in atlas.distance_many(&row).into_iter().flat_map(f64::to_le_bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Answers pinned across revisions: every ordered pair of each checked-in
/// atlas fixture hashes to the digest recorded when the fixtures' answers
/// were first pinned, loaded resident and out of core at the floor
/// budget. Fixture answers are stored distances plus IEEE additions, so
/// the digests hold on every platform; a routing change that moves one
/// bit of one answer fails here.
#[test]
fn fixture_answers_hold_their_recorded_digests() {
    let fixtures: [(&str, &[u8], u64); 4] = [
        ("v1-atlas-l4", include_bytes!("fixtures/v1/atlas-l4.seat"), 0xba2b_c612_8662_88de),
        ("v1-atlas-l5", include_bytes!("fixtures/v1/atlas-l5.seat"), 0x4ab1_7c7b_10be_d51a),
        ("v1-atlas-l6", include_bytes!("fixtures/v1/atlas-l6.seat"), 0xcf3d_b04a_2c83_68e7),
        ("v2-atlas-l4", include_bytes!("fixtures/v2/atlas-l4.seat"), 0xba2b_c612_8662_88de),
    ];
    for (name, bytes, want) in fixtures {
        let path = tmp_dir("atlas-digests").join(format!("{name}.seat"));
        std::fs::write(&path, bytes).unwrap();
        let resident = Atlas::load_bytes(bytes).unwrap();
        let ooc = Atlas::open_out_of_core(&path, 0).unwrap();
        for (how, atlas) in [("resident", &resident), ("out of core", &ooc)] {
            let got = answer_digest(atlas);
            assert_eq!(got, want, "{name} {how}: digest {got:#018x}, recorded {want:#018x}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
