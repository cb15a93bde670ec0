//! Scaling past the monolithic ceiling with a terrain atlas: a level-6
//! fractal terrain — 4 225 mesh vertices, 4× the largest fixture any
//! earlier layer exercised — built as a 2×2 atlas of per-tile oracles and
//! cross-validated against a monolithic oracle over the same sites.
//!
//! The example walks through the three claims the atlas subsystem makes.
//! It asserts claims 2 and 3 and reports claim 1:
//!
//! 1. **Construction scales**: four quarter-size tile builds (run through
//!    the shared worker pool) tend to finish faster than one whole-mesh
//!    build at `threads = auto`, because per-SSAD cost grows with mesh
//!    size. The example prints both best-of-5 build times and their ratio without
//!    asserting on them: on a small or shared runner, wall-clock noise can
//!    reverse a margin of a few percent.
//! 2. **Answers stay honest**: every cross-tile answer is within the
//!    documented routing bound of the monolithic oracle's, and never
//!    below the `(1 − ε)` geodesic floor.
//! 3. **The image ships**: the whole atlas persists to one `SEAT` image
//!    that reloads byte-identically and answers bit-identically.
//!
//! Run with `cargo run --release --example atlas_region`.

use std::sync::Arc;
use std::time::Instant;
use terrain_oracle::oracle::atlas::{Atlas, AtlasConfig, AtlasHandle, EPS_ROUTE};
use terrain_oracle::oracle::oracle::{BuildConfig, SeOracle};
use terrain_oracle::oracle::serve::pair_stream;
use terrain_oracle::prelude::*;

fn main() {
    // A level-6 diamond-square fractal: 65 × 65 = 4 225 vertices.
    let eps = 0.15;
    let base = diamond_square(6, 0.6, 0xA71A5).to_mesh();
    assert_eq!(base.n_vertices(), 4_225);
    let pois = sample_uniform(&base, 120, 0x90E5);
    let refined = insert_surface_points(&base, &pois, None).expect("refine POIs");
    let mut sites = refined.poi_vertices.clone();
    sites.sort_unstable();
    sites.dedup();
    let mesh = Arc::new(refined.mesh);
    let n = sites.len();
    println!(
        "terrain: {} vertices, {} faces; {} distinct sites",
        mesh.n_vertices(),
        mesh.n_faces(),
        n
    );

    // 1. Build both ways at threads = auto (the edge-graph engine keeps
    //    the demo CI-friendly; the relative build-time story is the same
    //    for the exact engine, only more pronounced). Each build runs
    //    five times and keeps its best, which damps scheduler noise.
    const BUILD_REPS: usize = 5;
    let mut t_mono = std::time::Duration::MAX;
    let mut mono = None;
    for _ in 0..BUILD_REPS {
        let t0 = Instant::now();
        let engine = EdgeGraphEngine::new(mesh.clone());
        let space = terrain_oracle::geodesic::VertexSiteSpace::new(Arc::new(engine), sites.clone());
        mono = Some(SeOracle::build(&space, eps, &BuildConfig::default()).expect("mono build"));
        t_mono = t_mono.min(t0.elapsed());
    }
    let mono = mono.expect("at least one build");

    let cfg = AtlasConfig::default(); // 2×2 grid, 0.15 overlap, spacing 8
    let mut t_atlas = std::time::Duration::MAX;
    let mut atlas = None;
    for _ in 0..BUILD_REPS {
        let t0 = Instant::now();
        atlas = Some(
            Atlas::build_over_vertices(
                mesh.clone(),
                sites.clone(),
                eps,
                EngineKind::EdgeGraph,
                &cfg,
            )
            .expect("atlas build"),
        );
        t_atlas = t_atlas.min(t0.elapsed());
    }
    let atlas = atlas.expect("at least one build");
    let s = atlas.build_stats();
    println!(
        "monolithic build: {t_mono:.2?} ({} pairs); atlas build: {t_atlas:.2?} \
         (best of {BUILD_REPS} each; {} tiles of {:?} sites, {} portals, {} graph edges, \
         {} workers); atlas/monolithic build time {:.2}",
        mono.n_pairs(),
        s.n_tiles,
        s.tile_sites,
        s.n_portals,
        s.portal_edges,
        s.workers,
        t_atlas.as_secs_f64() / t_mono.as_secs_f64(),
    );

    // 2. Cross-validate every pair. The monolithic oracle obeys
    //    |mono − d| ≤ ε·d; the atlas must stay within the documented
    //    routing bound of it and above the shared geodesic floor.
    let mut cross = 0usize;
    let mut max_ratio: f64 = 0.0;
    let mut max_cross_ratio: f64 = 0.0;
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            let a = atlas.distance(s, t);
            let m = mono.distance(s, t);
            let ratio = a / m;
            assert!(
                a <= m * (1.0 + EPS_ROUTE) + 1e-9,
                "({s},{t}): atlas {a} breaches the ε_route bound against monolithic {m}"
            );
            assert!(
                a >= m * (1.0 - eps) / (1.0 + eps) - 1e-9,
                "({s},{t}): atlas {a} below the geodesic floor implied by monolithic {m}"
            );
            max_ratio = max_ratio.max(ratio);
            if atlas.is_cross_tile(s, t) {
                cross += 1;
                max_cross_ratio = max_cross_ratio.max(ratio);
            }
        }
    }
    println!(
        "{} ordered pairs ({cross} cross-tile): max atlas/monolithic ratio {:.4} \
         (cross-tile {:.4}; documented bound {})",
        n * (n - 1),
        max_ratio,
        max_cross_ratio,
        1.0 + EPS_ROUTE
    );

    // 3. Persist the whole atlas, reload, and serve concurrently: the
    //    image round-trips byte-identically and a 4-thread handle answers
    //    bit-identically to the in-memory build.
    let image = atlas.save_bytes_compact(false);
    let reloaded = Atlas::load_bytes(&image).expect("reload atlas image");
    assert_eq!(reloaded.save_bytes_compact(false), image, "image must round-trip byte-identically");
    let handle = AtlasHandle::new(reloaded);
    let pairs = pair_stream(0xA71A_5EED, 1, 20_000, n);
    let t0 = Instant::now();
    let served = handle.distance_many_par(&pairs, 4);
    let t_par = t0.elapsed();
    let replay = atlas.distance_many(&pairs);
    assert_eq!(
        served.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        replay.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        "served answers must be bit-identical to the in-memory atlas"
    );
    println!(
        "image: {:.1} KiB; 20k mixed queries from 4 threads in {t_par:.2?} \
         ({:.1}k q/s), bit-identical to the in-memory replay",
        image.len() as f64 / 1024.0,
        20_000.0 / t_par.as_secs_f64() / 1e3
    );
    println!("done");
}
