//! Atlas microbenchmarks: what tiling buys at build time and what portal
//! routing costs at query time.
//!
//! * `build/monolithic` vs `build/atlas-2x2` — one whole-mesh oracle
//!   construction against four quarter-mesh tile builds plus the portal
//!   graph, identical sites and ε (the atlas side should win and widen its
//!   lead with mesh size).
//! * `query/intra-tile` vs `query/cross-tile` — 256-pair batches that stay
//!   inside one tile (pure `O(h)` probes) against batches that cross a
//!   seam (portal-graph Dijkstra per pair): the price of routing.
//! * `query/mixed-10k` — a realistic mixed batch in one call, the atlas
//!   analogue of `query_batch/1-thread`.

use criterion::{criterion_group, criterion_main, Criterion};
use se_oracle::atlas::{Atlas, AtlasConfig};
use se_oracle::oracle::{BuildConfig, SeOracle};
use se_oracle::p2p::EngineKind;
use se_oracle::serve::pair_stream;
use std::hint::black_box;
use std::sync::Arc;
use terrain::gen::diamond_square;
use terrain::poi::sample_uniform;
use terrain::refine::insert_surface_points;
use terrain::tile::TileGridConfig;

fn bench_atlas(c: &mut Criterion) {
    // Level-6 fractal (4 225 vertices), 120 POIs, edge-graph engine — the
    // same regime as `examples/atlas_region.rs`: big enough that the
    // quarter-mesh SSAD saving beats the portal-site overhead (on smaller
    // fixtures the build rows come out roughly even).
    let eps = 0.15;
    let base = diamond_square(6, 0.6, 0xBE7C).to_mesh();
    let pois = sample_uniform(&base, 120, 0x5EAD);
    let refined = insert_surface_points(&base, &pois, None).expect("refine");
    let mut sites = refined.poi_vertices.clone();
    sites.sort_unstable();
    sites.dedup();
    let mesh = Arc::new(refined.mesh);
    let cfg = AtlasConfig {
        grid: TileGridConfig { portal_spacing: 4, ..Default::default() },
        ..Default::default()
    };

    let mut g = c.benchmark_group("atlas");
    g.bench_function("build/monolithic", |b| {
        b.iter(|| {
            let engine = geodesic::dijkstra::EdgeGraphEngine::new(mesh.clone());
            let space = geodesic::sitespace::VertexSiteSpace::new(Arc::new(engine), sites.clone());
            black_box(SeOracle::build(&space, eps, &BuildConfig::default()).expect("build"))
        })
    });
    g.bench_function("build/atlas-2x2", |b| {
        b.iter(|| {
            black_box(
                Atlas::build_over_vertices(
                    mesh.clone(),
                    sites.clone(),
                    eps,
                    EngineKind::EdgeGraph,
                    &cfg,
                )
                .expect("build"),
            )
        })
    });

    // Query fixtures: split one deterministic stream into intra- and
    // cross-tile batches of equal size.
    let atlas =
        Atlas::build_over_vertices(mesh.clone(), sites.clone(), eps, EngineKind::EdgeGraph, &cfg)
            .expect("build");
    let stream = pair_stream(0xA71A_BE7C, 0, 50_000, atlas.n_sites());
    let mut intra = Vec::new();
    let mut cross = Vec::new();
    for &(s, t) in &stream {
        let bucket =
            if atlas.is_cross_tile(s as usize, t as usize) { &mut cross } else { &mut intra };
        if bucket.len() < 256 {
            bucket.push((s, t));
        }
    }
    assert!(intra.len() == 256 && cross.len() == 256, "stream too short to fill buckets");
    g.bench_function("query/intra-tile/256-pairs", |b| {
        b.iter(|| black_box(atlas.distance_many(&intra)))
    });
    g.bench_function("query/cross-tile/256-pairs", |b| {
        b.iter(|| black_box(atlas.distance_many(&cross)))
    });
    let mixed = pair_stream(0xA71A_00AA, 1, 10_000, atlas.n_sites());
    g.bench_function("query/mixed-10k", |b| b.iter(|| black_box(atlas.distance_many(&mixed))));
    g.finish();
}

criterion_group!(benches, bench_atlas);
criterion_main!(benches);
