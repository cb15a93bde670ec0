//! Substrate benches: the SSAD engines the whole stack stands on, plus the
//! extension features (proximity search, dynamic updates, persistence).

use bench::setup::Workload;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geodesic::engine::{GeodesicEngine, Stop};
use geodesic::ich::IchEngine;
use geodesic::sitespace::VertexSiteSpace;
use geodesic::steiner::{SteinerEngine, SteinerGraph};
use geodesic::EdgeGraphEngine;
use se_oracle::dynamic::DynamicOracle;
use se_oracle::oracle::BuildConfig;
use se_oracle::{ProximityIndex, SeOracle};
use std::hint::black_box;
use std::sync::Arc;
use terrain::gen::Preset;
use terrain::refine::insert_surface_points;

/// One full SSAD per engine on the shared small preset.
fn bench_ssad(c: &mut Criterion) {
    let mesh = Arc::new(Preset::SfSmall.mesh(0.2));
    let mut g = c.benchmark_group("ssad");
    g.sample_size(10);
    g.bench_function("ich-exact", |b| {
        let eng = IchEngine::new(mesh.clone());
        b.iter(|| black_box(eng.ssad(0, Stop::Exhaust)))
    });
    for m in [1usize, 3] {
        g.bench_with_input(BenchmarkId::new("steiner", m), &m, |b, &m| {
            let eng = SteinerEngine::new(SteinerGraph::with_points_per_edge(mesh.clone(), m));
            b.iter(|| black_box(eng.ssad(0, Stop::Exhaust)))
        });
    }
    g.bench_function("edge-graph", |b| {
        let eng = EdgeGraphEngine::new(mesh.clone());
        b.iter(|| black_box(eng.ssad(0, Stop::Exhaust)))
    });
    g.finish();
}

/// Bounded SSAD (the construction's inner loop) vs full propagation.
fn bench_ssad_radius(c: &mut Criterion) {
    let mesh = Arc::new(Preset::SfSmall.mesh(0.2));
    let eng = IchEngine::new(mesh.clone());
    let reach = eng.ssad(0, Stop::Exhaust).dist.iter().cloned().fold(0.0, f64::max);
    let mut g = c.benchmark_group("ssad_radius");
    g.sample_size(10);
    for frac in [25u32, 50, 100] {
        let r = reach * frac as f64 / 100.0;
        g.bench_with_input(BenchmarkId::from_parameter(frac), &r, |b, &r| {
            b.iter(|| black_box(eng.ssad(0, Stop::Radius(r))))
        });
    }
    g.finish();
}

fn built_oracle(n: usize) -> (SeOracle, usize) {
    let w = Workload::preset(Preset::SfSmall, 0.15, n);
    let refined = insert_surface_points(&w.mesh, &w.pois, None).unwrap();
    let mut sites = refined.poi_vertices.clone();
    sites.sort_unstable();
    sites.dedup();
    let n_sites = sites.len();
    let sp = VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites);
    (SeOracle::build(&sp, 0.15, &BuildConfig::default()).unwrap(), n_sites)
}

/// kNN through the tree vs the O(n) brute-force oracle scan.
fn bench_proximity(c: &mut Criterion) {
    let (oracle, n_sites) = built_oracle(48);
    let idx = ProximityIndex::new(&oracle);
    let mut g = c.benchmark_group("proximity");
    g.bench_function("knn-tree-k5", |b| {
        let mut q = 0;
        b.iter(|| {
            q = (q + 1) % n_sites;
            black_box(idx.knn(q, 5))
        })
    });
    g.bench_function("knn-scan-k5", |b| {
        let mut q = 0;
        b.iter(|| {
            q = (q + 1) % n_sites;
            let mut all: Vec<(f64, usize)> =
                (0..n_sites).filter(|&s| s != q).map(|s| (oracle.distance(q, s), s)).collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            all.truncate(5);
            black_box(all)
        })
    });
    g.finish();
}

/// Oracle image save/load (persistence extension).
fn bench_persistence(c: &mut Criterion) {
    let (oracle, _) = built_oracle(48);
    let bytes = oracle.save_bytes_compact(false);
    let mut g = c.benchmark_group("persist");
    g.bench_function("save", |b| b.iter(|| black_box(oracle.save_bytes_compact(false))));
    g.bench_function("load", |b| b.iter(|| black_box(SeOracle::load_bytes(&bytes).unwrap())));
    g.finish();
}

/// One dynamic insertion (SSAD + tree descent) against a static rebuild.
fn bench_dynamic_insert(c: &mut Criterion) {
    let w = Workload::preset(Preset::SfSmall, 0.15, 32);
    let refined = insert_surface_points(&w.mesh, &w.pois, None).unwrap();
    let mut sites = refined.poi_vertices.clone();
    sites.sort_unstable();
    sites.dedup();
    let space =
        VertexSiteSpace::new(Arc::new(IchEngine::new(Arc::new(refined.mesh))), sites.clone());
    let n = sites.len();
    let initial: Vec<usize> = (0..n - 1).collect();
    let mut g = c.benchmark_group("dynamic");
    g.sample_size(10);
    g.bench_function("insert-one", |b| {
        b.iter_with_setup(
            || {
                DynamicOracle::with_initial(&space, initial.clone(), 0.2, &BuildConfig::default())
                    .unwrap()
            },
            |mut dy| {
                dy.insert(n - 1).unwrap();
                black_box(dy.distance(0, n - 1))
            },
        )
    });
    g.bench_function("static-rebuild", |b| {
        b.iter(|| black_box(DynamicOracle::build(&space, 0.2, &BuildConfig::default()).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ssad,
    bench_ssad_radius,
    bench_proximity,
    bench_persistence,
    bench_dynamic_insert
);
criterion_main!(benches);
