//! Query-throughput microbenchmarks for the serving layer: one batch of
//! 10k pairs answered by individual `distance` calls, by the amortized
//! `distance_many`, and by the pool-sharded parallel driver at fixed and
//! auto-detected thread counts.
//!
//! Each measurement covers the **whole 10k-pair batch**, so the reported
//! time is directly a queries-per-second figure (iters × 10k / elapsed).
//! Every query reads its layer arrays from the oracle's table, so the
//! 1-thread batch win over individual calls is per-call overhead alone
//! (one range check and one answer vector per call); the N-thread rows
//! record the scaling trajectory on multi-core runners.

use bench::setup::{query_pairs, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use se_oracle::oracle::BuildConfig;
use se_oracle::p2p::{EngineKind, P2POracle};
use se_oracle::serve::QueryHandle;
use std::hint::black_box;
use terrain::gen::Preset;

const BATCH: usize = 10_000;

fn bench_query_batch(c: &mut Criterion) {
    let w = Workload::preset(Preset::SfSmall, 0.3, 60);
    // The query path is engine-independent; the edge-graph build keeps the
    // bench's setup phase cheap.
    let built =
        P2POracle::build(&w.mesh, &w.pois, 0.15, EngineKind::EdgeGraph, &BuildConfig::default())
            .expect("oracle construction");
    let handle = QueryHandle::new(built.into_oracle());
    let pairs: Vec<(u32, u32)> = query_pairs(handle.n_sites(), BATCH, 0xBA7C)
        .into_iter()
        .map(|(s, t)| (s as u32, t as u32))
        .collect();

    let mut g = c.benchmark_group("query_batch");
    g.bench_function(format!("individual/{BATCH}-pairs"), |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(s, t) in &pairs {
                acc += handle.distance(s as usize, t as usize);
            }
            black_box(acc)
        })
    });
    g.bench_function(format!("1-thread/{BATCH}-pairs"), |b| {
        b.iter(|| black_box(handle.distance_many(&pairs)))
    });
    g.bench_function(format!("2-thread/{BATCH}-pairs"), |b| {
        b.iter(|| black_box(handle.distance_many_par(&pairs, 2)))
    });
    let auto = geodesic::pool::resolve_threads(0);
    g.bench_function(format!("auto-{auto}-thread/{BATCH}-pairs"), |b| {
        b.iter(|| black_box(handle.distance_many_par(&pairs, 0)))
    });
    g.finish();
}

criterion_group!(benches, bench_query_batch);
criterion_main!(benches);
