//! Ablation benches for the design choices DESIGN.md §6 calls out:
//!
//! * `ablation_query`   — the paper's O(h) query vs the naive O(h²) scan;
//! * `ablation_build`   — enhanced-edge construction vs per-pair SSAD;
//! * `ablation_hash`    — the node-pair table (per-node sorted rows, which
//!   replace the paper's perfect hash) vs `std::collections::HashMap`;
//! * `ablation_engine`  — exact vs Steiner vs edge-graph engines at build;
//! * `ablation_select`  — random vs greedy point selection.

use bench::setup::{query_pairs, Workload};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phash::{pair_key, splitmix64, unpair_key, PairTable};
use se_oracle::oracle::{BuildConfig, ConstructionMethod};
use se_oracle::p2p::{EngineKind, P2POracle};
use se_oracle::tree::SelectionStrategy;
use std::collections::HashMap;
use std::hint::black_box;
use terrain::gen::Preset;

fn workload() -> Workload {
    Workload::preset(Preset::SfSmall, 0.15, 40)
}

/// O(h) bottom-up candidate scan vs O(h²) Cartesian scan (§3.4).
fn ablation_query(c: &mut Criterion) {
    let w = workload();
    let oracle =
        P2POracle::build(&w.mesh, &w.pois, 0.1, EngineKind::Exact, &BuildConfig::default())
            .unwrap();
    let se = oracle.oracle();
    let pairs = query_pairs(se.n_sites(), 64, 7);
    let mut g = c.benchmark_group("ablation_query");
    g.bench_function("efficient-O(h)", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            black_box(se.distance(s, t))
        })
    });
    g.bench_function("naive-O(h2)", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            black_box(se.distance_naive(s, t).0)
        })
    });
    g.finish();
}

/// Enhanced-edge construction (one SSAD per tree node, §3.5) vs the naive
/// per-pair SSAD construction, on the small preset where both terminate.
fn ablation_build(c: &mut Criterion) {
    let w = Workload::preset(Preset::SfSmall, 0.12, 24);
    let mut g = c.benchmark_group("ablation_build");
    g.sample_size(10);
    for (label, method) in
        [("enhanced", ConstructionMethod::Efficient), ("per-pair-ssad", ConstructionMethod::Naive)]
    {
        g.bench_function(label, |b| {
            let cfg = BuildConfig { method, ..Default::default() };
            b.iter(|| P2POracle::build(&w.mesh, &w.pois, 0.2, EngineKind::Exact, &cfg).unwrap())
        });
    }
    g.finish();
}

/// The node-pair table vs std HashMap for node-pair probing (§3.3 indexes
/// the node pair set with perfect hashing; `phash` answers each probe by a
/// binary search in one per-node row instead — would a hash be faster?).
fn ablation_hash(c: &mut Criterion) {
    let w = workload();
    let oracle =
        P2POracle::build(&w.mesh, &w.pois, 0.1, EngineKind::Exact, &BuildConfig::default())
            .unwrap();
    let entries: Vec<(u64, f64)> = oracle.oracle().pair_entries().collect();
    let n_nodes = oracle.oracle().tree().n_nodes();
    let table = PairTable::new(n_nodes, entries.clone());
    let std_map: HashMap<u64, f64> = entries.iter().copied().collect();
    // Probe mix: half hits, half misses, close to the query kernel's own
    // mix: each pair's last probe is its one hit, at about 1.9 probes per
    // pair (`oracle.probes_per_pair` on perfbench's `local` workload). A
    // miss, like the kernel's, pairs two nodes of the tree that are not
    // stored together.
    let mut x = 0x5EED;
    let misses = std::iter::from_fn(|| {
        x = splitmix64(x);
        Some(pair_key((x % n_nodes as u64) as u32, ((x >> 32) % n_nodes as u64) as u32))
    })
    .filter(|k| !std_map.contains_key(k));
    let probes: Vec<(u32, u32)> =
        entries.iter().map(|&(k, _)| k).chain(misses.take(entries.len())).map(unpair_key).collect();

    let mut g = c.benchmark_group("ablation_hash");
    g.bench_function("pair-table", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = probes[i % probes.len()];
            i += 1;
            black_box(table.get(s, t))
        })
    });
    g.bench_function("std-hashmap", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = probes[i % probes.len()];
            i += 1;
            black_box(std_map.get(&pair_key(s, t)))
        })
    });
    g.bench_function("table-build", |b| {
        b.iter(|| PairTable::new(n_nodes, black_box(entries.clone())))
    });
    g.finish();
}

/// Which geodesic engine should feed the construction? Exact is faithful;
/// Steiner and edge-graph trade error for build speed (DESIGN.md §6).
fn ablation_engine(c: &mut Criterion) {
    let w = Workload::preset(Preset::SfSmall, 0.12, 24);
    let mut g = c.benchmark_group("ablation_engine");
    g.sample_size(10);
    for (label, engine) in [
        ("exact-ich", EngineKind::Exact),
        ("steiner-m2", EngineKind::Steiner { points_per_edge: 2 }),
        ("edge-graph", EngineKind::EdgeGraph),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &engine, |b, &engine| {
            b.iter(|| {
                P2POracle::build(&w.mesh, &w.pois, 0.2, engine, &BuildConfig::default()).unwrap()
            })
        });
    }
    g.finish();
}

/// Random vs greedy point selection (Implementation Detail 1; the paper's
/// Fig 8 finds similar build times, greedy slightly better queries).
fn ablation_select(c: &mut Criterion) {
    let w = Workload::preset(Preset::SfSmall, 0.12, 32);
    let mut g = c.benchmark_group("ablation_select");
    g.sample_size(10);
    for (label, strategy) in
        [("random", SelectionStrategy::Random), ("greedy", SelectionStrategy::Greedy)]
    {
        g.bench_function(label, |b| {
            let cfg = BuildConfig { strategy, ..Default::default() };
            b.iter(|| P2POracle::build(&w.mesh, &w.pois, 0.15, EngineKind::Exact, &cfg).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_query,
    ablation_build,
    ablation_hash,
    ablation_engine,
    ablation_select
);
criterion_main!(benches);
