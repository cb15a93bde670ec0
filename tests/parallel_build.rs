//! The parallel construction pipeline's two load-bearing guarantees:
//!
//! 1. **Determinism across thread counts** — the worker pool and the
//!    SSAD-reuse cache are pure accelerators: `threads = 1` and
//!    `threads = N` must produce byte-for-byte identical oracles (same
//!    pair set, bit-identical distances), for both construction methods
//!    and for the A2A front-end.
//! 2. **Cache transparency** — a [`CachingSiteSpace`] must answer every
//!    `SiteSpace` primitive bit-identically to the raw space it wraps, for
//!    exact (ICH), edge-graph, and Steiner-graph backends.

mod common;

use common::*;
use std::sync::Arc;
use terrain_oracle::geodesic::cache::CachingSiteSpace;
use terrain_oracle::geodesic::{GraphSiteSpace, SiteSpace, SteinerGraph};
use terrain_oracle::oracle::{BuildConfig, ConstructionMethod, QueryError, SeOracle};
use terrain_oracle::prelude::*;

fn cfg(threads: usize) -> BuildConfig {
    BuildConfig { threads, ..Default::default() }
}

/// Collects the oracle's full queryable payload in a canonical order.
fn payload(o: &SeOracle) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> = o.pair_entries().map(|(k, d)| (k, d.to_bits())).collect();
    entries.sort_unstable();
    entries
}

#[test]
fn se_oracle_identical_across_thread_counts() {
    let (mesh, pois) = mesh_with_pois(4, 0.6, 101, 22);
    let eps = 0.2;
    let one = P2POracle::build(&mesh, &pois, eps, EngineKind::Exact, &cfg(1)).unwrap();
    let four = P2POracle::build(&mesh, &pois, eps, EngineKind::Exact, &cfg(4)).unwrap();

    assert_eq!(one.oracle().n_pairs(), four.oracle().n_pairs());
    assert_eq!(one.oracle().height(), four.oracle().height());
    assert_eq!(payload(one.oracle()), payload(four.oracle()), "pair sets differ");
    for s in 0..one.n_pois() {
        for t in 0..one.n_pois() {
            assert_eq!(
                one.distance(s, t).to_bits(),
                four.distance(s, t).to_bits(),
                "query ({s},{t}) differs between thread counts"
            );
        }
    }
    assert_eq!(one.oracle().build_stats().workers, 1);
    assert_eq!(four.oracle().build_stats().workers, 4);
    assert!(
        four.oracle().build_stats().cache_hits > 0,
        "construction must reuse SSADs across phases"
    );
}

#[test]
fn naive_method_identical_across_thread_counts() {
    let (mesh, pois) = mesh_with_pois(3, 0.6, 103, 12);
    let base = BuildConfig { method: ConstructionMethod::Naive, ..Default::default() };
    let one = P2POracle::build(
        &mesh,
        &pois,
        0.25,
        EngineKind::Exact,
        &BuildConfig { threads: 1, ..base },
    )
    .unwrap();
    let three = P2POracle::build(
        &mesh,
        &pois,
        0.25,
        EngineKind::Exact,
        &BuildConfig { threads: 3, ..base },
    )
    .unwrap();
    assert_eq!(payload(one.oracle()), payload(three.oracle()));
}

#[test]
fn auto_threads_identical_to_serial() {
    let (mesh, pois) = mesh_with_pois(3, 0.6, 105, 10);
    let serial = P2POracle::build(&mesh, &pois, 0.2, EngineKind::Exact, &cfg(1)).unwrap();
    let auto = P2POracle::build(&mesh, &pois, 0.2, EngineKind::Exact, &cfg(0)).unwrap();
    assert_eq!(payload(serial.oracle()), payload(auto.oracle()));
    assert!(auto.oracle().build_stats().workers >= 1);
}

#[test]
fn cached_space_identical_to_raw_exact() {
    let (mesh, pois) = mesh_with_pois(3, 0.6, 107, 8);
    let raw = exact_vertex_space(&mesh, &pois);
    let cached = CachingSiteSpace::new(&raw);
    let n = raw.n_sites();
    for s in 0..n {
        // Interleave the primitives so cached entries serve later queries.
        let all_c = cached.all_distances(s);
        let all_r = raw.all_distances(s);
        assert_eq!(all_c.len(), all_r.len());
        for (i, (&c, &r)) in all_c.iter().zip(&all_r).enumerate() {
            assert_eq!(c.to_bits(), r.to_bits(), "all_distances({s})[{i}]");
        }
        let r_max = all_r.iter().cloned().fold(0.0, f64::max);
        for f in [1.0, 0.5, 0.25] {
            assert_eq!(
                cached.sites_within(s, r_max * f),
                raw.sites_within(s, r_max * f),
                "sites_within({s}, {f}·r_max)"
            );
        }
        for t in 0..n {
            assert_eq!(cached.distance(s, t).to_bits(), raw.distance(s, t).to_bits());
        }
    }
    let stats = cached.stats();
    assert!(stats.hits > 0, "interleaved queries must produce hits");
}

#[test]
fn cached_space_identical_to_raw_graph() {
    // Same transparency over the Steiner-graph space — queried narrow to
    // wide so both the reuse path and the upgrade path are exercised.
    let mesh = fractal_mesh_arc(3, 0.6, 109);
    let graph = Arc::new(SteinerGraph::with_points_per_edge(mesh.clone(), 1));
    let nv = mesh.n_vertices() as u32;
    let sites: Vec<u32> = vec![0, 3, nv / 2, nv, nv + 5, nv + 11];
    let raw = GraphSiteSpace::new(graph, sites);
    let cached = CachingSiteSpace::new(&raw);
    let n = raw.n_sites();
    for s in 0..n {
        let r_max = raw.all_distances(s).iter().cloned().fold(0.0, f64::max);
        for f in [0.2, 0.6, 1.0] {
            assert_eq!(cached.sites_within(s, r_max * f), raw.sites_within(s, r_max * f));
        }
        let all_c = cached.all_distances(s);
        let all_r = raw.all_distances(s);
        for (c, r) in all_c.iter().zip(&all_r) {
            assert_eq!(c.to_bits(), r.to_bits());
        }
    }
}

#[test]
fn a2a_identical_across_thread_counts() {
    let mesh = fractal_mesh_arc(3, 0.5, 111);
    let one = A2AOracle::build(mesh.clone(), 0.3, Some(1), &cfg(1)).unwrap();
    let four = A2AOracle::build(mesh.clone(), 0.3, Some(1), &cfg(4)).unwrap();
    assert_eq!(payload(one.oracle()), payload(four.oracle()));
    for (a, b) in [((1.2, 2.3), (6.1, 4.4)), ((0.4, 0.2), (3.3, 7.0))] {
        let da = one.distance_xy(a, b).unwrap();
        let db = four.distance_xy(a, b).unwrap();
        assert_eq!(da.to_bits(), db.to_bits(), "A2A query {a:?} → {b:?}");
    }
}

#[test]
fn try_distance_round_trips_through_persistence() {
    // The checked query respects the range of a *loaded* oracle too.
    let o = build_p2p(113, 10, 0.25, EngineKind::Exact);
    let mut buf = Vec::new();
    o.oracle().save_to_compact(&mut buf, false).unwrap();
    let loaded = SeOracle::load_from(&mut buf.as_slice()).unwrap();
    let n = loaded.n_sites();
    let m = n as u32;
    assert_eq!(
        loaded.distance_many_checked_with_stats(&[(0, m)]),
        Err(QueryError::SiteOutOfRange { index: 0, site: m, n_sites: n })
    );
    let (d, _) = loaded.distance_many_checked_with_stats(&[(0, m - 1)]).unwrap();
    assert_eq!(d, vec![loaded.distance(0, n - 1)]);
}
