//! Integration tests for the three extensions layered on the SE oracle:
//! proximity queries, dynamic POI updates and oracle persistence —
//! exercised together through the public facade, the way an application
//! would combine them.

mod common;

use common::{build_p2p as build_p2p_with_engine, fractal_mesh_arc, mesh_with_pois, tmp_dir};
use terrain_oracle::oracle::dynamic::DynamicOracle;
use terrain_oracle::oracle::BuildConfig;
use terrain_oracle::prelude::*;

fn build_p2p(seed: u64, n: usize, eps: f64) -> P2POracle {
    build_p2p_with_engine(seed, n, eps, EngineKind::Exact)
}

#[test]
fn knn_through_full_pipeline_matches_scan() {
    let oracle = build_p2p(401, 40, 0.2);
    let se = oracle.oracle();
    let idx = ProximityIndex::new(se);
    for q in (0..se.n_sites()).step_by(5) {
        let got = idx.knn(q, 5);
        let mut want: Vec<(f64, usize)> =
            (0..se.n_sites()).filter(|&s| s != q).map(|s| (se.distance(q, s), s)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (rank, nb) in got.iter().enumerate() {
            assert_eq!((nb.distance, nb.site), want[rank], "q={q} rank={rank}");
        }
    }
}

#[test]
fn knn_results_near_true_geodesic_knn() {
    // With ε = 0.05 the oracle ranking and the exact ranking can only
    // disagree where distances are within 2ε of each other; the reported
    // 1-NN's true distance is at most (1+ε)/(1−ε) times the optimum.
    let oracle = build_p2p(403, 25, 0.05);
    let se = oracle.oracle();
    let idx = ProximityIndex::new(se);
    let eps = se.epsilon();
    for q in 0..se.n_sites() {
        let reported = idx.nearest(q).unwrap();
        let exact_best = (0..se.n_sites())
            .filter(|&s| s != q)
            .map(|s| oracle.engine_distance(q_poi(&oracle, q), q_poi(&oracle, s)))
            .fold(f64::INFINITY, f64::min);
        let reported_exact =
            oracle.engine_distance(q_poi(&oracle, q), q_poi(&oracle, reported.site));
        assert!(
            reported_exact <= exact_best * (1.0 + eps) / (1.0 - eps) + 1e-9,
            "q={q}: reported true distance {reported_exact}, optimum {exact_best}"
        );
    }
}

/// Maps a site index back to a POI index (sites are deduplicated POIs; with
/// uniform sampling they are 1:1 in input order).
fn q_poi(_oracle: &P2POracle, site: usize) -> usize {
    site
}

#[test]
fn range_query_as_geofence() {
    // The GIS motivation of §1.1: "which landmarks lie within r of here".
    let oracle = build_p2p(405, 30, 0.15);
    let se = oracle.oracle();
    let idx = ProximityIndex::new(se);
    let all: Vec<f64> = (1..se.n_sites()).map(|s| se.distance(0, s)).collect();
    let median = {
        let mut v = all.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let hits = idx.range(0, median);
    assert!(!hits.is_empty());
    for nb in &hits {
        assert!(nb.distance <= median);
    }
    assert_eq!(hits.len(), all.iter().filter(|&&d| d <= median).count());
    // Sorted ascending.
    for w in hits.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }
}

#[test]
fn dynamic_oracle_full_lifecycle() {
    let (mesh, pois) = mesh_with_pois(4, 0.6, 407, 30);
    let space = common::exact_vertex_space(&mesh, &pois);
    let eps = 0.2;
    let initial: Vec<usize> = (0..20).collect();
    let mut dy =
        DynamicOracle::with_initial(&space, initial, eps, &BuildConfig::default()).unwrap();

    // Grow, shrink, rebuild — the ε bound must hold at every stage.
    use terrain_oracle::geodesic::SiteSpace;
    let check = |dy: &DynamicOracle<'_>| {
        let active = dy.active_sites();
        for &a in &active {
            for &b in &active {
                let approx = dy.distance(a, b).unwrap();
                let exact = space.distance(a, b);
                assert!(
                    (approx - exact).abs() <= eps * exact + 1e-9,
                    "({a},{b}): {approx} vs {exact}"
                );
            }
        }
    };
    for u in 20..space.n_sites() {
        dy.insert(u).unwrap();
    }
    check(&dy);
    for u in (0..10).step_by(2) {
        dy.remove(u).unwrap();
    }
    check(&dy);
    dy.rebuild().unwrap();
    check(&dy);
    assert_eq!(dy.n_active(), space.n_sites() - 5);
}

#[test]
fn persisted_oracle_round_trips_through_disk() {
    let oracle = build_p2p(409, 25, 0.15);
    let se = oracle.oracle();
    let dir = tmp_dir("persist");
    let path = dir.join("oracle.seor");

    let mut f = std::fs::File::create(&path).unwrap();
    se.save_to_compact(&mut f, false).unwrap();
    drop(f);

    let mut f = std::fs::File::open(&path).unwrap();
    let loaded = terrain_oracle::oracle::SeOracle::load_from(&mut f).unwrap();
    for s in 0..se.n_sites() {
        for t in 0..se.n_sites() {
            assert_eq!(loaded.distance(s, t), se.distance(s, t));
        }
    }
    // On-disk footprint is the same order as the in-memory accounting.
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(file_len < 4 * se.storage_bytes() + 4096, "file {file_len} bytes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn proximity_index_works_on_loaded_oracle() {
    // Persistence must preserve everything proximity search relies on
    // (tree shape, radii, pair distances).
    let oracle = build_p2p(411, 20, 0.2);
    let se = oracle.oracle();
    let loaded =
        terrain_oracle::oracle::SeOracle::load_bytes(&se.save_bytes_compact(false)).unwrap();
    let idx_orig = ProximityIndex::new(se);
    let idx_load = ProximityIndex::new(&loaded);
    for q in 0..se.n_sites() {
        assert_eq!(idx_orig.knn(q, 4), idx_load.knn(q, 4), "q={q}");
    }
}

#[test]
fn path_reconstruction_consistent_with_oracle_distance() {
    // A hiking app: oracle for the distance estimate, Steiner path for the
    // route. The polyline length must agree with the oracle answer within
    // the combined error of both approximations.
    let mesh = fractal_mesh_arc(4, 0.6, 413);
    let eps = 0.1;
    let oracle =
        P2POracle::build_v2v(mesh.clone(), eps, EngineKind::Exact, &BuildConfig::default())
            .unwrap();
    let graph = SteinerGraph::with_points_per_edge(mesh.clone(), 3);
    for (s, t) in [(0u32, 70u32), (12, 55), (30, 8)] {
        let d_oracle = oracle.distance(s as usize, t as usize);
        let path = shortest_vertex_path(&graph, s, t).unwrap();
        // Path length ≥ exact ≥ oracle/(1+ε); path ≤ exact·graph_factor
        // with graph_factor small at m = 3.
        assert!(path.length >= d_oracle / (1.0 + eps) - 1e-9, "({s},{t})");
        assert!(
            path.length <= d_oracle * (1.0 + eps) * 1.12 + 1e-9,
            "({s},{t}): path {} vs oracle {d_oracle}",
            path.length
        );
    }
}
