//! Property-based integration tests (proptest): randomized terrains, POI
//! sets and parameters, checking the invariants the paper's lemmas and
//! theorems promise.

mod common;

use common::{fractal_mesh_arc, mesh_with_pois};
use proptest::prelude::*;
use std::sync::Arc;
use terrain_oracle::oracle::{BuildConfig, SeOracle};
use terrain_oracle::prelude::*;

/// The level-3 fractal every property in this file randomizes over.
fn fractal_mesh(seed: u64, rough: f64) -> Arc<TerrainMesh> {
    fractal_mesh_arc(3, rough, seed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, rng_seed: 0x7E44_0001, ..ProptestConfig::default() })]

    /// Theorem 1 end-to-end: for random terrain, POIs and ε, every pair's
    /// oracle answer is within ε of the exact geodesic distance — and the
    /// query machinery never fails to find a matching node pair
    /// (the unique-pair-match property, or the query would panic).
    #[test]
    fn oracle_eps_bound_randomized(
        seed in 0u64..1000,
        eps in 0.05f64..0.5,
        n in 5usize..20,
        rough in 0.4f64..0.9,
    ) {
        let (mesh, pois) = mesh_with_pois(3, rough, seed, n);
        let oracle = P2POracle::build(
            &mesh, &pois, eps, EngineKind::Exact, &BuildConfig::default(),
        ).unwrap();
        for a in 0..n {
            for b in a..n {
                let approx = oracle.distance(a, b);
                let exact = oracle.engine_distance(a, b);
                prop_assert!(
                    (approx - exact).abs() <= eps * exact + 1e-9,
                    "({a},{b}): {approx} vs {exact} at eps {eps}"
                );
            }
        }
    }

    /// Geodesic metric axioms (ICH): identity, symmetry, triangle
    /// inequality, and the 3-D chord lower bound.
    #[test]
    fn exact_geodesic_is_a_metric(seed in 0u64..1000, rough in 0.3f64..1.0) {
        let mesh = fractal_mesh(seed, rough);
        let ich = IchEngine::new(mesh.clone());
        let nv = mesh.n_vertices();
        let picks: Vec<u32> = vec![0, (nv / 3) as u32, (2 * nv / 3) as u32, (nv - 1) as u32];
        let rows: Vec<Vec<f64>> =
            picks.iter().map(|&s| ich.ssad(s, Stop::Exhaust).dist).collect();
        for (i, &a) in picks.iter().enumerate() {
            prop_assert_eq!(rows[i][a as usize], 0.0);
            for (j, &b) in picks.iter().enumerate() {
                // Symmetry.
                prop_assert!((rows[i][b as usize] - rows[j][a as usize]).abs() < 1e-6);
                // Chord lower bound.
                let chord = mesh.vertex(a).dist(mesh.vertex(b));
                prop_assert!(rows[i][b as usize] >= chord - 1e-9);
                // Triangle through every third pick.
                for (k, _) in picks.iter().enumerate() {
                    prop_assert!(
                        rows[i][picks[k] as usize]
                            <= rows[i][b as usize] + rows[j][picks[k] as usize] + 1e-9
                    );
                }
            }
        }
    }

    /// Engine ordering: exact ≤ Steiner(m) ≤ Steiner(0) == edge graph.
    #[test]
    fn engine_ordering_randomized(seed in 0u64..1000, m in 1usize..4) {
        let mesh = fractal_mesh(seed, 0.6);
        let ich = IchEngine::new(mesh.clone());
        let fine = SteinerEngine::new(SteinerGraph::with_points_per_edge(mesh.clone(), m));
        let coarse = EdgeGraphEngine::new(mesh.clone());
        let src = (seed % mesh.n_vertices() as u64) as u32;
        let ri = ich.ssad(src, Stop::Exhaust);
        let rf = fine.ssad(src, Stop::Exhaust);
        let rc = coarse.ssad(src, Stop::Exhaust);
        for v in 0..mesh.n_vertices() {
            prop_assert!(ri.dist[v] <= rf.dist[v] + 1e-9, "v{v}");
            prop_assert!(rf.dist[v] <= rc.dist[v] + 1e-9, "v{v}");
        }
    }

    /// Compressed-tree structural invariants (Lemma 9 + layer bookkeeping)
    /// hold for every built oracle.
    #[test]
    fn compressed_tree_invariants(seed in 0u64..1000, n in 4usize..24) {
        let (mesh, pois) = mesh_with_pois(3, 0.6, seed, n);
        let oracle = P2POracle::build(
            &mesh, &pois, 0.2, EngineKind::EdgeGraph, &BuildConfig::default(),
        ).unwrap();
        let t = oracle.oracle().tree();
        let n_sites = oracle.n_sites();
        // Lemma 9: at most 2n − 1 nodes.
        prop_assert!(t.n_nodes() < 2 * n_sites);
        let mut leaves = 0usize;
        for (id, node) in t.nodes.iter().enumerate() {
            if node.children.is_empty() {
                leaves += 1;
                prop_assert_eq!(node.radius, 0.0, "leaf {} with non-zero radius", id);
            } else {
                // Radius halves per layer from r0.
                let expect = t.r0 / (1u64 << node.layer) as f64;
                prop_assert!((node.radius - expect).abs() < 1e-9 * (1.0 + expect));
                if id as u32 != t.root {
                    prop_assert!(node.children.len() >= 2, "internal chain survived");
                }
            }
            if id as u32 != t.root {
                let p = node.parent as usize;
                prop_assert!(t.nodes[p].layer < node.layer);
            }
        }
        prop_assert_eq!(leaves, n_sites);
    }

    /// Persistence: any built oracle round-trips bit-exactly w.r.t. its
    /// query answers.
    #[test]
    fn persistence_roundtrip_randomized(seed in 0u64..1000, n in 4usize..16) {
        let (mesh, pois) = mesh_with_pois(3, 0.6, seed, n);
        let oracle = P2POracle::build(
            &mesh, &pois, 0.25, EngineKind::EdgeGraph, &BuildConfig::default(),
        ).unwrap();
        let se = oracle.oracle();
        let loaded = SeOracle::load_bytes(&se.save_bytes_compact(false)).unwrap();
        for s in 0..se.n_sites() {
            for t in 0..se.n_sites() {
                prop_assert_eq!(loaded.distance(s, t), se.distance(s, t));
            }
        }
    }

    /// kNN over the tree equals the brute-force scan for every query site
    /// (the branch-and-bound bounds are conservative).
    #[test]
    fn knn_equals_scan_randomized(seed in 0u64..1000, n in 6usize..20, k in 1usize..6) {
        let (mesh, pois) = mesh_with_pois(3, 0.6, seed, n);
        let oracle = P2POracle::build(
            &mesh, &pois, 0.2, EngineKind::EdgeGraph, &BuildConfig::default(),
        ).unwrap();
        let se = oracle.oracle();
        let idx = ProximityIndex::new(se);
        for q in 0..se.n_sites() {
            let got = idx.knn(q, k);
            let mut want: Vec<(f64, usize)> = (0..se.n_sites())
                .filter(|&s| s != q)
                .map(|s| (se.distance(q, s), s))
                .collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            want.truncate(k);
            let got_pairs: Vec<(f64, usize)> =
                got.iter().map(|nb| (nb.distance, nb.site)).collect();
            prop_assert_eq!(got_pairs, want, "q={}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, rng_seed: 0x7E44_0002, ..ProptestConfig::default() })]

    /// Dynamic oracle under a random operation sequence: whatever the
    /// churn, every active-pair answer stays within ε of the true
    /// distance, and a rebuild never changes which sites are active.
    #[test]
    fn dynamic_oracle_random_ops(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u8..3, 0usize..24), 1..24),
    ) {
        use terrain_oracle::geodesic::SiteSpace;
        use terrain_oracle::oracle::dynamic::DynamicOracle;

        let (mesh, pois) = mesh_with_pois(3, 0.6, seed, 24);
        let space = common::edge_graph_vertex_space(&mesh, &pois);
        let eps = 0.25;
        let initial: Vec<usize> = (0..space.n_sites() / 2).collect();
        let mut dy =
            DynamicOracle::with_initial(&space, initial, eps, &BuildConfig::default()).unwrap();

        for (op, raw) in ops {
            let u = raw % space.n_sites();
            match op {
                0 => {
                    let _ = dy.insert(u); // AlreadyActive is fine
                }
                1 => {
                    let _ = dy.remove(u); // NotActive is fine
                }
                _ => {
                    if dy.should_rebuild() && dy.n_active() > 0 {
                        dy.rebuild().unwrap();
                    }
                }
            }
            let active = dy.active_sites();
            prop_assert_eq!(active.len(), dy.n_active());
            for (i, &a) in active.iter().enumerate() {
                // Spot-check a diagonal stripe rather than all pairs.
                let b = active[(i * 7 + 1) % active.len()];
                let approx = dy.distance(a, b).expect("both active");
                let exact = space.distance(a, b);
                prop_assert!(
                    (approx - exact).abs() <= eps * exact + 1e-9,
                    "({}, {}): {} vs {}", a, b, approx, exact
                );
            }
        }
    }

    /// Decimation on random fractals: the result is a valid mesh (the
    /// constructor re-validates), keeps the disk Euler characteristic and
    /// the exact footprint, and reaches the target.
    #[test]
    fn decimation_randomized(seed in 0u64..1000, frac in 0.4f64..0.9) {
        use terrain_oracle::terrain::simplify::decimate_to;
        let m = common::fractal_mesh(4, 0.6, seed);
        let target = ((m.n_vertices() as f64 * frac) as usize).max(8);
        match decimate_to(&m, target) {
            Ok(d) => {
                prop_assert!(d.n_vertices() <= target);
                prop_assert_eq!(
                    d.n_vertices() as i64 - d.n_edges() as i64 + d.n_faces() as i64,
                    1
                );
                let (sa, sb) = (m.stats(), d.stats());
                prop_assert!((sa.bbox.0.x - sb.bbox.0.x).abs() < 1e-9);
                prop_assert!((sa.bbox.1.y - sb.bbox.1.y).abs() < 1e-9);
            }
            Err(terrain_oracle::terrain::simplify::DecimateError::Stuck { reached }) => {
                // Legitimate when interior edges run out first.
                prop_assert!(reached > target);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// ESRI grid round-trips preserve every height, including after NODATA
    /// hole-filling made the grid complete.
    #[test]
    fn dem_roundtrip_randomized(
        seed in 0u64..1000,
        nx in 3usize..9,
        ny in 3usize..9,
        holes in proptest::collection::vec((0usize..100, 0usize..100), 0..5),
    ) {
        use terrain_oracle::terrain::dem::{read_asc, write_asc};
        use terrain_oracle::terrain::gen::Heightfield;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut hf = Heightfield::flat(nx, ny, 2.0, 2.0);
        for j in 0..ny {
            for i in 0..nx {
                hf.set(i, j, rng.random_range(-50.0..50.0));
            }
        }
        // Round-trip of a complete grid is exact.
        let mut buf = Vec::new();
        write_asc(&hf, &mut buf).unwrap();
        let back = read_asc(buf.as_slice()).unwrap();
        for j in 0..ny {
            for i in 0..nx {
                prop_assert!((back.h(i, j) - hf.h(i, j)).abs() < 1e-9);
            }
        }
        // Punch NODATA holes (never all cells): the parse must fill them
        // with finite values and keep untouched cells exact.
        let mut text = format!("ncols {nx}\nnrows {ny}\ncellsize 2\nNODATA_value -9999\n");
        let mut holed = vec![vec![false; nx]; ny];
        for &(a, b) in &holes {
            let (i, j) = (a % nx, b % ny);
            if !(i == 0 && j == 0) {
                holed[j][i] = true;
            }
        }
        for j in (0..ny).rev() {
            let row: Vec<String> = (0..nx)
                .map(|i| if holed[j][i] { "-9999".into() } else { format!("{}", hf.h(i, j)) })
                .collect();
            text.push_str(&row.join(" "));
            text.push('\n');
        }
        let filled = read_asc(text.as_bytes()).unwrap();
        for (j, hrow) in holed.iter().enumerate() {
            for (i, &hole) in hrow.iter().enumerate() {
                prop_assert!(filled.h(i, j).is_finite());
                if !hole {
                    prop_assert!((filled.h(i, j) - hf.h(i, j)).abs() < 1e-9);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, rng_seed: 0x7E44_0003, ..ProptestConfig::default() })]

    /// On a flat grid the exact geodesic equals planar Euclidean distance
    /// for every vertex pair (ICH correctness on the degenerate case).
    #[test]
    fn flat_terrain_geodesic_is_euclidean(
        nx in 3usize..7,
        ny in 3usize..7,
        s_pick in 0usize..100,
        t_pick in 0usize..100,
    ) {
        let mesh = Arc::new(Heightfield::flat(nx, ny, 1.0, 1.0).to_mesh());
        let ich = IchEngine::new(mesh.clone());
        let nv = mesh.n_vertices();
        let s = (s_pick % nv) as u32;
        let t = (t_pick % nv) as u32;
        let exact = mesh.vertex(s).dist(mesh.vertex(t));
        let got = ich.distance(s, t);
        prop_assert!((got - exact).abs() < 1e-9, "({s},{t}): {got} vs {exact}");
    }

    /// SurfacePath invariants: length additivity, interpolation clamping,
    /// simplification never lengthens.
    #[test]
    fn surface_path_properties(
        pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, -2.0f64..2.0), 1..12),
        t in 0.0f64..20.0,
    ) {
        let points: Vec<Vec3> = pts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let path = SurfacePath::from_points(points.clone());
        let manual: f64 = points.windows(2).map(|w| w[0].dist(w[1])).sum();
        prop_assert!((path.length - manual).abs() < 1e-9);
        // point_at stays on the polyline's bounding box.
        let p = path.point_at(t);
        let (mut lo, mut hi) = (points[0], points[0]);
        for q in &points {
            lo = Vec3::new(lo.x.min(q.x), lo.y.min(q.y), lo.z.min(q.z));
            hi = Vec3::new(hi.x.max(q.x), hi.y.max(q.y), hi.z.max(q.z));
        }
        prop_assert!(p.x >= lo.x - 1e-9 && p.x <= hi.x + 1e-9);
        prop_assert!(p.y >= lo.y - 1e-9 && p.y <= hi.y + 1e-9);
        // Simplification preserves endpoints and never lengthens by more
        // than the tolerance times the point count.
        let s = path.simplify_collinear(1e-9);
        prop_assert_eq!(s.points[0], path.points[0]);
        prop_assert_eq!(*s.points.last().unwrap(), *path.points.last().unwrap());
        prop_assert!(s.length <= path.length + 1e-6);
    }
}
