//! Failure injection across the public API: malformed meshes, bad
//! parameters, corrupt images, empty/degenerate inputs. Every rejection
//! must be a typed error (or a documented panic), never a wrong answer.

mod common;

use common::fractal_mesh;
use std::sync::Arc;
use terrain_oracle::oracle::{BuildConfig, BuildError, SeOracle};
use terrain_oracle::prelude::*;
use terrain_oracle::terrain::io::{read_off, OffError};
use terrain_oracle::terrain::mesh::MeshError;

#[test]
fn mesh_rejects_structural_garbage() {
    use terrain_oracle::terrain::TerrainMesh;
    let v = |x: f64, y: f64, z: f64| Vec3::new(x, y, z);

    // Too few vertices / no faces.
    assert!(TerrainMesh::new(vec![], vec![]).is_err());
    assert!(TerrainMesh::new(vec![v(0., 0., 0.)], vec![]).is_err());

    // Face referencing a missing vertex.
    let r = TerrainMesh::new(vec![v(0., 0., 0.), v(1., 0., 0.), v(0., 1., 0.)], vec![[0, 1, 9]]);
    assert!(r.is_err(), "out-of-range vertex index accepted");

    // Degenerate (zero-area) face.
    let r = TerrainMesh::new(vec![v(0., 0., 0.), v(1., 0., 0.), v(2., 0., 0.)], vec![[0, 1, 2]]);
    assert!(r.is_err(), "collinear face accepted");

    // Repeated vertex in one face.
    let r = TerrainMesh::new(vec![v(0., 0., 0.), v(1., 0., 0.), v(0., 1., 0.)], vec![[0, 1, 1]]);
    assert!(r.is_err(), "duplicate vertex in face accepted");

    // Disconnected surface: two islands.
    let r = TerrainMesh::new(
        vec![
            v(0., 0., 0.),
            v(1., 0., 0.),
            v(0., 1., 0.),
            v(10., 10., 0.),
            v(11., 10., 0.),
            v(10., 11., 0.),
        ],
        vec![[0, 1, 2], [3, 4, 5]],
    );
    assert!(matches!(r, Err(MeshError::Disconnected { .. })), "disconnected mesh accepted");

    // Non-manifold edge (three faces sharing an edge).
    let r = TerrainMesh::new(
        vec![v(0., 0., 0.), v(1., 0., 0.), v(0.5, 1., 0.), v(0.5, -1., 0.), v(0.5, 0.5, 1.)],
        vec![[0, 1, 2], [1, 0, 3], [0, 1, 4]],
    );
    assert!(r.is_err(), "non-manifold edge accepted");
}

#[test]
fn off_parser_rejects_malformed_input() {
    // Not OFF at all.
    assert!(read_off("hello\n".as_bytes()).is_err());
    // Truncated counts.
    assert!(read_off("OFF\n3\n".as_bytes()).is_err());
    // Vertex line with too few coordinates.
    assert!(read_off("OFF\n3 1 0\n0 0\n1 0 0\n0 1 0\n3 0 1 2\n".as_bytes()).is_err());
    // Non-triangle face.
    let quad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n";
    assert!(matches!(read_off(quad.as_bytes()), Err(OffError::Parse { .. })));
    // Face index out of range.
    let bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n";
    assert!(read_off(bad.as_bytes()).is_err());
}

#[test]
fn off_round_trip_preserves_geometry() {
    let mesh = fractal_mesh(3, 0.6, 501);
    let mut buf = Vec::new();
    terrain_oracle::terrain::io::write_off(&mesh, &mut buf).unwrap();
    let back = read_off(buf.as_slice()).unwrap();
    assert_eq!(back.n_vertices(), mesh.n_vertices());
    assert_eq!(back.n_faces(), mesh.n_faces());
    for v in 0..mesh.n_vertices() as u32 {
        assert!(back.vertex(v).dist(mesh.vertex(v)) < 1e-9);
    }
}

#[test]
fn oracle_rejects_invalid_epsilon_everywhere() {
    let mesh = Heightfield::flat(4, 4, 1.0, 1.0).to_mesh();
    let pois = sample_uniform(&mesh, 6, 3);
    for eps in [0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let r = P2POracle::build(&mesh, &pois, eps, EngineKind::Exact, &BuildConfig::default());
        assert!(r.is_err(), "ε = {eps} accepted by P2P build");
        let r = A2AOracle::build(
            Arc::new(Heightfield::flat(3, 3, 1.0, 1.0).to_mesh()),
            eps,
            Some(1),
            &BuildConfig::default(),
        );
        assert!(r.is_err(), "ε = {eps} accepted by A2A build");
    }
}

#[test]
fn empty_poi_set_rejected() {
    let mesh = Heightfield::flat(4, 4, 1.0, 1.0).to_mesh();
    let r = P2POracle::build(&mesh, &[], 0.1, EngineKind::Exact, &BuildConfig::default());
    assert!(r.is_err());
}

#[test]
fn all_colocated_pois_collapse_to_single_site() {
    // §2: duplicate POIs merge. An all-duplicates input is the extreme
    // case — one site, all distances zero.
    let mesh = Heightfield::flat(4, 4, 1.0, 1.0).to_mesh();
    let one = sample_uniform(&mesh, 1, 7)[0];
    let pois = vec![one; 5];
    let o =
        P2POracle::build(&mesh, &pois, 0.2, EngineKind::Exact, &BuildConfig::default()).unwrap();
    assert_eq!(o.n_pois(), 5);
    assert_eq!(o.n_sites(), 1);
    for a in 0..5 {
        for b in 0..5 {
            assert_eq!(o.distance(a, b), 0.0);
        }
    }
}

#[test]
fn corrupt_image_every_prefix_rejected_or_roundtrips() {
    // No prefix of a valid image may load as a *different* valid oracle.
    let mesh = fractal_mesh(3, 0.6, 503);
    let pois = sample_uniform(&mesh, 8, 11);
    let o =
        P2POracle::build(&mesh, &pois, 0.25, EngineKind::Exact, &BuildConfig::default()).unwrap();
    let bytes = o.oracle().save_bytes_compact(false);
    for cut in (0..bytes.len()).step_by(bytes.len().div_ceil(40).max(1)) {
        assert!(
            SeOracle::load_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes loaded successfully"
        );
    }
    assert!(SeOracle::load_bytes(&bytes).is_ok());
}

#[test]
fn sliver_triangles_still_produce_correct_geodesics() {
    // A long thin strip: numerically nasty (tiny inner angles) but exactly
    // planar, so ICH answers are checkable against plane geometry.
    let mesh = Heightfield::flat(30, 2, 1.0, 0.05).to_mesh();
    let ich = IchEngine::new(Arc::new(mesh.clone()));
    let a = 0u32; // (0, 0)
    let b = 29u32; // (29·1.0, 0)
    let exact = 29.0;
    let got = ich.distance(a, b);
    assert!((got - exact).abs() < 1e-6, "sliver strip: {got} vs {exact}");
}

#[test]
fn boundary_vertices_are_handled() {
    // Geodesics to/from boundary vertices and along the mesh boundary.
    let mesh = Arc::new(Heightfield::flat(5, 5, 1.0, 1.0).to_mesh());
    let ich = IchEngine::new(mesh.clone());
    // Two corners along one boundary edge row.
    let d = ich.distance(0, 4);
    assert!((d - 4.0).abs() < 1e-9, "boundary row distance {d}");
    // Full boundary circuit corner-to-corner stays the straight diagonal
    // across the interior (shorter than walking the rim).
    let diag = ich.distance(0, 24);
    assert!((diag - 32f64.sqrt()).abs() < 1e-9);
}

#[test]
fn single_poi_oracle_works() {
    let mesh = Heightfield::flat(4, 4, 1.0, 1.0).to_mesh();
    let pois = sample_uniform(&mesh, 1, 13);
    let o =
        P2POracle::build(&mesh, &pois, 0.1, EngineKind::Exact, &BuildConfig::default()).unwrap();
    assert_eq!(o.distance(0, 0), 0.0);
}

#[test]
fn two_poi_oracle_is_tiny_and_exact() {
    // The paper's motivating example (§1.3): with two POIs a sane oracle
    // stores O(1) state, unlike Steiner-point oracles.
    let mesh = fractal_mesh(3, 0.6, 505);
    let pois = sample_uniform(&mesh, 2, 17);
    let o =
        P2POracle::build(&mesh, &pois, 0.1, EngineKind::Exact, &BuildConfig::default()).unwrap();
    let exact = o.engine_distance(0, 1);
    assert!((o.distance(0, 1) - exact).abs() <= 0.1 * exact + 1e-9);
    assert!(o.oracle().n_pairs() <= 8, "{} pairs for two POIs", o.oracle().n_pairs());
    assert!(o.storage_bytes() < 4096, "{} bytes for two POIs", o.storage_bytes());
}

#[test]
fn build_error_messages_are_actionable() {
    let mesh = Heightfield::flat(4, 4, 1.0, 1.0).to_mesh();
    let pois = sample_uniform(&mesh, 4, 19);
    let msg = match P2POracle::build(&mesh, &pois, -1.0, EngineKind::Exact, &BuildConfig::default())
    {
        Err(e) => e.to_string(),
        Ok(_) => panic!("negative ε accepted"),
    };
    assert!(msg.contains('ε') || msg.to_lowercase().contains("epsilon"), "message: {msg}");
    let be = BuildError::InvalidEpsilon(f64::NAN);
    assert!(!be.to_string().is_empty());
}
