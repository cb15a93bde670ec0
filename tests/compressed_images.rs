//! Error-budget suite for the compact (v2) image encoding: quantization
//! must stay inside its declared per-table bound, whole-oracle answers
//! must stay within `(1+ε)(1+EPS_QUANT)` of the truth, the encoder must
//! be canonical (encode→decode→encode is byte-identical), and turning
//! compression *off* must preserve exact bit-identity.
//!
//! The per-value properties run on adversarial random tables (mixed
//! magnitudes, zeros, subnormal-adjacent values); the whole-image
//! properties run on real oracles and atlases over random fractal meshes.

mod common;

use common::{build_p2p, mesh_with_pois, refine_sites};
use proptest::prelude::*;
use std::sync::Arc;
use terrain_oracle::oracle::atlas::{Atlas, AtlasConfig};
use terrain_oracle::oracle::quant::{
    decode_error_bound, decode_values, encode_values, table_scale,
};
use terrain_oracle::oracle::{SeOracle, EPS_QUANT};
use terrain_oracle::prelude::*;
use terrain_oracle::terrain::tile::TileGridConfig;

// ---------------------------------------------------------------------------
// Table-level properties: the quantizer against its declared bound.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, rng_seed: 0xC0DEC, ..ProptestConfig::default() })]

    /// Every decoded value is within the table's declared absolute bound
    /// (`scale/2`) of the original, and within `EPS_QUANT` relative error
    /// — the bound the whole-oracle guarantee is built from.
    #[test]
    fn quantized_tables_stay_inside_declared_bound(
        values in proptest::collection::vec((0u8..5, 0.0f64..1.0), 0..128).prop_map(|raw| {
            // Mixed magnitudes per element: exact zeros, micro-scale,
            // unit-scale, kilo-scale, and astronomical values.
            raw.into_iter()
                .map(|(kind, m)| match kind {
                    0 => 0.0,
                    1 => 1e-12 + m * 1e-6,
                    2 => 0.001 + m,
                    3 => 1.0 + m * 1e6,
                    _ => 1e6 + m * 1e18,
                })
                .collect::<Vec<f64>>()
        })
    ) {
        let bytes = encode_values(&values, true);
        let decoded = decode_values(&bytes, values.len()).expect("own encoding must decode");
        match table_scale(&bytes) {
            Some(scale) => {
                let bound = decode_error_bound(scale);
                for (o, d) in values.iter().zip(&decoded) {
                    prop_assert!((o - d).abs() <= bound,
                        "abs error {} > declared bound {bound}", (o - d).abs());
                    if *o != 0.0 {
                        prop_assert!((o - d).abs() <= EPS_QUANT * o,
                            "relative error {} > EPS_QUANT", (o - d).abs() / o);
                    } else {
                        prop_assert_eq!(*d, 0.0, "zero must survive exactly");
                    }
                }
            }
            // Raw fallback (extreme dynamic range): exact by definition.
            None => prop_assert_eq!(&values, &decoded),
        }
    }

    /// Canonical encoder: re-encoding the decode is byte-identical. (The
    /// quantization grid is a fixed point — decoded values re-quantize to
    /// themselves, so images never drift across save/load cycles.)
    #[test]
    fn reencoding_decoded_tables_is_byte_identical(
        values in proptest::collection::vec(0.0f64..1e9, 0..96)
    ) {
        let bytes = encode_values(&values, true);
        let decoded = decode_values(&bytes, values.len()).expect("own encoding must decode");
        let again = encode_values(&decoded, true);
        prop_assert_eq!(&bytes, &again, "encode(decode(encode(v))) != encode(v)");
    }

    /// Compression off is the identity: every value survives bit-exactly.
    #[test]
    fn uncompressed_tables_are_exact(
        values in proptest::collection::vec(0.0f64..1e12, 0..96)
    ) {
        let bytes = encode_values(&values, false);
        let decoded = decode_values(&bytes, values.len()).expect("own encoding must decode");
        for (o, d) in values.iter().zip(&decoded) {
            prop_assert_eq!(o.to_bits(), d.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-image properties: real oracles and atlases.
// ---------------------------------------------------------------------------

/// Asserts `got` is within `(1 + EPS_QUANT)` of `want`, element-wise, with
/// a femto-scale absolute floor for answers near zero.
fn assert_within_quant(want: f64, got: f64, what: &str) {
    assert!(
        (want - got).abs() <= EPS_QUANT * want.abs() + 1e-12,
        "{what}: {got} vs {want} (relative error {})",
        (want - got).abs() / want.abs().max(1e-300)
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, rng_seed: 0x5E01336, max_shrink_iters: 0
    })]

    /// For random meshes and POI sets: the compressed image answers every
    /// pair within `(1+EPS_QUANT)` of the uncompressed oracle — which is
    /// itself within `(1+ε)` of the truth, composing to the documented
    /// `(1+ε)(1+EPS_QUANT)` whole-oracle budget — and the compact encoder
    /// is canonical at image level.
    #[test]
    fn compressed_oracle_answers_within_quant_budget(
        seed in 0u64..1 << 48,
        n in 10usize..18,
    ) {
        let built = build_p2p(seed | 1, n, 0.25, EngineKind::EdgeGraph).into_oracle();
        let image = built.save_bytes_compact(true);
        let packed = SeOracle::load_bytes(&image).expect("compact image must load");

        for s in 0..built.n_sites() {
            for t in 0..built.n_sites() {
                let want = built.distance(s, t);
                let got = packed.distance(s, t);
                assert_within_quant(want, got, &format!("pair ({s}, {t})"));
            }
        }
        // Canonical: decode→re-encode reproduces the image byte for byte.
        prop_assert_eq!(&image, &packed.save_bytes_compact(true));

        // Compression off: v2 framing, exact tables — bit-identity.
        let raw = built.save_bytes_compact(false);
        let exact = SeOracle::load_bytes(&raw).expect("raw compact image must load");
        for s in 0..built.n_sites() {
            for t in 0..built.n_sites() {
                prop_assert_eq!(
                    built.distance(s, t).to_bits(),
                    exact.distance(s, t).to_bits()
                );
            }
        }
        prop_assert_eq!(&raw, &exact.save_bytes_compact(false));
    }
}

#[test]
fn compressed_atlas_answers_within_quant_budget() {
    let (mesh, pois) = mesh_with_pois(4, 0.6, 0xA7145, 22);
    let (refined, sites) = refine_sites(&mesh, &pois);
    let cfg = AtlasConfig {
        grid: TileGridConfig { portal_spacing: 2, ..Default::default() },
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

    let raw = atlas.save_bytes_compact(false);
    let image = atlas.save_bytes_compact(true);
    assert!(
        image.len() < raw.len(),
        "compressed image ({} B) not smaller than raw v2 ({} B)",
        image.len(),
        raw.len()
    );
    let packed = Atlas::load_bytes(&image).expect("compact atlas must load");
    let n = atlas.n_sites() as u32;
    for s in 0..n {
        for t in 0..n {
            let want = atlas.distance(s as usize, t as usize);
            let got = packed.distance(s as usize, t as usize);
            assert_within_quant(want, got, &format!("atlas pair ({s}, {t})"));
        }
    }
    assert_eq!(image, packed.save_bytes_compact(true), "atlas compact encoder not canonical");

    // Compression off: answers bit-identical to the original atlas.
    let exact = Atlas::load_bytes(&raw).expect("raw compact atlas must load");
    for s in 0..n {
        for t in 0..n {
            assert_eq!(
                atlas.distance(s as usize, t as usize).to_bits(),
                exact.distance(s as usize, t as usize).to_bits(),
                "raw v2 atlas answer differs at ({s}, {t})"
            );
        }
    }
    assert_eq!(raw, exact.save_bytes_compact(false));
}
