//! What the two atlas workloads share: the atlas specification, its
//! build and encode, the exact-geodesic answer check, and the routing
//! metrics.

use crate::inputs::{Reference, EPS};
use crate::run::{ratio, timed, Config, Contract, Outcome, Setups};
use bench::setup::Workload;
use obs::trace::span;
use se_oracle::atlas::{Atlas, AtlasConfig, EPS_ROUTE};
use se_oracle::p2p::EngineKind;
use se_oracle::EPS_QUANT;
use std::time::Instant;
use terrain::gen::Preset;

/// The atlas terrain: SF-small with clustered POIs.
pub fn atlas_workload(cfg: &Config) -> Workload {
    Workload::preset(Preset::SfSmall, cfg.sizes.atlas_scale, cfg.sizes.atlas_pois)
}

/// A built atlas's v2 image and its size.
pub struct Built {
    /// The compressed v2 `SEAT` image.
    pub bytes: Vec<u8>,
    /// Decoded size of the atlas (`Atlas::storage_bytes`).
    pub storage_bytes: usize,
}

/// Builds the 2×2 exact-engine atlas (default grid) and v2-encodes it,
/// recording the build phases and the encode time into `setups`.
pub fn build_atlas(w: &Workload, setups: &mut Setups) -> Built {
    let atlas = {
        let _s = span("atlas", "build");
        Atlas::build(&w.mesh, &w.pois, EPS, EngineKind::Exact, &AtlasConfig::default())
            .expect("the atlas builds")
    };
    let stats = atlas.build_stats();
    setups.tiling.push(stats.tiling.as_secs_f64());
    setups.tile_builds.push(stats.oracles.as_secs_f64());
    let (bytes, enc_s) = timed(|| {
        let _s = span("persist", "encode");
        atlas.save_bytes_compact(true)
    });
    setups.encode.push(enc_s);
    Built { bytes, storage_bytes: atlas.storage_bytes() }
}

/// Checks every site pair of `atlas` against exact geodesic distance: the
/// `(1−ε)` floor and the `EPS_ROUTE` ceiling, widened by `EPS_QUANT`
/// because the image is v2. Reports `max_rel_err`.
pub fn check_atlas_contract(w: &Workload, out: &mut Outcome, atlas: &Atlas) {
    let reference = Reference::exact_atlas_sites(w);
    let contract = Contract {
        lo: (1.0 - EPS) * (1.0 - EPS_QUANT),
        hi: (1.0 + EPS) * (1.0 + EPS_ROUTE) * (1.0 + EPS_QUANT),
    };
    let n = atlas.n_sites() as u32;
    let mut worst: f64 = 0.0;
    for s in 0..n {
        let pairs: Vec<(u32, u32)> = (0..n).map(|t| (s, t)).collect();
        let got = atlas.distance_many(&pairs);
        worst = worst.max(contract.check(
            out,
            "exact-geodesic contract",
            &got,
            &reference.row(s as usize),
        ));
    }
    out.set("max_rel_err", worst);
}

/// Routing metrics over the workload's request pairs on a resident
/// atlas: the cross-tile share, and `Atlas::distance_many` cost per pair
/// for intra-tile and cross-tile pairs, timed in 64-pair calls.
pub fn routing_metrics(out: &mut Outcome, atlas: &Atlas, requests: &[Vec<(u32, u32)>]) {
    let (cross, intra): (Vec<_>, Vec<_>) =
        requests.iter().flatten().partition(|&&(s, t)| atlas.is_cross_tile(s as usize, t as usize));
    out.set("atlas.cross_frac", ratio(cross.len() as f64, (cross.len() + intra.len()) as f64));
    for (metric, name, pairs) in [
        ("atlas.intra_ns_per_pair", "intra-64", &intra),
        ("atlas.cross_ns_per_pair", "cross-64", &cross),
    ] {
        let start = Instant::now();
        for chunk in pairs.chunks(crate::inputs::REQUEST_PAIRS) {
            let _s = span("atlas", name);
            std::hint::black_box(atlas.distance_many(chunk));
        }
        out.set(metric, ratio(start.elapsed().as_nanos() as f64, pairs.len() as f64));
    }
}
