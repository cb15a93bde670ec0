//! Deployment lifecycle: build the oracle once (expensive, offline), ship
//! the compact image to the serving fleet, reload and answer queries
//! (cheap, online). The space-efficiency that gives SE its name is what
//! makes the shipped artifact small — §1.3's two-POI thought experiment
//! taken to production.
//!
//! Run with `cargo run --release --example oracle_deployment`.

use std::time::Instant;
use terrain_oracle::oracle::SeOracle;
use terrain_oracle::prelude::*;

fn main() {
    // Offline: build over the SF-like dataset's POIs.
    let mesh = Preset::SanFrancisco.mesh(0.08);
    let pois = sample_uniform(&mesh, 200, 41);
    let eps = 0.1;

    let t0 = Instant::now();
    let built = P2POracle::build(&mesh, &pois, eps, EngineKind::Exact, &BuildConfig::default())
        .expect("oracle construction");
    let build_time = t0.elapsed();
    println!(
        "offline build: {:.2?} for {} POIs on {} vertices",
        build_time,
        pois.len(),
        mesh.n_vertices()
    );

    // Ship: serialize to a file.
    let dir = std::env::temp_dir();
    let path = dir.join("terrain-oracle-example.seor");
    let t0 = Instant::now();
    let mut f = std::fs::File::create(&path).expect("create image file");
    built.oracle().save_to_compact(&mut f, false).expect("serialize");
    drop(f);
    let save_time = t0.elapsed();
    let file_len = std::fs::metadata(&path).expect("stat").len();
    println!(
        "image: {:.1} KiB on disk ({:.2?} to write) — vs {:.1} KiB in memory",
        file_len as f64 / 1024.0,
        save_time,
        built.storage_bytes() as f64 / 1024.0
    );

    // Serve: reload and answer. No mesh, no geodesic engine, no POI
    // coordinates needed — the image is self-contained for distances.
    let t0 = Instant::now();
    let mut f = std::fs::File::open(&path).expect("open image");
    let served = SeOracle::load_from(&mut f).expect("deserialize");
    println!("reload: {:.2?}", t0.elapsed());

    let t0 = Instant::now();
    let mut checked = 0u64;
    for s in (0..served.n_sites()).step_by(7) {
        for t in (0..served.n_sites()).step_by(11) {
            let d_live = built.oracle().distance(s, t);
            let d_served = served.distance(s, t);
            assert_eq!(d_live, d_served, "image answers must be bit-identical");
            checked += 1;
        }
    }
    let per_query = t0.elapsed() / (2 * checked.max(1)) as u32;
    println!("{checked} pairs verified bit-identical, ~{per_query:.0?} per query");

    std::fs::remove_file(&path).ok();
    println!("done");
}
