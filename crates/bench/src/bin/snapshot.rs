//! Emits a `BENCH_*.json` perf snapshot: the three numbers the roadmap
//! tracks across PRs, in a machine-diffable shape.
//!
//! ```console
//! $ cargo run --release -p bench --bin snapshot            # BENCH_baseline.json
//! $ cargo run --release -p bench --bin snapshot -- pr12    # BENCH_pr12.json
//! ```
//!
//! The measurements mirror the CI-run workloads:
//!
//! - `quickstart_build_ms` — the `examples/quickstart.rs` setup: SE(ε=0.1)
//!   over the exact engine on the SfSmall preset with 60 POIs;
//! - `query_batch_ns_per_op` — `benches/query_batch.rs`'s 10k-pair batch
//!   through a `QueryHandle` (`SeOracle::distance_many`), per-pair;
//! - `path_query_us_per_op` — `benches/path_query.rs`'s 64-pair
//!   `shortest_path` sweep, per-query;
//! - `socket_pairs_per_s` / `socket_p99_us` — the `oracled` server core on
//!   a loopback socket, saturated by 4 concurrent clients (the CI serving
//!   smoke, measured). Pair throughput is scraped from the server's own
//!   telemetry registry over the wire `Metrics` verb; the p99 is the
//!   exact nearest-rank quantile over the raw per-request samples (the
//!   run is ≤64k requests, so there is no reason to pay a log-bucket
//!   histogram's ≤25 % bucket error on a headline number);
//! - `seat_bytes_v2` — the same workload tiled into a 2×2 atlas,
//!   serialized as the compressed v2 (`--compress`) `SEAT` image;
//! - `ooc_pairs_per_s` — the compact image served out-of-core under a
//!   resident budget of half its decoded size (eviction active), 10k
//!   pairs through the parallel atlas driver.
//!
//! Each timing is the median of several repetitions, so a snapshot is
//! stable enough to eyeball across commits without a criterion run.

use bench::setup::{query_pairs, Workload};
use se_oracle::atlas::{Atlas, AtlasConfig, AtlasHandle};
use se_oracle::net::{Backend, Connection, OracleServer, Request, Response, ServeConfig};
use se_oracle::oracle::BuildConfig;
use se_oracle::p2p::{EngineKind, P2POracle};
use se_oracle::route::PathIndex;
use se_oracle::serve::{pair_stream, QueryHandle};
use std::hint::black_box;
use std::time::Instant;
use terrain::gen::Preset;
use terrain::tile::TileGridConfig;

const BATCH: usize = 10_000;
const PATH_PAIRS: usize = 64;
const SOCK_CLIENTS: u64 = 4;
const SOCK_REQUESTS: u64 = 250;
const SOCK_PAIRS: usize = 64;

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let label = std::env::args().nth(1).unwrap_or_else(|| "baseline".to_string());

    // 1. Quickstart build: exact engine, as in examples/quickstart.rs.
    let mesh = Preset::SfSmall.mesh(1.0);
    let pois = terrain::poi::sample_uniform(&mesh, 60, 42);
    let build_ms = median_ms(3, || {
        let oracle =
            P2POracle::build(&mesh, &pois, 0.1, EngineKind::Exact, &BuildConfig::default())
                .expect("oracle construction");
        black_box(oracle.oracle().n_pairs());
    });

    // 2. Query batch: 10k pairs through the amortized layer-array driver.
    let w = Workload::preset(Preset::SfSmall, 0.3, 60);
    let built =
        P2POracle::build(&w.mesh, &w.pois, 0.15, EngineKind::EdgeGraph, &BuildConfig::default())
            .expect("oracle construction");
    let paths = PathIndex::for_p2p(&built, 3);
    let handle = QueryHandle::new(built.into_oracle()).with_paths(paths);
    let pairs: Vec<(u32, u32)> = query_pairs(handle.n_sites(), BATCH, 0xBA7C)
        .into_iter()
        .map(|(s, t)| (s as u32, t as u32))
        .collect();
    let batch_ms = median_ms(9, || {
        black_box(handle.distance_many(&pairs));
    });
    let query_ns = batch_ms * 1e6 / BATCH as f64;

    // 3. Path queries: the 64-pair shortest_path sweep.
    let route_pairs = query_pairs(handle.n_sites(), PATH_PAIRS, 0x9A7B);
    let path_ms = median_ms(9, || {
        let mut acc = 0.0;
        for &(s, t) in &route_pairs {
            acc += handle.shortest_path(s, t).path.length;
        }
        black_box(acc);
    });
    let path_us = path_ms * 1e3 / PATH_PAIRS as f64;

    // 4. Socket serving: `oracled`'s server core on an ephemeral port,
    //    pushed by pipelining clients until the single batcher core is the
    //    bottleneck — aggregate pair throughput and p99 request latency.
    let server =
        OracleServer::bind("127.0.0.1:0", Backend::Oracle(handle.clone()), ServeConfig::default())
            .expect("bind server");
    let addr = server.local_addr().expect("server addr");
    let server = std::thread::spawn(move || server.serve());
    let n_sites = handle.n_sites();
    let t0 = Instant::now();
    let clients: Vec<_> = (0..SOCK_CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect");
                let mut lat_us = Vec::with_capacity(SOCK_REQUESTS as usize);
                for r in 0..SOCK_REQUESTS {
                    let stream = client * SOCK_REQUESTS + r;
                    let pairs = pair_stream(0xBEAC, stream, SOCK_PAIRS, n_sites);
                    let t = Instant::now();
                    match conn.roundtrip(&Request::Distance { id: stream, pairs }) {
                        Ok(Response::Distances { .. }) => {}
                        other => panic!("unexpected response: {other:?}"),
                    }
                    lat_us.push(t.elapsed().as_micros() as u64);
                }
                lat_us
            })
        })
        .collect();
    // Raw samples, not a histogram: 1000 requests fit trivially, and the
    // nearest-rank quantile is exact (a log-bucket histogram's p99 carries
    // up to ~25 % bucket error — enough to swamp a real regression).
    let mut lat_us: Vec<u64> = Vec::with_capacity((SOCK_CLIENTS * SOCK_REQUESTS) as usize);
    for c in clients {
        lat_us.extend(c.join().expect("client thread"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Throughput comes from the server's own telemetry registry (the wire
    // `Metrics` verb), not from recounting what this process sent — the
    // snapshot reports what the server actually served.
    let mut ctl = Connection::connect(addr).expect("connect");
    let served_pairs = match ctl.roundtrip(&Request::Metrics { id: 0 }) {
        Ok(Response::Metrics { text, .. }) => {
            obs::lookup(&text, "serve_pairs_total").expect("serve_pairs_total in metrics")
        }
        other => panic!("unexpected response: {other:?}"),
    };
    let _ = ctl.roundtrip(&Request::Shutdown { id: 0 });
    let _ = server.join();
    let socket_qps = served_pairs as f64 / elapsed;
    lat_us.sort_unstable();
    let rank = ((lat_us.len() * 99).div_ceil(100)).saturating_sub(1);
    let socket_p99_us = lat_us[rank] as f64;

    // 5. Compressed image size + out-of-core throughput: the same
    //    workload tiled 2×2, saved as compressed v2, then that image
    //    served under a resident budget of half its decoded size.
    let acfg = AtlasConfig {
        grid: TileGridConfig::default(),
        build: BuildConfig::default(),
        path_points_per_edge: None,
    };
    let atlas = Atlas::build(&w.mesh, &w.pois, 0.15, EngineKind::EdgeGraph, &acfg)
        .expect("atlas construction");
    let v2_image = atlas.save_bytes_compact(true);
    let budget = atlas.storage_bytes() / 2;
    let seat_path =
        std::env::temp_dir().join(format!("bench-snapshot-{}.seat", std::process::id()));
    std::fs::write(&seat_path, &v2_image).expect("write atlas image");
    let ooc = AtlasHandle::new(Atlas::open_out_of_core(&seat_path, budget).expect("open atlas"));
    let ooc_pairs: Vec<(u32, u32)> = query_pairs(ooc.n_sites(), BATCH, 0x0A7A)
        .into_iter()
        .map(|(s, t)| (s as u32, t as u32))
        .collect();
    let ooc_ms = median_ms(5, || {
        black_box(ooc.distance_many_par(&ooc_pairs, 0));
    });
    let ooc_qps = BATCH as f64 / (ooc_ms / 1e3);
    let _ = std::fs::remove_file(&seat_path);

    let json = format!(
        "{{\n  \"schema\": 1,\n  \"label\": \"{label}\",\n  \"generator\": \
         \"cargo run --release -p bench --bin snapshot\",\n  \"measurements\": [\n    \
         {{ \"name\": \"quickstart_build_ms\", \"value\": {build_ms:.2}, \"unit\": \"ms\", \
         \"detail\": \"SE(eps=0.1), exact engine, SfSmall x1.0, 60 POIs, median of 3\" }},\n    \
         {{ \"name\": \"query_batch_ns_per_op\", \"value\": {query_ns:.1}, \"unit\": \"ns\", \
         \"detail\": \"10k-pair distance_many batch, median of 9\" }},\n    \
         {{ \"name\": \"path_query_us_per_op\", \"value\": {path_us:.2}, \"unit\": \"us\", \
         \"detail\": \"64-pair shortest_path sweep, median of 9\" }},\n    \
         {{ \"name\": \"socket_pairs_per_s\", \"value\": {socket_qps:.0}, \"unit\": \"pairs/s\", \
         \"detail\": \"oracled server core, 4 clients x 250 requests x 64 pairs, default admission\" }},\n    \
         {{ \"name\": \"socket_p99_us\", \"value\": {socket_p99_us:.1}, \"unit\": \"us\", \
         \"detail\": \"exact nearest-rank p99 request latency over the same socket run (raw samples)\" }},\n    \
         {{ \"name\": \"seat_bytes_v2\", \"value\": {v2_len}, \"unit\": \"bytes\", \
         \"detail\": \"2x2 atlas over the query workload, compact v2 (--compress) SEAT image\" }},\n    \
         {{ \"name\": \"ooc_pairs_per_s\", \"value\": {ooc_qps:.0}, \"unit\": \"pairs/s\", \
         \"detail\": \"10k-pair parallel batch, out-of-core atlas at half-decoded-size resident budget, median of 5\" }}\n  ]\n}}\n",
        v2_len = v2_image.len()
    );
    let out = format!("BENCH_{label}.json");
    std::fs::write(&out, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out}");
}
