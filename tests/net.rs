//! Socket integration suite for the `oracled` serving stack: a real
//! `OracleServer` on an ephemeral port, driven by real TCP clients.
//!
//! Covers the serving contract end to end: happy-path distance/path/stats
//! verbs, protocol hardening (oversized frames, mid-frame disconnects),
//! bounded-queue backpressure (`Busy`), graceful shutdown draining every
//! admitted request, an out-of-core atlas whose backing file is rewritten
//! mid-serve (typed errors, then recovery), and the headline determinism
//! property — answers over the socket are bit-identical to an in-process
//! replay no matter how many clients the coalescer interleaves.

mod common;

use common::{build_p2p, lone_member_site, mesh_with_pois, refine_sites, tmp_dir};
use se_oracle::atlas::{Atlas, AtlasConfig, AtlasHandle};
use se_oracle::net::{
    Backend, Connection, ErrorCode, NetError, OracleServer, Request, Response, ServeConfig,
    StatsSnapshot, MAX_PAIRS_PER_REQUEST, WIRE_FRAME_CAP, WIRE_MAGIC, WIRE_VERSION,
};
use se_oracle::oracle::SeOracle;
use se_oracle::route::PathIndex;
use se_oracle::serve::{pair_stream, QueryHandle};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use terrain_oracle::oracle as se_oracle;
use terrain_oracle::prelude::EngineKind;

/// A small oracle backend that has round-tripped through its persisted
/// image, exactly like a production `oracled` deployment.
fn loaded_handle(seed: u64, n: usize) -> QueryHandle {
    let p2p = build_p2p(seed, n, 0.25, EngineKind::EdgeGraph);
    let bytes = p2p.into_oracle().save_bytes();
    QueryHandle::new(SeOracle::load_bytes(&bytes).unwrap())
}

fn start(backend: Backend, cfg: ServeConfig) -> (SocketAddr, thread::JoinHandle<StatsSnapshot>) {
    let server = OracleServer::bind("127.0.0.1:0", backend, cfg).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, thread::spawn(move || server.serve()))
}

fn shutdown(addr: SocketAddr) {
    let mut c = Connection::connect(addr).unwrap();
    match c.roundtrip(&Request::Shutdown { id: 999 }) {
        Ok(Response::ShuttingDown { id: 999 }) | Err(NetError::Disconnected) => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
}

#[test]
fn happy_path_distance_stats_and_errors() {
    let handle = loaded_handle(11, 20);
    let (addr, server) = start(Backend::Oracle(handle.clone()), ServeConfig::default());
    let mut c = Connection::connect(addr).unwrap();

    // Distance answers match the in-process batch API bit for bit.
    let pairs = pair_stream(7, 0, 32, handle.n_sites());
    let resp = c.roundtrip(&Request::Distance { id: 42, pairs: pairs.clone() }).unwrap();
    match resp {
        Response::Distances { id, distances } => {
            assert_eq!(id, 42);
            let expect = handle.distance_many(&pairs);
            assert_eq!(distances.len(), expect.len());
            for (g, w) in distances.iter().zip(&expect) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Empty batch: legal, answers nothing.
    match c.roundtrip(&Request::Distance { id: 43, pairs: vec![] }).unwrap() {
        Response::Distances { id: 43, distances } => assert!(distances.is_empty()),
        other => panic!("unexpected response: {other:?}"),
    }

    // Out-of-range site id: typed error, connection stays usable.
    match c.roundtrip(&Request::Distance { id: 44, pairs: vec![(0, 9999)] }).unwrap() {
        Response::Error { id: 44, code: ErrorCode::SiteOutOfRange, message } => {
            assert!(message.contains("9999"), "unhelpful message: {message}");
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Path against an image without a path index: Unsupported.
    match c.roundtrip(&Request::Path { id: 45, s: 0, t: 1 }).unwrap() {
        Response::Error { id: 45, code: ErrorCode::Unsupported, .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }

    // Stats reflect the traffic so far.
    match c.roundtrip(&Request::Stats { id: 46 }).unwrap() {
        Response::Stats { id: 46, stats } => {
            assert_eq!(stats.n_sites as usize, handle.n_sites());
            assert_eq!(stats.requests, 2); // the two admitted distance requests
            assert_eq!(stats.pairs, 32);
            assert_eq!(stats.errors, 2); // out-of-range + unsupported path
            assert!(stats.batches >= 1);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    shutdown(addr);
    let final_stats = server.join().unwrap();
    assert_eq!(final_stats.requests, 2);
    assert_eq!(final_stats.malformed, 0);
}

#[test]
fn metrics_verb_agrees_with_stats_and_the_client_ledger() {
    use se_oracle::telemetry;

    let handle = loaded_handle(31, 20);
    let n = handle.n_sites();
    let (addr, server) = start(Backend::Oracle(handle), ServeConfig::default());
    let mut c = Connection::connect(addr).unwrap();

    // Closed-loop sends with no retries, so every request is accounted
    // exactly once: sent = served + busy.
    let sent = 12u64;
    let pairs_each = 8usize;
    let mut served = 0u64;
    let mut busy = 0u64;
    for r in 0..sent {
        let pairs = pair_stream(5, r, pairs_each, n);
        match c.roundtrip(&Request::Distance { id: r, pairs }).unwrap() {
            Response::Distances { .. } => served += 1,
            Response::Busy { .. } => busy += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(served + busy, sent);

    let text = match c.roundtrip(&Request::Metrics { id: 99 }).unwrap() {
        Response::Metrics { id: 99, text } => text,
        other => panic!("unexpected response: {other:?}"),
    };
    let stats = match c.roundtrip(&Request::Stats { id: 100 }).unwrap() {
        Response::Stats { id: 100, stats } => stats,
        other => panic!("unexpected response: {other:?}"),
    };

    // The registry is what the client observed...
    assert_eq!(telemetry::lookup(&text, "serve_requests_total"), Some(served));
    assert_eq!(telemetry::lookup(&text, "serve_busy_total"), Some(busy));
    assert_eq!(telemetry::lookup(&text, "serve_pairs_total"), Some(served * pairs_each as u64));
    // ...and the Stats verb reads the same counters (nothing else sends
    // between the two scrapes on this single connection).
    assert_eq!(telemetry::lookup(&text, "serve_requests_total"), Some(stats.requests));
    assert_eq!(telemetry::lookup(&text, "serve_pairs_total"), Some(stats.pairs));
    assert_eq!(telemetry::lookup(&text, "serve_busy_total"), Some(stats.busy_rejections));
    assert_eq!(telemetry::lookup(&text, "serve_batches_total"), Some(stats.batches));
    assert_eq!(telemetry::lookup(&text, "serve_connections_total"), Some(stats.connections));
    // Query-path probe telemetry: every answered pair costs at least one
    // node-pair hash probe (counted without any clock on the query path).
    let probes = telemetry::lookup(&text, "serve_probe_pairs_total").unwrap();
    assert!(probes >= stats.pairs, "probes {probes} < pairs {}", stats.pairs);
    // The batch-size histogram is registered and counted batches.
    assert_eq!(telemetry::lookup(&text, "serve_batch_pairs_count"), Some(stats.batches));

    shutdown(addr);
    server.join().unwrap();
}

#[test]
fn path_requests_roundtrip_over_the_socket() {
    let p2p = build_p2p(307, 16, 0.25, EngineKind::EdgeGraph);
    let paths = PathIndex::for_p2p(&p2p, 3);
    let handle = QueryHandle::new(p2p.into_oracle()).with_paths(paths);
    let (addr, server) = start(Backend::Oracle(handle.clone()), ServeConfig::default());

    let mut c = Connection::connect(addr).unwrap();
    for (s, t) in [(0u32, 5u32), (3, 9), (2, 2)] {
        match c.roundtrip(&Request::Path { id: 1, s, t }).unwrap() {
            Response::Path { id: 1, distance, points } => {
                let want = handle.shortest_path(s as usize, t as usize);
                assert_eq!(distance.to_bits(), want.distance.to_bits());
                assert_eq!(points.len(), want.path.points.len());
                for (got, p) in points.iter().zip(&want.path.points) {
                    assert_eq!(got.0.to_bits(), p.x.to_bits());
                    assert_eq!(got.1.to_bits(), p.y.to_bits());
                    assert_eq!(got.2.to_bits(), p.z.to_bits());
                }
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    shutdown(addr);
    server.join().unwrap();
}

#[test]
fn oversized_frame_is_rejected_from_the_header() {
    let (addr, server) = start(Backend::Oracle(loaded_handle(13, 12)), ServeConfig::default());
    let mut c = Connection::connect(addr).unwrap();

    // A declared length just over the cap — and no payload at all. The
    // server must reject from the header alone, answer, and close.
    let mut head = Vec::new();
    head.extend_from_slice(&WIRE_MAGIC);
    head.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    head.extend_from_slice(&(WIRE_FRAME_CAP + 1).to_le_bytes());
    c.stream().write_all(&head).unwrap();

    match c.recv().unwrap() {
        Response::Error { code: ErrorCode::BadRequest, message, .. } => {
            assert!(message.contains("frame"), "unhelpful message: {message}");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    // The connection is closed after a framing violation.
    match c.recv() {
        Err(NetError::Disconnected) => {}
        other => panic!("expected disconnect, got {other:?}"),
    }

    // The server itself is unharmed.
    let mut c2 = Connection::connect(addr).unwrap();
    match c2.roundtrip(&Request::Distance { id: 1, pairs: vec![(0, 1)] }).unwrap() {
        Response::Distances { .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }
    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.malformed, 1);
}

#[test]
fn mid_frame_disconnect_leaves_server_healthy() {
    let (addr, server) = start(Backend::Oracle(loaded_handle(17, 12)), ServeConfig::default());

    // Send only the first half of a valid frame, then vanish.
    {
        let mut c = Connection::connect(addr).unwrap();
        let frame = se_oracle::net::encode_request(&Request::Distance {
            id: 5,
            pairs: vec![(0, 1), (2, 3)],
        });
        c.stream().write_all(&frame[..frame.len() / 2]).unwrap();
        // Drop: TCP FIN mid-frame.
    }
    thread::sleep(Duration::from_millis(100));

    let mut c = Connection::connect(addr).unwrap();
    match c.roundtrip(&Request::Distance { id: 6, pairs: vec![(0, 1)] }).unwrap() {
        Response::Distances { id: 6, distances } => assert_eq!(distances.len(), 1),
        other => panic!("unexpected response: {other:?}"),
    }
    shutdown(addr);
    let stats = server.join().unwrap();
    // A half-frame EOF admits nothing and is not a protocol violation.
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.malformed, 0);
}

#[test]
fn bounded_queue_answers_busy_then_recovers() {
    let handle = loaded_handle(19, 24);
    let n = handle.n_sites();
    // One job per batch, no admission wait, tiny queue: two maximal
    // requests keep the batcher busy long enough for a burst of small
    // requests to overflow the bound.
    let cfg = ServeConfig { max_batch_pairs: 1, max_wait: Duration::from_micros(0), queue_cap: 2 };
    let (addr, server) = start(Backend::Oracle(handle), cfg);
    let mut c = Connection::connect(addr).unwrap();

    let heavy = pair_stream(3, 0, MAX_PAIRS_PER_REQUEST, n);
    c.send(&Request::Distance { id: 1, pairs: heavy.clone() }).unwrap();
    c.send(&Request::Distance { id: 2, pairs: heavy }).unwrap();
    // Let the batcher pop request 1 and start grinding on it; request 2
    // then occupies the queue.
    thread::sleep(Duration::from_millis(30));
    let burst = 16u64;
    for i in 0..burst {
        c.send(&Request::Distance { id: 10 + i, pairs: vec![(0, 1)] }).unwrap();
    }

    let mut busy = 0u64;
    let mut answered = 0u64;
    for _ in 0..(2 + burst) {
        match c.recv().unwrap() {
            Response::Busy { id, .. } => {
                assert!(id >= 10, "heavy requests must be admitted, not rejected");
                busy += 1;
            }
            Response::Distances { .. } => answered += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(busy > 0, "expected at least one Busy rejection");
    assert_eq!(busy + answered, 2 + burst);

    // After the backlog drains, a retry succeeds.
    match c.roundtrip(&Request::Distance { id: 99, pairs: vec![(0, 1)] }).unwrap() {
        Response::Distances { id: 99, .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.busy_rejections, busy);
    assert!(stats.max_queue_depth <= 2);
}

#[test]
fn graceful_shutdown_drains_admitted_requests() {
    let handle = loaded_handle(23, 20);
    let n = handle.n_sites();
    // A long admission wait would delay the drain if shutdown didn't cut
    // it short — so use one, and let the test's timeout police it.
    let cfg =
        ServeConfig { max_batch_pairs: 4096, max_wait: Duration::from_millis(200), queue_cap: 256 };
    let (addr, server) = start(Backend::Oracle(handle.clone()), cfg);
    let mut c = Connection::connect(addr).unwrap();

    let total = 20u64;
    let mut workloads = Vec::new();
    for r in 0..total {
        let pairs = pair_stream(11, r, 16, n);
        c.send(&Request::Distance { id: r, pairs: pairs.clone() }).unwrap();
        workloads.push(pairs);
    }
    c.send(&Request::Shutdown { id: 777 }).unwrap();

    // Every admitted request must still be answered — bit-identically —
    // plus the shutdown ack, in any order.
    let mut answers = vec![None; total as usize];
    let mut acked = false;
    for _ in 0..=total {
        match c.recv().unwrap() {
            Response::Distances { id, distances } => {
                assert!(answers[id as usize].replace(distances).is_none());
            }
            Response::ShuttingDown { id: 777 } => acked = true,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(acked);
    for (r, got) in answers.iter().enumerate() {
        let got = got.as_ref().expect("request answer dropped in shutdown");
        for (g, w) in got.iter().zip(&handle.distance_many(&workloads[r])) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    let stats = server.join().unwrap();
    assert_eq!(stats.requests, total);
    assert_eq!(stats.pairs, total * 16);
}

#[test]
fn eight_clients_are_bit_identical_to_serial_replay() {
    let handle = loaded_handle(29, 24);
    let n = handle.n_sites();
    // A small max-batch with a real wait forces heavy cross-client
    // coalescing and re-slicing — the interesting case for determinism.
    let cfg =
        ServeConfig { max_batch_pairs: 512, max_wait: Duration::from_micros(300), queue_cap: 256 };
    let (addr, server) = start(Backend::Oracle(handle.clone()), cfg);

    const CLIENTS: u64 = 8;
    const REQUESTS: u64 = 25;
    const PAIRS: usize = 40;
    const SALT: u64 = 0xC0FFEE;

    let mut joins = Vec::new();
    for client in 0..CLIENTS {
        joins.push(thread::spawn(move || {
            let mut c = Connection::connect(addr).unwrap();
            let mut out = Vec::new();
            for r in 0..REQUESTS {
                let stream = client * REQUESTS + r;
                let pairs = pair_stream(SALT, stream, PAIRS, n);
                loop {
                    match c.roundtrip(&Request::Distance { id: stream, pairs: pairs.clone() }) {
                        Ok(Response::Distances { id, distances }) => {
                            assert_eq!(id, stream);
                            out.push((stream, distances));
                            break;
                        }
                        Ok(Response::Busy { .. }) => {
                            thread::sleep(Duration::from_micros(200));
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
            }
            out
        }));
    }
    let mut all: Vec<(u64, Vec<f64>)> = Vec::new();
    for j in joins {
        all.extend(j.join().unwrap());
    }
    shutdown(addr);
    let stats = server.join().unwrap();

    // Serial in-process replay of every stream: the socket answers must be
    // identical bits, regardless of how the batcher interleaved clients.
    assert_eq!(all.len(), (CLIENTS * REQUESTS) as usize);
    for (stream, got) in &all {
        let pairs = pair_stream(SALT, *stream, PAIRS, n);
        let want = handle.distance_many(&pairs);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "stream {stream} diverged from serial replay");
        }
    }
    assert_eq!(stats.requests, CLIENTS * REQUESTS);
    assert_eq!(stats.connections as usize, CLIENTS as usize + 1); // + shutdown conn
}

#[test]
fn rewritten_atlas_file_errors_typed_then_recovers() {
    let (mesh, pois) = mesh_with_pois(4, 0.6, 0xA7, 24);
    let (refined, sites) = refine_sites(&mesh, &pois);
    let atlas = Atlas::build_over_vertices(
        Arc::new(refined.mesh),
        sites,
        0.25,
        EngineKind::EdgeGraph,
        &AtlasConfig::default(),
    )
    .unwrap();
    let bytes = atlas.save_bytes();
    let path = tmp_dir("net").join("rewritten.seat");
    std::fs::write(&path, &bytes).unwrap();
    let a = lone_member_site(&path);
    let b = (0..atlas.n_sites()).find(|&b| atlas.tile_of_site(b) != atlas.tile_of_site(a)).unwrap();
    let (pa, pb) = (vec![(a as u32, a as u32)], vec![(b as u32, b as u32)]);
    // The in-process replay every socket answer must match bit for bit.
    let replay = Atlas::load_bytes(&bytes).unwrap();
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // One resident tile at a time; a's query leaves a's home resident.
    let handle = AtlasHandle::new(Atlas::open_out_of_core(&path, 0).unwrap());
    let (addr, server) = start(Backend::Atlas(handle), ServeConfig::default());
    let mut c = Connection::connect(addr).unwrap();
    let mut distances = |id: u64, pairs: &Vec<(u32, u32)>| {
        c.roundtrip(&Request::Distance { id, pairs: pairs.clone() }).unwrap()
    };
    match distances(1, &pa) {
        Response::Distances { distances, .. } => {
            assert_eq!(bits(&distances), bits(&replay.distance_many(&pa)))
        }
        other => panic!("unexpected response: {other:?}"),
    }

    std::fs::write(&path, vec![0u8; bytes.len()]).unwrap();
    match distances(2, &pb) {
        Response::Error { id: 2, code: ErrorCode::CorruptImage, message } => assert!(
            message.contains("tile") && message.contains("unavailable"),
            "the error must name the tile: {message}"
        ),
        other => panic!("unexpected response: {other:?}"),
    }
    // Requests the resident tile can answer keep being answered.
    match distances(3, &pa) {
        Response::Distances { distances, .. } => {
            assert_eq!(bits(&distances), bits(&replay.distance_many(&pa)))
        }
        other => panic!("unexpected response: {other:?}"),
    }

    std::fs::write(&path, &bytes).unwrap();
    let mixed = pair_stream(0xF11E, 0, 64, replay.n_sites());
    for (id, pairs) in [(4, &pb), (5, &mixed)] {
        match distances(id, pairs) {
            Response::Distances { distances, .. } => {
                assert_eq!(bits(&distances), bits(&replay.distance_many(pairs)), "request {id}")
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    let text = match c.roundtrip(&Request::Metrics { id: 6 }).unwrap() {
        Response::Metrics { text, .. } => text,
        other => panic!("unexpected response: {other:?}"),
    };
    let metric = |name: &str| se_oracle::telemetry::lookup(&text, name);
    assert_eq!(metric("serve_errors_total"), Some(1));
    assert_eq!(metric("atlas_tile_load_failures_total"), Some(1));
    assert!(metric("serve_probe_pairs_total").unwrap_or(0) > 0, "atlas legs count probes");
    shutdown(addr);
    server.join().unwrap();
}
