//! Socket integration suite for the `oracled` serving stack: a real
//! `OracleServer` on an ephemeral port, driven by real TCP clients.
//!
//! Covers the serving contract end to end: happy-path distance/path/metrics
//! verbs, image loading by magic (`Backend::open`), `oracle-loadgen
//! --verify` refusing a mismatched image, protocol hardening (oversized
//! frames, mid-frame disconnects),
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
    MAX_PAIRS_PER_REQUEST, WIRE_FRAME_CAP, WIRE_MAGIC, WIRE_VERSION,
};
use se_oracle::oracle::SeOracle;
use se_oracle::persist::PersistError;
use se_oracle::route::PathIndex;
use se_oracle::serve::{pair_stream, QueryHandle};
use std::io::Write;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use terrain_oracle::oracle as se_oracle;
use terrain_oracle::prelude::EngineKind;

/// A small oracle backend that has round-tripped through its persisted
/// image, exactly like a production `oracled` deployment.
fn loaded_handle(seed: u64, n: usize) -> QueryHandle {
    let p2p = build_p2p(seed, n, 0.25, EngineKind::EdgeGraph);
    let bytes = p2p.into_oracle().save_bytes_compact(false);
    QueryHandle::new(SeOracle::load_bytes(&bytes).unwrap())
}

/// The small atlas fixture: level-4 fractal terrain, 24 POIs, default tiling.
fn small_atlas() -> Atlas {
    let (mesh, pois) = mesh_with_pois(4, 0.6, 0xA7, 24);
    let (refined, sites) = refine_sites(&mesh, &pois);
    Atlas::build_over_vertices(
        Arc::new(refined.mesh),
        sites,
        0.25,
        EngineKind::EdgeGraph,
        &AtlasConfig::default(),
    )
    .unwrap()
}

/// Binds an ephemeral port; the join handle yields `serve()`'s final
/// metrics text.
fn start(backend: Backend, cfg: ServeConfig) -> (SocketAddr, thread::JoinHandle<String>) {
    let server = OracleServer::bind("127.0.0.1:0", backend, cfg).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, thread::spawn(move || server.serve()))
}

/// The server's live counters, through the `Metrics` verb.
fn scrape(c: &mut Connection, id: u64) -> String {
    match c.roundtrip(&Request::Metrics { id }).unwrap() {
        Response::Metrics { id: got, text } if got == id => text,
        other => panic!("unexpected response: {other:?}"),
    }
}

/// One counter or gauge from a metrics text exposition.
fn metric(text: &str, name: &str) -> u64 {
    se_oracle::telemetry::lookup(text, name).unwrap_or_else(|| panic!("no {name} in:\n{text}"))
}

fn shutdown(addr: SocketAddr) {
    let mut c = Connection::connect(addr).unwrap();
    match c.roundtrip(&Request::Shutdown { id: 999 }) {
        Ok(Response::ShuttingDown { id: 999 }) | Err(NetError::Disconnected) => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
}

#[test]
fn happy_path_distance_metrics_and_errors() {
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

    // The counters reflect the traffic so far.
    let text = scrape(&mut c, 46);
    assert_eq!(metric(&text, "serve_sites") as usize, handle.n_sites());
    assert_eq!(metric(&text, "serve_requests_total"), 2); // the two admitted distance requests
    assert_eq!(metric(&text, "serve_pairs_total"), 32);
    assert_eq!(metric(&text, "serve_errors_total"), 2); // out-of-range + unsupported path
    assert!(metric(&text, "serve_batches_total") >= 1);

    shutdown(addr);
    let final_text = server.join().unwrap();
    assert_eq!(metric(&final_text, "serve_requests_total"), 2);
    assert_eq!(metric(&final_text, "serve_malformed_total"), 0);
}

#[test]
fn metrics_verb_agrees_with_the_client_ledger() {
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

    let text = scrape(&mut c, 99);

    // The registry is what the client observed: one connection, and with
    // one closed-loop client every admitted request is its own batch.
    let pairs = served * pairs_each as u64;
    assert_eq!(metric(&text, "serve_requests_total"), served);
    assert_eq!(metric(&text, "serve_busy_total"), busy);
    assert_eq!(metric(&text, "serve_pairs_total"), pairs);
    assert_eq!(metric(&text, "serve_connections_total"), 1);
    assert_eq!(metric(&text, "serve_batches_total"), served);
    // Query-path probe telemetry: every answered pair costs at least one
    // node-pair table probe (counted without any clock on the query path).
    let probes = metric(&text, "serve_probe_pairs_total");
    assert!(probes >= pairs, "probes {probes} < pairs {pairs}");
    // The batch-size histogram is registered and counted batches.
    assert_eq!(metric(&text, "serve_batch_pairs_count"), metric(&text, "serve_batches_total"));

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
    assert_eq!(metric(&server.join().unwrap(), "serve_malformed_total"), 1);
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
    let text = server.join().unwrap();
    // A half-frame EOF admits nothing and is not a protocol violation.
    assert_eq!(metric(&text, "serve_requests_total"), 1);
    assert_eq!(metric(&text, "serve_malformed_total"), 0);
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
    // One write for the whole burst: the reader then admits it back to
    // back, instead of the batcher draining the queue between frames.
    let burst = 16u64;
    let frames: Vec<u8> = (0..burst)
        .flat_map(|i| {
            se_oracle::net::encode_request(&Request::Distance { id: 10 + i, pairs: vec![(0, 1)] })
        })
        .collect();
    c.stream().write_all(&frames).unwrap();

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
    let text = server.join().unwrap();
    assert_eq!(metric(&text, "serve_busy_total"), busy);
    assert!(metric(&text, "serve_queue_depth_max") <= 2);
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

    let text = server.join().unwrap();
    assert_eq!(metric(&text, "serve_requests_total"), total);
    assert_eq!(metric(&text, "serve_pairs_total"), total * 16);
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
    let text = server.join().unwrap();

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
    assert_eq!(metric(&text, "serve_requests_total"), CLIENTS * REQUESTS);
    assert_eq!(metric(&text, "serve_connections_total"), CLIENTS + 1); // + shutdown conn
}

#[test]
fn rewritten_atlas_file_errors_typed_then_recovers() {
    let atlas = small_atlas();
    let bytes = atlas.save_bytes_compact(false);
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

    let text = scrape(&mut c, 6);
    assert_eq!(metric(&text, "serve_errors_total"), 1);
    assert_eq!(metric(&text, "atlas_tile_load_failures_total"), 1);
    assert!(metric(&text, "serve_probe_pairs_total") > 0, "atlas legs count probes");
    shutdown(addr);
    // serve()'s final text carries the tile store's registry too.
    assert_eq!(metric(&server.join().unwrap(), "atlas_tile_load_failures_total"), 1);
}

#[test]
fn backend_open_picks_the_loader_from_the_magic() {
    let dir = tmp_dir("net");
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let oracle = build_p2p(37, 16, 0.25, EngineKind::EdgeGraph).into_oracle();
    let seor = dir.join("open.seor");
    std::fs::write(&seor, oracle.save_bytes_compact(false)).unwrap();
    let atlas = small_atlas();
    // Named `.bin`: the loader goes by the magic, not the file name.
    let seat = dir.join("open-atlas.bin");
    std::fs::write(&seat, atlas.save_bytes_compact(false)).unwrap();

    let answers = |b: &Backend, pairs: &[(u32, u32)]| match b {
        Backend::Oracle(h) => h.distance_many(pairs),
        Backend::Atlas(h) => h.distance_many(pairs),
    };
    let oracle_pairs = pair_stream(0x0E, 0, 256, oracle.n_sites());
    let atlas_pairs = pair_stream(0x0E, 1, 256, atlas.n_sites());
    let cases = [
        (&seor, None, false, bits(&oracle.distance_many(&oracle_pairs))),
        (&seat, None, false, bits(&atlas.distance_many(&atlas_pairs))),
        (&seat, Some(0), true, bits(&atlas.distance_many(&atlas_pairs))),
    ];
    for (path, budget, out_of_core, want) in cases {
        let backend = Backend::open(path, budget).unwrap();
        let pairs = match (&backend, out_of_core) {
            (Backend::Oracle(_), false) => &oracle_pairs,
            (Backend::Atlas(h), ooc) => {
                assert_eq!(h.tile_store().is_some(), ooc, "{path:?} with budget {budget:?}");
                &atlas_pairs
            }
            (other, _) => panic!("{path:?} opened as {other:?}"),
        };
        assert_eq!(bits(&answers(&backend, pairs)), want, "{path:?} with budget {budget:?}");
    }

    // A budget on a monolithic oracle image names where budgets apply.
    match Backend::open(&seor, Some(1 << 20)) {
        Err(PersistError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
            let msg = e.to_string();
            assert!(msg.contains("budget") && msg.contains("atlas"), "unhelpful error: {msg}");
        }
        other => panic!("expected a budget-scope error, got {other:?}"),
    }

    // Neither image kind, including a file shorter than a magic.
    for (name, bytes) in [("pois.csv", &b"100,100\n700,300\n"[..]), ("short.seor", b"SE")] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        match Backend::open(&path, None) {
            Err(PersistError::BadMagic(_)) => {}
            other => panic!("{name}: expected BadMagic, got {other:?}"),
        }
    }
}

#[test]
fn loadgen_verify_refuses_an_image_with_another_site_count() {
    let served = loaded_handle(41, 8);
    let other = build_p2p(41, 4, 0.25, EngineKind::EdgeGraph).into_oracle();
    let (serves, has) = (served.n_sites(), other.n_sites());
    assert_ne!(serves, has, "the fixture needs two site counts");
    let image = tmp_dir("net").join("fewer-sites.seor");
    std::fs::write(&image, other.save_bytes_compact(false)).unwrap();

    let (addr, server) = start(Backend::Oracle(served), ServeConfig::default());
    let out = Command::new(env!("CARGO_BIN_EXE_oracle-loadgen"))
        .args(["--addr", &addr.to_string(), "--clients", "2", "--requests", "2", "--pairs", "8"])
        .arg("--verify")
        .arg("--image")
        .arg(&image)
        .output()
        .unwrap();
    shutdown(addr);
    let text = server.join().unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("has {has} sites"))
            && stderr.contains(&format!("serves {serves}")),
        "the error must name both site counts: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "loadgen panicked: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one error line: {stderr}");
    // Refused before any workload request was sent.
    assert_eq!(metric(&text, "serve_requests_total"), 0);
}
