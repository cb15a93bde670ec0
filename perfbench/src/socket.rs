//! `socket`: what `oracled` serves from disk. A 2×2 exact-engine atlas,
//! v2-encoded and loaded resident, behind `OracleServer` on loopback; two
//! connections keep a fixed window of pipelined 64-pair `Distance`
//! requests in flight.

use crate::atlas::{atlas_workload, build_atlas, check_atlas_contract, routing_metrics};
use crate::inputs::{random_requests, Rng, REQUEST_PAIRS};
use crate::run::{bit_identical, latency_metrics, ratio, timed, Config, Outcome, Setups};
use crate::{host, stats};
use obs::trace::TraceEvent;
use se_oracle::atlas::{Atlas, AtlasHandle};
use se_oracle::net::{
    decode_request, decode_response, encode_request, encode_response, Backend, Connection,
    FrameReader, OracleServer, Request, Response, ServeConfig,
};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections: one per core.
const CONNECTIONS: usize = 2;
/// Pipelined requests each connection keeps in flight.
const WINDOW: usize = 4;

/// What one client connection saw.
#[derive(Default)]
struct Tally {
    sent_pairs: u64,
    answered_pairs: u64,
    busy_pairs: u64,
    attempted: u64,
    failed: u64,
    lat_us: Vec<f64>,
    events: Vec<TraceEvent>,
    problems: Vec<String>,
}

/// Runs the `socket` workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let w = atlas_workload(cfg);
    let path = cfg.scratch_file("socket.seat");
    let mut setups = Setups::start();
    let mut decode = Vec::new();
    let (handle, image_bytes) = setups.repeat(cfg.sizes.atlas_setup_reps, |setups| {
        let built = build_atlas(&w, setups);
        std::fs::write(&path, &built.bytes).expect("write the image");
        let bytes = std::fs::read(&path).expect("read the image back");
        let (atlas, dec_s) = timed(|| {
            let _s = obs::trace::span("persist", "decode");
            Atlas::load_bytes(&bytes).expect("the image decodes")
        });
        decode.push(dec_s);
        (AtlasHandle::new(atlas), bytes.len())
    });
    let _ = std::fs::remove_file(&path);
    out.set("image_bytes", image_bytes as f64);
    out.set("persist.decode_s", stats::median(&decode));

    // The request pool and its expected answers: an in-process replay of
    // the same loaded image, as `oracle-loadgen --verify` does.
    let mut rng = Rng::new(cfg.seed, 3);
    let pool = random_requests(&mut rng, handle.n_sites(), cfg.sizes.pool_requests);
    let expected: Vec<Vec<f64>> = pool.iter().map(|r| handle.distance_many(r)).collect();
    // Request ids are pool indices: a connection never has one twice in flight.
    let requests: Vec<Request> = pool
        .iter()
        .enumerate()
        .map(|(k, p)| Request::Distance { id: k as u64, pairs: p.clone() })
        .collect();

    let server =
        OracleServer::bind("127.0.0.1:0", Backend::Atlas(handle.clone()), ServeConfig::default())
            .expect("bind a loopback port");
    let addr = server.local_addr().expect("bound address");
    let server = std::thread::spawn(move || server.serve());
    let epoch = cfg.trace;

    let barrier = Barrier::new(CONNECTIONS + 1);
    let cpu0 = host::cpu_us();
    let (tallies, start, wall) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (requests, expected, barrier) = (&requests, &expected, &barrier);
                scope
                    .spawn(move || client(addr, c, requests, expected, barrier, cfg.seconds, epoch))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let tallies: Vec<Tally> =
            clients.into_iter().map(|h| h.join().expect("client thread")).collect();
        (tallies, start, start.elapsed().as_secs_f64())
    });
    let cpu = host::cpu_us() - cpu0;

    let mut ctl = Connection::connect(addr).expect("control connection");
    let text = match ctl.roundtrip(&Request::Metrics { id: 0 }) {
        Ok(Response::Metrics { text, .. }) => text,
        other => panic!("Metrics verb failed: {other:?}"),
    };
    let _ = ctl.roundtrip(&Request::Shutdown { id: 0 });
    server.join().expect("server thread");
    let counter = |name: &str| obs::lookup(&text, name).unwrap_or(0);

    let mut lat_us = Vec::new();
    let (mut sent, mut answered, mut busy) = (0, 0, 0);
    let mut request_events = Vec::new();
    for t in tallies {
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.problems.extend(t.problems);
        sent += t.sent_pairs;
        answered += t.answered_pairs;
        busy += t.busy_pairs;
        lat_us.extend(t.lat_us);
        request_events.extend(t.events);
    }
    out.reconcile(
        "serve_pairs_total vs pairs sent minus Busy",
        counter("serve_pairs_total"),
        sent - busy,
    );
    out.set("pairs_per_s", answered as f64 / wall);
    latency_metrics(&mut out, &lat_us, false);
    out.set("proc.cpu_us_per_pair", cpu / answered.max(1) as f64);
    check_atlas_contract(&w, &mut out, handle.atlas());

    if cfg.trace.is_some() {
        out.set(
            "net.pairs_per_batch",
            ratio(counter("serve_pairs_total") as f64, counter("serve_batches_total") as f64),
        );
        out.set("net.queue_depth_max", counter("serve_queue_depth_max") as f64);
        out.set(
            "net.busy_frac",
            ratio(counter("serve_busy_total") as f64, counter("serve_requests_total") as f64),
        );
        out.set("net.codec_ns_per_pair", codec_ns_per_pair(&pool[0]));
        routing_metrics(&mut out, handle.atlas(), &pool);
    }
    let mut events = obs::trace::take_events();
    if let Some(epoch) = epoch {
        let window = (start - epoch).as_micros() as u64
            ..(start - epoch).as_micros() as u64 + (wall * 1e6) as u64;
        let batches: Vec<f64> = events
            .iter()
            .filter(|e| e.cat == "serve" && e.name == "batch" && window.contains(&e.ts_us))
            .map(|e| e.dur_us as f64)
            .collect();
        if !batches.is_empty() {
            let p50 = stats::median(&batches);
            out.set("net.batch_us_p50", p50);
            out.set("net.batch_busy_frac", batches.iter().sum::<f64>() / (wall * 1e6));
            out.set("net.outside_batch_us_p50", out.values["p50_us"] - p50);
        }
    }
    events.extend(request_events);
    setups.report(&mut out, &events);
    out.events = events;
    out
}

/// One closed-loop connection: keeps `WINDOW` requests in flight until
/// the timed phase ends, checks every answer bit for bit, and times each
/// request from send to reply.
fn client(
    addr: SocketAddr,
    c: usize,
    requests: &[Request],
    expected: &[Vec<f64>],
    barrier: &Barrier,
    seconds: Duration,
    epoch: Option<Instant>,
) -> Tally {
    let mut conn = Connection::connect(addr).expect("client connection");
    let mut t = Tally::default();
    // In-flight slot → (pool index = request id, send time).
    let mut slots: [Option<(usize, Instant)>; WINDOW] = [None; WINDOW];
    let mut seq = 0usize;
    barrier.wait();
    let deadline = Instant::now() + seconds;
    let mut send = |conn: &mut Connection, t: &mut Tally| {
        let k = (seq * CONNECTIONS + c) % requests.len();
        seq += 1;
        let sent_at = Instant::now();
        conn.send(&requests[k]).expect("send a request");
        t.sent_pairs += REQUEST_PAIRS as u64;
        Some((k, sent_at))
    };
    for slot in slots.iter_mut() {
        *slot = send(&mut conn, &mut t);
    }
    while slots.iter().any(Option::is_some) {
        let resp = conn.recv().expect("a reply");
        let now = Instant::now();
        let id = match &resp {
            Response::Distances { id, .. }
            | Response::Busy { id, .. }
            | Response::Error { id, .. } => *id,
            other => panic!("unexpected reply {other:?}"),
        };
        let s = slots
            .iter()
            .position(|x| x.is_some_and(|(k, _)| k as u64 == id))
            .expect("a reply to an in-flight request");
        let (k, sent_at) = slots[s].take().expect("occupied slot");
        t.attempted += 1;
        match resp {
            Response::Distances { distances, .. } if bit_identical(&distances, &expected[k]) => {
                t.answered_pairs += distances.len() as u64;
                t.lat_us.push((now - sent_at).as_nanos() as f64 / 1e3);
                if let Some(epoch) = epoch {
                    t.events.push(TraceEvent {
                        cat: "net",
                        name: "request",
                        ts_us: (sent_at - epoch).as_micros() as u64,
                        dur_us: (now - sent_at).as_micros() as u64,
                        tid: 1000 + (c * WINDOW + s) as u64,
                    });
                }
            }
            Response::Busy { .. } => {
                t.failed += 1;
                t.busy_pairs += REQUEST_PAIRS as u64;
            }
            other => {
                t.failed += 1;
                if t.problems.len() < 8 {
                    t.problems.push(format!("request {k}: not the in-process answers: {other:?}"));
                }
            }
        }
        if now < deadline {
            slots[s] = send(&mut conn, &mut t);
        }
    }
    t
}

/// Wire codec cost per pair: encode one 64-pair request and its response,
/// and decode both through the frame reader, repeated for about 0.2 s.
fn codec_ns_per_pair(pairs: &[(u32, u32)]) -> f64 {
    let req = Request::Distance { id: 7, pairs: pairs.to_vec() };
    let resp = Response::Distances {
        id: 7,
        distances: pairs.iter().map(|&(s, t)| f64::from(s + t)).collect(),
    };
    let payload = |frame: Vec<u8>| {
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        reader.next_payload().expect("a valid frame").expect("a complete frame")
    };
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < Duration::from_millis(200) {
        std::hint::black_box(decode_request(&payload(encode_request(&req))).expect("round trip"));
        std::hint::black_box(
            decode_response(&payload(encode_response(&resp))).expect("round trip"),
        );
        rounds += 1;
    }
    start.elapsed().as_nanos() as f64 / (rounds * pairs.len() as u64) as f64
}
