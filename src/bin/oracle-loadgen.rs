//! `oracle-loadgen` — replay a deterministic pair workload against an
//! `oracled` server and report latency/throughput, optionally verifying
//! every answer bit-for-bit against an in-process replay.
//!
//! ```text
//! oracle-loadgen --addr 127.0.0.1:7474 --clients 8 --requests 200 --pairs 64
//! oracle-loadgen --addr 127.0.0.1:7474 --verify --image oracle.seor
//! oracle-loadgen --addr 127.0.0.1:7474 --metrics
//! oracle-loadgen --addr 127.0.0.1:7474 --shutdown
//! ```
//!
//! Workloads come from `se_oracle::serve::pair_stream`, a splitmix64
//! generator keyed by `(salt, stream)` — client `c`'s request `r` uses
//! stream `c·requests + r`, so a serial in-process replay regenerates any
//! worker's workload exactly. That is what makes `--verify` meaningful:
//! socket answers must equal `distance_many` on the same image, bit for
//! bit, regardless of how the server coalesced them. The workload's id
//! range comes from the server's `serve_sites` gauge, read through the
//! `Metrics` verb; `--verify` refuses an image with another site count.

use se_oracle::net::{Backend, Connection, NetError, Request, Response};
use se_oracle::serve::pair_stream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
oracle-loadgen — drive an oracled server with a deterministic pair workload

USAGE:
  oracle-loadgen --addr <host:port> [--clients <n>] [--requests <n>]
                 [--pairs <n>] [--salt <u64>]
                 [--verify --image <file.seor|file.seat>]
  oracle-loadgen --addr <host:port> --metrics    print the server's counters
                                                 (metrics text exposition)
  oracle-loadgen --addr <host:port> --shutdown   stop the server

OPTIONS:
  --clients <n>    concurrent connections (default 4)
  --requests <n>   requests per client (default 100)
  --pairs <n>      pairs per request (default 64)
  --salt <u64>     workload seed (default 42)
  --verify         assert every socket answer is bit-identical to an
                   in-process distance_many replay of the same image
  --image <file>   the image oracled serves (required with --verify; its
                   site count must match the server's)

Latency quantiles (p50/p95/p99/p99.9) come from a log-bucketed histogram of
completed round trips (<= 25% relative bucket error; max is exact). The load
is closed-loop: each client waits for its answer (and sleeps on Busy) before
sending the next request, so under backpressure these numbers understate the
latency an open-loop arrival process would experience (coordinated omission).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(args.first().map(String::as_str), Some("--help") | Some("-h")) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value following `--name`, removing both from `rest`.
fn take_opt(rest: &mut Vec<String>, name: &str) -> Option<String> {
    let at = rest.iter().position(|a| a == name)?;
    if at + 1 >= rest.len() {
        return None;
    }
    let v = rest.remove(at + 1);
    rest.remove(at);
    Some(v)
}

/// Pulls a bare flag, removing it from `rest`.
fn take_flag(rest: &mut Vec<String>, name: &str) -> bool {
    if let Some(at) = rest.iter().position(|a| a == name) {
        rest.remove(at);
        true
    } else {
        false
    }
}

fn require(rest: &mut Vec<String>, name: &str) -> Result<String, String> {
    take_opt(rest, name).ok_or_else(|| format!("missing required option {name}"))
}

fn reject_leftovers(rest: &[String]) -> Result<(), String> {
    if let Some(stray) = rest.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown option '{stray}'\n{USAGE}"));
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {what}: '{v}'"))
}

/// Connects with retries so a just-spawned daemon (CI smoke) has time to
/// bind.
fn connect(addr: &str) -> Result<Connection, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Connection::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("connecting to {addr}: {e}"));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

struct ClientReport {
    latencies_us: Vec<u64>,
    pairs_answered: u64,
    busy_retries: u64,
    errors: Vec<String>,
    mismatches: u64,
}

#[allow(clippy::too_many_arguments)]
fn client_worker(
    addr: String,
    client: u64,
    requests: u64,
    pairs_per_req: usize,
    salt: u64,
    n_sites: usize,
    reference: Option<Backend>,
) -> Result<ClientReport, String> {
    let mut conn = connect(&addr)?;
    let mut report = ClientReport {
        latencies_us: Vec::with_capacity(requests as usize),
        pairs_answered: 0,
        busy_retries: 0,
        errors: Vec::new(),
        mismatches: 0,
    };
    for r in 0..requests {
        let stream = client * requests + r;
        let pairs = pair_stream(salt, stream, pairs_per_req, n_sites);
        let t0 = Instant::now();
        let resp = loop {
            let resp = conn
                .roundtrip(&Request::Distance { id: stream, pairs: pairs.clone() })
                .map_err(|e| format!("client {client}: {e}"))?;
            match resp {
                Response::Busy { .. } => {
                    report.busy_retries += 1;
                    std::thread::sleep(Duration::from_micros(500));
                }
                other => break other,
            }
        };
        report.latencies_us.push(t0.elapsed().as_micros() as u64);
        match resp {
            Response::Distances { id, distances } => {
                if id != stream {
                    return Err(format!("client {client}: response id {id} for request {stream}"));
                }
                if distances.len() != pairs.len() {
                    return Err(format!(
                        "client {client}: {} answers for {} pairs",
                        distances.len(),
                        pairs.len()
                    ));
                }
                report.pairs_answered += distances.len() as u64;
                if let Some(reference) = &reference {
                    let expect = match reference {
                        Backend::Oracle(h) => h.distance_many(&pairs),
                        Backend::Atlas(h) => h.distance_many(&pairs),
                    };
                    for (i, (&got, &want)) in distances.iter().zip(expect.iter()).enumerate() {
                        if got.to_bits() != want.to_bits() {
                            if report.mismatches < 3 {
                                report.errors.push(format!(
                                    "client {client} stream {stream} pair #{i} \
                                     ({}, {}): socket {got:?} != replay {want:?}",
                                    pairs[i].0, pairs[i].1
                                ));
                            }
                            report.mismatches += 1;
                        }
                    }
                }
            }
            Response::Error { code, message, .. } => {
                report.errors.push(format!("client {client} stream {stream}: {code:?}: {message}"));
            }
            other => {
                return Err(format!("client {client}: unexpected response {other:?}"));
            }
        }
    }
    Ok(report)
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut rest = args;
    let addr = require(&mut rest, "--addr")?;

    if take_flag(&mut rest, "--shutdown") {
        reject_leftovers(&rest)?;
        let mut conn = connect(&addr)?;
        match conn.roundtrip(&Request::Shutdown { id: 0 }) {
            Ok(Response::ShuttingDown { .. }) => {
                println!("server at {addr} is shutting down");
                Ok(())
            }
            Ok(other) => Err(format!("unexpected response {other:?}")),
            // The server may close the socket right after draining.
            Err(NetError::Disconnected) => {
                println!("server at {addr} is shutting down");
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    } else if take_flag(&mut rest, "--metrics") {
        reject_leftovers(&rest)?;
        let mut conn = connect(&addr)?;
        match conn.roundtrip(&Request::Metrics { id: 0 }) {
            Ok(Response::Metrics { text, .. }) => {
                print!("{text}");
                Ok(())
            }
            Ok(other) => Err(format!("unexpected response {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    } else {
        let clients: u64 =
            parse(&take_opt(&mut rest, "--clients").unwrap_or("4".into()), "--clients")?;
        let requests: u64 =
            parse(&take_opt(&mut rest, "--requests").unwrap_or("100".into()), "--requests")?;
        let pairs_per_req: usize =
            parse(&take_opt(&mut rest, "--pairs").unwrap_or("64".into()), "--pairs")?;
        let salt: u64 = parse(&take_opt(&mut rest, "--salt").unwrap_or("42".into()), "--salt")?;
        let verify = take_flag(&mut rest, "--verify");
        let image = take_opt(&mut rest, "--image");
        reject_leftovers(&rest)?;
        if clients == 0 || requests == 0 || pairs_per_req == 0 {
            return Err("--clients, --requests and --pairs must be positive".into());
        }

        let reference = match (verify, image) {
            (true, Some(path)) => Some(
                Backend::open(std::path::Path::new(&path), None)
                    .map_err(|e| format!("loading {path}: {e}"))?,
            ),
            (true, None) => return Err("--verify requires --image <file>".into()),
            (false, _) => None,
        };

        // One control roundtrip for the workload domain.
        let mut control = connect(&addr)?;
        let text = match control.roundtrip(&Request::Metrics { id: 0 }) {
            Ok(Response::Metrics { text, .. }) => text,
            Ok(other) => return Err(format!("unexpected response {other:?}")),
            Err(e) => return Err(e.to_string()),
        };
        let n_sites = se_oracle::telemetry::lookup(&text, "serve_sites")
            .ok_or("server metrics carry no serve_sites gauge")? as usize;
        if n_sites == 0 {
            return Err("server reports an image with 0 sites".into());
        }
        if let Some(reference) = &reference {
            if reference.n_sites() != n_sites {
                return Err(format!(
                    "--image has {} sites but the server at {addr} serves {n_sites}; \
                     --verify needs the image the server serves",
                    reference.n_sites()
                ));
            }
        }

        println!(
            "oracle-loadgen: {clients} clients x {requests} requests x {pairs_per_req} pairs \
             against {addr} ({n_sites} sites)"
        );

        let t0 = Instant::now();
        let mut handles = Vec::new();
        for client in 0..clients {
            let addr = addr.clone();
            let reference = reference.clone();
            handles.push(std::thread::spawn(move || {
                client_worker(addr, client, requests, pairs_per_req, salt, n_sites, reference)
            }));
        }
        let hist = se_oracle::telemetry::Histogram::default();
        let mut answered = 0u64;
        let mut pairs_answered = 0u64;
        let mut busy_retries = 0u64;
        let mut mismatches = 0u64;
        let mut errors = Vec::new();
        for h in handles {
            let report = h.join().map_err(|_| "client thread panicked".to_string())??;
            answered += report.latencies_us.len() as u64;
            for &us in &report.latencies_us {
                hist.observe(us);
            }
            pairs_answered += report.pairs_answered;
            busy_retries += report.busy_retries;
            mismatches += report.mismatches;
            errors.extend(report.errors);
        }
        let elapsed = t0.elapsed().as_secs_f64();

        let snap = hist.snapshot();
        let qps = if elapsed > 0.0 { pairs_answered as f64 / elapsed } else { 0.0 };
        println!(
            "requests: {answered} answered, {busy_retries} busy-retries, {} request errors",
            errors.len()
        );
        println!(
            "latency:  p50 {} us   p95 {} us   p99 {} us   p99.9 {} us   max {} us",
            snap.quantile(0.50),
            snap.quantile(0.95),
            snap.quantile(0.99),
            snap.quantile(0.999),
            snap.max
        );
        println!("throughput: {qps:.0} pairs/s ({pairs_answered} pairs in {elapsed:.3} s)");
        for e in errors.iter().take(5) {
            eprintln!("  {e}");
        }
        if let Some(_reference) = &reference {
            if mismatches == 0 && errors.is_empty() {
                println!("verify: {pairs_answered}/{pairs_answered} answers bit-identical to in-process replay");
            } else {
                return Err(format!(
                    "verify FAILED: {mismatches} mismatched answers, {} request errors",
                    errors.len()
                ));
            }
        } else if !errors.is_empty() {
            return Err(format!("{} requests failed", errors.len()));
        }
        Ok(())
    }
}
