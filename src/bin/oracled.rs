//! `oracled` — serve a persisted oracle image (`.seor`) or atlas image
//! (`.seat`) over TCP.
//!
//! ```text
//! oracled --image oracle.seor --addr 127.0.0.1:7474
//! ```
//!
//! `Backend::open` picks the image kind from the magic bytes. The daemon
//! runs until a client sends the protocol's `SHUTDOWN` verb
//! (`oracle-loadgen --shutdown`), drains every admitted request, prints
//! the final counters in the `METRICS` verb's text exposition, and exits.

use se_oracle::net::{Backend, OracleServer, ServeConfig};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
oracled — serve an oracle image over TCP

USAGE:
  oracled --image <file.seor|file.seat> --addr <host:port>
          [--resident-budget <bytes>]  serve a .seat atlas out-of-core:
                                  decode tiles lazily, hold at most this
                                  many decoded bytes resident (error for
                                  .seor images, which are monolithic)
          [--max-batch <pairs>]   target pairs per coalesced batch (default 4096)
          [--max-wait-us <us>]    how long an under-full batch waits (default 200)
          [--queue-cap <n>]       request queue bound; overflow answers Busy
                                  (default 256)
          [--log-level <l>]       structured key=value stderr logging:
                                  error (default), info (connection and
                                  shutdown lifecycle), debug (per-request
                                  noise: Busy rejections, malformed frames)

Stops on the protocol SHUTDOWN verb (`oracle-loadgen --addr <addr> --shutdown`)
and prints the final counters. The METRICS verb (`oracle-loadgen --addr <addr>
--metrics`) returns the same text exposition while the server runs.
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

fn run(args: Vec<String>) -> Result<(), String> {
    let mut rest = args;
    let image = require(&mut rest, "--image")?;
    let addr = require(&mut rest, "--addr")?;
    let resident_budget = match take_opt(&mut rest, "--resident-budget") {
        Some(v) => Some(parse(&v, "--resident-budget")?),
        None => None,
    };
    let mut cfg = ServeConfig::default();
    if let Some(v) = take_opt(&mut rest, "--max-batch") {
        cfg.max_batch_pairs = parse(&v, "--max-batch")?;
    }
    if let Some(v) = take_opt(&mut rest, "--max-wait-us") {
        cfg.max_wait = Duration::from_micros(parse(&v, "--max-wait-us")?);
    }
    if let Some(v) = take_opt(&mut rest, "--queue-cap") {
        cfg.queue_cap = parse(&v, "--queue-cap")?;
    }
    if let Some(v) = take_opt(&mut rest, "--log-level") {
        let level = se_oracle::telemetry::log::parse_level(&v)
            .ok_or_else(|| format!("invalid --log-level: '{v}' (error, info, or debug)"))?;
        se_oracle::telemetry::log::set_level(level);
    }
    reject_leftovers(&rest)?;

    let backend = Backend::open(std::path::Path::new(&image), resident_budget)
        .map_err(|e| format!("loading {image}: {e}"))?;
    let kind = match &backend {
        Backend::Oracle(_) => "oracle",
        Backend::Atlas(h) if h.atlas().tile_store().is_some() => "out-of-core atlas",
        Backend::Atlas(_) => "atlas",
    };
    let server = OracleServer::bind(&*addr, backend, cfg.clone())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| format!("local addr: {e}"))?;
    // One parseable line on stdout, flushed, so wrappers (CI smoke, the
    // bench harness) can wait for readiness and scrape the port.
    println!("oracled listening on {bound} ({kind} image {image})");
    let _ = std::io::stdout().flush();

    let metrics = server.serve();
    println!("oracled shut down after draining in-flight work");
    print!("{metrics}");
    Ok(())
}
