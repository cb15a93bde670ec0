//! `local`: the in-process monolith. One caller, closed loop, over an SE
//! oracle of the SF preset decoded from its v2 image.

use crate::inputs::{random_requests, row_requests, Reference, Rng, EPS};
use crate::run::{bit_identical, latency_metrics, ratio, timed, Config, Contract, Outcome, Setups};
use crate::{host, stats};
use bench::setup::Workload;
use obs::trace::span;
use se_oracle::oracle::{BuildConfig, ProbeStats, SeOracle};
use se_oracle::p2p::{EngineKind, P2POracle};
use se_oracle::serve::QueryHandle;
use se_oracle::EPS_QUANT;
use std::time::Instant;
use terrain::gen::Preset;

/// Every this many requests, one is a bulk batch through the `_par` driver.
const BULK_EVERY: usize = 32;
/// Bulk batches hold this many × `n_sites` pairs (dense-table path).
const BULK_SITES_MULTIPLE: usize = 2;
/// Distinct bulk batches; traffic cycles through them.
const BULK_POOL: usize = 4;
/// Workers of the `_par` driver: the host's two cores.
const PAR_THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Random,
    Row,
    Bulk,
}

/// Time and pairs spent on one request shape.
#[derive(Default)]
struct ShapeTally {
    ns: f64,
    pairs: f64,
}

/// Runs the `local` workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let w = Workload::preset(Preset::SanFrancisco, cfg.sizes.local_scale, cfg.sizes.local_pois);
    let path = cfg.scratch_file("local.seor");

    // Set-up: build, v2-encode, write, read back, decode.
    let mut setups = Setups::start();
    let mut decode = Vec::new();
    let (handle, image_bytes, (mesh, sites)) = setups.repeat(cfg.sizes.setup_reps, |setups| {
        let built =
            P2POracle::build(&w.mesh, &w.pois, EPS, EngineKind::EdgeGraph, &BuildConfig::default())
                .expect("local oracle builds");
        let sites = (built.mesh().clone(), built.site_vertices().to_vec());
        let (bytes, enc_s) = timed(|| {
            let _s = span("persist", "encode");
            built.oracle().save_bytes_compact(true)
        });
        setups.encode.push(enc_s);
        drop(built);
        std::fs::write(&path, &bytes).expect("write the image");
        let bytes = std::fs::read(&path).expect("read the image back");
        let (oracle, dec_s) = timed(|| {
            let _s = span("persist", "decode");
            SeOracle::load_bytes(&bytes).expect("the image decodes")
        });
        decode.push(dec_s);
        (QueryHandle::new(oracle), bytes.len(), sites)
    });
    let _ = std::fs::remove_file(&path);
    let reference = Reference::edge_graph(mesh, sites);
    out.set("image_bytes", image_bytes as f64);
    out.set("persist.decode_s", stats::median(&decode));
    let oracle = handle.oracle();
    let n = handle.n_sites();

    // Traffic: pools of random requests, one-to-many rows and bulk
    // batches, a seeded schedule over them, and each request's expected
    // answers from per-pair `distance` calls.
    let mut rng = Rng::new(cfg.seed, 2);
    let pool = cfg.sizes.pool_requests;
    let random = random_requests(&mut rng, n, pool);
    let rows = row_requests(&mut rng, n, pool);
    let bulk: Vec<Vec<(u32, u32)>> = (0..BULK_POOL)
        .map(|_| (0..BULK_SITES_MULTIPLE * n).map(|_| (rng.below(n), rng.below(n))).collect())
        .collect();
    let expect = |reqs: &[Vec<(u32, u32)>]| -> Vec<Vec<f64>> {
        reqs.iter()
            .map(|r| r.iter().map(|&(s, t)| oracle.distance(s as usize, t as usize)).collect())
            .collect()
    };
    let (exp_random, exp_rows, exp_bulk) = (expect(&random), expect(&rows), expect(&bulk));
    let schedule: Vec<(Shape, usize)> = (0..pool * 2)
        .map(|i| {
            if i % BULK_EVERY == BULK_EVERY - 1 {
                (Shape::Bulk, (i / BULK_EVERY) % BULK_POOL)
            } else if rng.next_u64().is_multiple_of(2) {
                (Shape::Random, rng.below(pool) as usize)
            } else {
                (Shape::Row, rng.below(pool) as usize)
            }
        })
        .collect();

    let mut tallies = [ShapeTally::default(), ShapeTally::default(), ShapeTally::default()];
    let mut lat_us = Vec::new();
    let mut pairs_total = 0usize;
    let cpu0 = host::cpu_us();
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    let mut i = 0;
    while Instant::now() < deadline {
        let (shape, k) = schedule[i % schedule.len()];
        i += 1;
        let (pairs, expected) = match shape {
            Shape::Random => (&random[k], &exp_random[k]),
            Shape::Row => (&rows[k], &exp_rows[k]),
            Shape::Bulk => (&bulk[k], &exp_bulk[k]),
        };
        let t = Instant::now();
        let got = match shape {
            Shape::Random => {
                let _s = span("oracle", "random-64");
                handle.distance_many(pairs)
            }
            Shape::Row => {
                let _s = span("oracle", "row-64");
                handle.distance_many(pairs)
            }
            Shape::Bulk => {
                let _s = span("serve", "bulk-par");
                handle.distance_many_par(pairs, PAR_THREADS)
            }
        };
        let ns = t.elapsed().as_nanos() as f64;
        let tally = &mut tallies[shape as usize];
        tally.ns += ns;
        tally.pairs += pairs.len() as f64;
        if shape != Shape::Bulk {
            lat_us.push(ns / 1e3);
        }
        pairs_total += pairs.len();
        out.attempted += 1;
        if !bit_identical(&got, expected) {
            out.failed += 1;
            if out.problems.len() < 8 {
                out.problems
                    .push(format!("request {i}: answers differ from per-pair distance calls"));
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::cpu_us() - cpu0;
    out.set("pairs_per_s", pairs_total as f64 / wall);
    latency_metrics(&mut out, &lat_us, true);
    out.set("proc.cpu_us_per_pair", cpu / pairs_total.max(1) as f64);

    // Every pair against the edge-graph metric: ε widened by EPS_QUANT.
    let contract =
        Contract { lo: (1.0 - EPS) * (1.0 - EPS_QUANT), hi: (1.0 + EPS) * (1.0 + EPS_QUANT) };
    let mut worst: f64 = 0.0;
    for s in 0..n as u32 {
        let pairs: Vec<(u32, u32)> = (0..n as u32).map(|t| (s, t)).collect();
        let got = handle.distance_many(&pairs);
        worst = worst.max(contract.check(
            &mut out,
            "edge-graph contract",
            &got,
            &reference.row(s as usize),
        ));
    }
    out.set("max_rel_err", worst);

    probe_counts(&mut out, oracle, &[&random, &rows]);
    if cfg.trace.is_some() {
        layer_metrics(&mut out, oracle, &handle, &tallies, &bulk);
        out.set("build.stored_pairs", oracle.n_pairs() as f64);
        out.set("build.height", f64::from(oracle.height()));
    }
    let events = obs::trace::take_events();
    setups.report(&mut out, &events);
    out.events = events;
    out
}

/// The kernel and `_par` driver metrics of the traced run.
fn layer_metrics(
    out: &mut Outcome,
    oracle: &SeOracle,
    handle: &QueryHandle,
    tallies: &[ShapeTally; 3],
    bulk: &[Vec<(u32, u32)>],
) {
    let per_pair = |t: &ShapeTally| ratio(t.ns, t.pairs);
    out.set("oracle.random_ns_per_pair", per_pair(&tallies[Shape::Random as usize]));
    out.set("oracle.row_ns_per_pair", per_pair(&tallies[Shape::Row as usize]));
    out.set("oracle.dense_ns_per_pair", per_pair(&tallies[Shape::Bulk as usize]));

    let fills: Vec<f64> = (0..9)
        .map(|_| {
            let _s = span("oracle", "layer-fill");
            timed(|| std::hint::black_box(oracle.tree().all_layer_arrays())).1 * 1e6
        })
        .collect();
    out.set("oracle.layer_fill_us", stats::median(&fills));

    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for b in bulk {
            seq.push(timed(|| std::hint::black_box(handle.distance_many(b))).1);
            par.push(timed(|| std::hint::black_box(handle.distance_many_par(b, PAR_THREADS))).1);
        }
    }
    out.set("serve.par_speedup", ratio(stats::median(&seq), stats::median(&par)));
}

/// `ProbeStats` over every 64-pair request of the pools, as the serving
/// path counts them, reconciled against the pairs answered.
fn probe_counts(out: &mut Outcome, oracle: &SeOracle, pools: &[&Vec<Vec<(u32, u32)>>]) {
    let (mut probes, mut pairs) = (ProbeStats::default(), 0u64);
    for req in pools.iter().flat_map(|reqs| reqs.iter()) {
        let (_, ps) = oracle.distance_many_checked_with_stats(req).expect("in-range pairs");
        probes.probes += ps.probes;
        probes.scratch_hits += ps.scratch_hits;
        pairs += req.len() as u64;
    }
    // Probe-count reconciliation: every answered pair probes at least once.
    if probes.probes < pairs {
        out.problems.push(format!("counter mismatch: {} probes for {pairs} pairs", probes.probes));
    }
    out.set("oracle.probes_per_pair", ratio(probes.probes as f64, pairs as f64));
    out.set("oracle.memo_hit_frac", ratio(probes.scratch_hits as f64, pairs as f64));
}
