//! `atlas-ooc`: the out-of-core case. The socket workload's atlas image,
//! written to a file and opened through the tile store at half its decoded
//! size; two callers issue random 64-pair requests.

use crate::atlas::{atlas_workload, build_atlas, check_atlas_contract, routing_metrics};
use crate::inputs::{random_requests, Rng};
use crate::run::{bit_identical, latency_metrics, ratio, timed, Config, Outcome, Setups};
use crate::{host, stats};
use obs::trace::span;
use se_oracle::atlas::{Atlas, AtlasHandle};
use se_oracle::TileStoreStats;
use std::time::{Duration, Instant};

/// Caller threads: one per core.
const CALLERS: usize = 2;

/// What one closed-loop phase saw.
#[derive(Default)]
struct Phase {
    pairs: u64,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    lat_us: Vec<f64>,
    /// Pool indices issued, for the resident replay.
    issued: Vec<usize>,
    resident_bytes_max: usize,
}

/// Runs the `atlas-ooc` workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let w = atlas_workload(cfg);
    let path = cfg.scratch_file("atlas-ooc.seat");

    // Set-up: build, v2-encode, write, open out of core at half the
    // decoded size.
    let mut setups = Setups::start();
    let mut opens = Vec::new();
    let (handle, bytes) = setups.repeat(cfg.sizes.atlas_setup_reps, |setups| {
        let built = build_atlas(&w, setups);
        std::fs::write(&path, &built.bytes).expect("write the image");
        let budget = built.storage_bytes / 2;
        let (atlas, open_s) = timed(|| {
            let _s = span("tilestore", "open");
            Atlas::open_out_of_core(&path, budget).expect("the image opens")
        });
        opens.push(open_s);
        (AtlasHandle::new(atlas), built.bytes)
    });
    out.set("image_bytes", bytes.len() as f64);
    out.set("tilestore.open_s", stats::median(&opens));

    // The reference for bit-identity: a resident load of the same bytes.
    let (resident, dec_s) = timed(|| {
        let _s = span("persist", "decode");
        Atlas::load_bytes(&bytes).expect("the image decodes")
    });
    out.set("persist.decode_s", dec_s);
    let mut rng = Rng::new(cfg.seed, 4);
    let pool = random_requests(&mut rng, handle.n_sites(), cfg.sizes.pool_requests);
    let expected: Vec<Vec<f64>> = pool.iter().map(|r| resident.distance_many(r)).collect();

    let store_stats = || handle.atlas().tile_store().expect("an out-of-core atlas").stats();
    let before = store_stats();
    let cpu0 = host::cpu_us();
    let phase = closed_loop(&handle, &pool, &expected, CALLERS, cfg.seconds);
    let cpu = host::cpu_us() - cpu0;
    let after = store_stats();
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    if phase.failed > 0 {
        out.problems.push(format!("{} requests differ from the resident load", phase.failed));
    }
    reconcile_store(&mut out, &after);
    out.set("pairs_per_s", phase.pairs as f64 / phase.wall_s);
    latency_metrics(&mut out, &phase.lat_us, false);
    out.set("proc.cpu_us_per_pair", cpu / phase.pairs.max(1) as f64);
    check_atlas_contract(&w, &mut out, &resident);

    if cfg.trace.is_some() {
        let per_1k = |d: u64| ratio(d as f64 * 1e3, phase.pairs as f64);
        let misses = after.misses - before.misses;
        out.set("tilestore.misses_per_1k_pairs", per_1k(misses));
        out.set("tilestore.evictions_per_1k_pairs", per_1k(after.evictions - before.evictions));
        out.set("tilestore.resident_bytes_max", phase.resident_bytes_max as f64);
        let ooc_us: f64 = phase.lat_us.iter().sum();
        let (_, resident_s) = timed(|| {
            for &k in &phase.issued {
                std::hint::black_box(resident.distance_many(&pool[k]));
            }
        });
        out.set("tilestore.miss_us", ratio(ooc_us - resident_s * 1e6, misses as f64));
        let single = closed_loop(&handle, &pool, &expected, 1, cfg.seconds);
        out.failed += single.failed;
        out.attempted += single.attempted;
        out.set(
            "tilestore.caller_scaling",
            ratio(phase.pairs as f64 / phase.wall_s, single.pairs as f64 / single.wall_s),
        );
        reconcile_store(&mut out, &store_stats());
        routing_metrics(&mut out, &resident, &pool);
    }
    drop(handle);
    let _ = std::fs::remove_file(&path);
    let events = obs::trace::take_events();
    setups.report(&mut out, &events);
    out.events = events;
    out
}

/// `TileStoreStats` invariants: every miss loads once, and every load is
/// still resident or was evicted.
fn reconcile_store(out: &mut Outcome, s: &TileStoreStats) {
    out.reconcile("tile store loads vs misses", s.loads, s.misses);
    out.reconcile(
        "tile store evictions vs loads minus resident tiles",
        s.evictions,
        s.loads - s.resident_tiles as u64,
    );
}

/// `callers` threads each issue pool requests through
/// `AtlasHandle::distance_many` back to back for `seconds`, checking every
/// answer bit for bit against the resident load.
fn closed_loop(
    handle: &AtlasHandle,
    pool: &[Vec<(u32, u32)>],
    expected: &[Vec<f64>],
    callers: usize,
    seconds: Duration,
) -> Phase {
    let start = Instant::now();
    let deadline = start + seconds;
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..callers)
            .map(|c| {
                scope.spawn(move || {
                    let store = handle.atlas().tile_store().expect("an out-of-core atlas");
                    let mut p = Phase::default();
                    let mut seq = 0;
                    while Instant::now() < deadline {
                        let k = (seq * callers + c) % pool.len();
                        seq += 1;
                        let t = Instant::now();
                        let got = {
                            let _s = span("atlas", "ooc-64");
                            handle.distance_many(&pool[k])
                        };
                        p.lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                        p.resident_bytes_max =
                            p.resident_bytes_max.max(store.stats().resident_bytes);
                        p.issued.push(k);
                        p.attempted += 1;
                        p.pairs += pool[k].len() as u64;
                        if !bit_identical(&got, &expected[k]) {
                            p.failed += 1;
                        }
                    }
                    p
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("caller thread")).collect()
    });
    let mut all = Phase { wall_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    for p in phases {
        all.pairs += p.pairs;
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.lat_us.extend(p.lat_us);
        all.issued.extend(p.issued);
        all.resident_bytes_max = all.resident_bytes_max.max(p.resident_bytes_max);
    }
    all
}
