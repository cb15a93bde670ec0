//! A query-serving fleet in miniature: build an oracle offline, persist
//! it, reload the image, freeze it into a [`QueryHandle`], and serve a
//! sustained mixed workload (batches interleaved with single queries)
//! from several threads sharing that one handle — verifying along the way
//! that every thread's answers are bit-identical to a single-threaded
//! replay, which is the serving layer's whole contract.
//!
//! Run with `cargo run --release --example query_server`.

use std::time::Instant;
use terrain_oracle::oracle::SeOracle;
use terrain_oracle::prelude::*;

const SERVING_THREADS: u64 = 4;
const QUERIES_PER_THREAD: usize = 50_000;
const BATCH: usize = 1_000;

/// Deterministic per-thread pair stream: no shared RNG, so the replay
/// below regenerates each thread's workload exactly.
fn workload(tid: u64, len: usize, n_sites: usize) -> Vec<(u32, u32)> {
    terrain_oracle::oracle::serve::pair_stream(0xF1EE_7000, tid, len, n_sites)
}

fn main() {
    // 1. Offline: build and ship the image.
    let mesh = Preset::SfSmall.mesh(0.3);
    let pois = sample_uniform(&mesh, 40, 47);
    let eps = 0.15;
    let t0 = Instant::now();
    let built = P2POracle::build(&mesh, &pois, eps, EngineKind::Exact, &BuildConfig::default())
        .expect("oracle construction");
    let path = std::env::temp_dir().join("terrain-oracle-query-server.seor");
    let mut f = std::fs::File::create(&path).expect("create image");
    built.oracle().save_to_compact(&mut f, false).expect("serialize");
    drop(f);
    println!(
        "offline: built SE(ε={eps}) over {} POIs and persisted it in {:.2?}",
        pois.len(),
        t0.elapsed()
    );

    // 2. Online: reload and freeze into a shareable read-only handle.
    let mut f = std::fs::File::open(&path).expect("open image");
    let served = SeOracle::load_from(&mut f).expect("deserialize");
    let handle = QueryHandle::new(served);
    let n = handle.n_sites();
    println!("online: image reloaded, {n} sites, h = {}", handle.oracle().height());

    // 3. Single-threaded replay of every thread's workload — the ground
    //    truth the concurrent run must reproduce bit for bit.
    let replay: Vec<Vec<u64>> = (0..SERVING_THREADS)
        .map(|tid| {
            handle
                .distance_many(&workload(tid, QUERIES_PER_THREAD, n))
                .into_iter()
                .map(f64::to_bits)
                .collect()
        })
        .collect();

    // 4. The fleet: each thread serves its workload in batches, re-asking
    //    every 131st answer as a single query mid-stream (the mixed
    //    traffic a real server sees).
    let t0 = Instant::now();
    let answers: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SERVING_THREADS)
            .map(|tid| {
                let worker = handle.clone();
                scope.spawn(move || {
                    let pairs = workload(tid, QUERIES_PER_THREAD, n);
                    let mut bits = Vec::with_capacity(pairs.len());
                    for chunk in pairs.chunks(BATCH) {
                        let batch = worker.distance_many(chunk);
                        for (k, &(s, t)) in chunk.iter().enumerate().step_by(131) {
                            let single = worker.distance(s as usize, t as usize);
                            assert_eq!(
                                single.to_bits(),
                                batch[k].to_bits(),
                                "single query disagrees with its batch"
                            );
                        }
                        bits.extend(batch.into_iter().map(f64::to_bits));
                    }
                    bits
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("serving thread panicked")).collect()
    });
    let elapsed = t0.elapsed();
    let total = SERVING_THREADS as usize * QUERIES_PER_THREAD;
    assert_eq!(answers, replay, "concurrent serving must equal the single-threaded replay");
    println!(
        "served {total} queries from {SERVING_THREADS} threads in {elapsed:.2?} \
         ({:.1}k q/s) — all bit-identical to the serial replay",
        total as f64 / elapsed.as_secs_f64() / 1e3
    );

    // 5. Amortization: the same 20k-pair batch, three ways.
    let pairs = workload(99, 20_000, n);
    let t0 = Instant::now();
    let mut acc = 0.0;
    for &(s, t) in &pairs {
        acc += handle.distance(s as usize, t as usize);
    }
    let t_individual = t0.elapsed();
    let t0 = Instant::now();
    let batch = handle.distance_many(&pairs);
    let t_batch = t0.elapsed();
    let t0 = Instant::now();
    let par = handle.distance_many_par(&pairs, 0);
    let t_par = t0.elapsed();
    assert_eq!(acc, batch.iter().sum::<f64>(), "batch must reproduce individual answers");
    assert_eq!(batch, par, "parallel driver must reproduce the sequential batch");
    println!(
        "20k pairs: individual {t_individual:.2?}, distance_many {t_batch:.2?} \
         ({:.2}×), distance_many_par(auto) {t_par:.2?}",
        t_individual.as_secs_f64() / t_batch.as_secs_f64()
    );

    std::fs::remove_file(&path).ok();
    println!("done");
}
