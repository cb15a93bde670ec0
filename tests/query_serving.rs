//! The query-serving subsystem's three contracts:
//!
//! 1. **Batch ≡ sequential** — `distance_many`, the checked kernel
//!    `distance_many_checked_with_stats` and the pool-sharded
//!    `distance_many_par` answer element-for-element bit-identically to
//!    looping over single pairs, for arbitrary pair slices including
//!    out-of-range and repeated ids (the first out-of-range pair is the
//!    batch's typed error).
//! 2. **Concurrent ≡ serial** — any number of threads hammering clones of
//!    one shared [`QueryHandle`] observe exactly the answers a
//!    single-threaded replay produces (the query path has no interior
//!    mutability to race on).
//! 3. **Served ≡ built** — an oracle that went through
//!    build → persist → load answers byte-identically to the in-memory
//!    original, on the standard level-4 fixture and on a level-5 fractal
//!    (the first fixture above the ~1k-vertex ceiling).

mod common;

use common::*;
use proptest::prelude::*;
use std::sync::OnceLock;
use terrain_oracle::oracle::{BuildConfig, QueryError, SeOracle};
use terrain_oracle::prelude::*;

/// One shared serving fixture for the whole file: built once, then only
/// queried — exactly the deployment shape the subsystem exists for.
fn shared_handle() -> &'static QueryHandle {
    static HANDLE: OnceLock<QueryHandle> = OnceLock::new();
    HANDLE.get_or_init(|| {
        QueryHandle::new(build_p2p(211, 16, 0.2, EngineKind::EdgeGraph).into_oracle())
    })
}

/// Deterministic in-range pair workload for thread `tid` (no shared RNG
/// state between threads, so the serial replay regenerates it exactly).
fn thread_workload(tid: u64, len: usize, n_sites: usize) -> Vec<(u32, u32)> {
    terrain_oracle::oracle::serve::pair_stream(0x5E44_0000, tid, len, n_sites)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, rng_seed: 0x5E44_0001, ..ProptestConfig::default() })]

    /// Contract 1 for the checked API: ids are drawn well past `n_sites`,
    /// so slices mix in-range, out-of-range and repeated ids freely.
    #[test]
    fn try_batch_agrees_with_sequential_try_distance(
        pairs in proptest::collection::vec((0u32..48, 0u32..48), 0..200),
        threads in 1usize..5,
    ) {
        let h = shared_handle();
        prop_assert!(h.n_sites() < 48, "id range must reach out of range");
        // Looping over single pairs: the first out-of-range one is the
        // batch's error, re-indexed to its position in the batch.
        let want: Result<Vec<u64>, QueryError> = pairs
            .iter()
            .enumerate()
            .map(|(index, &pair)| match h.distance_many_checked_with_stats(&[pair]) {
                Ok((d, _)) => Ok(d[0].to_bits()),
                Err(QueryError::SiteOutOfRange { site, n_sites, .. }) => {
                    Err(QueryError::SiteOutOfRange { index, site, n_sites })
                }
                Err(e) => Err(e),
            })
            .collect();
        let got = h
            .distance_many_checked_with_stats(&pairs)
            .map(|(d, _)| d.into_iter().map(f64::to_bits).collect::<Vec<u64>>());
        prop_assert_eq!(&got, &want);
        let par = std::panic::catch_unwind(|| h.distance_many_par(&pairs, threads));
        match want {
            Ok(bits) => {
                let par: Vec<u64> = par.unwrap().into_iter().map(f64::to_bits).collect();
                prop_assert_eq!(par, bits);
            }
            Err(_) => prop_assert!(par.is_err(), "_par must panic where the kernel errs"),
        }
    }

    /// Contract 1 for the panicking API over in-range pairs, crossing the
    /// sparse (two-slot scratch) and dense (all-layer-arrays) batch paths.
    #[test]
    fn batch_agrees_with_sequential_distance(
        raw in proptest::collection::vec((0u32..1000, 0u32..1000), 1..300),
        threads in 1usize..5,
    ) {
        let h = shared_handle();
        let n = h.n_sites() as u32;
        let pairs: Vec<(u32, u32)> = raw.iter().map(|&(s, t)| (s % n, t % n)).collect();
        let want: Vec<u64> = pairs
            .iter()
            .map(|&(s, t)| h.distance(s as usize, t as usize).to_bits())
            .collect();
        for got in [h.distance_many(&pairs), h.distance_many_par(&pairs, threads)] {
            let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
            prop_assert_eq!(&got, &want);
        }
    }
}

/// Contract 2: 8 threads hammer one shared handle with mixed batch +
/// single-query traffic; every thread's answers equal the single-threaded
/// replay of its workload, bit for bit.
#[test]
fn eight_threads_observe_single_threaded_answers() {
    const THREADS: u64 = 8;
    const QUERIES: usize = 2_000;
    let h = shared_handle();
    let n = h.n_sites();

    let replay: Vec<Vec<u64>> = (0..THREADS)
        .map(|tid| {
            h.distance_many(&thread_workload(tid, QUERIES, n))
                .into_iter()
                .map(f64::to_bits)
                .collect()
        })
        .collect();

    let live: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|tid| {
                let worker = h.clone();
                scope.spawn(move || {
                    let pairs = thread_workload(tid, QUERIES, n);
                    // Mixed workload: the big batch plus interleaved
                    // single queries that must agree with it while the
                    // other 7 threads are mid-flight.
                    let batch = worker.distance_many(&pairs);
                    for (k, &(s, t)) in pairs.iter().enumerate().step_by(97) {
                        assert_eq!(
                            worker.distance(s as usize, t as usize).to_bits(),
                            batch[k].to_bits(),
                            "thread {tid} single query ({s},{t}) disagrees with its batch"
                        );
                    }
                    batch.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("serving thread panicked")).collect()
    });

    for (tid, (l, r)) in live.iter().zip(&replay).enumerate() {
        assert_eq!(l, r, "thread {tid} observed answers differing from the serial replay");
    }
}

/// Contract 3 shared body: persist, reload, and compare every answer (and
/// the image itself) bit for bit, through both the sequential and the
/// parallel batch drivers.
fn assert_served_equals_built(oracle: SeOracle) {
    let bytes = oracle.save_bytes_compact(false);
    let loaded = SeOracle::load_bytes(&bytes).expect("reload");
    let built = QueryHandle::new(oracle);
    let served = QueryHandle::new(loaded);

    assert_eq!(built.n_sites(), served.n_sites());
    assert_eq!(built.epsilon(), served.epsilon());
    let n = built.n_sites() as u32;
    let pairs: Vec<(u32, u32)> = (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
    let want: Vec<u64> = built.distance_many(&pairs).into_iter().map(f64::to_bits).collect();
    for got in [served.distance_many(&pairs), served.distance_many_par(&pairs, 3)] {
        let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
        assert_eq!(got, want, "served answers differ from the in-memory oracle");
    }
    // The image is canonical: re-serializing the served oracle reproduces
    // the bytes the built one wrote.
    assert_eq!(
        bytes,
        served.oracle().save_bytes_compact(false),
        "image not canonical after reload"
    );
}

#[test]
fn persisted_handle_byte_identical_level4() {
    assert_served_equals_built(build_p2p(401, 20, 0.2, EngineKind::EdgeGraph).into_oracle());
}

#[test]
fn persisted_handle_byte_identical_level5() {
    // Level-5 fractal: 33 × 33 = 1089 vertices before refinement — the
    // first fixture above the ~1k-vertex ceiling every earlier suite
    // stayed under.
    let (mesh, pois) = mesh_with_pois(5, 0.6, 503, 40);
    assert!(mesh.n_vertices() > 1000, "fixture must exceed the ~1k-vertex ceiling");
    let oracle =
        P2POracle::build(&mesh, &pois, 0.25, EngineKind::EdgeGraph, &BuildConfig::default())
            .unwrap();
    assert_served_equals_built(oracle.into_oracle());
}
