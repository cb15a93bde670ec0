//! The construction worker pool: scoped threads over an atomic work-queue
//! index.
//!
//! Every parallelizable phase of oracle construction (partition-tree point
//! covering, enhanced-edge SSADs, baseline all-pairs sweeps) is a bag of
//! independent per-item jobs whose *results* must come back in a
//! deterministic order. [`run_indexed`] provides exactly that: workers pull
//! the next item index from a shared atomic counter (so uneven job costs
//! balance dynamically, unlike static chunking) and the caller receives the
//! results in item order regardless of which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a user-facing thread count: `0` means auto-detect via
/// [`std::thread::available_parallelism`] (falling back to 1 when the
/// platform cannot report it); any other value is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        // lint: allow(d2, "thread-count autodetect only; results are bit-identical across thread counts (tests/parallel_build.rs)")
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `f(i)` for every `i in 0..n` on up to `threads` workers (`0` =
/// auto-detect) and returns the results in index order.
///
/// The calling thread is one of the workers: it spawns `threads − 1`
/// scoped threads and runs the same loop itself, so a two-worker batch
/// pays one thread spawn, not two, and the caller does not sit parked.
/// Work is distributed through an atomic queue index, so long-running items
/// do not stall a statically assigned chunk. `f` must be safe to call
/// concurrently from multiple threads; determinism of the *output* is
/// guaranteed by ordering alone, so `f` itself must be deterministic per
/// index for end-to-end reproducibility. A panic in `f`, on the caller or
/// on a spawned worker, propagates to the caller.
pub fn run_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n);
    // Pool telemetry: one batch, `n` jobs, `threads` workers that ran —
    // the calling thread included (0 on the inline path). Counting happens
    // once per batch, off every job's hot path.
    let reg = obs::global();
    reg.counter("geodesic_pool_batches_total").inc();
    reg.counter("geodesic_pool_jobs_total").add(n as u64);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    reg.counter("geodesic_pool_workers_total").add(threads as u64);

    let next = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        local
    };
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut tagged = work();
        for h in handles {
            // lint: allow(panic, "worker panics must propagate to the caller; join fails only on panic")
            tagged.extend(h.join().expect("construction worker panicked"));
        }
        tagged
    });

    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(tagged.iter().enumerate().all(|(k, &(i, _))| k == i));
    tagged.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn resolve_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn results_in_index_order() {
        for threads in [1usize, 2, 4, 9] {
            let out = run_indexed(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = run_indexed(4, 57, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(run_indexed::<usize, _>(4, 0, |i| i).is_empty());
        assert_eq!(run_indexed(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn a_panicking_item_propagates_from_any_worker() {
        // Whichever worker draws the item — the caller or a spawned
        // thread — its panic reaches the caller.
        for bad in 0..8 {
            let run = std::panic::catch_unwind(|| run_indexed(4, 8, |i| assert_ne!(i, bad)));
            assert!(run.is_err(), "item {bad}'s panic was swallowed");
        }
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(run_indexed(64, 3, |i| i), vec![0, 1, 2]);
    }
}
