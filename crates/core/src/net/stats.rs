//! Lock-free serving counters, backed by a per-server metrics registry.
//!
//! Every counter is a handle into an [`obs::Registry`] owned by the
//! server instance (so concurrent servers in one process never share
//! numbers). Handle updates are single relaxed atomic operations: the
//! hot path (request admission, batch completion) never touches a lock,
//! which keeps this file inside the `query-path` lint contract — the
//! registry's own locking happens once, in [`Counters::new`], before
//! serving starts. A [`StatsSnapshot`] read is a set of independent
//! relaxed loads: each counter is exact, the set as a whole is a
//! point-in-time approximation (fine for an operational `STATS` verb).
//!
//! The same registry is what the wire `Metrics` verb exposes, so
//! `oracle-loadgen --metrics` and `bench snapshot` read exactly the
//! counters the server serves from.

// lint: query-path

use super::protocol::StatsSnapshot;
use obs::{Counter, Gauge, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of power-of-two batch-size buckets: bucket 16 absorbs every
/// batch above 32768 pairs (half the per-request cap, so realistic
/// coalesced batches always land in a real bucket).
pub(crate) const HIST_BUCKETS: usize = 17;

/// Aggregate serving counters shared by every connection thread and the
/// batcher, registered in one per-server [`Registry`].
pub(crate) struct Counters {
    /// The registry behind every handle below — what the `Metrics` wire
    /// verb renders.
    pub(crate) registry: Registry,
    pub(crate) connections: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) pairs: Arc<Counter>,
    pub(crate) busy_rejections: Arc<Counter>,
    pub(crate) malformed: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    /// Node-pair hash probes performed by oracle batch answers
    /// (`ProbeStats::probes` summed per batch; for atlases, over every
    /// tile-oracle leg).
    pub(crate) probe_pairs: Arc<Counter>,
    /// Layer-array scratch-slot hits from the same answers.
    pub(crate) scratch_hits: Arc<Counter>,
    batches: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    max_queue_depth: Arc<Gauge>,
    batch_pairs: Arc<Histogram>,
    /// Wire-format power-of-two histogram (the `StatsSnapshot` layout
    /// predates the registry's log-linear buckets and is kept
    /// bit-compatible).
    batch_hist: [AtomicU64; HIST_BUCKETS],
}

/// Histogram bucket for a batch of `pairs` pairs: `⌈log2(pairs)⌉`, clamped
/// to the last bucket (bucket 0 holds single-pair batches).
fn bucket(pairs: usize) -> usize {
    let p = pairs.max(1) as u64;
    ((64 - (p - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Counters {
    /// Registers every serving metric in `registry` and keeps the handles.
    pub(crate) fn new(registry: Registry) -> Counters {
        Counters {
            connections: registry.counter("serve_connections_total"),
            requests: registry.counter("serve_requests_total"),
            pairs: registry.counter("serve_pairs_total"),
            busy_rejections: registry.counter("serve_busy_total"),
            malformed: registry.counter("serve_malformed_total"),
            errors: registry.counter("serve_errors_total"),
            probe_pairs: registry.counter("serve_probe_pairs_total"),
            scratch_hits: registry.counter("serve_scratch_hits_total"),
            batches: registry.counter("serve_batches_total"),
            queue_depth: registry.gauge("serve_queue_depth"),
            max_queue_depth: registry.gauge("serve_queue_depth_max"),
            batch_pairs: registry.histogram("serve_batch_pairs"),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            registry,
        }
    }

    /// Records the queue depth after an enqueue or drain, maintaining the
    /// high-water mark.
    pub(crate) fn note_depth(&self, depth: usize) {
        self.queue_depth.set(depth as u64);
        self.max_queue_depth.maximize(depth as u64);
    }

    /// Records a completed batch of `pairs` total pairs.
    pub(crate) fn note_batch(&self, pairs: usize) {
        self.batches.inc();
        self.batch_pairs.observe(pairs as u64);
        self.batch_hist[bucket(pairs)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot; `n_sites`/`epsilon` describe the backend
    /// image and come from the caller.
    pub(crate) fn snapshot(&self, n_sites: usize, epsilon: f64) -> StatsSnapshot {
        StatsSnapshot {
            n_sites: n_sites as u64,
            epsilon,
            connections: self.connections.get(),
            requests: self.requests.get(),
            pairs: self.pairs.get(),
            batches: self.batches.get(),
            busy_rejections: self.busy_rejections.get(),
            malformed: self.malformed.get(),
            errors: self.errors.get(),
            queue_depth: self.queue_depth.get(),
            max_queue_depth: self.max_queue_depth.get(),
            batch_size_hist: self.batch_hist.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(5), 3);
        assert_eq!(bucket(1 << 16), 16);
        assert_eq!(bucket(usize::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_reflects_notes() {
        let c = Counters::new(Registry::new());
        c.note_depth(3);
        c.note_depth(1);
        c.note_batch(5);
        c.note_batch(1);
        let s = c.snapshot(10, 0.25);
        assert_eq!(s.n_sites, 10);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.max_queue_depth, 3);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batch_size_hist[0], 1);
        assert_eq!(s.batch_size_hist[3], 1);
    }

    #[test]
    fn registry_mirrors_the_wire_counters() {
        let c = Counters::new(Registry::new());
        c.requests.add(4);
        c.pairs.add(64);
        c.note_batch(64);
        c.note_depth(2);
        let text = c.registry.expose();
        assert_eq!(obs::lookup(&text, "serve_requests_total"), Some(4));
        assert_eq!(obs::lookup(&text, "serve_pairs_total"), Some(64));
        assert_eq!(obs::lookup(&text, "serve_batches_total"), Some(1));
        assert_eq!(obs::lookup(&text, "serve_batch_pairs_count"), Some(1));
        assert_eq!(obs::lookup(&text, "serve_batch_pairs_max"), Some(64));
        assert_eq!(obs::lookup(&text, "serve_queue_depth_max"), Some(2));
    }
}
