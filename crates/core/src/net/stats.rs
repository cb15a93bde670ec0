//! Lock-free serving counters, backed by a per-server metrics registry.
//!
//! Every counter is a handle into an [`obs::Registry`] owned by the
//! server instance (so concurrent servers in one process never share
//! numbers). Handle updates are single relaxed atomic operations: the
//! hot path (request admission, batch completion) never touches a lock,
//! which keeps this file inside the `query-path` lint contract — the
//! registry's own locking happens once, in [`Counters::new`], before
//! serving starts, and again only when the registry is rendered.
//!
//! The registry is the one way counters leave the server: the wire
//! `Metrics` verb and `OracleServer::serve`'s return value both render
//! it, so `oracle-loadgen --metrics`, `oracled`'s exit dump and the
//! benchmark read exactly the counters the server serves from.

// lint: query-path

use obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

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
    /// Node-pair table probes performed by oracle batch answers
    /// (`ProbeStats::probes` summed per batch; for atlases, over the tile
    /// oracle answers of pairs that share a tile — a portal route read
    /// from the labels makes no probe).
    pub(crate) probe_pairs: Arc<Counter>,
    /// Layer-array scratch-slot hits from the same answers.
    pub(crate) scratch_hits: Arc<Counter>,
    batches: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    max_queue_depth: Arc<Gauge>,
    batch_pairs: Arc<Histogram>,
}

impl Counters {
    /// Registers every serving metric in `registry` and keeps the handles.
    /// `n_sites` — the served image's site count, which clients need to
    /// draw valid ids — is published once as the `serve_sites` gauge.
    pub(crate) fn new(registry: Registry, n_sites: usize) -> Counters {
        registry.gauge("serve_sites").set(n_sites as u64);
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_mirrors_the_wire_counters() {
        let c = Counters::new(Registry::new(), 10);
        c.requests.add(4);
        c.pairs.add(64);
        c.note_batch(64);
        c.note_depth(2);
        let text = c.registry.expose();
        assert_eq!(obs::lookup(&text, "serve_sites"), Some(10));
        assert_eq!(obs::lookup(&text, "serve_requests_total"), Some(4));
        assert_eq!(obs::lookup(&text, "serve_pairs_total"), Some(64));
        assert_eq!(obs::lookup(&text, "serve_batches_total"), Some(1));
        assert_eq!(obs::lookup(&text, "serve_batch_pairs_count"), Some(1));
        assert_eq!(obs::lookup(&text, "serve_batch_pairs_max"), Some(64));
        assert_eq!(obs::lookup(&text, "serve_queue_depth_max"), Some(2));
    }
}
