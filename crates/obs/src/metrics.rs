//! Metrics registry: named counters, gauges, and log-bucket histograms.
//!
//! A [`Registry`] hands out `Arc`-wrapped handles registered by static
//! name. Updates on a handle are single relaxed atomic operations — safe
//! for `// lint: query-path` files, which admit atomics only. The
//! registry's own `Mutex` is touched exclusively during registration and
//! snapshotting, never on a metric update.
//!
//! [`Registry::snapshot`] returns a `BTreeMap` keyed by metric name, so
//! two registries fed identical updates produce identical snapshots —
//! the property `tests/telemetry.rs` pins down. [`Registry::expose`]
//! renders the snapshot in a Prometheus-flavoured text format; [`lookup`]
//! is the matching one-value parser used by `oracle-loadgen`, perfbench's
//! `socket` workload, and the socket tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Monotone event counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (also supports a running max).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water mark).
    pub fn maximize(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: values 0–3 exactly, then four
/// log-linear sub-buckets per power of two up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 252;

/// Fixed log-bucket histogram of `u64` samples.
///
/// Buckets follow an HdrHistogram-style log-linear layout: each power
/// of two is split into four equal sub-buckets, bounding the relative
/// quantile-estimation error at 25 % (typically ~12.5 %). `observe` is
/// four relaxed atomic operations; `max` is tracked exactly.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket recording value `v`.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - u64::from(v.leading_zeros());
    let sub = (v >> (msb - 2)) & 3;
    ((msb - 1) * 4 + sub) as usize
}

/// Inclusive upper bound of bucket `i` (saturates at `u64::MAX`).
pub fn bucket_bound(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let msb = (i / 4 + 1) as u32;
    let sub = (i % 4) as u128;
    let bound = (1u128 << msb) + (sub + 1) * (1u128 << (msb - 2)) - 1;
    bound.min(u128::from(u64::MAX)) as u64
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_bound(i), c));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen copy of a [`Histogram`]: non-empty buckets only, plus exact
/// count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact largest sample (not a bucket bound).
    pub max: u64,
    /// `(inclusive upper bound, count)` for each non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the upper bound of
    /// the bucket holding the rank-`⌈q·count⌉` sample, clamped to the
    /// exact max. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bound, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// One metric's value inside a [`Registry`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

/// A named-metric registry. Cheap to clone (clones share the metrics).
///
/// Names must be unique across all three kinds — a counter and a gauge
/// with the same name would collide in the snapshot map.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Metric state is a bag of atomics; a panic elsewhere cannot leave
    // it logically torn, so poisoning is ignored.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter registered as `name`, creating it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(lock(&self.inner.counters).entry(name).or_default())
    }

    /// Returns the gauge registered as `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(lock(&self.inner.gauges).entry(name).or_default())
    }

    /// Returns the histogram registered as `name`, creating it on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(lock(&self.inner.histograms).entry(name).or_default())
    }

    /// Deterministic point-in-time view: metric name → value, ordered
    /// by name. Two registries fed identical updates produce equal maps.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        let mut out = BTreeMap::new();
        for (name, c) in lock(&self.inner.counters).iter() {
            out.insert((*name).to_string(), MetricValue::Counter(c.get()));
        }
        for (name, g) in lock(&self.inner.gauges).iter() {
            out.insert((*name).to_string(), MetricValue::Gauge(g.get()));
        }
        for (name, h) in lock(&self.inner.histograms).iter() {
            out.insert((*name).to_string(), MetricValue::Histogram(h.snapshot()));
        }
        out
    }

    /// Renders the snapshot in a Prometheus-flavoured text exposition
    /// format. Histograms emit cumulative `_bucket{le="…"}` lines plus
    /// `_sum`, `_count`, and (non-standard, exact) `_max`.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (bound, c) in &h.buckets {
                        cum += c;
                        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                    out.push_str(&format!("{name}_max {}\n", h.max));
                }
            }
        }
        out
    }
}

/// Finds the value of the plain sample line `name <value>` in an
/// exposition text (as produced by [`Registry::expose`]). Histogram
/// series resolve via their suffixed lines (`name_count`, `name_max`, …).
pub fn lookup(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Process-wide default registry. Library build paths (oracle
/// construction, the geodesic pool and cache) record here; servers use
/// their own per-instance registries so concurrent servers in one
/// process never share counters.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_buckets_up_to_three() {
        for v in 0..4 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // Every bucket's bound maps back into the bucket, and bound+1
        // starts the next one.
        for i in 0..HIST_BUCKETS - 1 {
            let bound = bucket_bound(i);
            assert_eq!(bucket_index(bound), i, "bound {bound} of bucket {i}");
            assert_eq!(bucket_index(bound + 1), i + 1, "first value past bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_bounds_monotone() {
        for i in 1..HIST_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
    }

    #[test]
    fn log_linear_layout_spot_checks() {
        // Powers of two open a fresh sub-bucket run of width 2^(k-2).
        assert_eq!(bucket_index(4), 4);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(9), 8); // [8, 9] share a bucket
        assert_eq!(bucket_index(10), 9);
        assert_eq!(bucket_bound(8), 9);
        assert_eq!(bucket_bound(11), 15);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.sum, 500_500);
        // Bucketed estimates overshoot by at most one bucket width (25 %).
        let p50 = snap.quantile(0.50);
        assert!((500..=640).contains(&p50), "p50 {p50}");
        let p99 = snap.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(snap.quantile(1.0), 1000);
        assert_eq!(snap.quantile(0.0), snap.buckets[0].0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::default().snapshot().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_is_deterministic_across_registries() {
        let build = |reg: &Registry| {
            reg.counter("zulu_total").add(7);
            reg.gauge("alpha_depth").set(3);
            let h = reg.histogram("mid_hist");
            for v in [1, 5, 900, 900, 17] {
                h.observe(v);
            }
        };
        let (a, b) = (Registry::new(), Registry::new());
        build(&a);
        build(&b);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.expose(), b.expose());
        // Keys come out name-ordered regardless of registration order.
        let keys: Vec<String> = a.snapshot().into_keys().collect();
        assert_eq!(keys, ["alpha_depth", "mid_hist", "zulu_total"]);
    }

    #[test]
    fn handles_share_state() {
        let reg = Registry::new();
        reg.counter("c").inc();
        reg.counter("c").add(2);
        assert_eq!(reg.counter("c").get(), 3);
        reg.gauge("g").maximize(9);
        reg.gauge("g").maximize(4);
        assert_eq!(reg.gauge("g").get(), 9);
    }

    #[test]
    fn expose_and_lookup_roundtrip() {
        let reg = Registry::new();
        reg.counter("served_total").add(41);
        reg.gauge("depth").set(6);
        reg.histogram("lat").observe(100);
        let text = reg.expose();
        assert_eq!(lookup(&text, "served_total"), Some(41));
        assert_eq!(lookup(&text, "depth"), Some(6));
        assert_eq!(lookup(&text, "lat_count"), Some(1));
        assert_eq!(lookup(&text, "lat_max"), Some(100));
        assert_eq!(lookup(&text, "missing"), None);
        // A name that prefixes another must not match its lines.
        assert_eq!(lookup(&text, "served"), None);
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1\n"));
    }
}
