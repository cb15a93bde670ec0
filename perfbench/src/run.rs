//! What every workload shares: its configuration, its outcome, and the
//! helpers that time calls, read build counters and check answers.

use crate::inputs::Sizes;
use obs::trace::TraceEvent;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The three workloads, by their command-line names.
pub const WORKLOADS: &[&str] = &["local", "socket", "atlas-ooc"];

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed the traffic (request pairs, shapes and their order) is drawn from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Set in the traced run (per-layer metrics, spans on): the instant
    /// spans were enabled, which span timestamps count from.
    pub trace: Option<Instant>,
    /// Input sizes.
    pub sizes: Sizes,
    /// Directory for the image files and the Chrome trace.
    pub out_dir: PathBuf,
}

impl Config {
    /// A file in the output directory, unique to this process.
    pub fn scratch_file(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{}-{name}", std::process::id()))
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: timed requests plus contract-checked pairs.
    pub attempted: u64,
    /// Operations that failed: wrong or refused answers, contract misses.
    pub failed: u64,
    /// Check and counter-reconciliation failures, described.
    pub problems: Vec<String>,
    /// Metric values by catalog name.
    pub values: BTreeMap<&'static str, f64>,
    /// Spans recorded during the traced run.
    pub events: Vec<TraceEvent>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(crate::catalog::find(name).is_some(), "{name} is not in the catalog");
        self.values.insert(name, value);
    }

    /// Records a reconciliation: a mismatch fails the run.
    pub fn reconcile(&mut self, what: &str, left: u64, right: u64) {
        if left != right {
            self.problems.push(format!("counter mismatch: {what}: {left} != {right}"));
        }
    }

    /// Whether every answer and counter checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Whether two answer vectors are bit-identical.
pub fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The SSAD-cache counters every `SeOracle::build` adds to the global
/// registry: `(requests, cache hits, cache misses)`.
pub fn ssad_counters() -> (u64, u64, u64) {
    let g = obs::global();
    (
        g.counter("build_ssad_runs_total").get(),
        g.counter("build_cache_hits_total").get(),
        g.counter("build_cache_misses_total").get(),
    )
}

/// Set-up facts common to every workload, accumulated over its set-ups.
#[derive(Debug, Default)]
pub struct Setups {
    /// Wall time of each set-up, seconds.
    pub total: Vec<f64>,
    /// Image encode time of each set-up, seconds.
    pub encode: Vec<f64>,
    /// Atlas tiling time of each set-up, seconds (atlas workloads).
    pub tiling: Vec<f64>,
    /// Atlas tile-oracle build time of each set-up, seconds.
    pub tile_builds: Vec<f64>,
    ssad_before: (u64, u64, u64),
}

impl Setups {
    /// Starts accumulating; reads the build counters.
    pub fn start() -> Self {
        Setups { ssad_before: ssad_counters(), ..Default::default() }
    }

    /// Runs `reps` set-ups, each timed from generated inputs to ready to
    /// serve, and returns the last one. Each set-up is dropped before the
    /// next starts, so peak memory holds one set-up.
    pub fn repeat<T>(&mut self, reps: usize, mut one: impl FnMut(&mut Setups) -> T) -> T {
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let start = Instant::now();
            let span = obs::trace::span("bench", "setup");
            let ready = one(self);
            drop(span);
            self.total.push(start.elapsed().as_secs_f64());
            last = Some(ready);
        }
        last.expect("at least one set-up")
    }

    /// Reports `setup_s` and the build and encode metrics. Phase times
    /// come from the library's `build/*` spans, summed over tiles for
    /// atlases, per set-up.
    pub fn report(&self, out: &mut Outcome, events: &[TraceEvent]) {
        let reps = self.total.len().max(1) as f64;
        let (runs, hits, misses) = ssad_counters();
        let (r0, h0, m0) = self.ssad_before;
        out.set("setup_s", crate::stats::median(&self.total));
        out.set("persist.encode_s", crate::stats::median(&self.encode));
        if !self.tiling.is_empty() {
            out.set("atlas.tiling_s", crate::stats::median(&self.tiling));
            out.set("atlas.tile_builds_s", crate::stats::median(&self.tile_builds));
        }
        out.set("build.ssad_runs", (runs - r0) as f64 / reps);
        out.set(
            "build.cache_hit_frac",
            ratio((hits - h0) as f64, (hits - h0 + misses - m0) as f64),
        );
        for (metric, span) in [
            ("build.tree_s", "tree"),
            ("build.enhanced_s", "enhanced-edges"),
            ("build.pair_gen_s", "pair-gen"),
        ] {
            let us: f64 = crate::spans::durations(events, "build", span).iter().sum();
            out.set(metric, us / 1e6 / reps);
        }
    }
}

/// An answer contract: `lo·r ≤ d ≤ hi·r` against reference distance `r`,
/// with an absolute slack for coincident sites.
#[derive(Debug, Clone, Copy)]
pub struct Contract {
    /// Lower factor.
    pub lo: f64,
    /// Upper factor.
    pub hi: f64,
}

impl Contract {
    /// Checks `answers` against `reference`, counting each pair as one
    /// operation; returns the largest relative error seen.
    pub fn check(&self, out: &mut Outcome, what: &str, answers: &[f64], reference: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, (&d, &r)) in answers.iter().zip(reference).enumerate() {
            out.attempted += 1;
            let ok = d.is_finite() && d >= self.lo * r - 1e-9 && d <= self.hi * r + 1e-9;
            if !ok {
                out.failed += 1;
                if out.problems.len() < 8 {
                    out.problems.push(format!(
                        "{what}: pair #{i}: {d} outside [{}, {}]",
                        self.lo * r,
                        self.hi * r
                    ));
                }
            }
            if r > 0.0 {
                worst = worst.max((d / r - 1.0).abs());
            }
        }
        worst
    }
}

/// Latency summary over raw per-request samples (µs).
pub fn latency_metrics(out: &mut Outcome, lat_us: &[f64], with_p99: bool) {
    if lat_us.is_empty() {
        out.problems.push("no request completed in the timed phase".into());
        return;
    }
    let sorted = crate::stats::sorted(lat_us);
    out.set("p50_us", crate::stats::nearest_rank(&sorted, 50.0));
    if with_p99 {
        out.set("p99_us", crate::stats::nearest_rank(&sorted, 99.0));
    }
}
