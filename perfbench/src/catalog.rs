//! Every metric the benchmark reports: its unit, which direction is
//! better, and — for per-layer metrics — the end-to-end metric it should
//! move and the workloads it is measured on.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// The end-to-end metric a change here should move (per-layer only).
    pub moves: &'static str,
    /// Workloads that measure it; on the others the value is 0 (n/a).
    pub on: &'static [&'static str],
}

const ALL: &[&str] = crate::run::WORKLOADS;
const LOCAL: &[&str] = &["local"];
const SOCKET: &[&str] = &["socket"];
const OOC: &[&str] = &["atlas-ooc"];
const ATLASES: &[&str] = &["socket", "atlas-ooc"];

const fn m(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    moves: &'static str,
    on: &'static [&'static str],
) -> Metric {
    Metric { name, unit, lower_is_better, moves, on }
}

/// End-to-end metrics, measured with tracing off. `p99_us` (local only:
/// the other workloads yield too few or too unsteady tails) and
/// `fail_frac` (0 whenever every check passes) are printed but not listed
/// in `BENCHMARK.json`; failures reach it as `failed` ÷ `attempted`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", true, "", ALL),
    m("pairs_per_s", "pairs/s", false, "", ALL),
    m("p50_us", "us", true, "", ALL),
    m("p99_us", "us", true, "", LOCAL),
    m("fail_frac", "ratio", true, "", ALL),
    m("max_rel_err", "ratio", true, "", ALL),
    m("image_bytes", "bytes", true, "", ALL),
    m("peak_rss_mb", "MB", true, "", ALL),
];

/// Whether an end-to-end metric is reported by every workload and never
/// 0, and so goes into the result line and `BENCHMARK.json`.
pub fn gated(metric: &Metric) -> bool {
    !matches!(metric.name, "p99_us" | "fail_frac")
}

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("build.tree_s", "s", true, "setup_s", ALL),
    m("build.enhanced_s", "s", true, "setup_s", ALL),
    m("build.pair_gen_s", "s", true, "setup_s", ALL),
    m("build.ssad_runs", "count", true, "setup_s", ALL),
    m("build.cache_hit_frac", "ratio", false, "setup_s", ALL),
    m("build.stored_pairs", "count", true, "image_bytes", LOCAL),
    m("build.height", "count", true, "pairs_per_s", LOCAL),
    m("atlas.tiling_s", "s", true, "setup_s", ATLASES),
    m("atlas.tile_builds_s", "s", true, "setup_s", ATLASES),
    m("persist.encode_s", "s", true, "setup_s", ALL),
    m("persist.decode_s", "s", true, "setup_s", ALL),
    m("tilestore.open_s", "s", true, "setup_s", OOC),
    m("oracle.random_ns_per_pair", "ns/pair", true, "p50_us", LOCAL),
    m("oracle.row_ns_per_pair", "ns/pair", true, "p50_us", LOCAL),
    m("oracle.dense_ns_per_pair", "ns/pair", true, "pairs_per_s", LOCAL),
    m("oracle.layer_fill_us", "us", true, "pairs_per_s", LOCAL),
    m("oracle.probes_per_pair", "probes/pair", true, "pairs_per_s", LOCAL),
    m("oracle.memo_hit_frac", "ratio", false, "pairs_per_s", LOCAL),
    m("serve.par_speedup", "x", false, "pairs_per_s", LOCAL),
    m("atlas.cross_frac", "ratio", true, "pairs_per_s", ATLASES),
    m("atlas.intra_ns_per_pair", "ns/pair", true, "pairs_per_s", ATLASES),
    m("atlas.cross_ns_per_pair", "ns/pair", true, "pairs_per_s", ATLASES),
    m("tilestore.misses_per_1k_pairs", "count/1k-pairs", true, "pairs_per_s", OOC),
    m("tilestore.evictions_per_1k_pairs", "count/1k-pairs", true, "pairs_per_s", OOC),
    m("tilestore.miss_us", "us", true, "pairs_per_s", OOC),
    m("tilestore.resident_bytes_max", "bytes", true, "peak_rss_mb", OOC),
    m("tilestore.caller_scaling", "x", false, "pairs_per_s", OOC),
    m("net.batch_us_p50", "us", true, "p50_us", SOCKET),
    m("net.batch_busy_frac", "ratio", true, "pairs_per_s", SOCKET),
    m("net.outside_batch_us_p50", "us", true, "p50_us", SOCKET),
    m("net.pairs_per_batch", "pairs", false, "p50_us", SOCKET),
    m("net.queue_depth_max", "count", true, "fail_frac", SOCKET),
    m("net.busy_frac", "ratio", true, "fail_frac", SOCKET),
    m("net.codec_ns_per_pair", "ns/pair", true, "p50_us", SOCKET),
    m("proc.cpu_us_per_pair", "us/pair", true, "pairs_per_s", ALL),
    m("proc.trace_overhead_frac", "ratio", false, "pairs_per_s", ALL),
];

/// The catalog entry for `name`.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
