//! Dependency-free observability for the terrain-oracle workspace.
//!
//! Three small, independent facilities:
//!
//! - [`metrics`] — a registry of named counters, gauges, and log-bucket
//!   histograms. Hot-path updates are single relaxed atomic operations;
//!   registration (the only locking path) happens once per handle.
//!   Snapshots are deterministic `BTreeMap`s and render to a text
//!   exposition format served over the wire by `oracled`.
//! - [`trace`] — scoped spans exported as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto). Disabled by default; the disabled
//!   fast path is one relaxed atomic load per span site.
//! - [`log`] — level-filtered structured `key=value` stderr logging.
//!
//! # Determinism contract
//!
//! The workspace's oracle images must be byte-identical regardless of
//! whether telemetry is enabled. This crate therefore never feeds clock
//! or environment values back to its callers' data paths: metric values
//! flow *in* from instrumented code, and the only wall-clock reads live
//! in [`trace`] (annotated for the d2 lint rule), where they decorate
//! trace events and time build phases ([`trace::timed`]) — never oracle
//! data. Files tagged `// lint: query-path`
//! may only use the atomic handle types ([`Counter`], [`Gauge`],
//! [`Histogram`]); the registry's interior locking stays on the
//! registration path, outside any query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{
    global, lookup, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry,
};
