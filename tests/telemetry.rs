//! Telemetry integration suite: the observability layer's two hard
//! promises, proven end to end.
//!
//! 1. **Bit-identity** — enabling span tracing must not change a single
//!    byte of a built oracle image. Tracing reads wall clocks (the only
//!    library code allowed to), so this test is what licenses those
//!    readings: they decorate trace events and never reach oracle data.
//! 2. **Snapshot determinism** — two registries fed the same updates
//!    produce identical snapshots and identical text expositions,
//!    regardless of registration order. That is what makes registry
//!    output diffable across runs and machines.

mod common;

use common::build_p2p;
use std::collections::BTreeSet;
use terrain_oracle::oracle::telemetry::{trace, Registry};
use terrain_oracle::prelude::EngineKind;

/// The trace sink is process-wide state, so everything that toggles it
/// lives in this single test.
#[test]
fn tracing_on_or_off_builds_byte_identical_oracles() {
    assert!(!trace::is_enabled(), "trace sink must start disabled");
    let quiet =
        build_p2p(47, 18, 0.25, EngineKind::EdgeGraph).into_oracle().save_bytes_compact(false);

    trace::enable();
    let traced =
        build_p2p(47, 18, 0.25, EngineKind::EdgeGraph).into_oracle().save_bytes_compact(false);
    let events = trace::take_events();
    assert!(!trace::is_enabled());

    assert_eq!(quiet, traced, "tracing changed the oracle image bytes");

    // The build pipeline's phase spans were all recorded...
    let names: BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    for phase in ["build", "tree", "enhanced-edges", "pair-gen"] {
        assert!(names.contains(phase), "missing build-phase span '{phase}' in {names:?}");
    }
    // ...and export to the Chrome trace-event shape `--trace` writes.
    let json = trace::export_chrome_json(&events);
    assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"));
    assert!(json.contains("\"name\":\"tree\""));
    assert!(json.contains("\"cat\":\"build\""));
    assert!(json.contains("\"ph\":\"X\""));
}

#[test]
fn registry_snapshots_are_deterministic_across_instances() {
    let feed = |reg: &Registry| {
        reg.counter("alpha_total").add(3);
        reg.gauge("depth").set(7);
        let h = reg.histogram("lat_us");
        for v in [1u64, 5, 5, 900, 70_000] {
            h.observe(v);
        }
    };
    let a = Registry::new();
    let b = Registry::new();
    feed(&a);
    feed(&b);
    assert_eq!(a.snapshot(), b.snapshot());
    assert_eq!(a.expose(), b.expose());

    // Registration order does not leak into the output: snapshots are
    // keyed by name, not by insertion history.
    let c = Registry::new();
    let h = c.histogram("lat_us");
    for v in [1u64, 5, 5, 900, 70_000] {
        h.observe(v);
    }
    c.gauge("depth").set(7);
    c.counter("alpha_total").add(3);
    assert_eq!(c.snapshot(), a.snapshot());
    assert_eq!(c.expose(), a.expose());
}
