//! Scoped-span tracing with a Chrome trace-event JSON exporter.
//!
//! Tracing is off by default. While off, [`span`] costs one relaxed
//! atomic load and allocates nothing, so instrumentation can stay in
//! library code permanently. While on, each dropped span appends one
//! complete (`"ph":"X"`) event to a process-wide sink; [`take_events`]
//! drains the sink and [`export_chrome_json`] renders it for
//! `chrome://tracing` / Perfetto (`terrain-oracle build --trace`).
//!
//! This is the only module in the workspace's library code that reads a
//! wall clock for construction. The readings decorate trace events, and
//! [`timed`] spans also hand their elapsed time back for build
//! statistics; none reaches oracle data, so enabling tracing cannot
//! perturb construction — `tests/telemetry.rs` proves images built with
//! tracing on and off are byte-identical.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
// lint: allow(d2, "trace timestamps only: spans stamp wall time onto trace events; readings never reach oracle data (bit-identity pinned by tests/telemetry.rs)")
use std::time::Instant;

/// One completed span, in Chrome trace-event terms.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Category (`"build"`, `"ssad"`, `"serve"`, …).
    pub cat: &'static str,
    /// Span name (`"tree"`, `"enhanced-edges"`, …).
    pub name: &'static str,
    /// Start, µs since the sink was enabled.
    pub ts_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Stable per-thread id (assigned in first-span order, not an OS id).
    pub tid: u64,
}

struct Sink {
    // lint: allow(d2, "epoch for relative trace timestamps; compared only against other trace readings")
    epoch: Instant,
    events: Vec<TraceEvent>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Sink>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn sink() -> std::sync::MutexGuard<'static, Option<Sink>> {
    // The sink is append-only trace decoration; a panicking holder
    // cannot corrupt it, so poisoning is ignored.
    match SINK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Starts collecting spans into a fresh sink (discarding any events an
/// earlier enable left behind).
pub fn enable() {
    let mut guard = sink();
    // lint: allow(d2, "trace epoch capture; the reading only anchors trace-event timestamps")
    *guard = Some(Sink { epoch: Instant::now(), events: Vec::new() });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops collecting. Already-recorded events stay in the sink.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stops collecting and drains every recorded event.
pub fn take_events() -> Vec<TraceEvent> {
    ENABLED.store(false, Ordering::SeqCst);
    sink().take().map(|s| s.events).unwrap_or_default()
}

struct Started {
    cat: &'static str,
    name: &'static str,
    // lint: allow(d2, "span start time; used only to stamp the trace event and the elapsed time timed spans report")
    start: Instant,
}

impl Started {
    fn now(cat: &'static str, name: &'static str) -> Self {
        // lint: allow(d2, "span start stamp for trace events and build-phase durations; never fed into oracle data")
        Started { cat, name, start: Instant::now() }
    }
}

/// RAII guard returned by [`span`] and [`timed`]; records the event when
/// dropped or [finished](Span::finish).
pub struct Span {
    started: Option<Started>,
    /// Whether the event goes to the sink (tracing was on at open).
    traced: bool,
}

/// Opens a scoped span. A no-op (one atomic load, no allocation) unless
/// tracing is enabled.
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !is_enabled() {
        return Span { started: None, traced: false };
    }
    Span { started: Some(Started::now(cat, name)), traced: true }
}

/// Opens a span that measures itself whether or not tracing is on:
/// [`Span::finish`] returns its elapsed time, and the trace event (when
/// tracing is enabled) carries the same duration. This is how build
/// statistics time their phases — one clock for traces and stats alike.
pub fn timed(cat: &'static str, name: &'static str) -> Span {
    Span { started: Some(Started::now(cat, name)), traced: is_enabled() }
}

impl Span {
    /// Closes the span and returns its elapsed time ([`Duration::ZERO`]
    /// for a [`span`] opened while tracing was off).
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(s) = self.started.take() else { return Duration::ZERO };
        let dur = s.start.elapsed();
        if !self.traced {
            return dur;
        }
        let mut guard = sink();
        let Some(sink) = guard.as_mut() else { return dur };
        // `duration_since` saturates to zero, so a span that raced an
        // `enable` (fresh epoch) records ts 0 rather than panicking.
        let ts_us = s.start.duration_since(sink.epoch).as_micros() as u64;
        sink.events.push(TraceEvent {
            cat: s.cat,
            name: s.name,
            ts_us,
            dur_us: dur.as_micros() as u64,
            tid: TID.with(|t| *t),
        });
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Renders events as Chrome trace-event JSON (`{"traceEvents":[…]}`).
///
/// Span names and categories are static workspace-chosen strings and
/// must not contain `"` or `\`.
pub fn export_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            e.name, e.cat, e.ts_us, e.dur_us, e.tid
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global sink is process-wide state, so everything that toggles
    // it lives in this single test (integration-level coverage is in
    // tests/telemetry.rs, a separate process).
    #[test]
    fn spans_record_only_while_enabled() {
        drop(span("t", "ignored-while-disabled"));
        // A timed span measures itself with tracing off, recording nothing.
        let t = timed("t", "timed-while-disabled");
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.finish() >= Duration::from_millis(2));
        assert_eq!(span("t", "untimed").finish(), Duration::ZERO);
        assert!(take_events().is_empty());

        enable();
        assert!(is_enabled());
        {
            let _outer = span("t", "outer");
            drop(span("t", "inner"));
        }
        let elapsed = timed("t", "timed").finish();
        disable();
        drop(span("t", "ignored-after-disable"));
        let events = take_events();
        assert_eq!(events.len(), 3);
        // The trace event carries the duration the timed span reported.
        assert_eq!(events[2].name, "timed");
        assert_eq!(events[2].dur_us, elapsed.as_micros() as u64);
        // Inner drops first; both carry this thread's tid.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[0].tid, events[1].tid);
        assert!(events[1].dur_us >= events[0].dur_us);

        let json = export_chrome_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"ph\":\"X\""));
        // A second take finds the sink empty.
        assert!(take_events().is_empty());
    }

    #[test]
    fn empty_export_is_valid_json() {
        assert_eq!(export_chrome_json(&[]), "{\"traceEvents\":[]}");
    }
}
