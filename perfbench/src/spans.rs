//! Span bookkeeping for the traced run: self time over nested spans, and
//! the per-name table printed beside the Chrome trace.

use obs::trace::TraceEvent;
use std::collections::BTreeMap;

/// Total and self time of every span that shares one `cat/name`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of their durations, µs.
    pub total_us: u64,
    /// Sum of their durations minus the part their child spans cover, µs.
    pub self_us: u64,
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to it. A child is a span on the same
/// thread whose interval lies inside the parent's; spans on one thread
/// nest, so the innermost enclosing span is the parent.
pub fn self_times(events: &[TraceEvent]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    // Parents before children: by thread, then start, then longest first.
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.ts_us, std::cmp::Reverse(e.dur_us))
    });
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while let Some(&top) = stack.last() {
            let p = &events[top];
            if p.tid == e.tid && e.ts_us < p.ts_us + p.dur_us {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            children[parent].push(i);
        }
        stack.push(i);
    }
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let (lo, hi) = (e.ts_us, e.ts_us + e.dur_us);
            let mut covered = 0u64;
            let mut reach = lo;
            // Children arrive in start order; count each covered µs once.
            for &c in &children[i] {
                let (a, b) =
                    (events[c].ts_us.max(reach), (events[c].ts_us + events[c].dur_us).min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            e.dur_us - covered.min(e.dur_us)
        })
        .collect()
}

/// Per-`cat/name` totals, ordered by name.
pub fn totals(events: &[TraceEvent]) -> BTreeMap<String, SpanTotals> {
    let selfs = self_times(events);
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (e, s) in events.iter().zip(selfs) {
        let t = out.entry(format!("{}/{}", e.cat, e.name)).or_default();
        t.count += 1;
        t.total_us += e.dur_us;
        t.self_us += s;
    }
    out
}

/// Durations (µs) of every span named `cat/name`, in recording order.
pub fn durations(events: &[TraceEvent], cat: &str, name: &str) -> Vec<f64> {
    events.iter().filter(|e| e.cat == cat && e.name == name).map(|e| e.dur_us as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent { cat: "t", name, ts_us, dur_us, tid }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // outer [0,100) ⊃ mid [10,60) ⊃ inner [20,30); leaf [70,80).
        let events = vec![
            ev("inner", 0, 20, 10),
            ev("mid", 0, 10, 50),
            ev("leaf", 0, 70, 10),
            ev("outer", 0, 0, 100),
        ];
        assert_eq!(self_times(&events), vec![10, 40, 10, 40]);
        let t = totals(&events);
        assert_eq!(t["t/outer"], SpanTotals { count: 1, total_us: 100, self_us: 40 });
        assert_eq!(t["t/mid"].self_us, 40);
    }

    #[test]
    fn other_threads_and_overhanging_children_are_handled() {
        // A span on another thread overlapping in time is not a child; a
        // child that overhangs its parent by rounding is clipped to it.
        let events = vec![
            ev("parent", 0, 0, 50),
            ev("other-thread", 1, 10, 20),
            ev("child", 0, 40, 15),
            ev("sibling", 0, 60, 5),
        ];
        assert_eq!(self_times(&events), vec![40, 20, 15, 5]);
    }

    #[test]
    fn adjacent_children_sum_and_repeats_accumulate() {
        let events =
            vec![ev("parent", 0, 0, 30), ev("a", 0, 0, 10), ev("a", 0, 10, 10), ev("a", 0, 20, 10)];
        assert_eq!(self_times(&events), vec![0, 10, 10, 10]);
        assert_eq!(totals(&events)["t/a"], SpanTotals { count: 3, total_us: 30, self_us: 30 });
        assert_eq!(durations(&events, "t", "a"), vec![10.0, 10.0, 10.0]);
    }
}
