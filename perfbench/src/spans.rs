//! Self time per span name over a drained trace log.
//!
//! A span's self time is its duration minus the part of its interval
//! that its direct child spans cover. Spans from the worker threads of
//! one solve all land on track 0, so nesting is recovered from time
//! containment: a span's parent is the innermost earlier span whose
//! interval contains it. A span that only partly overlaps the
//! innermost open span (a sibling on another thread) is attributed to
//! the nearest open span that does contain it.

use fragalign::core::obs::{EventKind, TraceEvent};
use std::collections::BTreeMap;

struct Open {
    name: &'static str,
    start: u64,
    end: u64,
    /// Length of the union of the direct children seen so far.
    covered: u64,
    /// Right end of that union (children arrive in start order).
    cover_end: u64,
}

/// Σ self time in nanoseconds per span name.
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut spans: Vec<(u64, u64, &'static str)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| (e.t0_ns, e.t0_ns + e.dur_ns, e.name))
        .collect();
    // Parents before children: by start, longer first on ties.
    spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut out = BTreeMap::new();
    let mut stack: Vec<Open> = Vec::new();
    let close = |open: Open, out: &mut BTreeMap<&'static str, u64>| {
        *out.entry(open.name).or_insert(0) += (open.end - open.start) - open.covered;
    };
    for (start, end, name) in spans {
        while let Some(top) = stack.last() {
            if top.start <= start && end <= top.end {
                break;
            }
            let top = stack.pop().expect("non-empty");
            close(top, &mut out);
        }
        if let Some(parent) = stack.last_mut() {
            let from = start.max(parent.cover_end);
            if end > from {
                parent.covered += end - from;
            }
            parent.cover_end = parent.cover_end.max(end);
        }
        stack.push(Open {
            name,
            start,
            end,
            covered: 0,
            cover_end: start,
        });
    }
    while let Some(top) = stack.pop() {
        close(top, &mut out);
    }
    out
}
