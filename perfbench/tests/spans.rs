use fragalign::core::obs::{EventKind, TraceEvent};
use fragalign_perfbench::spans::self_times;

fn span(t0: u64, dur: u64, name: &'static str) -> TraceEvent {
    TraceEvent {
        t0_ns: t0,
        dur_ns: dur,
        name,
        label: "",
        track: 0,
        kind: EventKind::Span,
        a0: 0,
        a1: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    // solve [0,100) holds round [10,60) and round [70,90); the first
    // round holds two overlapping fills [20,40) and [30,50) (two
    // threads), whose union is 30.
    let events = [
        span(0, 100, "solve"),
        span(10, 50, "round"),
        span(20, 20, "fill"),
        span(30, 20, "fill"),
        span(70, 20, "round"),
    ];
    let t = self_times(&events);
    assert_eq!(t["solve"], 100 - 50 - 20);
    assert_eq!(t["round"], (50 - 30) + 20);
    assert_eq!(t["fill"], 40);
}

#[test]
fn instants_and_disjoint_spans() {
    let mut instant = span(5, 0, "mark");
    instant.kind = EventKind::Instant;
    let t = self_times(&[span(0, 10, "a"), instant, span(20, 5, "a")]);
    assert_eq!(t["a"], 15);
    assert!(!t.contains_key("mark"));
}
