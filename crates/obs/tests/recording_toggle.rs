//! The runtime recording switch. Kept in its own integration-test binary —
//! and therefore its own process — because `set_recording` is process-global
//! and flipping it would race with the other test binaries' recordings.

#[test]
fn set_recording_false_suppresses_all_record_paths() {
    let counter = obs::counter("toggle.counter");
    let hist = obs::histogram("toggle.hist");
    let gauge = obs::gauge("toggle.gauge");
    counter.add(2);
    hist.record(10);
    gauge.set(1);

    obs::set_recording(false);
    assert!(!obs::recording());
    counter.add(100);
    hist.record(100);
    gauge.set(100);
    // Spans constructed while off are inert: no ids, no stack entry, no
    // histogram, no flight record.
    let flight_before = obs::flight::recorded_total();
    {
        let mut trace_span = obs::trace::span("toggle.trace");
        trace_span.attr("ignored", 1);
        assert!(trace_span.context().is_none());
        assert!(obs::trace::current().is_none());
        let _adopted = obs::trace::adopt(trace_span.context());
    }
    assert_eq!(obs::flight::recorded_total(), flight_before);
    // Health evaluation while off is the empty report and mutates nothing.
    assert_eq!(obs::health::evaluate(&obs::snapshot()), obs::HealthReport::default());
    assert!(obs::health::report().verdicts.is_empty());
    obs::set_recording(true);

    counter.add(1);
    let snap = obs::snapshot();
    if obs::enabled() {
        assert_eq!(snap.counter("toggle.counter"), Some(3));
        let summary = snap.histogram("toggle.hist").expect("registered before toggle");
        assert_eq!((summary.count, summary.sum, summary.max), (1, 10, 10));
        assert_eq!(snap.gauge("toggle.gauge"), Some(1));
        assert!(snap.get("toggle.trace_ns").is_none(), "a span opened while off registers nothing");
    } else {
        assert!(snap.metrics.is_empty());
        assert!(!obs::recording(), "noop builds never record");
    }
}
