//! The one timing guard: a `obs::trace::span` writes exactly one flight
//! record and exactly one `<name>_ns` histogram sample, both from the reading
//! `finish` returns. Kept in its own integration-test binary — and therefore
//! its own process — because the recording-off half flips the process-global
//! `set_recording` switch.

use std::time::Duration;

const OPEN_FOR: Duration = Duration::from_millis(1);

fn flight_records(name: &str) -> Vec<obs::SpanRecord> {
    obs::flight::dump().into_iter().filter(|record| record.name == name).collect()
}

#[test]
fn one_span_feeds_the_flight_ring_and_its_histogram_from_one_reading() {
    // Recording on: one record, one sample, one reading.
    let mut span = obs::trace::span("guard.recorded");
    span.attr("items", 7);
    std::thread::sleep(OPEN_FOR);
    let open_for = span.elapsed();
    assert!(open_for >= OPEN_FOR, "elapsed() reads the open guard");
    let elapsed = span.finish();
    assert!(elapsed >= open_for);
    let records = flight_records("guard.recorded");
    let snap = obs::snapshot();
    if obs::enabled() {
        assert_eq!(records.len(), 1, "exactly one flight record");
        let record = &records[0];
        assert_eq!(record.duration_ns, elapsed.as_nanos() as u64);
        assert_eq!(record.attrs, vec![("items", 7)]);
        let summary = snap.histogram("guard.recorded_ns").expect("span histogram");
        assert_eq!(summary.count, 1, "exactly one histogram sample");
        assert_eq!(summary.sum, record.duration_ns, "the sample is the record's duration");
    } else {
        assert!(records.is_empty(), "noop builds record no span");
        assert!(snap.metrics.is_empty(), "noop builds record no sample");
        assert_eq!(obs::flight::recorded_total(), 0);
    }

    // A dropped (unfinished) dynamic span records the same pair.
    {
        let _span = obs::trace::span_dynamic(&format!("guard.{}", "dropped"));
    }
    let records = flight_records("guard.dropped");
    let samples = obs::snapshot().histogram("guard.dropped_ns").map(|h| (h.count, h.sum));
    if obs::enabled() {
        assert_eq!(records.len(), 1);
        assert_eq!(samples, Some((1, records[0].duration_ns)));
    } else {
        assert!(records.is_empty());
        assert_eq!(samples, None);
    }

    // Recording off: nothing is recorded, but the guard still times.
    obs::set_recording(false);
    let recorded_before = obs::flight::recorded_total();
    let span = obs::trace::span("guard.off");
    std::thread::sleep(OPEN_FOR);
    let elapsed = span.finish();
    obs::set_recording(true);
    assert!(elapsed >= OPEN_FOR, "finish() returns the elapsed time while off");
    assert_eq!(obs::flight::recorded_total(), recorded_before);
    assert!(flight_records("guard.off").is_empty());
    assert!(obs::snapshot().get("guard.off_ns").is_none(), "no histogram registered while off");
}
