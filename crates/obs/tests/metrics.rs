//! Integration tests for the metrics registry: bucket boundaries, concurrent
//! recording, snapshot determinism, and spans.
//!
//! The registry is process-global and the test harness runs these in parallel
//! threads, so every test uses metric names unique to it and asserts on
//! deltas (or on metrics only it writes). The whole file also runs under the
//! `noop` feature (CI tests the workspace both ways); in that mode recording
//! is compiled out and every snapshot is empty, so assertions branch on
//! `obs::enabled()`.

use proptest::proptest;

#[test]
fn counter_accumulates_across_increments() {
    let counter = obs::counter("test.metrics.counter_accumulates");
    let before = obs::snapshot().counter("test.metrics.counter_accumulates").unwrap_or(0);
    counter.add(5);
    counter.incr();
    let after = obs::snapshot().counter("test.metrics.counter_accumulates").unwrap_or(0);
    if obs::enabled() {
        assert_eq!(after - before, 6);
    } else {
        assert!(obs::snapshot().metrics.is_empty());
    }
}

#[test]
fn gauge_is_last_write_wins() {
    let gauge = obs::gauge("test.metrics.gauge");
    gauge.set(41);
    gauge.add(2);
    gauge.add(-1);
    let value = obs::snapshot().gauge("test.metrics.gauge");
    if obs::enabled() {
        assert_eq!(value, Some(42));
        gauge.set(-7);
        assert_eq!(obs::snapshot().gauge("test.metrics.gauge"), Some(-7));
    } else {
        assert_eq!(value, None);
    }
}

/// Values landing exactly on bucket edges land in the documented buckets:
/// bucket 0 holds zeros, bucket `b` holds `[2^(b-1), 2^b - 1]`.
#[test]
fn histogram_bucket_boundaries_are_exact() {
    let hist = obs::histogram("test.metrics.bucket_boundaries");
    for value in [0u64, 1, 2, 3, 4, 7, 8] {
        hist.record(value);
    }
    let snap = obs::snapshot();
    if !obs::enabled() {
        assert!(snap.metrics.is_empty());
        return;
    }
    let summary = snap.histogram("test.metrics.bucket_boundaries").expect("histogram registered");
    assert_eq!(summary.count, 7);
    assert_eq!(summary.sum, 25);
    assert_eq!(summary.max, 8);
    // (inclusive upper bound, count): 0 | [1,1] | [2,3] | [4,7] | [8,15]
    assert_eq!(summary.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 2), (15, 1)]);
}

/// Everything at or above 2^42 saturates into the single top bucket, whose
/// reported bound is `u64::MAX`; quantiles clamp to the observed max.
#[test]
fn histogram_top_bucket_saturates() {
    let hist = obs::histogram("test.metrics.top_bucket");
    hist.record(1u64 << 42);
    hist.record(1u64 << 50);
    hist.record(1u64 << 63);
    let snap = obs::snapshot();
    if !obs::enabled() {
        assert!(snap.metrics.is_empty());
        return;
    }
    let summary = snap.histogram("test.metrics.top_bucket").expect("histogram registered");
    assert_eq!(summary.count, 3);
    assert_eq!(summary.buckets, vec![(u64::MAX, 3)]);
    assert_eq!(summary.max, 1u64 << 63);
    assert_eq!(summary.sum, (1u64 << 42) + (1u64 << 50) + (1u64 << 63));
    // The top bucket's nominal bound is u64::MAX, but quantiles never report
    // beyond the observed maximum.
    assert_eq!(summary.quantile(0.5), 1u64 << 63);
    assert_eq!(summary.quantile(1.0), 1u64 << 63);
}

// N threads × M increments each ⇒ the counter total is exactly N·M and the
// histogram absorbed exactly N·M samples — nothing lost to shard merging or
// thread retirement (worker threads exit inside the case, so their shards go
// through the retire path every time).
proptest! {
    #[test]
    fn concurrent_recording_is_exact((threads, per_thread) in (2usize..6, 1u64..300)) {
        let counter_name = "test.metrics.concurrent_counter";
        let hist_name = "test.metrics.concurrent_hist";
        let before = obs::snapshot();
        let counter_before = before.counter(counter_name).unwrap_or(0);
        let (hist_count_before, hist_sum_before) = before
            .histogram(hist_name)
            .map(|h| (h.count, h.sum))
            .unwrap_or((0, 0));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let counter = obs::counter(counter_name);
                    let hist = obs::histogram(hist_name);
                    for _ in 0..per_thread {
                        counter.incr();
                        hist.record(3);
                    }
                });
            }
        });
        let after = obs::snapshot();
        if obs::enabled() {
            let expected = threads as u64 * per_thread;
            assert_eq!(after.counter(counter_name).unwrap_or(0) - counter_before, expected);
            let summary = after.histogram(hist_name).expect("histogram registered");
            assert_eq!(summary.count - hist_count_before, expected);
            assert_eq!(summary.sum - hist_sum_before, 3 * expected);
        } else {
            assert!(after.metrics.is_empty());
        }
    }
}

/// Two snapshots over unchanged state agree metric-for-metric, and snapshots
/// are always name-sorted with increasing versions.
#[test]
fn snapshots_are_deterministic_and_ordered() {
    // Register deliberately out of name order.
    obs::counter("test.determinism.zz").add(3);
    obs::counter("test.determinism.aa").add(1);
    obs::histogram("test.determinism.mm").record(9);
    obs::gauge("test.determinism.gg").set(-4);
    let first = obs::snapshot();
    let second = obs::snapshot();
    if !obs::enabled() {
        assert_eq!(first.metrics, second.metrics);
        assert!(first.metrics.is_empty());
        return;
    }
    assert!(second.version > first.version, "versions must increase");
    for snap in [&first, &second] {
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot must be name-sorted");
    }
    // Other tests run concurrently and may touch their own metrics between
    // the two snapshots; this test's metrics are only written above, so they
    // must be bit-identical across the two runs.
    let ours = |snap: &obs::MetricsSnapshot| -> Vec<obs::Metric> {
        snap.metrics.iter().filter(|m| m.name.starts_with("test.determinism.")).cloned().collect()
    };
    assert_eq!(ours(&first), ours(&second));
    assert_eq!(ours(&first).len(), 4);
}

#[test]
fn span_guard_records_on_drop() {
    {
        let _span = obs::trace::span_dynamic(&format!("test.metrics.{}", "span"));
        std::hint::black_box(0u64);
    }
    let snap = obs::snapshot();
    if obs::enabled() {
        let summary = snap.histogram("test.metrics.span_ns").expect("span histogram");
        assert_eq!(summary.count, 1);
    } else {
        assert!(snap.metrics.is_empty());
    }
}

#[test]
fn macros_compile_and_record() {
    obs::counter!("test.metrics.macro_counter");
    obs::counter!("test.metrics.macro_counter", 4);
    obs::gauge!("test.metrics.macro_gauge", 17);
    obs::histogram!("test.metrics.macro_hist", 100);
    {
        let _span = obs::trace::span("test.metrics.macro_span");
    }
    let snap = obs::snapshot();
    if obs::enabled() {
        assert_eq!(snap.counter("test.metrics.macro_counter"), Some(5));
        assert_eq!(snap.gauge("test.metrics.macro_gauge"), Some(17));
        assert_eq!(snap.histogram("test.metrics.macro_hist").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("test.metrics.macro_span_ns").map(|h| h.count), Some(1));
    } else {
        assert!(snap.metrics.is_empty());
    }
}

#[test]
fn renderers_cover_every_metric_kind() {
    obs::counter("test.render.counter").add(2);
    obs::gauge("test.render.gauge").set(5);
    obs::histogram("test.render.hist_ns").record(1_500_000);
    let snap = obs::snapshot();
    let text = snap.render_text();
    let json = snap.render_json();
    if !obs::enabled() {
        assert!(json.starts_with("{\"version\":0,\"metrics\":["));
        return;
    }
    for name in ["test.render.counter", "test.render.gauge", "test.render.hist_ns"] {
        assert!(text.contains(name), "text render missing {name}");
        assert!(json.contains(&format!("\"name\":\"{name}\"")), "json render missing {name}");
    }
    // The `_ns` suffix switches the text renderer to duration formatting.
    assert!(text.contains("1.50ms"), "histogram mean should render as a duration:\n{text}");
    assert!(json.contains("\"kind\":\"histogram\",\"count\":1,\"sum\":1500000"));
}
