//! A caught registration panic must leave the metrics registry usable.
//! Kept in its own integration-test binary — and therefore its own process —
//! because the registry is process-global and this test deliberately trips a
//! kind clash on it.

#[test]
fn a_caught_kind_clash_does_not_poison_the_registry() {
    obs::counter("poison.clash").add(1);
    let clash = std::panic::catch_unwind(|| obs::histogram("poison.clash"));
    // Noop builds register nothing, so there is nothing to clash with.
    assert_eq!(clash.is_err(), obs::enabled(), "a kind clash panics in recording builds");

    // Every later registry call still works: a snapshot, a new metric, and
    // a thread that records a metric and retires its shard at exit.
    let snap = obs::snapshot();
    obs::histogram("poison.after").record(5);
    std::thread::spawn(|| obs::counter("poison.thread").add(2))
        .join()
        .expect("a recording thread exits cleanly");
    let after = obs::snapshot();
    if obs::enabled() {
        assert_eq!(snap.counter("poison.clash"), Some(1));
        assert_eq!(after.counter("poison.clash"), Some(1));
        assert_eq!(after.histogram("poison.after").map(|h| h.count), Some(1));
        assert_eq!(after.counter("poison.thread"), Some(2));
    } else {
        assert!(after.metrics.is_empty());
    }
}
