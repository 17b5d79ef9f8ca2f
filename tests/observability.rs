//! The repository-level observability gate: one streamed world, a handful of
//! queries, then `Query::Metrics` must come back with a deterministic,
//! name-sorted snapshot that covers every instrumented subsystem — ingest,
//! the parallel executor, the streaming scheduler, and the serve layer.
//!
//! Under `--features obs-noop` the same test asserts the opposite contract:
//! the snapshot is empty, because every record path compiled to nothing.

use nft_wash_study::ethsim::Timestamp;
use nft_wash_study::obs;
use nft_wash_study::washtrade::pipeline::AnalysisInput;
use nft_wash_study::washtrade_serve::{Query, QueryService, Response};
use nft_wash_study::washtrade_stream::{StreamAnalyzer, StreamOptions};
use nft_wash_study::workload::{WorkloadConfig, World};

fn config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        start: Timestamp::from_secs(1_609_459_200),
        duration_days: 90,
        collections: 5,
        non_compliant_collections: 1,
        erc1155_collections: 1,
        dex_position_nfts: 2,
        legit_traders: 14,
        legit_sales: 40,
        zero_volume_shuffles: 3,
        wash_activities: 12,
        serial_trader_fraction: 0.3,
        gas_price_gwei: 40,
    }
}

fn metrics_snapshot(service: &QueryService) -> obs::MetricsSnapshot {
    let served = service.query(&Query::Metrics);
    assert!(!served.cached, "Query::Metrics must never be served from the cache");
    match served.response {
        Response::Metrics(snapshot) => snapshot,
        other => panic!("Query::Metrics answered with {other:?}"),
    }
}

#[test]
fn query_metrics_covers_every_instrumented_subsystem() {
    let world = World::generate(config(7)).expect("world generation");
    let input = AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    };

    // Four worker threads so the executor's parallel fan-out (and its
    // metrics) run even on a single-core host; results are thread-count
    // independent either way.
    let mut analyzer = StreamAnalyzer::new(input, StreamOptions { threads: 4 });
    let service = QueryService::new(analyzer.publisher());
    let mut epochs: usize = 0;
    while analyzer.ingest_epoch(20).is_some() {
        epochs += 1;
    }
    assert!(epochs >= 2, "the world must slice into multiple epochs");

    // Exercise the serve path: a repeated query (cache hit), a ranking, and
    // a point lookup.
    service.query(&Query::Stats);
    service.query(&Query::Stats);
    service.query(&Query::TopMovers(5));

    let snapshot = metrics_snapshot(&service);

    if !obs::enabled() {
        assert_eq!(snapshot.metrics.len(), 0, "noop builds must snapshot nothing");
        assert!(obs::flight::dump().is_empty(), "noop builds must record no trace spans");
        assert_eq!(obs::flight::recorded_total(), 0);
        match service.query(&Query::Health).response {
            Response::Health(report) => {
                assert_eq!(report, obs::HealthReport::default(), "noop health must be empty")
            }
            other => panic!("Query::Health answered with {other:?}"),
        }
        return;
    }

    // Every subsystem is represented.
    for prefix in ["ingest.", "executor.", "stream.", "serve."] {
        assert!(
            snapshot.metrics.iter().any(|metric| metric.name.starts_with(prefix)),
            "no {prefix}* metric in the snapshot"
        );
    }

    // Ingest: one instrumented call per streamed epoch, with phase timings.
    assert!(snapshot.counter("ingest.calls").unwrap_or(0) >= epochs as u64);
    assert!(snapshot.counter("ingest.transfers").unwrap_or(0) > 0);
    let decode = snapshot.histogram("ingest.decode_ns").expect("decode histogram");
    assert!(decode.count >= epochs as u64);

    // Executor: the dirty-set fan-outs report tasks and, from each worker's
    // span on its own (since exited) thread, busy time.
    assert!(snapshot.counter("executor.fanouts").unwrap_or(0) > 0);
    assert!(snapshot.counter("executor.tasks").unwrap_or(0) > 0);
    assert!(snapshot.histogram("executor.worker_ns").map_or(0, |h| h.count) > 0);

    // Stream: one epoch record per ingested epoch, watermark past block 0.
    // Each phase span records exactly one sample per epoch, so a leftover
    // hand-timed record of the same interval would show as a double count.
    assert_eq!(snapshot.counter("stream.epochs"), Some(epochs as u64));
    for phase in ["stream.epoch_ns", "stream.reassemble_ns", "stream.refine_detect_ns"] {
        let samples = snapshot.histogram(phase).map_or(0, |h| h.count);
        assert_eq!(samples, epochs as u64, "{phase} holds one sample per epoch");
    }
    assert!(snapshot.gauge("stream.watermark").unwrap_or(0) > 0);

    // Serve: queries timed per variant, cache hit recorded. The variant
    // counts sum to the queries served. (The Metrics query itself records
    // its latency only *after* the snapshot it returns was taken, so it
    // isn't in its own answer.)
    let queries: u64 = snapshot
        .metrics
        .iter()
        .filter(|metric| metric.name.starts_with("serve.query.") && metric.name.ends_with("_ns"))
        .filter_map(|metric| snapshot.histogram(&metric.name))
        .map(|h| h.count)
        .sum();
    assert_eq!(queries, 3);
    assert!(snapshot.counter("serve.cache.hits").unwrap_or(0) >= 1);
    assert!(snapshot.histogram("serve.query.stats_ns").map_or(0, |h| h.count) >= 2);
    assert_eq!(snapshot.counter("serve.publisher.publishes"), Some(epochs as u64));

    // Publish provenance: the delta/full split, chunk-reuse ratio (basis
    // points, set on delta builds), one publish span per epoch, and the
    // retention ring's occupancy.
    assert_eq!(snapshot.gauge("serve.publish.delta"), Some(1), "steady state publishes deltas");
    assert!(snapshot.gauge("serve.publish.reuse_ratio").unwrap_or(-1) >= 0);
    assert_eq!(snapshot.histogram("serve.publish_ns").map_or(0, |h| h.count), epochs as u64);
    assert!(snapshot.gauge("serve.publisher.ring_occupancy").unwrap_or(0) >= 1);
    assert!(snapshot.gauge("serve.publisher.checkpoints").unwrap_or(-1) >= 0);

    // Stream watermark lag: once the stream has drained to the chain tip,
    // the last epoch's lag gauge reads zero.
    assert_eq!(snapshot.gauge("stream.watermark_lag"), Some(0));

    // The flight recorder retained the streamed run's span tree: epoch roots
    // with ingest phases and publishes parented somewhere beneath them.
    assert!(obs::flight::recorded_total() > 0);
    let flight = obs::flight::dump();
    let epoch_roots: Vec<_> =
        flight.iter().filter(|record| record.name == "stream.epoch").collect();
    assert!(!epoch_roots.is_empty(), "epoch root spans reach the flight ring");
    let attr = |record: &obs::SpanRecord, name: &str| {
        record.attrs.iter().find(|(key, _)| *key == name).map(|(_, value)| *value)
    };
    for root in &epoch_roots {
        assert_eq!(root.parent, None, "stream.epoch is a trace root");
        assert!(
            attr(root, "total_nfts").is_some_and(|nfts| nfts > 0),
            "epoch root carries its NFT total"
        );
    }
    // The retained roots are the latest epochs, consecutive and in order.
    let retained: Vec<u64> =
        epoch_roots.iter().map(|root| attr(root, "epoch").expect("epoch attr")).collect();
    let last = epochs as u64 - 1;
    let expected: Vec<u64> = (last + 1 - retained.len() as u64..=last).collect();
    assert_eq!(retained, expected, "retained epoch roots end at the last epoch");
    assert!(flight.iter().any(|record| record.name == "serve.publish"));

    // Query::Health: answered live (never cached) from the per-epoch SLO
    // evaluations; the standard catalog was installed lazily on the first
    // streamed epoch.
    let served = service.query(&Query::Health);
    assert!(!served.cached, "Query::Health must never be served from the cache");
    let report = match served.response {
        Response::Health(report) => report,
        other => panic!("Query::Health answered with {other:?}"),
    };
    assert_eq!(report.evaluations, epochs as u64, "one SLO evaluation per epoch");
    assert_eq!(report.verdicts.len(), 4, "the standard SLO catalog has four rules");
    for slo in ["epoch_latency", "watermark_lag", "cache_hit_rate", "chunk_reuse"] {
        assert!(report.verdicts.iter().any(|verdict| verdict.slo == slo), "missing SLO {slo}");
    }
    assert!(!service.query(&Query::Health).cached);

    // Determinism: metrics arrive sorted by name, and a second snapshot is a
    // newer version with the same ordering contract.
    let names: Vec<&str> = snapshot.metrics.iter().map(|metric| metric.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "snapshot metrics must be name-sorted");

    let second = metrics_snapshot(&service);
    assert!(second.version > snapshot.version, "snapshot versions must increase");
    let second_names: Vec<&str> =
        second.metrics.iter().map(|metric| metric.name.as_str()).collect();
    let mut second_sorted = second_names.clone();
    second_sorted.sort_unstable();
    assert_eq!(second_names, second_sorted);

    // Both renderers accept the full real-world snapshot.
    let text = snapshot.render_text();
    let json = snapshot.render_json();
    assert!(text.contains("stream.epochs"));
    assert!(json.contains("\"serve.query.stats_ns\""));
}
