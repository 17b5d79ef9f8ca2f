//! Observability dashboard: run the full streaming pipeline on a generated
//! world while the `obs` registry records every subsystem, then print what an
//! operator would look at — the metrics snapshot as a text table, the derived
//! health indicators (executor utilization, cache hit rate, per-epoch
//! latency quantiles), the SLO health report, the last epoch's causal span
//! tree from the flight recorder, and the machine-readable JSON export. A Chrome trace of the whole run is written
//! to `target/obs_dashboard_trace.json` for Perfetto.
//!
//! ```text
//! cargo run --release --example obs_dashboard -- [epochs] [seed]
//! ```
//!
//! Built with `--features obs-noop` this prints an empty snapshot — the
//! record paths compiled to nothing — which is itself the demonstration that
//! the escape hatch works.

use washtrade::pipeline::AnalysisInput;
use washtrade_serve::{Query, QueryService, Response};
use washtrade_stream::{StreamAnalyzer, StreamOptions};
use workload::{WorkloadConfig, World};

/// Render one flight-recorder span and its children, indented by depth.
fn print_span_tree(
    records: &[obs::SpanRecord],
    children: &std::collections::HashMap<Option<obs::SpanId>, Vec<usize>>,
    index: usize,
    depth: usize,
) {
    let record = &records[index];
    let attrs: Vec<String> =
        record.attrs.iter().map(|(key, value)| format!("{key}={value}")).collect();
    println!(
        "  {:indent$}{} ({:.3} ms){}{}",
        "",
        record.name,
        record.duration_ns as f64 / 1e6,
        if attrs.is_empty() { "" } else { "  " },
        attrs.join(" "),
        indent = depth * 2,
    );
    for &child in children.get(&Some(record.span)).map_or(&[][..], Vec::as_slice) {
        print_span_tree(records, children, child, depth + 1);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    obs::flight::install_panic_hook();
    let mut args = std::env::args().skip(1);
    let epochs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let world = World::generate(WorkloadConfig::small(seed))?;
    let plan = world.epoch_plan(epochs);
    let input = AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    };

    // Stream the world end to end, with a reader issuing a small query mix
    // after every epoch so the serve-side metrics have traffic to report.
    let mut live = StreamAnalyzer::new(input, StreamOptions::default());
    let service = QueryService::new(live.publisher());
    for budget in plan.budgets() {
        if live.ingest_epoch(budget).is_none() {
            break;
        }
        service.query(&Query::Stats);
        service.query(&Query::Stats); // second hit comes from the cache
        service.query(&Query::TopMovers(5));
        service.query(&Query::Marketplaces);
    }

    // The operator's view: ask the serving layer itself for the metrics.
    let Response::Metrics(snapshot) = service.query(&Query::Metrics).response else {
        unreachable!("metrics query answers with metrics")
    };

    println!("== metrics snapshot (version {}) ==", snapshot.version);
    println!("{}", snapshot.render_text());

    if !obs::enabled() {
        println!("(obs-noop build: instrumentation compiled out, nothing to derive)");
        return Ok(());
    }

    println!("== derived health indicators ==");
    let busy = snapshot.histogram("executor.worker_ns").map_or(0, |workers| workers.sum);
    let span = snapshot.counter("executor.span_ns").unwrap_or(0);
    if span > 0 {
        println!(
            "executor utilization: {:.1}% over {} fan-outs ({} tasks)",
            busy as f64 / span as f64 * 100.0,
            snapshot.counter("executor.fanouts").unwrap_or(0),
            snapshot.counter("executor.tasks").unwrap_or(0),
        );
    } else {
        println!("executor utilization: n/a (no parallel fan-out ran)");
    }
    let stats = service.publisher().cache_stats();
    println!(
        "query cache: {} hits / {} misses / {} evictions ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate() * 100.0
    );
    if let Some(epoch_ns) = snapshot.histogram("stream.epoch_ns") {
        println!(
            "epoch latency: {} epochs, p50 ≤ {:.2} ms, p99 ≤ {:.2} ms, max {:.2} ms",
            epoch_ns.count,
            epoch_ns.quantile(0.50) as f64 / 1e6,
            epoch_ns.quantile(0.99) as f64 / 1e6,
            epoch_ns.max as f64 / 1e6,
        );
    }
    println!(
        "publisher: epoch {} published {} times, watermark block {}",
        snapshot.gauge("serve.publisher.epoch").unwrap_or(0),
        snapshot.counter("serve.publisher.publishes").unwrap_or(0),
        snapshot.gauge("stream.watermark").unwrap_or(0),
    );

    println!("\n== health report ==");
    let report = match service.query(&Query::Health).response {
        Response::Health(report) => report,
        other => unreachable!("health query answers with health, got {other:?}"),
    };
    print!("{}", report.render_text());
    println!(
        "verdict: {} after {} per-epoch evaluations",
        if report.healthy() { "HEALTHY" } else { "UNHEALTHY" },
        report.evaluations,
    );

    println!("\n== last epoch's span tree (flight recorder) ==");
    let records = obs::flight::dump();
    let mut children: std::collections::HashMap<Option<obs::SpanId>, Vec<usize>> =
        std::collections::HashMap::new();
    for (index, record) in records.iter().enumerate() {
        children.entry(record.parent).or_default().push(index);
    }
    let last_epoch = records
        .iter()
        .enumerate()
        .rev()
        .find(|(_, record)| record.name == "stream.epoch")
        .map(|(index, _)| index);
    match last_epoch {
        Some(root) => print_span_tree(&records, &children, root, 0),
        None => println!("  (no stream.epoch span retained)"),
    }

    let trace_path = std::path::Path::new("target").join("obs_dashboard_trace.json");
    std::fs::write(&trace_path, obs::trace::export_chrome_json())?;
    println!("\nChrome trace written to {} (open in Perfetto)", trace_path.display());

    println!("\n== JSON export (first 400 chars) ==");
    let json = snapshot.render_json();
    println!("{}…", &json[..json.len().min(400)]);
    Ok(())
}
