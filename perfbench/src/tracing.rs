//! Traced-run helpers: spans around layer calls, the Chrome trace export,
//! self times, and the cost of the health check itself.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use crate::{stats, Run};

/// Run `f` inside an `obs` trace span named `name` and time it. With
/// recording off the span is inert, so the same call serves both runs.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
    let span = obs::trace::span_dynamic(name);
    let started = Instant::now();
    let value = f();
    let elapsed = started.elapsed();
    span.finish();
    (value, elapsed)
}

/// Run `f` with `obs` recording switched on, restoring it to off afterwards.
pub fn recorded<T>(f: impl FnOnce() -> T) -> T {
    obs::set_recording(true);
    let value = f();
    obs::set_recording(false);
    value
}

/// How much slower a latency is traced than untraced, in percent.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Record `obs.health_eval_ms`: the median cost of one health evaluation
/// over a fresh metrics snapshot — what every recorded stream epoch pays.
pub fn measure_health_eval(run: &mut Run) {
    const CALLS: usize = 64;
    let costs: Vec<f64> = recorded(|| {
        (0..CALLS)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(obs::health::evaluate(&obs::snapshot()));
                stats::millis(started.elapsed())
            })
            .collect()
    });
    run.set("obs.health_eval_ms", stats::median(&costs), CALLS as u64);
}

/// Write the flight ring as a Chrome trace under `perfbench/out/` and note
/// each span name's total and self time (its duration minus the part its
/// children cover).
pub fn export(run: &mut Run) {
    let records = obs::flight::dump();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path =
        dir.join(format!("trace-{}-seed{}.json", run.config.workload.name(), run.config.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, obs::trace::export_chrome_json()));
    match written {
        Ok(()) => {
            run.notes.push(format!("chrome trace: {} ({} spans)", path.display(), records.len()))
        }
        Err(error) => {
            run.notes.push(format!("chrome trace not written to {}: {error}", path.display()))
        }
    }

    // Children run in parallel on executor workers, so a span's covered
    // time is the union of its children's intervals, not their sum.
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for record in &records {
        if let Some(parent) = record.parent {
            let end = record.start_ns + record.duration_ns;
            children.entry(parent.0).or_default().push((record.start_ns, end));
        }
    }
    // name -> (spans, total ns, self ns)
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for record in &records {
        let (start, end) = (record.start_ns, record.start_ns + record.duration_ns);
        let mut intervals = children.remove(&record.span.0).unwrap_or_default();
        intervals.sort_unstable();
        let (mut covered, mut reached) = (0, start);
        for (child_start, child_end) in intervals {
            let (from, to) = (child_start.max(reached), child_end.min(end));
            if to > from {
                covered += to - from;
                reached = to;
            }
        }
        let entry = by_name.entry(record.name.as_str()).or_default();
        entry.0 += 1;
        entry.1 += record.duration_ns;
        entry.2 += record.duration_ns - covered;
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|(_, (_, total, _))| std::cmp::Reverse(*total));
    run.notes.push(format!("{:<34} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms"));
    for (name, (count, total, own)) in rows {
        run.notes.push(format!(
            "{:<34} {:>7} {:>12.3} {:>12.3}",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
}
