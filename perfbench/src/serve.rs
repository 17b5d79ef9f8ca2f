//! `serve-mixed`: reads beside writes on two threads. A writer
//! `StreamAnalyzer` (one thread) streams the world from genesis into a
//! fresh `SnapshotPublisher` in uniform 1/[`EPOCHS_PER_ROUND`]-chain epochs;
//! one closed-loop reader queries a `QueryService` on the same publisher
//! until the writer reaches the tip. The read mix (see [`crate::mix`]) is
//! Zipf-skewed over thousands of keys, so publish invalidation keeps the
//! cache from answering everything and the snapshot indexes do real work.
//!
//! This module also holds the read probe the other workloads finish with:
//! the same reader against their final snapshot, with no writer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ethsim::BlockNumber;
use washtrade::pipeline::{analyze_with, AnalysisOptions, AnalysisReport};
use washtrade_serve::{
    Query, QueryService, Served, Snapshot, SnapshotBuildStats, SnapshotMeta, SnapshotPublisher,
};
use washtrade_stream::{StreamAnalyzer, StreamOptions};
use workload::World;

use crate::mix::query_mix;
use crate::stats::{self, millis, nanos, LatencyHistogram};
use crate::tracing::{self, recorded, timed};
use crate::{
    chain_blocks, generate_world, input_of, live_matches_batch, set_write_metrics, Run, WriteWindow,
};

/// Writer epochs per round: each covers 1/256 of the chain.
const EPOCHS_PER_ROUND: u64 = 256;

/// Queries in the pre-drawn mix the reader cycles through.
const MIX_LEN: usize = 1 << 16;

/// One in this many served responses is kept and checked afterwards.
const SAMPLE_EVERY: usize = 509;

/// At most this many checked responses per reader pass.
const MAX_SAMPLES: usize = 4096;

/// A read-probe window lasts this share of the write stretch before it, so
/// reads stay a fixed share of the run however fast the host runs.
const PROBE_SHARE: f64 = 0.25;

/// What one reader pass measured.
#[derive(Default)]
pub struct ReadStats {
    latency: LatencyHistogram,
    hits: LatencyHistogram,
    misses: LatencyHistogram,
    /// Epochs between the latest published snapshot and the one that
    /// answered, per query (traced passes only).
    lag: LatencyHistogram,
    queries: u64,
    elapsed: Duration,
    /// `(position in the mix, response)` for the checked sample.
    samples: Vec<(usize, Served)>,
}

impl ReadStats {
    fn merge(&mut self, other: &ReadStats) {
        self.latency.merge(&other.latency);
        self.hits.merge(&other.hits);
        self.misses.merge(&other.misses);
        self.lag.merge(&other.lag);
        self.queries += other.queries;
        self.elapsed += other.elapsed;
    }

    fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Closed-loop reads over `mix` until `stop` says so after a query. With
/// `traced`, also records each response's epoch lag and wraps a sample of
/// queries in trace spans.
fn read_until(
    service: &QueryService,
    mix: &[Query],
    traced: bool,
    stop: impl Fn(Instant) -> bool,
) -> ReadStats {
    let mut stats = ReadStats::default();
    let started = Instant::now();
    for index in 0.. {
        let position = index % mix.len();
        let sampled = index % SAMPLE_EVERY == 0;
        let span = (traced && sampled).then(|| obs::trace::span("bench.serve.query"));
        let issued = Instant::now();
        let served = service.query(&mix[position]);
        let answered = Instant::now();
        drop(span);
        let ns = nanos(answered - issued);
        stats.latency.record(ns);
        if served.cached {
            stats.hits.record(ns);
        } else {
            stats.misses.record(ns);
        }
        if traced {
            stats.lag.record(service.publisher().current_epoch().saturating_sub(served.epoch));
        }
        if sampled && stats.samples.len() < MAX_SAMPLES {
            stats.samples.push((position, served));
        }
        if stop(answered) {
            stats.queries = index as u64 + 1;
            break;
        }
    }
    stats.elapsed = started.elapsed();
    stats
}

/// Check each sampled response against `answer()` on the snapshot of the
/// epoch that served it.
fn verify_samples(
    run: &mut Run,
    stats: &ReadStats,
    mix: &[Query],
    snapshot_at: impl Fn(u64) -> Option<Snapshot>,
) {
    let wrong = stats
        .samples
        .iter()
        .filter(|(position, served)| {
            snapshot_at(served.epoch)
                .is_none_or(|snapshot| snapshot.answer(&mix[*position]) != served.response)
        })
        .count();
    run.checks.record(stats.samples.len() as u64, wrong as u64, || {
        format!(
            "{wrong} of {} sampled responses differ from answer() on their epoch's snapshot",
            stats.samples.len()
        )
    });
}

/// Record the read metrics over every query of every reader window (one
/// per writer round, or one per [`Probe::window`]), pooled: a window's p99
/// rests on too few slow queries to be steady on its own.
fn set_read_metrics(run: &mut Run, windows: &[ReadStats]) {
    let mut pooled = ReadStats::default();
    for window in windows {
        pooled.merge(window);
    }
    run.set("query_ns_p50", pooled.latency.quantile(0.5), pooled.queries);
    run.set("query_ns_p99", pooled.latency.quantile(0.99), pooled.queries);
    run.set("qps", pooled.qps(), pooled.queries);
    run.provenance("read_windows", windows.len());
}

/// The read probe of the workloads without a concurrent reader: one
/// closed-loop reader against their final snapshot, with no writer, after
/// each stretch of writes — so the reads sample the same stretch of the run
/// the writes do.
pub struct Probe {
    snapshot: Snapshot,
    mix: Vec<Query>,
    service: QueryService,
    windows: Vec<ReadStats>,
}

impl Probe {
    /// A reader over `snapshot`, with the seeded mix over its keys.
    pub fn new(snapshot: Snapshot, seed: u64) -> Probe {
        Probe {
            mix: query_mix(&snapshot, seed, MIX_LEN),
            service: QueryService::new(SnapshotPublisher::with_initial(snapshot.clone())),
            snapshot,
            windows: Vec::new(),
        }
    }

    /// Read for [`PROBE_SHARE`] of `writes`, the write stretch just ended,
    /// and check the sampled responses.
    pub fn window(&mut self, run: &mut Run, writes: Duration) {
        let end = Instant::now() + writes.mul_f64(PROBE_SHARE);
        let window = read_until(&self.service, &self.mix, false, |now| now >= end);
        let snapshot = &self.snapshot;
        verify_samples(run, &window, &self.mix, |epoch| {
            (epoch == snapshot.epoch()).then(|| snapshot.clone())
        });
        self.windows.push(window);
    }

    /// Record the read metrics over every window.
    pub fn finish(self, run: &mut Run) {
        set_read_metrics(run, &self.windows);
    }
}

/// Record `serve.publish_ms` and `serve.chunk_reuse`: means over the
/// build statistics of every published snapshot.
pub fn set_publish_metrics<'a>(
    run: &mut Run,
    builds: impl IntoIterator<Item = &'a SnapshotBuildStats>,
) {
    let (build_ms, reuse): (Vec<f64>, Vec<f64>) = builds
        .into_iter()
        .map(|build| (build.build_ns as f64 / 1e6, build.chunk_reuse_ratio()))
        .unzip();
    run.set("serve.publish_ms", stats::mean(&build_ms), build_ms.len() as u64);
    run.set("serve.chunk_reuse", stats::mean(&reuse), reuse.len() as u64);
}

/// One writer pass from genesis to the tip, with or without the reader.
struct Round {
    read: Option<ReadStats>,
    epoch_ms: Vec<f64>,
    blocks: u64,
    publish: Vec<SnapshotBuildStats>,
}

/// Sets the flag when dropped: the writer drops it at the tip, or while
/// unwinding, so the reader stops either way.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn writer_round(
    run: &mut Run,
    world: &World,
    reference: &AnalysisReport,
    mix: &[Query],
    reader: bool,
) -> Round {
    let input = input_of(world);
    let budget = chain_blocks(world).div_ceil(EPOCHS_PER_ROUND);
    let publisher = SnapshotPublisher::new();
    let service = QueryService::new(publisher.clone());
    let done = AtomicBool::new(false);
    let traced = obs::recording();
    let (read, (epoch_ms, blocks, snapshots, ok)) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let finished = SetOnDrop(&done);
            let mut live = StreamAnalyzer::with_publisher(
                input,
                StreamOptions { threads: 1 },
                publisher.clone(),
            );
            let mut snapshots = vec![publisher.load()];
            let (mut epoch_ms, mut blocks) = (Vec::new(), 0);
            loop {
                let (delta, elapsed) =
                    timed("bench.serve.writer_epoch", || live.ingest_epoch(budget));
                let Some(delta) = delta else { break };
                epoch_ms.push(millis(elapsed));
                blocks += delta.blocks();
                snapshots.push(live.snapshot());
            }
            drop(finished);
            let ok = live_matches_batch(live.report(), reference)
                && live.snapshot() == live.rebuild_full_snapshot();
            (epoch_ms, blocks, snapshots, ok)
        });
        let read =
            reader.then(|| read_until(&service, mix, traced, |_| done.load(Ordering::Acquire)));
        (read, writer.join().expect("writer thread panicked"))
    });
    run.checks.all_or_none(epoch_ms.len() as u64, ok, || {
        "writer at the tip: report or snapshot differs from batch".to_string()
    });
    if let Some(read) = &read {
        verify_samples(run, read, mix, |epoch| {
            snapshots
                .binary_search_by_key(&epoch, Snapshot::epoch)
                .ok()
                .map(|index| snapshots[index].clone())
        });
    }
    let publish = snapshots[1..].iter().map(Snapshot::build_stats).collect();
    Round { read, epoch_ms, blocks, publish }
}

pub fn run(run: &mut Run) {
    let config = run.config;
    // Set-up: the world, the batch reference, and the read mix over the
    // converged snapshot's keys (the batch snapshot equals the stream's at
    // the tip, which every round checks).
    let (world, reference, mix) = run.repeat_setup(|| {
        let world = generate_world(&config);
        let reference =
            analyze_with(input_of(&world), AnalysisOptions { threads: 1, collect_metrics: false });
        let converged = Snapshot::from_report(
            &reference,
            &world.directory,
            &world.oracle,
            SnapshotMeta { epoch: 0, watermark: BlockNumber(chain_blocks(&world)) },
        );
        let mix = query_mix(&converged, config.seed, MIX_LEN);
        (world, reference, mix)
    });
    if config.trace {
        traced(run, &world, &reference, &mix);
    } else {
        untraced(run, &world, &reference, &mix);
    }
}

fn untraced(run: &mut Run, world: &World, reference: &AnalysisReport, mix: &[Query]) {
    // One window per writer round.
    let deadline = run.deadline(1.0);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    loop {
        let round = writer_round(run, world, reference, mix, true);
        writes.push(WriteWindow::of(&round.epoch_ms, round.blocks));
        reads.push(round.read.expect("rounds with a reader"));
        if Instant::now() >= deadline {
            break;
        }
    }
    set_write_metrics(run, &writes);
    set_read_metrics(run, &reads);
}

fn traced(run: &mut Run, world: &World, reference: &AnalysisReport, mix: &[Query]) {
    // Rotate an untraced round, a writer-alone round and a traced round.
    // The untraced rounds give the cache split and the writer's epochs under
    // read load, to pair with the writer alone; the traced ones the epoch
    // lag, the overhead and the trace.
    let deadline = run.deadline(0.7);
    let (mut plain, mut traced) = (ReadStats::default(), ReadStats::default());
    let (mut loaded_ms, mut alone_ms, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let round = writer_round(run, world, reference, mix, true);
        plain.merge(round.read.as_ref().expect("rounds with a reader"));
        loaded_ms.extend(round.epoch_ms);
        publish.extend(round.publish);
        alone_ms.extend(writer_round(run, world, reference, mix, false).epoch_ms);
        obs::flight::clear();
        let round = recorded(|| writer_round(run, world, reference, mix, true));
        traced.merge(round.read.as_ref().expect("rounds with a reader"));
        if Instant::now() >= deadline {
            break;
        }
    }
    tracing::export(run);
    tracing::measure_health_eval(run);
    run.set(
        "obs.overhead_pct",
        tracing::overhead_pct(plain.latency.quantile(0.5), traced.latency.quantile(0.5)),
        plain.latency.len() + traced.latency.len(),
    );
    let (hits, misses) = (plain.hits.len(), plain.misses.len());
    run.set("serve.hit_rate", hits as f64 / (hits + misses).max(1) as f64, hits + misses);
    run.set("serve.hit_ns_p50", plain.hits.quantile(0.5), hits);
    run.set("serve.miss_ns_p50", plain.misses.quantile(0.5), misses);
    run.set("serve.epoch_lag_p99", traced.lag.rank_quantile(0.99), traced.lag.len());
    set_publish_metrics(run, &publish);
    run.set(
        "serve.writer_slowdown",
        stats::median(&loaded_ms) / stats::median(&alone_ms),
        (loaded_ms.len() + alone_ms.len()) as u64,
    );
}
