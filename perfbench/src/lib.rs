//! The repository benchmark: three workloads over the large sweep world, one
//! per way the analysis is used.
//!
//! * `batch-large` — one-shot `analyze_with` over the whole chain;
//! * `stream-tail` — a caught-up live monitor tailing the last quarter of
//!   the chain in small uniform epochs;
//! * `serve-mixed` — a writer streaming the chain from genesis while a
//!   closed-loop reader queries the published snapshots.
//!
//! Every workload builds its inputs from the seed alone, checks its outputs
//! outside the timed regions, and reports the [`END_TO_END`] metrics from an
//! untraced run or the [`PER_LAYER`] metrics from a traced one
//! (`--trace 1`). The per-layer numbers come from timing the calls into
//! each layer's public functions from this crate, each wrapped in an
//! `obs::trace` span so the run also leaves a Chrome trace behind.

mod batch;
mod mix;
mod serve;
mod stats;
mod tail;
mod tracing;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use washtrade::pipeline::{AnalysisInput, AnalysisReport};
use washtrade_stream::LiveReport;
use workload::{World, WorldScale};

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Per-layer metrics: the end-to-end metric (and workload) a change in
    /// this layer should move. Empty for end-to-end metrics.
    pub moves: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, moves }
}

/// Metrics a user of the system sees, reported by every workload with
/// tracing off.
pub const END_TO_END: &[MetricSpec] = &[
    spec("setup_s", "s", "lower", ""),
    spec("epoch_ms_p50", "ms", "lower", ""),
    spec("epoch_ms_p90", "ms", "lower", ""),
    spec("blocks_per_s", "1/s", "higher", ""),
    spec("query_ns_p50", "ns", "lower", ""),
    spec("query_ns_p99", "ns", "lower", ""),
    spec("qps", "1/s", "higher", ""),
];

/// Metrics of single layers, reported with tracing on. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[MetricSpec] = &[
    spec(
        "ingest.decode_ms",
        "ms",
        "lower",
        "epoch_ms_* on batch-large (whole-chain ingest); barely on stream-tail (per epoch)",
    ),
    spec("ingest.reconcile_ms", "ms", "lower", "epoch_ms_* on batch-large; barely on stream-tail"),
    spec(
        "ingest.splice_ms",
        "ms",
        "lower",
        "epoch_ms_* on batch-large and stream-tail; 0 on their one-thread serial commit",
    ),
    spec("core.build_dataset_ms", "ms", "lower", "epoch_ms_* on batch-large"),
    spec("core.build_graphs_ms", "ms", "lower", "epoch_ms_* on batch-large"),
    spec("core.refine_ms", "ms", "lower", "epoch_ms_* on batch-large"),
    spec("core.detect_ms", "ms", "lower", "epoch_ms_* on batch-large"),
    spec("core.characterize_ms", "ms", "lower", "epoch_ms_* on batch-large"),
    spec("core.profit_ms", "ms", "lower", "epoch_ms_* on batch-large"),
    spec(
        "core.unattributed_ms",
        "ms",
        "lower",
        "epoch_ms_* on batch-large (report resolution and Table I)",
    ),
    spec("core.build_dataset_speedup_2t", "ratio", "higher", "epoch_ms_* on batch-large"),
    spec("core.build_graphs_speedup_2t", "ratio", "higher", "epoch_ms_* on batch-large"),
    spec("core.refine_speedup_2t", "ratio", "higher", "epoch_ms_* on batch-large"),
    spec("core.detect_speedup_2t", "ratio", "higher", "epoch_ms_* on batch-large"),
    spec("core.characterize_speedup_2t", "ratio", "higher", "epoch_ms_* on batch-large"),
    spec("core.profit_speedup_2t", "ratio", "higher", "epoch_ms_* on batch-large"),
    spec("core.transfers", "count", "higher", "work size of batch-large; fixed by the seed"),
    spec("core.candidates", "count", "higher", "work size of batch-large; fixed by the seed"),
    spec("core.confirmed", "count", "higher", "work size of batch-large; fixed by the seed"),
    spec(
        "stream.epoch_ms",
        "ms",
        "lower",
        "mean traced tail epoch that the stream parts sum to; epoch_ms_* on stream-tail",
    ),
    spec("stream.ingest_ms", "ms", "lower", "epoch_ms_* on stream-tail"),
    spec("stream.graph_sync_ms", "ms", "lower", "epoch_ms_* on stream-tail"),
    spec("stream.leaf_facts_ms", "ms", "lower", "epoch_ms_* on stream-tail"),
    spec("stream.reassemble_ms", "ms", "lower", "epoch_ms_* on stream-tail"),
    spec("stream.unattributed_ms", "ms", "lower", "epoch_ms_* on stream-tail"),
    spec(
        "stream.dirty_frac",
        "ratio",
        "lower",
        "epoch_ms_* on stream-tail, if epoch cost tracks the dirty set",
    ),
    spec("serve.publish_ms", "ms", "lower", "epoch_ms_* on stream-tail and serve-mixed"),
    spec("serve.chunk_reuse", "ratio", "higher", "epoch_ms_* on stream-tail and serve-mixed"),
    spec("serve.hit_rate", "ratio", "higher", "query_ns_* and qps on serve-mixed"),
    spec("serve.hit_ns_p50", "ns", "lower", "query_ns_* and qps on serve-mixed"),
    spec("serve.miss_ns_p50", "ns", "lower", "query_ns_* and qps on serve-mixed"),
    spec("serve.epoch_lag_p99", "epochs", "lower", "query_ns_* on serve-mixed (publish races)"),
    spec("serve.writer_slowdown", "ratio", "lower", "epoch_ms_* on serve-mixed"),
    spec("obs.health_eval_ms", "ms", "lower", "stream.epoch_ms on stream-tail while recording"),
    spec(
        "obs.overhead_pct",
        "%",
        "lower",
        "the traced run's primary latency over the untraced one on the same workload",
    ),
    spec(
        "executor.tail_2t_over_1t",
        "ratio",
        "lower",
        "no end-to-end metric at one thread; stream-tail epoch p50 at 2 threads over 1",
    ),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch analysis of the whole world.
    BatchLarge,
    /// A caught-up live monitor tailing small epochs.
    StreamTail,
    /// One writer streaming from genesis beside one closed-loop reader.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::BatchLarge, Workload::StreamTail, Workload::ServeMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchLarge => "batch-large",
            Workload::StreamTail => "stream-tail",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// Threads the workload pins: the analysis executor's budget, plus the
    /// reader thread on `serve-mixed`.
    pub fn threads(self) -> usize {
        match self {
            Workload::BatchLarge => 1,
            Workload::StreamTail => 1,
            Workload::ServeMixed => 2,
        }
    }

    /// What each end-to-end metric is called in this workload's own terms.
    fn alias(self, metric: &str) -> &'static str {
        match (self, metric) {
            (Workload::BatchLarge, "epoch_ms_p50") => "batch_ms",
            (Workload::BatchLarge, "epoch_ms_p90") => "batch_ms_p90",
            (Workload::BatchLarge, "blocks_per_s") => "batch_blocks_per_s",
            (Workload::StreamTail, "epoch_ms_p50") => "tail_epoch_ms_p50",
            (Workload::StreamTail, "epoch_ms_p90") => "tail_epoch_ms_p90",
            (Workload::StreamTail, "blocks_per_s") => "tail_blocks_per_s",
            (Workload::ServeMixed, "epoch_ms_p50") => "serve_epoch_ms_p50",
            (Workload::ServeMixed, "epoch_ms_p90") => "serve_epoch_ms_p90",
            (Workload::ServeMixed, "blocks_per_s") => "serve_writer_blocks_per_s",
            (Workload::ServeMixed, "query_ns_p50") => "query_ns_p50",
            (Workload::ServeMixed, "query_ns_p99") => "query_ns_p99",
            (Workload::ServeMixed, "qps") => "serve_qps",
            (_, "query_ns_p50") => "probe_query_ns_p50",
            (_, "query_ns_p99") => "probe_query_ns_p99",
            (_, "qps") => "probe_qps",
            _ => "",
        }
    }
}

/// One benchmark run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated world and of the read mix.
    pub seed: u64,
    /// Measurement budget; every workload still completes at least one
    /// operation (one pass of the tail, one writer round).
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// World size; the workloads are defined on [`WorldScale::Large`].
    pub scale: WorldScale,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// A measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind the value (operations, epochs, queries).
    pub samples: u64,
}

/// Output checks: operations attempted and operations whose checked output
/// was wrong.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Count `ops` checked operations, `failed` of them wrong; `what`
    /// describes the failure.
    fn record(&mut self, ops: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }

    /// Count `ops` operations that stand or fall together on one check.
    fn all_or_none(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.record(ops, if ok { 0 } else { ops }, what);
    }
}

/// What a workload fills in while it runs.
struct Run {
    config: Config,
    metrics: BTreeMap<&'static str, Measured>,
    checks: Checks,
    provenance: Vec<(&'static str, String)>,
    notes: Vec<String>,
}

impl Run {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let catalog = if self.config.trace { PER_LAYER } else { END_TO_END };
        assert!(catalog.iter().any(|spec| spec.name == name), "{name} is not a reported metric");
        assert!(value.is_finite(), "{name} measured a non-finite value");
        self.metrics.insert(name, Measured { value, samples });
    }

    fn provenance(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// Run `setup` [`SETUP_REPEATS`] times, record `setup_s` (untraced runs
    /// only) and return the last result.
    fn repeat_setup<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let repeats = if self.config.trace { 1 } else { SETUP_REPEATS };
        let mut seconds = Vec::new();
        let mut last = None;
        for _ in 0..repeats {
            drop(last.take());
            let started = Instant::now();
            last = Some(setup());
            seconds.push(started.elapsed().as_secs_f64());
        }
        if !self.config.trace {
            self.set("setup_s", stats::median(&seconds), seconds.len() as u64);
        }
        last.expect("at least one set-up")
    }

    /// The point after which a workload stops starting operations, for the
    /// `share` of the budget that starts now.
    fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.config.seconds * share)
    }
}

/// One measurement window of the write path: a stretch of a run (a tail
/// pass or a writer round, each over a hundred epochs; every batch run of
/// the run) summarized on its own. Each end-to-end metric is the median
/// over a run's windows, so load from outside that lands in fewer than half
/// of them does not move it.
struct WriteWindow {
    p50_ms: f64,
    p90_ms: f64,
    blocks_per_s: f64,
    samples: u64,
}

impl WriteWindow {
    /// Summarize one window's operation latencies and the chain blocks they
    /// consumed.
    fn of(latencies_ms: &[f64], blocks: u64) -> WriteWindow {
        WriteWindow {
            p50_ms: stats::median(latencies_ms),
            p90_ms: stats::quantile(latencies_ms, 0.9),
            blocks_per_s: blocks as f64 / (latencies_ms.iter().sum::<f64>() / 1e3),
            samples: latencies_ms.len() as u64,
        }
    }
}

/// Record the write-path metrics as medians over `windows`.
fn set_write_metrics(run: &mut Run, windows: &[WriteWindow]) {
    let samples = windows.iter().map(|window| window.samples).sum();
    let median_of = |field: fn(&WriteWindow) -> f64| {
        stats::median(&windows.iter().map(field).collect::<Vec<_>>())
    };
    run.set("epoch_ms_p50", median_of(|window| window.p50_ms), samples);
    run.set("epoch_ms_p90", median_of(|window| window.p90_ms), samples);
    run.set("blocks_per_s", median_of(|window| window.blocks_per_s), samples);
    run.provenance("write_windows", windows.len());
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Every reported metric, in catalog order.
    pub metrics: Vec<(MetricSpec, Measured)>,
    /// Host, revision, seed and threads behind the numbers.
    pub provenance: Vec<(&'static str, String)>,
    /// Human-readable detail (trace file, self-time table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of one metric, if reported.
    pub fn metric(&self, name: &str) -> Option<Measured> {
        self.metrics.iter().find(|(spec, _)| spec.name == name).map(|(_, measured)| *measured)
    }

    /// Failed checks over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics as a table, one per line, with units, sample counts and
    /// what each measures on this workload.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (spec, measured) in &self.metrics {
            let context = match self.workload.alias(spec.name) {
                "" if spec.moves.is_empty() => String::new(),
                "" => format!("-> {}", spec.moves),
                alias => format!("({alias})"),
            };
            let _ = writeln!(
                out,
                "{:<32} {:>16.4} {:<7} n={:<9} {}",
                spec.name, measured.value, spec.unit, measured.samples, context
            );
        }
        let _ = writeln!(
            out,
            "{:<32} {:>16.4} {:<7} n={:<9} ({} of {} checked operations failed)",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.attempted,
            self.failed,
            self.attempted
        );
        out
    }

    /// `{"provenance": {...}}`, one JSON line.
    pub fn provenance_json(&self) -> String {
        let mut fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(key, value)| format!("{}: {}", json_string(key), json_string(value)))
            .collect();
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|(spec, measured)| format!("{}: {}", json_string(spec.name), measured.samples))
            .collect();
        fields.push(format!("\"samples\": {{{}}}", samples.join(", ")));
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(spec, measured)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(spec.name),
                    measured.value,
                    json_string(spec.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run one workload and collect its metrics and checks.
pub fn run(config: Config) -> Outcome {
    // Recording is on by default in `obs`; untraced measurements need it
    // off, and the traced phases switch it on explicitly.
    obs::set_recording(false);
    let mut run = Run {
        config,
        metrics: BTreeMap::new(),
        checks: Checks::default(),
        provenance: Vec::new(),
        notes: Vec::new(),
    };
    run.provenance("workload", config.workload.name());
    run.provenance("seed", config.seed);
    run.provenance("scale", config.scale.label());
    run.provenance("trace", u8::from(config.trace));
    run.provenance("seconds", config.seconds);
    run.provenance("threads", config.workload.threads());
    run.provenance("host", std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".into()));
    run.provenance(
        "host_threads",
        std::thread::available_parallelism().map(usize::from).unwrap_or(1),
    );
    run.provenance("target", format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS));
    run.provenance("git_revision", git_revision());
    match config.workload {
        Workload::BatchLarge => batch::run(&mut run),
        Workload::StreamTail => tail::run(&mut run),
        Workload::ServeMixed => serve::run(&mut run),
    }
    obs::set_recording(false);

    let catalog = if config.trace { PER_LAYER } else { END_TO_END };
    let metrics = catalog
        .iter()
        .map(|spec| {
            // Only a traced run may leave a metric unset: a layer the
            // workload does not exercise did no work.
            let measured = run.metrics.get(spec.name).copied();
            assert!(
                measured.is_some() || config.trace,
                "{} did not measure {}",
                config.workload.name(),
                spec.name
            );
            (*spec, measured.unwrap_or(Measured { value: 0.0, samples: 0 }))
        })
        .collect();
    Outcome {
        workload: config.workload,
        attempted: run.checks.attempted,
        failed: run.checks.failed,
        failures: run.checks.failures,
        metrics,
        provenance: run.provenance,
        notes: run.notes,
    }
}

/// The commit the benchmark was built from, read from the repository's git
/// directory when there is one.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The world every workload runs on.
fn generate_world(config: &Config) -> World {
    World::generate(config.scale.config(config.seed)).expect("world generation succeeds")
}

fn input_of(world: &World) -> AnalysisInput<'_> {
    AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    }
}

/// Blocks on the world's chain, the open block included.
fn chain_blocks(world: &World) -> u64 {
    world.chain.current_block_number().0 + 1
}

/// Whether two batch reports agree on every analysis result.
fn reports_match(a: &AnalysisReport, b: &AnalysisReport) -> bool {
    a.detection == b.detection
        && a.refinement == b.refinement
        && a.characterization == b.characterization
        && a.rewards == b.rewards
        && a.resales == b.resales
        && a.table1 == b.table1
        && a.dataset_transfers == b.dataset_transfers
}

/// Whether a live report at the chain tip equals the batch report.
fn live_matches_batch(live: &LiveReport, batch: &AnalysisReport) -> bool {
    live.detection == batch.detection
        && live.refinement == batch.refinement
        && live.characterization == batch.characterization
        && live.rewards == batch.rewards
        && live.resales == batch.resales
        && live.dataset_transfers == batch.dataset_transfers
}

/// Check a batch report against the world's planted ground truth: at least
/// 85% of planted NFTs detected, at most 10% of detections unplanted.
fn matches_ground_truth(world: &World, report: &AnalysisReport) -> Result<(), String> {
    use std::collections::HashSet;
    let planted: HashSet<_> = world.truth.iter().map(|truth| truth.nft).collect();
    let detected: HashSet<_> = report.detection.confirmed.iter().map(|a| a.nft()).collect();
    let recalled = planted.intersection(&detected).count();
    let unplanted = detected.difference(&planted).count();
    if recalled * 100 >= planted.len() * 85 && unplanted * 10 <= detected.len() {
        Ok(())
    } else {
        Err(format!(
            "ground truth: {recalled} of {} planted NFTs detected, {unplanted} of {} detections \
             unplanted",
            planted.len(),
            detected.len()
        ))
    }
}
