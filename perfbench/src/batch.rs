//! `batch-large`: `analyze_with` over the whole world at one thread. Every
//! pipeline layer does its full work here; the stream tail, delta publish
//! and query cache do nothing outside the read probe.
//!
//! One thread, because on a shared two-core host a two-thread fork–join
//! waits for whichever core is stolen from: measured there, two-thread runs
//! took 176–261 ms where one-thread runs took 134–156 ms. The traced run
//! still times every stage at two threads for `core.<stage>_speedup_2t`.

use std::time::{Duration, Instant};

use ethsim::BlockNumber;
use washtrade::dataset::Dataset;
use washtrade::parallel::Executor;
use washtrade::pipeline::{
    analyze_with, standard_stages, AnalysisContext, AnalysisInput, AnalysisOptions, AnalysisReport,
};
use washtrade_serve::{Snapshot, SnapshotMeta};
use workload::World;

use crate::stats::{self, millis};
use crate::tracing::{self, recorded, timed};
use crate::{
    chain_blocks, generate_world, input_of, matches_ground_truth, reports_match, serve,
    set_write_metrics, Run, WriteWindow,
};

const THREADS: usize = 1;

/// The thread count the traced run compares each stage against.
const SPEEDUP_THREADS: usize = 2;

/// Batch runs between two read-probe windows.
const PROBE_EVERY: Duration = Duration::from_secs(1);

/// The pipeline stages, in `standard_stages()` order, with their metrics.
const STAGES: [(&str, &str, &str); 6] = [
    ("build_dataset", "core.build_dataset_ms", "core.build_dataset_speedup_2t"),
    ("build_graphs", "core.build_graphs_ms", "core.build_graphs_speedup_2t"),
    ("refine", "core.refine_ms", "core.refine_speedup_2t"),
    ("detect", "core.detect_ms", "core.detect_speedup_2t"),
    ("characterize", "core.characterize_ms", "core.characterize_speedup_2t"),
    ("profit", "core.profit_ms", "core.profit_speedup_2t"),
];

fn options(threads: usize) -> AnalysisOptions {
    AnalysisOptions { threads, collect_metrics: false }
}

pub fn run(run: &mut Run) {
    let config = run.config;
    // Set-up ends with one warm-up analysis, whose report is the reference
    // every timed run is checked against.
    let (world, reference) = run.repeat_setup(|| {
        let world = generate_world(&config);
        let reference = analyze_with(input_of(&world), options(THREADS));
        (world, reference)
    });
    let truth = matches_ground_truth(&world, &reference);
    run.checks.all_or_none(1, truth.is_ok(), || truth.clone().unwrap_err());
    if config.trace {
        traced(run, &world, &reference);
    } else {
        untraced(run, &world, &reference);
    }
}

/// One checked batch run, timed.
fn checked_run(run: &mut Run, input: AnalysisInput<'_>, reference: &AnalysisReport) -> f64 {
    let started = Instant::now();
    let report = analyze_with(input, options(THREADS));
    let elapsed = millis(started.elapsed());
    run.checks.all_or_none(1, reports_match(&report, reference), || {
        "a batch run diverged from the reference report".to_string()
    });
    elapsed
}

fn untraced(run: &mut Run, world: &World, reference: &AnalysisReport) {
    let input = input_of(world);
    let snapshot = Snapshot::from_report(
        reference,
        &world.directory,
        &world.oracle,
        SnapshotMeta { epoch: 1, watermark: BlockNumber(chain_blocks(world)) },
    );
    let mut probe = serve::Probe::new(snapshot, run.config.seed);
    let deadline = run.deadline(1.0);
    // The percentiles pool every batch run of the benchmark run (a hundred
    // or more): one probe interval holds too few runs for a p90 of its own.
    let mut batch_ms = Vec::new();
    loop {
        let interval = Instant::now();
        let first = batch_ms.len();
        while batch_ms.len() == first || interval.elapsed() < PROBE_EVERY {
            batch_ms.push(checked_run(run, input, reference));
        }
        probe.window(run, interval.elapsed());
        if Instant::now() >= deadline {
            break;
        }
    }
    let blocks = chain_blocks(world) * batch_ms.len() as u64;
    set_write_metrics(run, &[WriteWindow::of(&batch_ms, blocks)]);
    probe.finish(run);
}

fn traced(run: &mut Run, world: &World, reference: &AnalysisReport) {
    let input = input_of(world);

    // Overhead: alternate untraced and traced runs over half the budget.
    let deadline = run.deadline(0.5);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    loop {
        untraced_ms.push(checked_run(run, input, reference));
        traced_ms.push(recorded(|| checked_run(run, input, reference)));
        if Instant::now() >= deadline {
            break;
        }
    }
    run.set(
        "obs.overhead_pct",
        tracing::overhead_pct(stats::median(&untraced_ms), stats::median(&traced_ms)),
        (untraced_ms.len() + traced_ms.len()) as u64,
    );

    // Layer replays, traced, after the overhead pass.
    obs::flight::clear();
    let deadline = run.deadline(0.45);
    // Stage times at THREADS ([0]) and at SPEEDUP_THREADS ([1]).
    let mut per_stage: [[Vec<f64>; 6]; 2] = Default::default();
    let (mut stage_sums, mut unattributed) = (Vec::new(), Vec::new());
    let (mut decode, mut reconcile, mut splice) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = [0usize; 3];
    recorded(|| loop {
        for (slot, threads) in [(0, THREADS), (1, SPEEDUP_THREADS)] {
            let (times, stage_counts) = stage_loop(input, threads);
            for (stage, time) in times.into_iter().enumerate() {
                per_stage[slot][stage].push(time);
            }
            counts = stage_counts;
        }
        let (report, analyze) =
            timed("bench.core.analyze", || analyze_with(input, options(THREADS)));
        run.checks.all_or_none(1, reports_match(&report, reference), || {
            "a traced batch run diverged from the reference report".to_string()
        });
        let stage_sum: f64 =
            per_stage[0].iter().map(|times| times.last().expect("a stage loop ran")).sum();
        stage_sums.push(stage_sum);
        unattributed.push(millis(analyze) - stage_sum);

        let executor = Executor::new(THREADS);
        let (metrics, _) = timed("bench.ingest", || {
            let mut dataset = Dataset::default();
            let tip = world.chain.current_block_number();
            dataset
                .ingest_blocks_instrumented(
                    &world.chain,
                    &world.directory,
                    BlockNumber(0),
                    tip,
                    &executor,
                )
                .1
        });
        decode.push(metrics.decode_ns as f64 / 1e6);
        reconcile.push(metrics.reconcile_ns as f64 / 1e6);
        splice.push(metrics.commit_ns.saturating_sub(metrics.reconcile_ns) as f64 / 1e6);
        if Instant::now() >= deadline {
            break;
        }
    });
    let iterations = unattributed.len() as u64;
    for (stage, (_, time_metric, speedup_metric)) in STAGES.iter().enumerate() {
        let one = stats::median(&per_stage[0][stage]);
        let two = stats::median(&per_stage[1][stage]);
        run.set(time_metric, one, iterations);
        run.set(speedup_metric, if two > 0.0 { one / two } else { 0.0 }, iterations);
    }
    run.set("core.unattributed_ms", stats::median(&unattributed), iterations);
    run.set("core.transfers", counts[0] as f64, 1);
    run.set("core.candidates", counts[1] as f64, 1);
    run.set("core.confirmed", counts[2] as f64, 1);
    run.set("ingest.decode_ms", stats::median(&decode), iterations);
    run.set("ingest.reconcile_ms", stats::median(&reconcile), iterations);
    run.set("ingest.splice_ms", stats::median(&splice), iterations);
    run.notes.push(format!(
        "stage sum at {THREADS} threads: median {:.3} ms over {iterations} loops",
        stats::median(&stage_sums)
    ));
    tracing::export(run);
    tracing::measure_health_eval(run);
}

/// Run each `standard_stages()` entry over one context, timing every call;
/// returns the per-stage milliseconds (in [`STAGES`] order) and the
/// transfer, candidate and confirmed counts.
fn stage_loop(input: AnalysisInput<'_>, threads: usize) -> ([f64; 6], [usize; 3]) {
    let _loop = obs::trace::span("bench.core.stages");
    let mut ctx = AnalysisContext::new(input, options(threads));
    let mut times = [0.0; 6];
    for stage in standard_stages() {
        let index = STAGES
            .iter()
            .position(|(name, _, _)| *name == stage.name())
            .unwrap_or_else(|| panic!("stage `{}` is missing from the benchmark", stage.name()));
        let (_, elapsed) = timed(&format!("bench.core.{}", stage.name()), || stage.run(&mut ctx));
        times[index] = millis(elapsed);
    }
    let counts =
        [ctx.dataset().transfer_count(), ctx.candidates().len(), ctx.detection().confirmed.len()];
    (times, counts)
}
