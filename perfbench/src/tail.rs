//! `stream-tail`: a live monitor that has caught up. Each pass primes a
//! fresh analyzer with the first three quarters of the chain as one epoch,
//! then tails the rest at one thread in uniform epochs of
//! [`EPOCH_BLOCKS`] blocks. Uniform epochs keep every sample the same kind
//! of work (a straddling plan ends in one huge epoch that skews quantiles).

use std::time::Instant;

use graphlib::PatternCatalogue;
use ids::NftKey;
use washtrade::characterize::activity_facts;
use washtrade::dataset::Dataset;
use washtrade::detect::Detector;
use washtrade::parallel::Executor;
use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions, AnalysisReport};
use washtrade::profit::{resale_facts, reward_facts};
use washtrade::refine::Refiner;
use washtrade_serve::{Snapshot, SnapshotBuildStats};
use washtrade_stream::{BlockCursor, EpochDelta, IncrementalGraphs, StreamAnalyzer, StreamOptions};
use workload::World;

use crate::stats::{self, millis};
use crate::tracing::{self, recorded, timed};
use crate::{
    chain_blocks, generate_world, input_of, live_matches_batch, serve, set_write_metrics, Run,
    WriteWindow,
};

const THREADS: usize = 1;

/// Blocks per tail epoch: about 2% of NFTs dirty per epoch on the large
/// world.
const EPOCH_BLOCKS: u64 = 80;

/// Replays of the tail through the layer calls in a traced run.
const REPLAYS: usize = 3;

/// The largest share of a traced tail epoch the layer parts may leave
/// unattributed before the split counts as a failed check.
const MAX_UNATTRIBUTED: f64 = 0.5;

/// Blocks the priming epoch covers: the first three quarters of the chain.
fn prime_blocks(world: &World) -> u64 {
    chain_blocks(world) * 3 / 4
}

fn primed<'a>(input: AnalysisInput<'a>, world: &World, threads: usize) -> StreamAnalyzer<'a> {
    let mut live = StreamAnalyzer::new(input, StreamOptions { threads });
    live.ingest_epoch(prime_blocks(world)).expect("the chain has blocks to prime with");
    live
}

/// One primed-then-tailed analyzer's epochs.
struct Pass {
    epoch_ms: Vec<f64>,
    deltas: Vec<EpochDelta>,
    publish: Vec<SnapshotBuildStats>,
    final_snapshot: Snapshot,
}

impl Pass {
    fn blocks(&self) -> u64 {
        self.deltas.iter().map(EpochDelta::blocks).sum()
    }
}

/// Prime an analyzer, tail it to the tip timing each `ingest_epoch` call
/// from outside (so publish and the health check count), then check it.
fn tail_pass(run: &mut Run, world: &World, reference: &AnalysisReport, threads: usize) -> Pass {
    let mut live = primed(input_of(world), world, threads);
    let (mut epoch_ms, mut deltas, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let started = Instant::now();
        let Some(delta) = live.ingest_epoch(EPOCH_BLOCKS) else { break };
        epoch_ms.push(millis(started.elapsed()));
        publish.push(live.snapshot().build_stats());
        deltas.push(delta);
    }
    let final_snapshot = live.snapshot();
    let ok = live_matches_batch(live.report(), reference)
        && final_snapshot == live.rebuild_full_snapshot();
    run.checks.all_or_none(epoch_ms.len() as u64, ok, || {
        format!("tail pass at {threads} thread(s): tip report or snapshot differs from batch")
    });
    Pass { epoch_ms, deltas, publish, final_snapshot }
}

pub fn run(run: &mut Run) {
    let config = run.config;
    // Set-up: the world, the batch reference the tip is checked against,
    // and one primed analyzer (each pass primes its own again).
    let (world, reference) = run.repeat_setup(|| {
        let world = generate_world(&config);
        let input = input_of(&world);
        let reference =
            analyze_with(input, AnalysisOptions { threads: THREADS, collect_metrics: false });
        drop(primed(input, &world, THREADS));
        (world, reference)
    });
    if config.trace {
        traced(run, &world, &reference);
    } else {
        untraced(run, &world, &reference);
    }
}

fn untraced(run: &mut Run, world: &World, reference: &AnalysisReport) {
    // One write window per pass, each followed by a read-probe window on
    // the tip snapshot (every pass ends in the same one).
    let deadline = run.deadline(1.0);
    let (mut windows, mut probe) = (Vec::new(), None);
    loop {
        let started = Instant::now();
        let pass = tail_pass(run, world, reference, THREADS);
        let writes = started.elapsed();
        windows.push(WriteWindow::of(&pass.epoch_ms, pass.blocks()));
        probe
            .get_or_insert_with(|| serve::Probe::new(pass.final_snapshot, run.config.seed))
            .window(run, writes);
        if Instant::now() >= deadline {
            break;
        }
    }
    set_write_metrics(run, &windows);
    probe.expect("at least one pass").finish(run);
}

fn traced(run: &mut Run, world: &World, reference: &AnalysisReport) {
    // Overhead: alternate untraced and traced passes over half the budget.
    // The traced passes also give the in-epoch reassembly and publish times.
    let deadline = run.deadline(0.5);
    let (mut untraced_ms, mut traced_passes) = (Vec::new(), Vec::new());
    loop {
        untraced_ms.extend(tail_pass(run, world, reference, THREADS).epoch_ms);
        traced_passes.push(recorded(|| tail_pass(run, world, reference, THREADS)));
        if Instant::now() >= deadline {
            break;
        }
    }
    let traced_ms: Vec<f64> = traced_passes.iter().flat_map(|pass| pass.epoch_ms.clone()).collect();
    let samples = traced_ms.len() as u64;
    run.set(
        "obs.overhead_pct",
        tracing::overhead_pct(stats::median(&untraced_ms), stats::median(&traced_ms)),
        samples + untraced_ms.len() as u64,
    );
    let deltas: Vec<&EpochDelta> = traced_passes.iter().flat_map(|pass| &pass.deltas).collect();
    let reassemble_ms = stats::mean(
        &deltas.iter().map(|delta| delta.reassemble_ns as f64 / 1e6).collect::<Vec<_>>(),
    );
    let epoch_ms = stats::mean(&traced_ms);
    run.set("stream.epoch_ms", epoch_ms, samples);
    run.set("stream.reassemble_ms", reassemble_ms, samples);
    serve::set_publish_metrics(run, traced_passes.iter().flat_map(|pass| &pass.publish));
    let publish_ms = run.metrics["serve.publish_ms"].value;
    run.set(
        "stream.dirty_frac",
        stats::mean(
            &deltas
                .iter()
                .map(|delta| delta.dirty_nfts as f64 / delta.total_nfts.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
        samples,
    );

    // Replay the same epochs through the layers' public functions, traced,
    // after the overhead pass so the replay cannot inflate it.
    obs::flight::clear();
    let replays: Vec<Vec<ReplayEpoch>> = recorded(|| (0..REPLAYS).map(|_| replay(world)).collect());
    tracing::export(run);
    tracing::measure_health_eval(run);
    let health_ms = run.metrics["obs.health_eval_ms"].value;
    // Each part is the median over the replays of its per-epoch mean, so one
    // replay slowed from outside does not inflate it.
    let column = |part: fn(&ReplayEpoch) -> f64| {
        let means: Vec<f64> = replays
            .iter()
            .map(|epochs| stats::mean(&epochs.iter().map(part).collect::<Vec<_>>()))
            .collect();
        stats::median(&means)
    };
    let ingest_ms = column(|epoch| epoch.ingest_ms);
    let sync_ms = column(|epoch| epoch.sync_ms);
    let leaf_ms = column(|epoch| epoch.leaf_ms);
    let epochs = replays.iter().map(Vec::len).sum::<usize>() as u64;
    run.set("stream.ingest_ms", ingest_ms, epochs);
    run.set("stream.graph_sync_ms", sync_ms, epochs);
    run.set("stream.leaf_facts_ms", leaf_ms, epochs);
    run.set("ingest.decode_ms", column(|epoch| epoch.decode_ms), epochs);
    run.set("ingest.reconcile_ms", column(|epoch| epoch.reconcile_ms), epochs);
    run.set("ingest.splice_ms", column(|epoch| epoch.splice_ms), epochs);
    // The epoch's parts: the replayed layer calls, the analyzer's own
    // reassembly and publish timings, and one health evaluation; whatever
    // remains is unattributed. The parts come from different executions, so
    // the remainder is checked rather than trusted.
    let unattributed =
        epoch_ms - ingest_ms - sync_ms - leaf_ms - reassemble_ms - publish_ms - health_ms;
    run.set("stream.unattributed_ms", unattributed, samples);
    let share = unattributed / epoch_ms;
    run.checks.all_or_none(1, (0.0..=MAX_UNATTRIBUTED).contains(&share), || {
        format!(
            "stream.unattributed_ms is {:.1}% of the traced epoch, outside 0–{:.0}%",
            share * 100.0,
            MAX_UNATTRIBUTED * 100.0
        )
    });

    // Executor scaling: the same tail at two threads.
    let two = tail_pass(run, world, reference, 2);
    run.set(
        "executor.tail_2t_over_1t",
        stats::median(&two.epoch_ms) / stats::median(&untraced_ms),
        two.epoch_ms.len() as u64,
    );
}

/// Per-epoch layer timings of the replay.
struct ReplayEpoch {
    ingest_ms: f64,
    sync_ms: f64,
    leaf_ms: f64,
    decode_ms: f64,
    reconcile_ms: f64,
    splice_ms: f64,
}

/// Tail the same epochs as [`tail_pass`] through the public layer calls the
/// analyzer makes per epoch: the ingest into the dataset, the graph sync,
/// and the per-NFT leaf facts over the dirty graphs.
fn replay(world: &World) -> Vec<ReplayEpoch> {
    let input = input_of(world);
    let (chain, directory) = (input.chain, input.directory);
    let executor = Executor::new(THREADS);
    let catalogue = PatternCatalogue::paper();
    let mut dataset = Dataset::default();
    let mut graphs = IncrementalGraphs::new();
    let mut cursor = BlockCursor::new();
    let prime = cursor.next_epoch(chain, prime_blocks(world)).expect("the chain has blocks");
    let (applied, _) =
        dataset.ingest_blocks_instrumented(chain, directory, prime.first, prime.last, &executor);
    graphs.sync(&dataset, &applied.dirty);

    let mut epochs = Vec::new();
    while let Some(span) = cursor.next_epoch(chain, EPOCH_BLOCKS) {
        let _epoch = obs::trace::span("bench.tail.epoch");
        let ((applied, metrics), ingest) = timed("bench.stream.ingest", || {
            dataset.ingest_blocks_instrumented(chain, directory, span.first, span.last, &executor)
        });
        let ((), sync) = timed("bench.stream.graph_sync", || graphs.sync(&dataset, &applied.dirty));
        let (facts, leaf) = timed("bench.stream.leaf_facts", || {
            leaf_facts(input, &dataset, &graphs, &applied.dirty, &catalogue)
        });
        std::hint::black_box(facts);
        epochs.push(ReplayEpoch {
            ingest_ms: millis(ingest),
            sync_ms: millis(sync),
            leaf_ms: millis(leaf),
            decode_ms: metrics.decode_ns as f64 / 1e6,
            reconcile_ms: metrics.reconcile_ns as f64 / 1e6,
            splice_ms: metrics.commit_ns.saturating_sub(metrics.reconcile_ns) as f64 / 1e6,
        });
    }
    epochs
}

/// The per-NFT work a dirty NFT costs the analyzer: refinement, then per
/// candidate the detection evidence and the characterize and profit leaf
/// facts, then the NFT's priced market leaves. Returns the candidates seen.
fn leaf_facts(
    input: AnalysisInput<'_>,
    dataset: &Dataset,
    graphs: &IncrementalGraphs,
    dirty: &[NftKey],
    catalogue: &PatternCatalogue,
) -> usize {
    let interner = &dataset.interner;
    let (chain, directory, oracle) = (input.chain, input.directory, input.oracle);
    let refiner = Refiner::new(chain, input.labels, interner);
    let detector = Detector::new(chain, input.labels, interner);
    let mut candidates = 0;
    for &key in dirty {
        let graph = graphs.get(key).expect("dirty NFT has a synced graph");
        let refinement = refiner.refine_nft(graph);
        for candidate in &refinement.candidates {
            std::hint::black_box((
                detector.evaluate(candidate, Some(graph)),
                activity_facts(candidate, dataset, directory, oracle, catalogue),
                reward_facts(candidate, chain, directory, oracle, interner),
                resale_facts(candidate, chain, directory, oracle, Some(graph), interner),
            ));
            candidates += 1;
        }
        std::hint::black_box(dataset.nft_market_leaves(key, oracle));
    }
    candidates
}
