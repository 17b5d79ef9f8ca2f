//! The end-to-end analysis pipeline: dataset → graphs → refinement →
//! detection → characterization → profitability, mirroring the paper's
//! methodology from §III through §VI.
//!
//! The pipeline is staged: each step is a [`PipelineStage`] that reads and
//! writes artifacts on a shared [`AnalysisContext`], and the driver
//! ([`analyze_with`]) times every stage into a [`StageMetrics`] record.
//!
//! Artifacts flow through in dense-id form: the dataset stage interns every
//! entity once, the graph table is indexed by [`ids::NftKey`]
//! (`graphs[key.index()]` — no keyed map anywhere), and refinement/detection
//! carry [`DenseCandidate`]/[`DenseDetectionOutcome`]. Resolution back to
//! addresses happens exactly once, in `AnalysisContext::into_report`, so
//! the public [`AnalysisReport`] is identical to the address-keyed
//! pipeline's output bit for bit.

use std::time::Duration;

use ethsim::Chain;
use labels::LabelRegistry;
use marketplace::MarketplaceDirectory;
use oracle::PriceOracle;
use serde::{Deserialize, Serialize};

use crate::characterize::{characterize_with, Characterization};
use crate::dataset::{Dataset, MarketplaceVolume};
use crate::detect::{DenseDetectionOutcome, DetectionOutcome, Detector};
use crate::parallel::Executor;
use crate::profit::{analyze_resales_with, analyze_rewards_with, ResaleReport, RewardReport};
use crate::refine::{DenseCandidate, RefinementReport, Refiner};
use crate::txgraph::NftGraph;

/// Everything the pipeline needs to read: the chain, the label registry, the
/// marketplace directory and the price oracle — the same inputs the paper's
/// authors assembled from Geth, Etherscan and price feeds.
#[derive(Clone, Copy)]
pub struct AnalysisInput<'a> {
    /// The chain to analyze.
    pub chain: &'a Chain,
    /// Etherscan-style account labels.
    pub labels: &'a LabelRegistry,
    /// Marketplace address directory.
    pub directory: &'a MarketplaceDirectory,
    /// Daily USD price series.
    pub oracle: &'a PriceOracle,
}

/// Tunables for one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisOptions {
    /// Thread budget for the parallel stages; `0` means one thread per
    /// available core. Results are bit-identical at any value.
    pub threads: usize,
    /// Whether to record per-stage [`StageMetrics`] into the report.
    pub collect_metrics: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions { threads: 0, collect_metrics: true }
    }
}

impl AnalysisOptions {
    /// Options pinned to a single thread (useful for deterministic timing
    /// baselines and differential tests).
    pub fn single_threaded() -> Self {
        AnalysisOptions { threads: 1, ..AnalysisOptions::default() }
    }
}

/// Instrumentation record for one executed stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Stage name, as reported by [`PipelineStage::name`].
    pub stage: String,
    /// Wall-clock time of the stage in nanoseconds (always nonzero).
    pub wall_time_ns: u64,
    /// Items the stage consumed (stage-specific unit, e.g. graphs in).
    pub items_in: usize,
    /// Items the stage produced (e.g. surviving candidates).
    pub items_out: usize,
    /// Threads the stage actually used.
    pub threads: usize,
}

impl StageMetrics {
    /// The stage's wall-clock time as a [`Duration`].
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.wall_time_ns)
    }
}

/// What a stage reports back to the driver for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageIo {
    /// Items consumed.
    pub items_in: usize,
    /// Items produced.
    pub items_out: usize,
    /// Threads actually used (1 for serial stages).
    pub threads_used: usize,
}

/// Shared state the stages read and write: the immutable inputs, the thread
/// executor, and every intermediate artifact of the methodology.
///
/// Artifacts are populated in pipeline order; a stage that runs before its
/// prerequisites panics with the name of the missing artifact. The standard
/// order is the one [`standard_stages`] returns.
pub struct AnalysisContext<'a> {
    /// The immutable analysis inputs.
    pub input: AnalysisInput<'a>,
    /// The shared fork–join executor all parallel stages draw threads from.
    pub executor: Executor,
    dataset: Option<Dataset>,
    graphs: Option<Vec<NftGraph>>,
    candidates: Option<Vec<DenseCandidate>>,
    refinement: Option<RefinementReport>,
    detection: Option<DenseDetectionOutcome>,
    table1: Option<Vec<MarketplaceVolume>>,
    characterization: Option<Characterization>,
    rewards: Option<RewardReport>,
    resales: Option<ResaleReport>,
}

impl<'a> AnalysisContext<'a> {
    /// A fresh context with no artifacts computed yet.
    pub fn new(input: AnalysisInput<'a>, options: AnalysisOptions) -> Self {
        AnalysisContext {
            input,
            executor: Executor::new(options.threads),
            dataset: None,
            graphs: None,
            candidates: None,
            refinement: None,
            detection: None,
            table1: None,
            characterization: None,
            rewards: None,
            resales: None,
        }
    }

    fn expect<T>(artifact: Option<T>, name: &str) -> T {
        artifact.unwrap_or_else(|| panic!("pipeline stage ran before `{name}` was computed"))
    }

    /// The §III dataset (requires `BuildDataset`).
    pub fn dataset(&self) -> &Dataset {
        Self::expect(self.dataset.as_ref(), "dataset")
    }

    /// The per-NFT graphs, indexed by [`ids::NftKey`] (requires `BuildGraphs`).
    pub fn graphs(&self) -> &[NftGraph] {
        Self::expect(self.graphs.as_deref(), "graphs")
    }

    /// The refined dense candidates (requires `Refine`).
    pub fn candidates(&self) -> &[DenseCandidate] {
        Self::expect(self.candidates.as_deref(), "candidates")
    }

    /// The dense detection outcome (requires `Detect`). The resolved
    /// [`DetectionOutcome`] is produced once, at report assembly.
    pub fn detection(&self) -> &DenseDetectionOutcome {
        Self::expect(self.detection.as_ref(), "detection")
    }

    /// Assemble the final report once every stage has run — the single
    /// point where dense ids resolve back to addresses.
    fn into_report(self, stage_metrics: Vec<StageMetrics>) -> AnalysisReport {
        let dataset = Self::expect(self.dataset, "dataset");
        let detection = Self::expect(self.detection, "detection").resolve(&dataset.interner);
        AnalysisReport {
            table1: Self::expect(self.table1, "table1"),
            dataset_nfts: dataset.nft_count(),
            dataset_transfers: dataset.transfer_count(),
            raw_transfer_events: dataset.raw_transfer_events,
            compliant_contracts: dataset.compliant_contracts.len(),
            non_compliant_contracts: dataset.non_compliant_contracts.len(),
            refinement: Self::expect(self.refinement, "refinement"),
            detection,
            characterization: Self::expect(self.characterization, "characterization"),
            rewards: Self::expect(self.rewards, "rewards"),
            resales: Self::expect(self.resales, "resales"),
            stage_metrics,
        }
    }
}

/// One step of the methodology, run by [`analyze_with`] over the shared
/// [`AnalysisContext`]. Implementations must be pure with respect to the
/// context: read prerequisite artifacts, write their own, touch nothing else.
pub trait PipelineStage {
    /// Stable stage name, used in [`StageMetrics::stage`].
    fn name(&self) -> &'static str;
    /// Execute the stage against the context.
    fn run(&self, ctx: &mut AnalysisContext<'_>) -> StageIo;
}

/// §III: collect ERC-721 transfers, apply the compliance probe, intern every
/// entity and annotate prices and marketplaces — the two-phase ingest
/// pipeline (parallel block-sharded decode, serial ordered commit) fanned
/// out over the shared executor. Items: raw transfer logs in, compliant
/// transfers out.
pub struct BuildDataset;

impl PipelineStage for BuildDataset {
    fn name(&self) -> &'static str {
        "build_dataset"
    }

    fn run(&self, ctx: &mut AnalysisContext<'_>) -> StageIo {
        let mut dataset = Dataset::default();
        let (_, metrics) = dataset.ingest_blocks_instrumented(
            ctx.input.chain,
            ctx.input.directory,
            ethsim::BlockNumber(0),
            ctx.input.chain.current_block_number(),
            &ctx.executor,
        );
        let io = StageIo {
            items_in: dataset.raw_transfer_events,
            items_out: dataset.transfer_count(),
            threads_used: metrics.threads,
        };
        ctx.dataset = Some(dataset);
        io
    }
}

/// §IV-A: one directed multigraph per NFT, built in parallel over the
/// columnar store. Items: compliant transfers in, NFT graphs out.
pub struct BuildGraphs;

impl PipelineStage for BuildGraphs {
    fn name(&self) -> &'static str {
        "build_graphs"
    }

    fn run(&self, ctx: &mut AnalysisContext<'_>) -> StageIo {
        let dataset = ctx.dataset();
        let graphs = NftGraph::from_dataset_with(dataset, &ctx.executor);
        let io = StageIo {
            items_in: dataset.transfer_count(),
            items_out: graphs.len(),
            threads_used: ctx.executor.threads_for(graphs.len()),
        };
        ctx.graphs = Some(graphs);
        io
    }
}

/// §IV-B: SCC search plus service-account, contract-account and zero-volume
/// filtering, in parallel over the graphs. Items: graphs in, surviving
/// candidates out.
pub struct Refine;

impl PipelineStage for Refine {
    fn name(&self) -> &'static str {
        "refine"
    }

    fn run(&self, ctx: &mut AnalysisContext<'_>) -> StageIo {
        let graphs = ctx.graphs();
        let refiner = Refiner::new(ctx.input.chain, ctx.input.labels, &ctx.dataset().interner);
        let (candidates, refinement) = refiner.refine_with(graphs, &ctx.executor);
        let io = StageIo {
            items_in: graphs.len(),
            items_out: candidates.len(),
            threads_used: ctx.executor.threads_for(graphs.len()),
        };
        ctx.candidates = Some(candidates);
        ctx.refinement = Some(refinement);
        io
    }
}

/// §IV-C/D: the five confirmation signals, in parallel over the candidates.
/// The graph table is already `NftKey`-indexed, so the detector's
/// cross-component lookups are plain `Vec` indexing. Items: candidates in,
/// confirmed activities out.
pub struct Detect;

impl PipelineStage for Detect {
    fn name(&self) -> &'static str {
        "detect"
    }

    fn run(&self, ctx: &mut AnalysisContext<'_>) -> StageIo {
        let candidates = ctx.candidates();
        let detector = Detector::new(ctx.input.chain, ctx.input.labels, &ctx.dataset().interner);
        let detection = detector.detect_with(candidates, ctx.graphs(), &ctx.executor);
        let io = StageIo {
            items_in: candidates.len(),
            items_out: detection.confirmed.len(),
            threads_used: ctx.executor.threads_for(candidates.len()),
        };
        ctx.detection = Some(detection);
        io
    }
}

/// §III Table I and §V: folds the per-marketplace totals once — the
/// report's Table I and the Table II shares' denominators — then volumes,
/// lifetimes, participation patterns, serial traders. Items: confirmed
/// activities in, one characterization out.
pub struct Characterize;

impl PipelineStage for Characterize {
    fn name(&self) -> &'static str {
        "characterize"
    }

    fn run(&self, ctx: &mut AnalysisContext<'_>) -> StageIo {
        let confirmed = &ctx.detection().confirmed;
        let (dataset, directory, oracle) = (ctx.dataset(), ctx.input.directory, ctx.input.oracle);
        let table1 = dataset.marketplace_volumes(directory, oracle);
        let characterization =
            characterize_with(confirmed, dataset, directory, oracle, &table1, &ctx.executor);
        let io = StageIo {
            items_in: confirmed.len(),
            items_out: 1,
            threads_used: ctx.executor.threads_for(confirmed.len()),
        };
        ctx.table1 = Some(table1);
        ctx.characterization = Some(characterization);
        io
    }
}

/// §VI: reward-system exploitation and resale profitability. Items:
/// confirmed activities in, per-activity profit assessments out.
pub struct Profit;

impl PipelineStage for Profit {
    fn name(&self) -> &'static str {
        "profit"
    }

    fn run(&self, ctx: &mut AnalysisContext<'_>) -> StageIo {
        let confirmed = &ctx.detection().confirmed;
        let input = ctx.input;
        let interner = &ctx.dataset().interner;
        let rewards = analyze_rewards_with(
            confirmed,
            input.chain,
            input.directory,
            input.oracle,
            interner,
            &ctx.executor,
        );
        let resales = analyze_resales_with(
            confirmed,
            input.chain,
            input.directory,
            input.oracle,
            ctx.graphs(),
            interner,
            &ctx.executor,
        );
        let io = StageIo {
            items_in: confirmed.len(),
            items_out: rewards.outcomes.len() + resales.outcomes.len(),
            threads_used: ctx.executor.threads_for(confirmed.len()),
        };
        ctx.rewards = Some(rewards);
        ctx.resales = Some(resales);
        io
    }
}

/// The six stages of the paper's methodology, in execution order.
pub fn standard_stages() -> Vec<Box<dyn PipelineStage>> {
    vec![
        Box::new(BuildDataset),
        Box::new(BuildGraphs),
        Box::new(Refine),
        Box::new(Detect),
        Box::new(Characterize),
        Box::new(Profit),
    ]
}

/// The complete analysis output; every table and figure of the paper is
/// derived from the fields of this struct. Fully resolved: no dense id
/// appears anywhere in the report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Table I: per-marketplace dataset totals.
    pub table1: Vec<MarketplaceVolume>,
    /// Number of distinct NFTs with at least one (compliant) transfer.
    pub dataset_nfts: usize,
    /// Number of compliant ERC-721 transfers.
    pub dataset_transfers: usize,
    /// Number of ERC-721-shaped transfer logs before the compliance filter.
    pub raw_transfer_events: usize,
    /// ERC-721 contracts passing the compliance probe.
    pub compliant_contracts: usize,
    /// Contracts emitting ERC-721-shaped logs that failed the probe.
    pub non_compliant_contracts: usize,
    /// §IV-B: counts after each refinement stage.
    pub refinement: RefinementReport,
    /// §IV-C/D: confirmed activities and method overlap (Fig. 2).
    pub detection: DetectionOutcome,
    /// §V: volumes, temporal behaviour, patterns, serial traders
    /// (Tables II, Figs. 3–7).
    pub characterization: Characterization,
    /// §VI-A: reward-system profitability (Table III).
    pub rewards: RewardReport,
    /// §VI-B: resale profitability.
    pub resales: ResaleReport,
    /// Per-stage instrumentation (empty when
    /// [`AnalysisOptions::collect_metrics`] is off).
    pub stage_metrics: Vec<StageMetrics>,
}

/// Run the full pipeline with explicit options.
pub fn analyze_with(input: AnalysisInput<'_>, options: AnalysisOptions) -> AnalysisReport {
    let _run_trace = obs::trace::span("core.analyze");
    let mut ctx = AnalysisContext::new(input, options);
    let mut stage_metrics = Vec::new();
    for stage in standard_stages() {
        let mut stage_trace = obs::trace::span_dynamic(&format!("stage.{}", stage.name()));
        let io = stage.run(&mut ctx);
        stage_trace.attr("items_in", io.items_in as u64);
        stage_trace.attr("items_out", io.items_out as u64);
        stage_trace.attr("threads", io.threads_used as u64);
        let wall_time = stage_trace.finish();
        if options.collect_metrics {
            stage_metrics.push(StageMetrics {
                stage: stage.name().to_string(),
                wall_time_ns: crate::ingest::nanos(wall_time),
                items_in: io.items_in,
                items_out: io.items_out,
                threads: io.threads_used,
            });
        }
    }
    ctx.into_report(stage_metrics)
}

/// Run the full pipeline with default options (all cores, metrics on).
/// Thin compatibility wrapper over [`analyze_with`].
pub fn analyze(input: AnalysisInput<'_>) -> AnalysisReport {
    analyze_with(input, AnalysisOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use workload::{WorkloadConfig, World};

    fn analyze_world(world: &World) -> AnalysisReport {
        analyze(AnalysisInput {
            chain: &world.chain,
            labels: &world.labels,
            directory: &world.directory,
            oracle: &world.oracle,
        })
    }

    #[test]
    fn pipeline_detects_most_planted_activities() {
        let world = World::generate(WorkloadConfig::small(2024)).expect("world");
        let report = analyze_world(&world);

        // Recall: how many planted NFTs were flagged.
        let planted: HashSet<tokens::NftId> = world.truth.iter().map(|t| t.nft).collect();
        let detected: HashSet<tokens::NftId> =
            report.detection.confirmed.iter().map(|a| a.nft()).collect();
        let recalled = planted.intersection(&detected).count();
        let recall = recalled as f64 / planted.len() as f64;
        assert!(
            recall > 0.85,
            "recall {recall:.2} too low: {recalled}/{} planted NFTs detected",
            planted.len()
        );

        // Precision proxy: nothing outside the planted set plus the
        // candidates that genuinely look suspicious should be confirmed; at
        // minimum, legit traders' NFTs must not dominate the detections.
        let false_positives = detected.difference(&planted).count();
        assert!(
            false_positives * 10 <= detected.len().max(1),
            "too many false positives: {false_positives} of {}",
            detected.len()
        );

        // Structural sanity.
        assert!(report.dataset_nfts > 0);
        assert!(report.raw_transfer_events >= report.dataset_transfers);
        assert!(
            report.refinement.initial.components >= report.refinement.after_zero_volume.components
        );
        assert!(report.detection.venn.total() > 0);
        assert_eq!(report.table1.len(), 6);
    }

    #[test]
    fn zero_volume_shuffles_and_noncompliant_contracts_are_not_detected() {
        let world = World::generate(WorkloadConfig::small(77)).expect("world");
        let report = analyze_world(&world);
        // Non-compliant contracts are excluded at the dataset level: they are
        // counted, but none of their NFTs can appear among the detections.
        assert!(report.non_compliant_contracts >= 1);
        let compliant_collections: HashSet<ethsim::Address> =
            world.collections.iter().copied().collect();
        for activity in &report.detection.confirmed {
            assert!(
                compliant_collections.contains(&activity.nft().contract),
                "detected activity on a non-compliant or unknown collection"
            );
        }
        // No confirmed activity may sit on a shuffle clique: shuffles carry no
        // value, so the zero-volume filter must have dropped them.
        for activity in &report.detection.confirmed {
            assert!(
                !activity.candidate.volume.is_zero(),
                "confirmed activity with zero volume: {:?}",
                activity.nft()
            );
        }
    }

    #[test]
    fn stage_metrics_cover_every_stage_with_nonzero_wall_time() {
        let world = World::generate(WorkloadConfig::small(5)).expect("world");
        let report = analyze_world(&world);
        let names: Vec<&str> = report.stage_metrics.iter().map(|m| m.stage.as_str()).collect();
        assert_eq!(
            names,
            ["build_dataset", "build_graphs", "refine", "detect", "characterize", "profit"]
        );
        for metrics in &report.stage_metrics {
            assert!(metrics.wall_time_ns > 0, "stage {} reported zero time", metrics.stage);
            assert!(metrics.threads >= 1, "stage {} reported zero threads", metrics.stage);
            assert!(metrics.wall_time() > Duration::ZERO);
        }
        // Item counts chain together: graphs out feeds refinement in, and so on.
        assert_eq!(report.stage_metrics[1].items_out, report.stage_metrics[2].items_in);
        assert_eq!(report.stage_metrics[2].items_out, report.stage_metrics[3].items_in);
        assert_eq!(report.stage_metrics[3].items_out, report.stage_metrics[4].items_in);
    }

    #[test]
    fn metrics_collection_can_be_disabled() {
        let world = World::generate(WorkloadConfig::small(5)).expect("world");
        let report = analyze_with(
            AnalysisInput {
                chain: &world.chain,
                labels: &world.labels,
                directory: &world.directory,
                oracle: &world.oracle,
            },
            AnalysisOptions { collect_metrics: false, ..AnalysisOptions::default() },
        );
        assert!(report.stage_metrics.is_empty());
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let world = World::generate(WorkloadConfig::small(11)).expect("world");
        let input = AnalysisInput {
            chain: &world.chain,
            labels: &world.labels,
            directory: &world.directory,
            oracle: &world.oracle,
        };
        let baseline = analyze_with(input, AnalysisOptions::single_threaded());
        for threads in [2, 7, 0] {
            let report =
                analyze_with(input, AnalysisOptions { threads, ..AnalysisOptions::default() });
            assert_eq!(
                format!("{:?}", baseline.detection),
                format!("{:?}", report.detection),
                "detection diverged at threads = {threads}"
            );
            assert_eq!(baseline.refinement, report.refinement);
            assert_eq!(baseline.dataset_transfers, report.dataset_transfers);
        }
    }
}
