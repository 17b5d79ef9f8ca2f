//! The live analyzer: a dirty-set scheduler over the epoch-grown dataset and
//! the incremental graphs that keeps the confirmed set and the published
//! snapshot continuously up to date, and serves a [`LiveReport`] that
//! converges to the batch result at the chain tip (see the mid-stream
//! semantics note on [`StreamAnalyzer`] for what "up to date" means before
//! the tip).
//!
//! Per epoch, only the NFTs touched by new transfers are re-refined and
//! re-evaluated (a pure per-NFT computation, fanned out over the shared
//! [`Executor`]). The leverage pass is a maintained [`LeverageIndex`]: the
//! dirty NFTs' candidate groups replace their old ones, and the index names
//! the other NFTs whose leverage verdict flipped. Only those NFTs' confirmed
//! groups are re-derived, and only the groups that changed patch the dense
//! confirmed list, the suspect log, the Fig. 3 refcounts and the snapshot's
//! changed set. The Table I fold and the Table II pass the snapshot needs
//! run every epoch, through the batch code paths. The rest of the report —
//! the characterization, the Fig. 3 CDF, both profit reduces and the
//! resolved detection outcome — is built on the first
//! [`StreamAnalyzer::report`] read after an epoch, at O(confirmed) cost,
//! through the same reduces the batch pipeline runs. That shared-code-path
//! design is what makes the headline invariant hold: after ingesting all
//! epochs, the live report is bit-identical to batch analysis of the same
//! chain, at any epoch size and thread count.
//!
//! The scheduler is dense end to end: dirty sets are `Vec<NftKey>`, the
//! per-NFT cache is a `Vec` indexed by [`NftKey`], and candidates stay in
//! dense-id form until a [`LiveReport`] is built — the same single
//! resolve-at-report-boundary point the batch pipeline uses.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ethsim::{Address, BlockNumber, Timestamp, Wei};
use graphlib::PatternCatalogue;
use ids::NftKey;
use serde::{Deserialize, Serialize};
use tokens::NftId;
use washtrade::characterize::{
    activity_facts, characterize, characterize_from_parts, market_totals, marketplace_wash,
    ActivityFacts, Characterization, CharacterizeBaseline, MarketplaceWash,
};
use washtrade::dataset::{Dataset, MarketVolumeFold, NftMarketLeaves};
use washtrade::detect::{
    DenseActivity, DenseDetectionOutcome, DetectionOutcome, Detector, LeverageIndex, MethodSet,
};
use washtrade::parallel::Executor;
use washtrade::pipeline::AnalysisInput;
use washtrade::profit::{
    analyze_resales, analyze_rewards, reduce_resales, reduce_rewards, resale_facts, reward_facts,
    ResaleOutcome, ResaleReport, RewardOutcome, RewardReport,
};
use washtrade::refine::{
    aggregate_refinements, DenseCandidate, NftRefinement, RefinementAggregator, RefinementReport,
    Refiner,
};
use washtrade::txgraph::NftGraph;
use washtrade_serve::{Snapshot, SnapshotMeta, SnapshotPublisher, WashVolumes};

use crate::cursor::BlockCursor;
use crate::incremental::IncrementalGraphs;
use crate::tail::LegitVolumeSet;

/// What one ingested epoch changed, as reported back to the caller and kept
/// in [`LiveReport::epochs`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochDelta {
    /// Zero-based epoch index.
    pub index: usize,
    /// First block of the epoch.
    pub first_block: BlockNumber,
    /// Last block of the epoch (inclusive).
    pub last_block: BlockNumber,
    /// Raw ERC-721-shaped logs scanned.
    pub raw_events: usize,
    /// Compliant transfers appended.
    pub transfers: usize,
    /// NFTs whose graphs changed — the only NFTs re-refined and re-detected
    /// this epoch (the dirty-set metric).
    pub dirty_nfts: usize,
    /// Total NFTs known after the epoch, for comparison with `dirty_nfts`.
    pub total_nfts: usize,
    /// NFTs newly confirmed as wash-traded this epoch, ascending.
    pub new_suspects: Vec<NftId>,
    /// Previously confirmed NFTs no longer confirmed (components can merge as
    /// edges arrive, changing the surviving candidate set).
    pub lost_suspects: usize,
    /// Confirmed activities after the epoch.
    pub confirmed_total: usize,
    /// Wall-clock time of the epoch's ingestion + re-detection, nanoseconds.
    pub wall_time_ns: u64,
    /// Wall-clock time of the epoch's reassembly, nanoseconds — the
    /// benchmark's `stream.reassemble_ms` sample. It covers the leverage
    /// index update, the changed groups' patch of the confirmed set and the
    /// Fig. 3 refcounts, and the Table I fold and Table II pass the snapshot
    /// needs. The full [`LiveReport`] is not built here but on the first
    /// [`StreamAnalyzer::report`] read after the epoch.
    pub reassemble_ns: u64,
}

impl EpochDelta {
    /// Number of blocks the epoch covered.
    pub fn blocks(&self) -> u64 {
        self.last_block.0 - self.first_block.0 + 1
    }

    /// The epoch's wall-clock time as a [`Duration`].
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.wall_time_ns)
    }
}

/// The analysis state as of the last ingested epoch, exposing the same
/// §IV-B/§IV-C, §V and §VI numbers as the batch `AnalysisReport` plus the
/// per-epoch history. [`StreamAnalyzer::report`] builds it on the first read
/// after an epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveReport {
    /// §IV-B: counts after each refinement stage.
    pub refinement: RefinementReport,
    /// §IV-C/D: confirmed activities and method overlap.
    pub detection: DetectionOutcome,
    /// §V: volumes, temporal behaviour, patterns, serial traders.
    pub characterization: Characterization,
    /// §VI-A: reward-system exploitation on the reward marketplaces.
    pub rewards: RewardReport,
    /// §VI-B: resale profitability on the remaining marketplaces.
    pub resales: ResaleReport,
    /// Distinct NFTs with at least one compliant transfer.
    pub dataset_nfts: usize,
    /// Compliant transfers ingested.
    pub dataset_transfers: usize,
    /// Raw ERC-721-shaped logs scanned (before the compliance filter).
    pub raw_transfer_events: usize,
    /// Contracts passing the compliance probe.
    pub compliant_contracts: usize,
    /// Contracts failing the probe.
    pub non_compliant_contracts: usize,
    /// The cursor watermark: first block not yet ingested.
    pub watermark: BlockNumber,
    /// One delta per ingested epoch, in order.
    pub epochs: Vec<EpochDelta>,
}

/// The streaming status of one NFT, as answered by
/// [`StreamAnalyzer::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NftStatus {
    /// No transfer of this NFT has been ingested.
    Unseen,
    /// The NFT has transfers but no suspicious component.
    Clean {
        /// Transfers ingested for the NFT.
        transfers: usize,
    },
    /// Suspicious components survive refinement but none is confirmed.
    Candidate {
        /// Surviving candidate components.
        components: usize,
    },
    /// At least one component is confirmed as wash trading.
    Confirmed {
        /// Confirmed activities on the NFT.
        activities: usize,
        /// Total confirmed wash volume on the NFT.
        volume: Wei,
    },
}

/// Tunables for a [`StreamAnalyzer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StreamOptions {
    /// Thread budget for the per-epoch dirty-set fan-out; `0` (the default)
    /// means one thread per available core. Results are bit-identical at any
    /// value.
    pub threads: usize,
}

impl StreamOptions {
    /// Options pinned to a single thread.
    pub fn single_threaded() -> Self {
        StreamOptions { threads: 1 }
    }
}

/// Cached per-NFT analysis state: the refinement outcome plus, per
/// candidate, the base detection evidence and the characterize/profit leaf
/// facts — everything the reassembly and a report read fold, valid until
/// the NFT's graph next changes. Candidates (with their aligned evidence and
/// facts) are stored sorted by the batch sort key, so concatenating the
/// NFTs' confirmed groups in id order replays the exact batch confirmed
/// sequence with no global sort.
#[derive(Debug, Clone)]
struct NftState {
    refinement: NftRefinement,
    evidence: Vec<MethodSet>,
    facts: Vec<CandidateFacts>,
}

/// The cached leaf facts of one candidate: the expensive per-candidate
/// halves of characterize (§V) and profit (§VI), recomputed only when the
/// candidate's NFT is dirtied. All three are pure functions of the candidate
/// and append-only inputs (columns, graph, chain histories), which is what
/// makes caching them across epochs sound.
#[derive(Debug, Clone)]
struct CandidateFacts {
    characterize: ActivityFacts,
    reward: Option<RewardOutcome>,
    resale: Option<ResaleOutcome>,
}

/// The streaming analyzer: owns the cursor, the incremental layers, the
/// per-NFT caches and the live report.
///
/// # Mid-stream semantics
///
/// Graphs and candidates are built strictly from the ingested prefix, but
/// the flow evidence (`common_funder` / `common_exit`) scans the chain's
/// account histories, which on an already-materialized chain include blocks
/// past the watermark. Mid-stream confirmations are therefore
/// *final-chain-informed*: an activity whose exit sweep lies in a future
/// epoch can already be confirmed when its trades arrive. This is the right
/// behaviour when catching up over history (no detection flapping while the
/// evidence is already on disk), and it vanishes at the tip: once every
/// block is ingested, the [`LiveReport`] is bit-identical to batch
/// `analyze()` — the invariant the equivalence suite enforces. A true
/// prefix-only mid-stream view would need per-account dirty tracking so
/// cached evidence could expire as the watermark moves; that is future work.
pub struct StreamAnalyzer<'a> {
    input: AnalysisInput<'a>,
    executor: Executor,
    cursor: BlockCursor,
    /// Grown one cursor span at a time through
    /// [`Dataset::ingest_blocks_instrumented`].
    dataset: Dataset,
    graphs: IncrementalGraphs,
    /// Per-NFT cache, indexed by [`NftKey`]; `None` for NFTs with no
    /// suspicious component at any stage.
    states: Vec<Option<NftState>>,
    /// §IV-B counts maintained as states change — reading the refinement
    /// report is O(1) instead of a rescan of every state.
    refine_agg: RefinementAggregator,
    /// The leverage pass over every cached NFT's candidates: each NFT's
    /// confirmed candidates (positions in its cached list, with their final
    /// methods) and the detection counters.
    leverage: LeverageIndex,
    /// Every known key sorted by resolved identity (the
    /// `nft_keys_sorted_by_id` order), maintained by merging each epoch's
    /// new key range — the Table I fold's iteration order.
    nft_id_order: Vec<NftKey>,
    /// How many interner keys `nft_id_order` covers.
    known_keys: usize,
    /// Cached per-NFT marketplace leaves (priced Table I rows, each with its
    /// dense transaction id), indexed by [`NftKey`]; dirty NFTs are
    /// repriced, clean ones keep their leaves.
    market_leaves: Vec<Option<NftMarketLeaves>>,
    /// Maintained collection→creation-time map (Fig. 5 baseline): per-NFT
    /// first rows are immutable, so only dirty NFTs fold in.
    collection_created: HashMap<Address, Timestamp>,
    /// Maintained Fig. 3 legit-volume baseline multiset.
    legit: LegitVolumeSet,
    /// Exactly the currently confirmed NFTs, each with the last block of
    /// the epoch that (most recently) confirmed it — the suspect-log input
    /// of every published snapshot. Patched from each epoch's changed
    /// groups: inserted when an NFT's group appears, removed when it goes.
    confirmed_at: HashMap<NftId, BlockNumber>,
    /// The detection outcome still in dense-id form: the confirmed
    /// activities in confirmed order (each NFT's group contiguous, NFTs
    /// ascending) and the counters. Each epoch's snapshot is built from it
    /// and a report read resolves it; only the changed groups are patched.
    detection: DenseDetectionOutcome,
    /// Marketplace name → total volume (USD), read off this epoch's Table I
    /// fold: the denominators of Table II's shares.
    market_totals: HashMap<String, f64>,
    /// This epoch's Table II rows and wash totals, which the snapshot
    /// publishes.
    wash: MarketplaceWash,
    /// NFTs whose confirmed activities changed in the last reassembly. This
    /// is the delta-build contract: the changed groups include leverage
    /// flips on NFTs whose own graphs were untouched, not just the dirty
    /// set.
    changed_nfts: BTreeSet<NftId>,
    /// The snapshot this analyzer last published — the delta-encoding base
    /// for the next epoch. `None` until the first publish (an inherited
    /// publisher's foreign snapshot is never used as a delta base).
    last_snapshot: Option<Snapshot>,
    /// The publication slot this analyzer swaps a fresh [`Snapshot`] into
    /// after every ingested epoch.
    publisher: SnapshotPublisher,
    /// Published epoch numbers start above the epoch found in the publisher
    /// at construction, so epochs stay monotonic across analyzer
    /// generations sharing one slot — a `(epoch, query)` cache key can
    /// never collide with a previous generation's.
    epoch_base: u64,
    /// The cursor watermark: first block not yet ingested.
    watermark: BlockNumber,
    /// One delta per ingested epoch, in order.
    epochs: Vec<EpochDelta>,
    /// The report as of the last ingested epoch: built on its first read,
    /// dropped by the next ingested epoch.
    report: OnceLock<LiveReport>,
}

impl<'a> StreamAnalyzer<'a> {
    /// A fresh analyzer over the given inputs, cursor at genesis, nothing
    /// ingested, publishing into a fresh [`SnapshotPublisher`].
    pub fn new(input: AnalysisInput<'a>, options: StreamOptions) -> Self {
        StreamAnalyzer::with_publisher(input, options, SnapshotPublisher::new())
    }

    /// A fresh analyzer publishing into an existing [`SnapshotPublisher`] —
    /// the way to keep a serving slot (and the readers holding clones of it)
    /// alive across analyzer generations, e.g. when re-ingesting a chain
    /// from scratch. The previous snapshot keeps serving until this
    /// analyzer's first epoch publishes, and the new epochs number upward
    /// from the inherited snapshot's epoch (never reusing one, so cached
    /// responses from earlier generations can never be served against this
    /// generation's snapshots).
    pub fn with_publisher(
        input: AnalysisInput<'a>,
        options: StreamOptions,
        publisher: SnapshotPublisher,
    ) -> Self {
        let epoch_base = publisher.epoch();
        StreamAnalyzer {
            input,
            executor: Executor::new(options.threads),
            cursor: BlockCursor::new(),
            dataset: Dataset::default(),
            graphs: IncrementalGraphs::new(),
            states: Vec::new(),
            refine_agg: RefinementAggregator::default(),
            leverage: LeverageIndex::new(),
            nft_id_order: Vec::new(),
            known_keys: 0,
            market_leaves: Vec::new(),
            collection_created: HashMap::new(),
            legit: LegitVolumeSet::new(),
            confirmed_at: HashMap::new(),
            detection: DenseDetectionOutcome::default(),
            market_totals: HashMap::new(),
            wash: MarketplaceWash::default(),
            changed_nfts: BTreeSet::new(),
            last_snapshot: None,
            publisher,
            epoch_base,
            watermark: BlockNumber(0),
            epochs: Vec::new(),
            report: OnceLock::new(),
        }
    }

    /// Ingest the next epoch of at most `max_blocks` blocks: append the new
    /// transfers, grow the touched graphs, re-refine and re-evaluate exactly
    /// the dirty NFT set, reassemble the confirmed set and publish the
    /// epoch's snapshot. Returns `None` once the cursor is caught up with
    /// the chain tip.
    pub fn ingest_epoch(&mut self, max_blocks: u64) -> Option<EpochDelta> {
        let span = self.cursor.next_epoch(self.input.chain, max_blocks)?;
        // The cached report describes the previous epoch.
        self.report.take();
        let started = Instant::now();
        // Root of this epoch's span tree: every traced phase below — the
        // ingest decode and commit, the dirty-set fan-out, reassembly, and
        // the snapshot publish — parents under it.
        let mut epoch_trace = obs::trace::span("stream.epoch");
        epoch_trace.attr("epoch", self.epochs.len() as u64);
        epoch_trace.attr("first_block", span.first.0);
        epoch_trace.attr("last_block", span.last.0);

        let (applied, ingest) = self.dataset.ingest_blocks_instrumented(
            self.input.chain,
            self.input.directory,
            span.first,
            span.last,
            &self.executor,
        );
        self.graphs.sync(&self.dataset, &applied.dirty);

        // Dirty-set re-detection: refinement, base evidence and the
        // characterize/profit leaf facts are pure per NFT, so only the
        // touched graphs are recomputed, fanned out over the executor.
        // `applied.dirty` is sorted, so the fan-out order — and with it
        // every downstream artifact — is thread-count independent.
        let dataset = &self.dataset;
        let interner = &dataset.interner;
        let (chain, directory, oracle) =
            (self.input.chain, self.input.directory, self.input.oracle);
        let refiner = Refiner::new(chain, self.input.labels, interner);
        let detector = Detector::new(chain, self.input.labels, interner);
        let catalogue = PatternCatalogue::paper();
        let dirty_graphs: Vec<&NftGraph> = applied
            .dirty
            .iter()
            .map(|nft| self.graphs.get(*nft).expect("dirty NFT has a synced graph"))
            .collect();
        let mut detect_trace = obs::trace::span("stream.refine_detect");
        detect_trace.attr("dirty", dirty_graphs.len() as u64);
        let recomputed: Vec<(NftKey, NftState, NftMarketLeaves)> =
            self.executor.map(&dirty_graphs, |graph| {
                let mut refinement = refiner.refine_nft(graph);
                let mut entries: Vec<(DenseCandidate, MethodSet, CandidateFacts)> =
                    std::mem::take(&mut refinement.candidates)
                        .into_iter()
                        .map(|candidate| {
                            let evidence = detector.evaluate(&candidate, Some(graph));
                            let facts = CandidateFacts {
                                characterize: activity_facts(
                                    &candidate, dataset, directory, oracle, &catalogue,
                                ),
                                reward: reward_facts(
                                    &candidate, chain, directory, oracle, interner,
                                ),
                                resale: resale_facts(
                                    &candidate,
                                    chain,
                                    directory,
                                    oracle,
                                    Some(graph),
                                    interner,
                                ),
                            };
                            (candidate, evidence, facts)
                        })
                        .collect();
                // Store candidates in batch sort-key order: the key is
                // strictly unique, so each NFT's confirmed group comes out
                // in the order the batch global sort gives it.
                entries.sort_by_key(|(candidate, _, _)| candidate.sort_key(interner));
                let mut evidence = Vec::with_capacity(entries.len());
                let mut facts = Vec::with_capacity(entries.len());
                for (candidate, methods, candidate_facts) in entries {
                    refinement.candidates.push(candidate);
                    evidence.push(methods);
                    facts.push(candidate_facts);
                }
                let leaves = dataset.nft_market_leaves(graph.nft, oracle);
                (graph.nft, NftState { refinement, evidence, facts }, leaves)
            });
        detect_trace.finish();
        drop(dirty_graphs);
        let mut evaluate_reruns = 0u64;
        for (nft, state, leaves) in recomputed {
            evaluate_reruns += state.evidence.len() as u64;
            if self.states.len() <= nft.index() {
                self.states.resize_with(nft.index() + 1, || None);
            }
            if self.market_leaves.len() <= nft.index() {
                self.market_leaves.resize_with(nft.index() + 1, || None);
            }
            self.market_leaves[nft.index()] = Some(leaves);
            // Fig. 5 baseline: a dirty NFT has rows, and its first row's
            // timestamp is immutable, so the min-fold is idempotent across
            // re-dirtying.
            if let Some(&first_row) = dataset.columns.rows_of(nft).first() {
                let first_seen = dataset.columns.timestamp[first_row as usize];
                let entry =
                    self.collection_created.entry(interner.nft(nft).contract).or_insert(first_seen);
                if first_seen < *entry {
                    *entry = first_seen;
                }
            }
            let slot = &mut self.states[nft.index()];
            if let Some(old) = slot.take() {
                self.refine_agg.remove(&old.refinement);
            }
            if !state.refinement.is_empty() {
                self.refine_agg.add(&state.refinement);
                *slot = Some(state);
            }
        }

        let reassemble_started = Instant::now();
        let changes = self.reassemble(span.last, &applied.dirty);
        let reassemble_ns =
            u64::try_from(reassemble_started.elapsed().as_nanos().max(1)).unwrap_or(u64::MAX);

        // Suspect transitions, from the changed groups alone: a group that
        // was empty is a new suspect, one that became empty a lost one.
        // Changes come in ascending NFT order, so `new_suspects` is sorted.
        // An NFT that lost its confirmation and regains it later is
        // re-inserted with the *latest* transition, so `suspects_since`
        // stays consistent with the epoch delta that lists it.
        let mut new_suspects = Vec::new();
        let mut lost_suspects = 0usize;
        for change in &changes {
            if change.previous.is_empty() {
                self.confirmed_at.insert(change.nft, span.last);
                new_suspects.push(change.nft);
            } else if change.current.is_empty() {
                self.confirmed_at.remove(&change.nft);
                lost_suspects += 1;
            }
        }
        self.changed_nfts = changes.iter().map(|change| change.nft).collect();

        let delta = EpochDelta {
            index: self.epochs.len(),
            first_block: span.first,
            last_block: span.last,
            raw_events: ingest.raw_events,
            transfers: applied.appended,
            dirty_nfts: applied.dirty.len(),
            total_nfts: self.dataset.nft_count(),
            new_suspects,
            lost_suspects,
            confirmed_total: self.detection.confirmed.len(),
            wall_time_ns: u64::try_from(started.elapsed().as_nanos().max(1)).unwrap_or(u64::MAX),
            reassemble_ns,
        };
        if obs::recording() {
            obs::counter!("stream.epochs");
            obs::counter!("stream.refine_reruns", delta.dirty_nfts as u64);
            obs::counter!("stream.evaluate_reruns", evaluate_reruns);
            obs::counter!("stream.new_suspects", delta.new_suspects.len() as u64);
            obs::counter!("stream.lost_suspects", delta.lost_suspects as u64);
            obs::histogram!("stream.epoch_ns", delta.wall_time_ns);
            obs::histogram!("stream.dirty_nfts", delta.dirty_nfts as u64);
            obs::gauge!("stream.total_nfts", delta.total_nfts as i64);
            obs::gauge!("stream.confirmed_total", delta.confirmed_total as i64);
            obs::gauge!("stream.watermark", self.watermark.0 as i64);
            // Blocks on the chain the cursor has not handed out yet — the
            // `watermark_lag` SLO's input (0 when tailing keeps up).
            let lag = self.input.chain.current_block_number().0.saturating_sub(span.last.0);
            obs::gauge!("stream.watermark_lag", lag as i64);
            obs::event!(
                "stream.epoch",
                "epoch {}: blocks {}..={}, {} dirty of {} NFTs, {} confirmed",
                delta.index,
                delta.first_block.0,
                delta.last_block.0,
                delta.dirty_nfts,
                delta.total_nfts,
                delta.confirmed_total
            );
        }
        self.epochs.push(delta.clone());
        self.publish_snapshot();
        epoch_trace.attr("dirty", delta.dirty_nfts as u64);
        epoch_trace.attr("transfers", delta.transfers as u64);
        epoch_trace.attr("confirmed", delta.confirmed_total as u64);
        epoch_trace.finish();
        if obs::recording() {
            // Judge the SLO catalog against the fresh metrics (including the
            // publish gauges this epoch just set); a newly violated rule
            // captures the flight ring as an incident.
            obs::health::evaluate(&obs::snapshot());
        }
        Some(delta)
    }

    /// Build the read-side [`Snapshot`] for the just-ingested epoch and swap
    /// it into the publisher — the publication seam between ingestion and
    /// the concurrent readers. Confirmation blocks come from the maintained
    /// `confirmed_at` map, which holds exactly the currently confirmed NFTs,
    /// so the snapshot's suspect log answers `suspects_since` exactly as the
    /// pre-index linear scan did; it is patched from the changed groups,
    /// never rebuilt. The per-marketplace rollup rows are this epoch's
    /// Table II pass (bit-identical to what the snapshot would re-derive)
    /// instead of a re-scan of every transfer for venue totals.
    ///
    /// Cost: the snapshot is **delta-encoded** against the one this analyzer
    /// last published. The expensive per-activity resolution (USD pricing,
    /// dominant venue, pattern classification, address resolution) runs only
    /// for the NFTs in `changed_nfts` — the epoch's changed groups; every
    /// unchanged NFT shares the previous epoch's resolved segment by `Arc`
    /// clone, and a quiet epoch shares every index wholesale. The first
    /// epoch of a generation (or one inheriting a foreign snapshot through
    /// [`StreamAnalyzer::with_publisher`]) pays one full build. Either path
    /// publishes a snapshot bit-identical to
    /// [`StreamAnalyzer::rebuild_full_snapshot`] — the AsOf-parity gate's
    /// invariant.
    fn publish_snapshot(&mut self) {
        let mut publish_trace = obs::trace::span("serve.publish");
        let meta = self.current_meta();
        let marketplaces = self.wash.rows.clone();
        let wash_volumes = Some(self.current_wash_volumes());
        let snapshot = match &self.last_snapshot {
            Some(previous) => Snapshot::delta_from_dense(
                previous,
                meta,
                &self.detection.confirmed,
                &self.dataset,
                self.input.directory,
                self.input.oracle,
                &self.confirmed_at,
                marketplaces,
                &self.changed_nfts,
                wash_volumes,
            ),
            None => Snapshot::from_dense_with_marketplaces(
                meta,
                &self.detection.confirmed,
                &self.dataset,
                self.input.directory,
                self.input.oracle,
                &self.confirmed_at,
                marketplaces,
                wash_volumes,
            ),
        };
        let build = snapshot.build_stats();
        publish_trace.attr("epoch", snapshot.epoch());
        publish_trace.attr("delta", u64::from(build.delta));
        publish_trace.attr("reuse_bp", (build.chunk_reuse_ratio() * 10_000.0) as u64);
        publish_trace.finish();
        self.last_snapshot = Some(snapshot.clone());
        self.publisher.publish(snapshot);
    }

    /// Version stamp of the next (or just-) published snapshot.
    fn current_meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            epoch: self.epoch_base + self.epochs.len() as u64,
            watermark: self.watermark,
        }
    }

    /// Rebuild the current epoch's snapshot from scratch through the full
    /// (non-delta) constructor. This is the delta path's reference: the
    /// result must be bit-identical to [`StreamAnalyzer::snapshot`], which
    /// the AsOf-parity gate asserts per epoch and the benchmark checks at
    /// every tip it reaches.
    pub fn rebuild_full_snapshot(&self) -> Snapshot {
        Snapshot::from_dense_with_marketplaces(
            self.current_meta(),
            &self.detection.confirmed,
            &self.dataset,
            self.input.directory,
            self.input.oracle,
            &self.confirmed_at,
            self.wash.rows.clone(),
            Some(self.current_wash_volumes()),
        )
    }

    /// The epoch's float wash-volume totals, from this epoch's Table II
    /// pass — the same flat fold over the same confirmed sequence the
    /// snapshot would run, so forwarding changes no bits (the parity suite
    /// pins this).
    fn current_wash_volumes(&self) -> WashVolumes {
        WashVolumes { eth: self.wash.total_volume_eth, usd: self.wash.total_volume_usd }
    }

    /// Ingest epochs of `max_blocks` until caught up with the chain tip;
    /// returns how many epochs were ingested.
    pub fn run_to_tip(&mut self, max_blocks: u64) -> usize {
        let mut epochs = 0;
        while self.ingest_epoch(max_blocks).is_some() {
            epochs += 1;
        }
        epochs
    }

    /// Bring the confirmed set and the snapshot inputs up to date with the
    /// dirty NFTs' fresh caches, at the cost of the NFTs whose confirmed
    /// group changed, plus the two folds bound to a fixed order.
    ///
    /// The dirty NFTs' candidate groups replace their old ones in the
    /// leverage index, which re-derives their verdicts and those of the NFTs
    /// whose leverage verdict flipped with them; no other NFT's confirmed
    /// group can change. Each re-derived group is compared with its old
    /// stretch of the dense confirmed list, and only the groups that differ
    /// patch the list and feed the Fig. 3 refcount flips — exact, because an
    /// unchanged group adds nothing to either. The Table I fold and the
    /// Table II pass still walk every NFT and every confirmed activity,
    /// replaying the batch fold order so every float matches batch bit for
    /// bit; the rest of the report waits for [`StreamAnalyzer::report`].
    /// Returns the changed groups, in ascending NFT order, which drive the
    /// caller's suspect transitions and the snapshot delta.
    fn reassemble(&mut self, last_block: BlockNumber, dirty: &[NftKey]) -> Vec<GroupChange> {
        let _reassemble_span = obs::span!("stream.reassemble_ns");
        let _reassemble_trace = obs::trace::span("stream.reassemble");
        let interner = &self.dataset.interner;
        let (directory, oracle) = (self.input.directory, self.input.oracle);

        // §IV-C/D: replace the dirty groups in the leverage index, which
        // names the NFTs whose leverage verdict flipped with them.
        let detect_span = obs::span!("stream.reassemble.detect_ns");
        let mut touched: Vec<(NftId, NftKey)> = Vec::with_capacity(dirty.len());
        for &key in dirty {
            let state = self.states.get(key.index()).and_then(Option::as_ref);
            let (candidates, evidence) = state.map_or((&[][..], &[][..]), |state| {
                (&state.refinement.candidates[..], &state.evidence[..])
            });
            let flipped = self.leverage.replace(key, candidates, evidence);
            touched.push((interner.nft(key), key));
            touched.extend(flipped.into_iter().map(|other| (interner.nft(other), other)));
        }
        touched.sort_unstable();
        touched.dedup();
        // A touched NFT's group changed iff it differs from the NFT's
        // stretch of the confirmed list, which is sorted by resolved NFT, so
        // one forward search finds each stretch.
        let previous = std::mem::take(&mut self.detection.confirmed);
        let mut groups = Vec::new();
        let mut from = 0;
        for (nft, key) in touched {
            let start =
                from + previous[from..].partition_point(|a| interner.nft(a.candidate.nft) < nft);
            let end =
                start + previous[start..].iter().take_while(|a| a.candidate.nft == key).count();
            from = end;
            let candidates = self
                .states
                .get(key.index())
                .and_then(Option::as_ref)
                .map_or(&[][..], |state| &state.refinement.candidates[..]);
            let verdicts = self.leverage.confirmed(key);
            let unchanged = end - start == verdicts.len()
                && previous[start..end].iter().zip(verdicts).all(|(activity, &(at, methods))| {
                    activity.methods == methods && activity.candidate == candidates[at]
                });
            if !unchanged {
                let group = verdicts
                    .iter()
                    .map(|&(at, methods)| DenseActivity {
                        candidate: candidates[at].clone(),
                        methods,
                    })
                    .collect();
                groups.push((nft, start..end, group));
            }
        }
        let (confirmed, changes) = patch_groups(previous, groups);
        self.detection = self.leverage.outcome(confirmed);
        drop(detect_span);

        // §V: the Fig. 3 refcounts, Table I and Table II.
        let _characterize_span = obs::span!("stream.reassemble.characterize_ns");
        // Fig. 3 baseline: price only the new rows, and flip only the rows
        // whose wash status the changed groups' transition changed.
        self.legit.append_rows(&self.dataset, oracle);
        self.legit.apply_confirmed_delta(
            &self.dataset.columns,
            changes.iter().flat_map(|change| &change.previous),
            changes.iter().flat_map(|change| &self.detection.confirmed[change.current.clone()]),
        );
        // Extend the id-sorted key order with this epoch's new keys: the
        // interner is append-only, so they are exactly the tail range.
        let nft_count = interner.nft_count();
        if self.known_keys < nft_count {
            let mut fresh: Vec<NftKey> =
                (self.known_keys..nft_count).map(|index| NftKey(index as u32)).collect();
            fresh.sort_by_key(|&key| interner.nft(key));
            let mut merged = Vec::with_capacity(self.nft_id_order.len() + fresh.len());
            let mut old = self.nft_id_order.iter().copied().peekable();
            let mut new = fresh.into_iter().peekable();
            while let (Some(&a), Some(&b)) = (old.peek(), new.peek()) {
                if interner.nft(a) <= interner.nft(b) {
                    merged.push(a);
                    old.next();
                } else {
                    merged.push(b);
                    new.next();
                }
            }
            merged.extend(old);
            merged.extend(new);
            self.nft_id_order = merged;
            self.known_keys = nft_count;
        }
        // Table I totals: the batch fold itself, over cached per-NFT leaves
        // in the same id-sorted order (only dirty NFTs were repriced), so
        // every dedup verdict and every f64 add matches batch bit for bit.
        let mut fold = MarketVolumeFold::new(interner.market_count());
        for &key in &self.nft_id_order {
            if let Some(leaves) = self.market_leaves.get(key.index()).and_then(Option::as_ref) {
                fold.add(key, leaves);
            }
        }
        self.market_totals = market_totals(&fold.rows(directory, interner));
        // Table II and the wash totals, for the snapshot: the fold
        // `characterize_from_parts` runs, over the same facts in the same
        // order.
        let facts = self.confirmed_facts();
        let facts: Vec<&ActivityFacts> = facts.iter().map(|facts| &facts.characterize).collect();
        self.wash = marketplace_wash(&self.detection.confirmed, &facts, &self.market_totals);
        self.watermark = BlockNumber(last_block.0 + 1);
        changes
    }

    /// The cached facts of every confirmed activity, in confirmed order.
    fn confirmed_facts(&self) -> Vec<&CandidateFacts> {
        let mut facts = Vec::with_capacity(self.detection.confirmed.len());
        for group in self.detection.confirmed.chunk_by(|a, b| a.candidate.nft == b.candidate.nft) {
            let key = group[0].candidate.nft;
            let state =
                self.states[key.index()].as_ref().expect("confirmed NFT has a cached state");
            facts.extend(self.leverage.confirmed(key).iter().map(|&(at, _)| &state.facts[at]));
        }
        facts
    }

    /// The live report as of the last ingested epoch.
    ///
    /// Built on the first read after an epoch, from the maintained state:
    /// the characterize reduce over the confirmed activities' cached facts,
    /// the Fig. 3 CDF, both profit reduces over cached outcomes, and one
    /// resolution of the dense detection outcome — O(confirmed), the same
    /// reduces the batch pipeline runs, so the report is bit-identical to
    /// [`StreamAnalyzer::rebuild_full_report`]. Later reads return the
    /// cached report until the next [`StreamAnalyzer::ingest_epoch`].
    pub fn report(&self) -> &LiveReport {
        self.report.get_or_init(|| {
            let _span = obs::span!("stream.report_ns");
            let dataset = &self.dataset;
            let directory = self.input.directory;
            let facts = self.confirmed_facts();
            let characterize_facts: Vec<&ActivityFacts> =
                facts.iter().map(|facts| &facts.characterize).collect();
            let baseline = CharacterizeBaseline {
                market_totals: self.market_totals.clone(),
                legit_volume_cdf: self.legit.cdf(),
                collection_created: self.collection_created.clone(),
            };
            LiveReport {
                refinement: self.refine_agg.report(),
                detection: self.detection.resolve(&dataset.interner),
                characterization: characterize_from_parts(
                    &self.detection.confirmed,
                    &characterize_facts,
                    baseline,
                ),
                rewards: reduce_rewards(
                    facts.iter().filter_map(|facts| facts.reward.as_ref()),
                    directory,
                ),
                resales: reduce_resales(facts.iter().filter_map(|facts| facts.resale.as_ref())),
                dataset_nfts: dataset.nft_count(),
                dataset_transfers: dataset.transfer_count(),
                raw_transfer_events: dataset.raw_transfer_events,
                compliant_contracts: dataset.compliant_contracts.len(),
                non_compliant_contracts: dataset.non_compliant_contracts.len(),
                watermark: self.watermark,
                epochs: self.epochs.clone(),
            }
        })
    }

    /// Rebuild the current live report from scratch — the pre-incremental
    /// full-rescan tail: flatten and globally sort every cached candidate,
    /// re-run the leverage pass, then recompute characterization and both
    /// profit analyses over the full confirmed set with no cached leaves.
    /// This is the incremental path's reference: the result must be
    /// bit-identical to [`StreamAnalyzer::report`] after every epoch (the
    /// equivalence suite asserts it).
    pub fn rebuild_full_report(&self) -> LiveReport {
        let dataset = &self.dataset;
        let interner = &dataset.interner;
        let refinement =
            aggregate_refinements(self.states.iter().flatten().map(|state| &state.refinement));
        let mut pairs: Vec<(DenseCandidate, MethodSet)> = self
            .states
            .iter()
            .flatten()
            .flat_map(|state| {
                state.refinement.candidates.iter().cloned().zip(state.evidence.iter().copied())
            })
            .collect();
        pairs.sort_by_key(|(candidate, _)| candidate.sort_key(interner));
        let (candidates, evidence): (Vec<DenseCandidate>, Vec<MethodSet>) =
            pairs.into_iter().unzip();
        let detection = Detector::assemble(&candidates, evidence);
        let characterization =
            characterize(&detection.confirmed, dataset, self.input.directory, self.input.oracle);
        let rewards = analyze_rewards(
            &detection.confirmed,
            self.input.chain,
            self.input.directory,
            self.input.oracle,
            interner,
        );
        let resales = analyze_resales(
            &detection.confirmed,
            self.input.chain,
            self.input.directory,
            self.input.oracle,
            self.graphs.table(),
            interner,
        );
        LiveReport {
            refinement,
            characterization,
            rewards,
            resales,
            detection: detection.resolve(interner),
            dataset_nfts: dataset.nft_count(),
            dataset_transfers: dataset.transfer_count(),
            raw_transfer_events: dataset.raw_transfer_events,
            compliant_contracts: dataset.compliant_contracts.len(),
            non_compliant_contracts: dataset.non_compliant_contracts.len(),
            watermark: self.watermark,
            epochs: self.epochs.clone(),
        }
    }

    /// Whether every block currently on the chain has been ingested.
    pub fn is_caught_up(&self) -> bool {
        self.cursor.is_caught_up(self.input.chain)
    }

    /// The streaming status of one NFT, as of the last ingested epoch.
    /// Answered from the NFT's own cached state and confirmed group: it
    /// neither walks the confirmed set nor builds the report.
    pub fn status(&self, nft: NftId) -> NftStatus {
        let Some(key) = self.dataset.interner.nft_key(nft) else {
            return NftStatus::Unseen;
        };
        if let Some(state) = self.states.get(key.index()).and_then(Option::as_ref) {
            let confirmed = self.leverage.confirmed(key);
            if !confirmed.is_empty() {
                return NftStatus::Confirmed {
                    activities: confirmed.len(),
                    volume: confirmed
                        .iter()
                        .map(|&(at, _)| state.refinement.candidates[at].volume)
                        .sum(),
                };
            }
            if !state.refinement.candidates.is_empty() {
                return NftStatus::Candidate { components: state.refinement.candidates.len() };
            }
        }
        match self.dataset.columns.transfer_count_of(key) {
            0 => NftStatus::Unseen,
            transfers => NftStatus::Clean { transfers },
        }
    }

    /// A handle on the publication slot this analyzer publishes into after
    /// every epoch. Clones are cheap and independent of the analyzer's
    /// lifetime: hand them to reader threads (or a
    /// [`washtrade_serve::QueryService`]) and they keep serving the latest
    /// published snapshot while ingestion continues.
    pub fn publisher(&self) -> SnapshotPublisher {
        self.publisher.clone()
    }

    /// The currently published snapshot — the state of the last ingested
    /// epoch (the empty epoch-zero snapshot before any ingestion).
    pub fn snapshot(&self) -> Snapshot {
        self.publisher.load()
    }

    /// The confirmed activities still in dense-id form, as the last epoch's
    /// snapshot was built from them.
    pub fn dense_confirmed(&self) -> &[DenseActivity] {
        &self.detection.confirmed
    }

    /// Currently confirmed NFTs whose latest transition into the confirmed
    /// set happened at or after `block` (measured by the last block of the
    /// epoch that confirmed them), ascending.
    ///
    /// Served from the published snapshot's block-sorted suspect log —
    /// O(log suspects + answer) instead of the pre-index scan over every
    /// NFT ever confirmed — with output bit-identical to that scan (the
    /// equivalence proptest checks both helpers against reference
    /// recomputations).
    pub fn suspects_since(&self, block: BlockNumber) -> Vec<NftId> {
        self.publisher.load().suspects_since(block)
    }

    /// The `n` confirmed NFTs with the largest wash volume, descending
    /// (ties broken by NFT id, so the ranking is deterministic).
    ///
    /// Served as a prefix of the published snapshot's precomputed ranking —
    /// no per-query aggregation over the confirmed set.
    pub fn top_movers(&self, n: usize) -> Vec<(NftId, Wei)> {
        self.publisher.load().top_movers(n)
    }
}

/// One NFT whose confirmed group an epoch changed.
#[derive(Debug, Clone, PartialEq)]
struct GroupChange {
    nft: NftId,
    /// The group's previous activities; empty for a new suspect.
    previous: Vec<DenseActivity>,
    /// The group's range in the patched confirmed list; empty for a lost
    /// suspect.
    current: Range<usize>,
}

/// Patch a confirmed list with each changed NFT's new group: `group`
/// replaces `confirmed[range]` (ranges ascending and disjoint; an empty
/// range inserts where the group sorts), and every stretch in between moves
/// over as is. Returns the patched list and the changes, each with the
/// activities it replaced and its range in the patched list.
fn patch_groups(
    confirmed: Vec<DenseActivity>,
    groups: Vec<(NftId, Range<usize>, Vec<DenseActivity>)>,
) -> (Vec<DenseActivity>, Vec<GroupChange>) {
    if groups.is_empty() {
        return (confirmed, Vec::new());
    }
    let mut old = confirmed.into_iter();
    let mut patched = Vec::with_capacity(old.len());
    let mut changes = Vec::with_capacity(groups.len());
    let mut at = 0;
    for (nft, range, group) in groups {
        patched.extend(old.by_ref().take(range.start - at));
        let previous = old.by_ref().take(range.len()).collect();
        let start = patched.len();
        patched.extend(group);
        changes.push(GroupChange { nft, previous, current: start..patched.len() });
        at = range.end;
    }
    patched.extend(old);
    (patched, changes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::TxHash;
    use ids::Interner;
    use washtrade::txgraph::DenseTradeEdge;

    /// A one-sale self-trade on `nft` by `account`, priced `eth`.
    fn activity(interner: &mut Interner, nft: NftId, account: &str, eth: u64) -> DenseActivity {
        let account = interner.intern_account(Address::derived(account));
        let edge = DenseTradeEdge {
            timestamp: Timestamp::from_secs(eth),
            tx_hash: TxHash::hash_of(format!("{nft:?}-{eth}").as_bytes()),
            tx: ids::TxId(eth as u32),
            marketplace: None,
            price: Wei::from_eth(eth as f64),
        };
        DenseActivity {
            candidate: DenseCandidate {
                nft: interner.intern_nft(nft),
                accounts: vec![account],
                volume: edge.price,
                first_trade: edge.timestamp,
                last_trade: edge.timestamp,
                internal_edges: vec![(account, account, edge)],
            },
            methods: MethodSet { self_trade: true, ..MethodSet::default() },
        }
    }

    #[test]
    fn patch_replaces_changed_groups_and_moves_the_rest() {
        let mut interner = Interner::new();
        let nfts: Vec<NftId> =
            (0..7).map(|token| NftId::new(Address::derived("patch"), token)).collect();
        let [a, b, c, d, e, f, g] = nfts[..] else { unreachable!() };
        let previous = vec![
            activity(&mut interner, a, "x", 1),
            activity(&mut interner, b, "x", 2),
            activity(&mut interner, b, "y", 3),
            activity(&mut interner, c, "x", 4),
            activity(&mut interner, e, "x", 5),
            activity(&mut interner, f, "x", 6),
        ];
        let current = vec![
            activity(&mut interner, a, "x", 1),
            activity(&mut interner, b, "x", 2),
            activity(&mut interner, d, "x", 7),
            activity(&mut interner, e, "x", 5),
            activity(&mut interner, g, "x", 8),
        ];
        let groups = vec![
            (b, 1..3, current[1..2].to_vec()), // lost one of two activities
            (c, 3..4, Vec::new()),             // lost suspect, mid-list
            (d, 4..4, current[2..3].to_vec()), // new suspect, mid-list
            (f, 5..6, Vec::new()),             // lost suspect, at the end
            (g, 6..6, current[4..5].to_vec()), // new suspect, at the end
        ];
        let (patched, changes) = patch_groups(previous.clone(), groups);
        assert_eq!(patched, current);
        let change = |nft, previous: &[DenseActivity], current| GroupChange {
            nft,
            previous: previous.to_vec(),
            current,
        };
        assert_eq!(
            changes,
            vec![
                change(b, &previous[1..3], 1..2),
                change(c, &previous[3..4], 2..2),
                change(d, &[], 2..3),
                change(f, &previous[5..6], 4..4),
                change(g, &[], 4..5),
            ]
        );

        // No change hands the list back untouched; replacing every group
        // from or to an empty list rebuilds or clears it.
        assert_eq!(patch_groups(current.clone(), Vec::new()), (current.clone(), Vec::new()));
        let (built, _) = patch_groups(Vec::new(), vec![(a, 0..0, current.clone())]);
        assert_eq!(built, current);
        let (cleared, changes) = patch_groups(current.clone(), vec![(a, 0..5, Vec::new())]);
        assert!(cleared.is_empty());
        assert_eq!(changes, vec![change(a, &current, 0..0)]);
    }

    /// `confirmed_at` holds exactly the confirmed NFTs, each dated by the
    /// epoch that last listed it as a new suspect. The snapshot only looks
    /// up confirmed NFTs, so a stale entry would never show in a query —
    /// only as unbounded growth. The world and epoch size are those of the
    /// equivalence suite's adversarial fixture, which loses suspects.
    #[test]
    fn confirmed_at_holds_exactly_the_confirmed_nfts() {
        let world = workload::World::generate(workload::WorkloadConfig {
            seed: 11,
            duration_days: 80,
            collections: 4,
            non_compliant_collections: 1,
            erc1155_collections: 1,
            dex_position_nfts: 2,
            legit_traders: 12,
            legit_sales: 30,
            zero_volume_shuffles: 2,
            wash_activities: 10,
            serial_trader_fraction: 0.3,
            ..workload::WorkloadConfig::small(11)
        })
        .expect("world");
        let input = AnalysisInput {
            chain: &world.chain,
            labels: &world.labels,
            directory: &world.directory,
            oracle: &world.oracle,
        };
        let mut live = StreamAnalyzer::new(input, StreamOptions::single_threaded());
        let mut dated: HashMap<NftId, BlockNumber> = HashMap::new();
        let mut lost = 0;
        while let Some(delta) = live.ingest_epoch(7) {
            dated.extend(delta.new_suspects.iter().map(|nft| (*nft, delta.last_block)));
            let confirmed: BTreeSet<NftId> =
                live.report().detection.confirmed.iter().map(|a| a.nft()).collect();
            dated.retain(|nft, _| confirmed.contains(nft));
            assert_eq!(live.confirmed_at, dated, "epoch {}", delta.index);
            lost += delta.lost_suspects;
        }
        assert!(lost > 0, "the fixture must lose a suspect");
    }
}
