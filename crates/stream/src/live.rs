//! The live analyzer: a dirty-set scheduler over the epoch-grown dataset and
//! the incremental graphs that keeps a [`LiveReport`] continuously up to
//! date and guarantees convergence to the batch result at the chain tip (see
//! the mid-stream semantics note on [`StreamAnalyzer`] for what "up to date"
//! means before the tip).
//!
//! Per epoch, only the NFTs touched by new transfers are re-refined and
//! re-evaluated (a pure per-NFT computation, fanned out over the shared
//! [`Executor`]); the global artifacts — leverage pass, Venn counts,
//! refinement report, characterization — are then re-assembled from the
//! per-NFT caches through the exact same code paths the batch pipeline uses.
//! That shared-code-path design is what makes the headline invariant hold:
//! after ingesting all epochs, the live report is bit-identical to batch
//! analysis of the same chain, at any epoch size and thread count.
//!
//! The scheduler is dense end to end: dirty sets are `Vec<NftKey>`, the
//! per-NFT cache is a `Vec` indexed by [`NftKey`], and candidates stay in
//! dense-id form until the per-epoch [`LiveReport`] is assembled — the same
//! single resolve-at-report-boundary point the batch pipeline uses.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};

use ethsim::{Address, BlockNumber, Timestamp, Wei};
use graphlib::PatternCatalogue;
use ids::NftKey;
use serde::{Deserialize, Serialize};
use tokens::NftId;
use washtrade::characterize::{
    activity_facts, characterize, characterize_from_parts, market_totals, ActivityFacts,
    Characterization, CharacterizeBaseline,
};
use washtrade::dataset::{Dataset, MarketVolumeFold, NftMarketLeaves};
use washtrade::detect::{ConfirmedActivity, DenseActivity, DetectionOutcome, Detector, MethodSet};
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
    /// Wall-clock time of the epoch's report reassembly (the
    /// refine-aggregate → detect → characterize → profit tail), nanoseconds
    /// — the benchmark's `stream.reassemble_ms` sample.
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

/// The continuously maintained analysis state, exposing the same §IV-B/§IV-C,
/// §V and §VI numbers as the batch `AnalysisReport` plus the per-epoch
/// history.
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
/// facts — everything the per-epoch reassembly folds, valid until the NFT's
/// graph next changes. Candidates (with their aligned evidence and facts)
/// are stored sorted by the batch sort key, so walking suspect NFTs in id
/// order replays the exact batch candidate sequence with no global sort.
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
    /// report each epoch is O(1) instead of a rescan of every state.
    refine_agg: RefinementAggregator,
    /// NFTs with a cached state (suspects), keyed by resolved identity — the
    /// reassembly walks this map to visit candidates in the exact order the
    /// batch global sort produces.
    suspects_by_id: BTreeMap<NftId, NftKey>,
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
    /// of every published snapshot. Maintained from each epoch's group
    /// diff: inserted when an NFT's group appears, removed when it goes.
    confirmed_at: HashMap<NftId, BlockNumber>,
    /// The confirmed activities still in dense-id form — what each epoch's
    /// snapshot is built from (the publication seam's input). Aligned 1:1
    /// with `live.detection.confirmed`, its resolved twin.
    dense_confirmed: Vec<DenseActivity>,
    /// NFTs whose confirmed activities changed in the last reassembly, read
    /// off the epoch's [`GroupChange`] diff. This is the delta-build
    /// contract: diffing outcomes (not the dirty set) also catches
    /// leverage-pass flips on NFTs whose own graphs were untouched.
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
    live: LiveReport,
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
        let empty = Dataset::default();
        let live = LiveReport {
            refinement: RefinementReport::default(),
            detection: DetectionOutcome::default(),
            characterization: characterize(&[], &empty, input.directory, input.oracle),
            rewards: reduce_rewards(std::iter::empty(), input.directory),
            resales: reduce_resales(std::iter::empty()),
            dataset_nfts: 0,
            dataset_transfers: 0,
            raw_transfer_events: 0,
            compliant_contracts: 0,
            non_compliant_contracts: 0,
            watermark: BlockNumber(0),
            epochs: Vec::new(),
        };
        let epoch_base = publisher.epoch();
        StreamAnalyzer {
            input,
            executor: Executor::new(options.threads),
            cursor: BlockCursor::new(),
            dataset: empty,
            graphs: IncrementalGraphs::new(),
            states: Vec::new(),
            refine_agg: RefinementAggregator::default(),
            suspects_by_id: BTreeMap::new(),
            nft_id_order: Vec::new(),
            known_keys: 0,
            market_leaves: Vec::new(),
            collection_created: HashMap::new(),
            legit: LegitVolumeSet::new(),
            confirmed_at: HashMap::new(),
            dense_confirmed: Vec::new(),
            changed_nfts: BTreeSet::new(),
            last_snapshot: None,
            publisher,
            epoch_base,
            live,
        }
    }

    /// Ingest the next epoch of at most `max_blocks` blocks: append the new
    /// transfers, grow the touched graphs, re-refine and re-evaluate exactly
    /// the dirty NFT set, and re-assemble the live report. Returns `None`
    /// once the cursor is caught up with the chain tip.
    pub fn ingest_epoch(&mut self, max_blocks: u64) -> Option<EpochDelta> {
        let span = self.cursor.next_epoch(self.input.chain, max_blocks)?;
        let started = Instant::now();
        // Root of this epoch's span tree: every traced phase below — the
        // ingest decode and commit, the dirty-set fan-out, reassembly, and
        // the snapshot publish — parents under it.
        let mut epoch_trace = obs::trace::span("stream.epoch");
        epoch_trace.attr("epoch", self.live.epochs.len() as u64);
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
                // strictly unique, so the reassembly's id-ordered walk over
                // per-NFT sorted lists reproduces the global sorted sequence.
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
            if state.refinement.is_empty() {
                self.suspects_by_id.remove(&interner.nft(nft));
            } else {
                self.refine_agg.add(&state.refinement);
                self.suspects_by_id.insert(interner.nft(nft), nft);
                *slot = Some(state);
            }
        }

        let reassemble_started = Instant::now();
        let changes = self.reassemble(span.last);
        let reassemble_ns =
            u64::try_from(reassemble_started.elapsed().as_nanos().max(1)).unwrap_or(u64::MAX);

        // Delta bookkeeping, from the group diff alone: a group absent on
        // the previous side is a new suspect, one absent on the current side
        // a lost one. Changes come in ascending NFT order, so `new_suspects`
        // is sorted. An NFT that lost its confirmation and regains it later
        // is re-inserted with the *latest* transition, so `suspects_since`
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
            index: self.live.epochs.len(),
            first_block: span.first,
            last_block: span.last,
            raw_events: ingest.raw_events,
            transfers: applied.appended,
            dirty_nfts: applied.dirty.len(),
            total_nfts: self.dataset.nft_count(),
            new_suspects,
            lost_suspects,
            confirmed_total: self.live.detection.confirmed.len(),
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
            obs::gauge!("stream.watermark", self.live.watermark.0 as i64);
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
        self.live.epochs.push(delta.clone());
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
    /// pre-index linear scan did; it is patched from the group diff, never
    /// rebuilt. The per-marketplace rollup rows are reused from the
    /// characterization this epoch just re-assembled (they are bit-identical
    /// to what the snapshot would re-derive) instead of re-scanning every
    /// transfer for venue totals.
    ///
    /// Cost: the snapshot is **delta-encoded** against the one this analyzer
    /// last published. The expensive per-activity resolution (USD pricing,
    /// dominant venue, pattern classification, address resolution) runs only
    /// for the NFTs in `changed_nfts` — the changed groups of the epoch's
    /// diff; every unchanged NFT shares the previous epoch's resolved
    /// segment by `Arc` clone, and a quiet epoch shares every index
    /// wholesale. The first epoch of a generation (or one inheriting a
    /// foreign snapshot through [`StreamAnalyzer::with_publisher`]) pays one
    /// full build. Either path publishes a snapshot bit-identical to
    /// [`StreamAnalyzer::rebuild_full_snapshot`] — the AsOf-parity gate's
    /// invariant.
    fn publish_snapshot(&mut self) {
        let mut publish_trace = obs::trace::span("serve.publish");
        let meta = self.current_meta();
        let marketplaces = self.live.characterization.per_marketplace.clone();
        let wash_volumes = Some(self.current_wash_volumes());
        let snapshot = match &self.last_snapshot {
            Some(previous) => Snapshot::delta_from_dense(
                previous,
                meta,
                &self.dense_confirmed,
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
                &self.dense_confirmed,
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
            epoch: self.epoch_base + self.live.epochs.len() as u64,
            watermark: self.live.watermark,
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
            &self.dense_confirmed,
            &self.dataset,
            self.input.directory,
            self.input.oracle,
            &self.confirmed_at,
            self.live.characterization.per_marketplace.clone(),
            Some(self.current_wash_volumes()),
        )
    }

    /// The epoch's float wash-volume totals, forwarded from the
    /// characterization this epoch's reassembly just computed — the same
    /// flat fold over the same confirmed sequence the snapshot would run,
    /// so forwarding changes no bits (the parity suite pins this).
    fn current_wash_volumes(&self) -> WashVolumes {
        WashVolumes {
            eth: self.live.characterization.total_volume_eth,
            usd: self.live.characterization.total_volume_usd,
        }
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

    /// Re-assemble the global artifacts from the per-NFT caches, mirroring
    /// the batch pipeline's refine → detect → characterize → profit tail over
    /// the ingested prefix — but at dirty-set cost: every expensive
    /// per-candidate and per-row value is read from a maintained cache, and
    /// only the final folds (which replay the exact batch accumulation order,
    /// so every float comes out bit-identical) run over the full suspect set.
    ///
    /// Right after detection, one walk diffs the new dense confirmed list
    /// against the previous one per NFT group ([`confirmed_group_diff`]),
    /// and the confirmed-set bookkeeping then runs over the changed groups
    /// only: the legit-volume flips, and the resolved [`DetectionOutcome`]
    /// of the [`LiveReport`], which keeps the previous epoch's resolved
    /// activities for every unchanged group and resolves only the changed
    /// ones. Both are exact — an unchanged group contributes nothing to the
    /// refcount delta, and the interner is append-only, so equal dense
    /// groups resolve to equal activities. Returns the diff, which also
    /// drives the caller's suspect transitions and the snapshot delta.
    fn reassemble(&mut self, last_block: BlockNumber) -> Vec<GroupChange> {
        let _reassemble_span = obs::span!("stream.reassemble_ns");
        let _reassemble_trace = obs::trace::span("stream.reassemble");
        let dataset = &self.dataset;
        let interner = &dataset.interner;
        let (directory, oracle) = (self.input.directory, self.input.oracle);

        // §IV-B: the maintained aggregate already holds the report.
        {
            let _span = obs::span!("stream.reassemble.refine_agg_ns");
            self.live.refinement = self.refine_agg.report();
        }

        // §IV-C/D: walk suspect NFTs in resolved-id order; per-NFT candidate
        // lists are stored sorted by the batch sort key, whose leading
        // component is the NFT id — so this concatenation *is* the batch
        // global sort, with no per-epoch sort or candidate clone.
        let _detect_span = obs::span!("stream.reassemble.detect_ns");
        let mut pairs: Vec<(&DenseCandidate, MethodSet)> = Vec::new();
        let mut pair_facts: Vec<&CandidateFacts> = Vec::new();
        for &key in self.suspects_by_id.values() {
            let state = self.states[key.index()].as_ref().expect("suspect NFT has a cached state");
            for ((candidate, methods), facts) in
                state.refinement.candidates.iter().zip(&state.evidence).zip(&state.facts)
            {
                pairs.push((candidate, *methods));
                pair_facts.push(facts);
            }
        }
        let (detection, confirmed_indices) = Detector::assemble_indexed(&pairs);
        let confirmed_facts: Vec<&CandidateFacts> =
            confirmed_indices.iter().map(|&index| pair_facts[index as usize]).collect();
        let changes = confirmed_group_diff(&self.dense_confirmed, &detection.confirmed, interner);
        drop(_detect_span);

        // §V: characterization from cached leaves + maintained baselines.
        let _characterize_span = obs::span!("stream.reassemble.characterize_ns");
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
        // Fig. 3 baseline: price only the new rows, and flip only the rows
        // whose wash status the changed groups' transition changed.
        self.legit.append_rows(dataset, oracle);
        let previous = &self.dense_confirmed;
        self.legit.apply_confirmed_delta(
            &dataset.columns,
            changes.iter().flat_map(|change| &previous[change.previous.clone()]),
            changes.iter().flat_map(|change| &detection.confirmed[change.current.clone()]),
        );
        // Table I totals: the batch fold itself, over cached per-NFT leaves
        // in the same id-sorted order (only dirty NFTs were repriced), so
        // every dedup verdict and every f64 add matches batch bit for bit.
        let mut fold = MarketVolumeFold::new(interner.market_count());
        for &key in &self.nft_id_order {
            if let Some(leaves) = self.market_leaves.get(key.index()).and_then(Option::as_ref) {
                fold.add(key, leaves);
            }
        }
        let baseline = CharacterizeBaseline {
            market_totals: market_totals(&fold.rows(directory, interner)),
            legit_volume_cdf: self.legit.cdf(),
            collection_created: self.collection_created.clone(),
        };
        let facts: Vec<&ActivityFacts> =
            confirmed_facts.iter().map(|facts| &facts.characterize).collect();
        self.live.characterization =
            characterize_from_parts(&detection.confirmed, &facts, baseline);
        drop(_characterize_span);

        // §VI: profit reduces over cached outcomes, in confirmed order.
        {
            let _span = obs::span!("stream.reassemble.profit_ns");
            self.live.rewards = reduce_rewards(
                confirmed_facts.iter().filter_map(|facts| facts.reward.as_ref()),
                directory,
            );
            self.live.resales =
                reduce_resales(confirmed_facts.iter().filter_map(|facts| facts.resale.as_ref()));
        }

        let previous_resolved = std::mem::take(&mut self.live.detection.confirmed);
        self.live.detection = DetectionOutcome {
            confirmed: patch_resolved(previous_resolved, &detection.confirmed, &changes, interner),
            rejected: detection.rejected,
            venn: detection.venn,
            leveraged_only: detection.leveraged_only,
            self_trades: detection.self_trades,
        };
        self.dense_confirmed = detection.confirmed;
        self.live.dataset_nfts = dataset.nft_count();
        self.live.dataset_transfers = dataset.transfer_count();
        self.live.raw_transfer_events = dataset.raw_transfer_events;
        self.live.compliant_contracts = dataset.compliant_contracts.len();
        self.live.non_compliant_contracts = dataset.non_compliant_contracts.len();
        self.live.watermark = BlockNumber(last_block.0 + 1);
        changes
    }

    /// The live report as of the last ingested epoch.
    pub fn report(&self) -> &LiveReport {
        &self.live
    }

    /// Rebuild the current live report from scratch — the pre-incremental
    /// full-rescan tail: flatten and globally sort every cached candidate,
    /// re-run the leverage pass, then recompute characterization and both
    /// profit analyses over the full confirmed set with no cached leaves.
    /// This is the incremental reassembly's reference: the result must be
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
            watermark: self.live.watermark,
            epochs: self.live.epochs.clone(),
        }
    }

    /// Whether every block currently on the chain has been ingested.
    pub fn is_caught_up(&self) -> bool {
        self.cursor.is_caught_up(self.input.chain)
    }

    /// The streaming status of one NFT.
    pub fn status(&self, nft: NftId) -> NftStatus {
        let confirmed: Vec<&washtrade::refine::Candidate> = self
            .live
            .detection
            .confirmed
            .iter()
            .filter(|activity| activity.nft() == nft)
            .map(|activity| &activity.candidate)
            .collect();
        if !confirmed.is_empty() {
            return NftStatus::Confirmed {
                activities: confirmed.len(),
                volume: confirmed.iter().map(|candidate| candidate.volume).sum(),
            };
        }
        let dataset = &self.dataset;
        let Some(key) = dataset.interner.nft_key(nft) else {
            return NftStatus::Unseen;
        };
        if let Some(state) = self.states.get(key.index()).and_then(Option::as_ref) {
            if !state.refinement.candidates.is_empty() {
                return NftStatus::Candidate { components: state.refinement.candidates.len() };
            }
        }
        match dataset.columns.transfer_count_of(key) {
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
        &self.dense_confirmed
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

/// One NFT whose confirmed activity group differs between two consecutive
/// dense confirmed lists: the group's index range in each list. On the side
/// where the NFT is absent the range is empty, placed where the group would
/// sit, so the stretches between consecutive changes line up one to one.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupChange {
    nft: NftId,
    previous: Range<usize>,
    current: Range<usize>,
}

/// The per-NFT group diff of two consecutive dense confirmed lists, in
/// ascending NFT order — the one walk over the confirmed set that every
/// piece of confirmed-set bookkeeping reads: the legit-volume flips, the
/// resolved-report patch, the suspect transitions and the snapshot's
/// changed set. Both inputs are in confirmed order (sorted by `(resolved
/// NFT, first account)`), so this is a linear merge over per-NFT groups; a
/// group present on only one side (new or lost suspect) is changed, a group
/// present on both sides is changed iff its dense activities differ. Dense
/// keys are bijective with NFT ids, so equal keys need no resolution; only a
/// mismatch resolves both to order them.
fn confirmed_group_diff(
    previous: &[DenseActivity],
    current: &[DenseActivity],
    interner: &ids::Interner,
) -> Vec<GroupChange> {
    fn group_end(activities: &[DenseActivity], start: usize) -> usize {
        let key = activities[start].candidate.nft;
        let mut end = start + 1;
        while end < activities.len() && activities[end].candidate.nft == key {
            end += 1;
        }
        end
    }
    let mut changes = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < previous.len() || j < current.len() {
        let prev_key = previous.get(i).map(|activity| activity.candidate.nft);
        let cur_key = current.get(j).map(|activity| activity.candidate.nft);
        let order = match (prev_key, cur_key) {
            (Some(prev), Some(cur)) if prev == cur => Ordering::Equal,
            (Some(prev), Some(cur)) => interner.nft(prev).cmp(&interner.nft(cur)),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        let (prev_end, cur_end) = match order {
            Ordering::Equal => (group_end(previous, i), group_end(current, j)),
            Ordering::Less => (group_end(previous, i), j),
            Ordering::Greater => (i, group_end(current, j)),
        };
        if previous[i..prev_end] != current[j..cur_end] {
            let key = if prev_end > i { &previous[i] } else { &current[j] }.candidate.nft;
            changes.push(GroupChange {
                nft: interner.nft(key),
                previous: i..prev_end,
                current: j..cur_end,
            });
        }
        i = prev_end;
        j = cur_end;
    }
    changes
}

/// The resolved twin of `current`, patched from `previous` — the resolved
/// twin of the list `changes` was diffed against: every unchanged stretch
/// moves over as is, and only the changed groups are resolved. Exact
/// because the interner is append-only, so an unchanged dense group
/// resolves to the activities it resolved to before.
fn patch_resolved(
    previous: Vec<ConfirmedActivity>,
    current: &[DenseActivity],
    changes: &[GroupChange],
    interner: &ids::Interner,
) -> Vec<ConfirmedActivity> {
    let mut previous = previous.into_iter();
    let mut resolved = Vec::with_capacity(current.len());
    let mut at = 0;
    for change in changes {
        resolved.extend(previous.by_ref().take(change.current.start - at));
        previous.by_ref().take(change.previous.len()).for_each(drop);
        resolved.extend(current[change.current.clone()].iter().map(|a| a.resolve(interner)));
        at = change.current.end;
    }
    resolved.extend(previous);
    assert_eq!(resolved.len(), current.len(), "patched report misaligned");
    resolved
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
    fn group_diff_reports_changed_groups_with_aligned_ranges() {
        let mut interner = Interner::new();
        let mut nfts: Vec<NftId> =
            (0..7).map(|token| NftId::new(Address::derived("diff"), token)).collect();
        nfts.sort();
        // Intern in descending identity order, so dense-key order disagrees
        // with the confirmed (identity) order the diff must follow.
        for nft in nfts.iter().rev() {
            interner.intern_nft(*nft);
        }
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
        let change = |nft, previous, current| GroupChange { nft, previous, current };
        let changes = confirmed_group_diff(&previous, &current, &interner);
        assert_eq!(
            changes,
            vec![
                change(b, 1..3, 1..2), // lost one of two activities
                change(c, 3..4, 2..2), // lost suspect, mid-list
                change(d, 4..4, 2..3), // new suspect, mid-list
                change(f, 5..6, 4..4), // lost suspect, at the end
                change(g, 6..6, 4..5), // new suspect, at the end
            ]
        );

        let resolve_all = |list: &[DenseActivity]| -> Vec<ConfirmedActivity> {
            list.iter().map(|activity| activity.resolve(&interner)).collect()
        };
        let patched = patch_resolved(resolve_all(&previous), &current, &changes, &interner);
        assert_eq!(patched, resolve_all(&current));

        // Identical lists diff to nothing; from and to an empty list every
        // group changes.
        assert!(confirmed_group_diff(&current, &current, &interner).is_empty());
        let from_empty = confirmed_group_diff(&[], &current, &interner);
        assert!(from_empty.iter().all(|change| change.previous == (0..0)));
        assert_eq!(patch_resolved(Vec::new(), &current, &from_empty, &interner), patched);
        let to_empty = confirmed_group_diff(&current, &[], &interner);
        assert_eq!(to_empty.len(), 5);
        assert!(patch_resolved(patched, &[], &to_empty, &interner).is_empty());
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
