//! The epoch-versioned, immutable [`Snapshot`]: every index a read-side
//! query needs, frozen at one published epoch.
//!
//! A snapshot is built once per epoch — from the streaming analyzer's dense
//! layers ([`Snapshot::from_dense`]), **delta-encoded against the previous
//! epoch** ([`Snapshot::delta_from_dense`]), or from a finished batch report
//! ([`Snapshot::from_report`]) — and then only ever read. Addresses and NFT
//! identities are resolved **once, at build time** (the serving boundary's
//! twin of the pipeline's intern-once/resolve-once rule); queries are index
//! lookups, never scans over analysis state:
//!
//! * account → suspect activities as a [`Postings`] list over the sorted
//!   involved-account table,
//! * a suspect log sorted by confirmation block, so block-windowed queries
//!   ([`Snapshot::suspects_since`], [`Snapshot::suspects_between`]) are a
//!   binary search plus a suffix walk,
//! * the full wash-volume ranking, so [`Snapshot::top_movers`] is a prefix
//!   copy,
//! * per-collection and per-marketplace rollups, pre-aggregated and
//!   pre-sorted.
//!
//! # Delta encoding
//!
//! The resolved activity store is a [`SegmentedVec`] cut at NFT boundaries
//! (the confirmed order groups each NFT's activities contiguously), and the
//! block-sorted suspect log is a [`SegmentedVec`] too. A delta build walks
//! the new confirmed set against the previous snapshot: every NFT whose
//! dense activities are unchanged reuses the previous epoch's resolved
//! segment by `Arc` clone — no oracle pricing, no pattern classification,
//! no address resolution — and only the changed NFTs are re-resolved. The
//! cheap integer/float index assembly then runs over the (mostly shared)
//! record sequence through the exact same code path as a full build, so a
//! delta-built snapshot is **bit-identical** to the full rebuild at the same
//! epoch (the AsOf-parity gate pins this). When nothing changed, every index
//! is reused wholesale and publishing costs O(1).
//!
//! The struct is a cheap handle: all data lives behind one `Arc`, so cloning
//! a snapshot is a reference-count bump and a clone can cross threads freely
//! (`Snapshot: Send + Sync`). Two snapshots compare equal iff their contents
//! do — the equality the batch/stream parity test pins. How a snapshot was
//! built (full vs delta, and its [`SnapshotBuildStats`]) never participates
//! in equality.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use ethsim::{Address, BlockNumber, Timestamp, Wei};
use graphlib::{PatternCatalogue, PatternId};
use ids::{NftKey, Postings};
use marketplace::MarketplaceDirectory;
use oracle::PriceOracle;
use serde::{Deserialize, Serialize};
use tokens::NftId;
use washtrade::characterize::{component_shape, MarketplaceWashRow};
use washtrade::dataset::{Dataset, MarketplaceVolume};
use washtrade::detect::{DenseActivity, MethodSet};
use washtrade::pipeline::AnalysisReport;

use crate::chunks::SegmentedVec;

/// Version and coverage of one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SnapshotMeta {
    /// Epoch number: how many ingestion epochs produced this state (0 for
    /// the empty snapshot a fresh publisher holds).
    pub epoch: u64,
    /// First block *not* covered by this snapshot.
    pub watermark: BlockNumber,
}

/// One confirmed wash-trading activity, fully resolved for serving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityRecord {
    /// The manipulated NFT.
    pub nft: NftId,
    /// The colluding accounts, sorted by address.
    pub accounts: Vec<Address>,
    /// Total traded volume of the internal sales.
    pub volume: Wei,
    /// The same volume in USD at trade time.
    pub volume_usd: f64,
    /// Name of the marketplace carrying most of the volume; `None` for
    /// off-market activity.
    pub marketplace: Option<String>,
    /// Fig. 7 pattern id of the component's shape, if catalogued.
    pub pattern: Option<usize>,
    /// Timestamp of the first internal sale.
    pub first_trade: Timestamp,
    /// Timestamp of the last internal sale.
    pub last_trade: Timestamp,
    /// The detection methods that confirmed the activity.
    pub methods: MethodSet,
}

/// The served summary of one suspect (confirmed) NFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NftSummary {
    /// The NFT.
    pub nft: NftId,
    /// Confirmed activities on the NFT.
    pub activities: usize,
    /// Total confirmed wash volume on the NFT.
    pub volume: Wei,
    /// Last block of the epoch whose ingestion (most recently) confirmed the
    /// NFT; for batch-built snapshots, the last covered block.
    pub confirmed_at: BlockNumber,
}

/// Wash-trading rollup for one collection contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectionRollup {
    /// The collection (ERC-721 contract).
    pub collection: Address,
    /// Distinct suspect NFTs in the collection.
    pub suspect_nfts: usize,
    /// Confirmed activities on the collection.
    pub activities: usize,
    /// Wash volume in ETH.
    pub volume_eth: f64,
    /// Wash volume in USD at trade time.
    pub volume_usd: f64,
    /// The most frequent Fig. 7 pattern ids, as `(pattern, occurrences)`,
    /// most frequent first (ties broken by lowest id). Zero-count slots are
    /// padding — a present pattern always has at least one occurrence. The
    /// inline array (rather than a `Vec`) keeps rollup rows allocation-free
    /// to copy, which the delta build's table merge leans on.
    pub top_patterns: [(usize, usize); 3],
}

/// The answer to an account-dossier query: one account's wash-trading
/// involvement, derived from the account-postings index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountDossier {
    /// The account.
    pub account: Address,
    /// Confirmed activities the account participates in.
    pub activities: usize,
    /// Distinct NFTs those activities manipulate, ascending.
    pub nfts: Vec<NftId>,
    /// Total volume of those activities.
    pub wash_volume: Wei,
    /// Distinct co-participants across those activities, ascending.
    pub collaborators: Vec<Address>,
}

/// Aggregate counters of one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SnapshotStats {
    /// Epoch number of the snapshot.
    pub epoch: u64,
    /// First block not covered.
    pub watermark: BlockNumber,
    /// Distinct NFTs with at least one compliant transfer.
    pub dataset_nfts: usize,
    /// Compliant transfers ingested.
    pub dataset_transfers: usize,
    /// Raw ERC-721-shaped logs scanned.
    pub raw_transfer_events: usize,
    /// Contracts passing the compliance probe.
    pub compliant_contracts: usize,
    /// Contracts failing the probe.
    pub non_compliant_contracts: usize,
    /// Confirmed wash-trading activities.
    pub confirmed_activities: usize,
    /// Distinct NFTs with at least one confirmed activity.
    pub suspect_nfts: usize,
    /// Distinct accounts involved in confirmed activities.
    pub involved_accounts: usize,
    /// Total confirmed wash volume.
    pub wash_volume: Wei,
    /// The same volume in ETH.
    pub wash_volume_eth: f64,
    /// The same volume in USD at trade time.
    pub wash_volume_usd: f64,
}

/// How a snapshot was built: delta vs full, wall time, and how much of the
/// resolved activity store was reused from the previous epoch. Never part of
/// snapshot equality — two bit-identical snapshots may have arrived by
/// different routes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SnapshotBuildStats {
    /// Whether the delta path built this snapshot (false: full build).
    pub delta: bool,
    /// Wall-clock build time, nanoseconds.
    pub build_ns: u64,
    /// Resolved activity records in the snapshot.
    pub records_total: usize,
    /// Records served by reusing the previous epoch's shared segments —
    /// activities that paid no resolution cost this epoch.
    pub records_reused: usize,
    /// Segments backing the activity store.
    pub segments_total: usize,
    /// Segments reused from the previous epoch by `Arc` clone.
    pub segments_reused: usize,
}

impl SnapshotBuildStats {
    /// Fraction of activity records whose resolution was reused from the
    /// previous epoch (0 for a full build or an empty snapshot).
    pub fn chunk_reuse_ratio(&self) -> f64 {
        if self.records_total == 0 {
            0.0
        } else {
            self.records_reused as f64 / self.records_total as f64
        }
    }
}

/// Wash-volume float totals forwarded from an already-computed
/// characterization. Both are flat folds over the confirmed records in their
/// stored order — exactly the fold [`Snapshot`] would run itself — so
/// forwarding them skips an O(records) walk over (mostly cold, shared)
/// record memory per publish without changing a single bit; the parity suite
/// pins the equality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WashVolumes {
    /// Total wash-traded volume in ETH.
    pub eth: f64,
    /// Total wash-traded volume in USD at trade time.
    pub usd: f64,
}

/// Dataset-level counters a snapshot reports; extracted from the dataset
/// (stream path) or the report (batch path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct DatasetTotals {
    nfts: usize,
    transfers: usize,
    raw_transfer_events: usize,
    compliant_contracts: usize,
    non_compliant_contracts: usize,
}

/// The owned snapshot state all clones share. Heavy indexes sit behind their
/// own `Arc` so a delta build whose input region is unchanged shares them
/// with the previous epoch instead of rebuilding.
#[derive(Debug)]
struct SnapshotInner {
    stats: SnapshotStats,
    /// Confirmed activities in the pipeline's deterministic confirmed order,
    /// segmented at NFT boundaries for cross-epoch sharing.
    activities: SegmentedVec<ActivityRecord>,
    /// Involved accounts, sorted by address; the key space of
    /// `account_postings`.
    accounts: Arc<Vec<Address>>,
    /// Account position → indexes into `activities`.
    account_postings: Arc<Postings<u32>>,
    /// Suspect NFTs sorted by identity, for point lookups.
    suspects: Arc<Vec<NftSummary>>,
    /// Suspect NFTs sorted by `(confirmed_at, nft)` — the block-windowed
    /// log, prefix-shared across epochs (new confirmations append).
    suspect_log: SegmentedVec<(BlockNumber, NftId)>,
    /// Suspect NFTs ranked by `(volume desc, nft asc)`.
    ranking: Arc<Vec<(NftId, Wei)>>,
    /// Per-collection rollups, heaviest (USD) first.
    collections: Arc<Vec<CollectionRollup>>,
    /// Dense interner key of each activity segment's NFT, aligned 1:1 with
    /// the segments — lets the next delta build's cursor walk compare groups
    /// in key space (one contiguous `u32` table) instead of resolving every
    /// dense key through the interner. Populated by delta builds only; empty
    /// on snapshots built from resolved records, where the walk falls back
    /// to resolving. Derived data, excluded from equality.
    segment_keys: Arc<Vec<NftKey>>,
    /// Per-marketplace rollups, heaviest (USD) first — the Table II shape.
    marketplaces: Arc<Vec<MarketplaceWashRow>>,
    /// Build provenance; excluded from equality.
    build: SnapshotBuildStats,
}

/// Content equality over every index and counter; build provenance is
/// deliberately excluded so a delta-built snapshot equals the full rebuild
/// it must be indistinguishable from.
impl PartialEq for SnapshotInner {
    fn eq(&self, other: &Self) -> bool {
        self.stats == other.stats
            && self.activities == other.activities
            && self.accounts == other.accounts
            && self.account_postings == other.account_postings
            && self.suspects == other.suspects
            && self.suspect_log == other.suspect_log
            && self.ranking == other.ranking
            && self.collections == other.collections
            && self.marketplaces == other.marketplaces
    }
}

/// An immutable, epoch-versioned view of the analysis results, shared by
/// reference count. See the [module docs](self) for the index inventory.
#[derive(Debug, Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

/// Content equality (not pointer equality): two snapshots are equal iff
/// every index and counter matches — what the batch/stream parity test
/// compares.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::empty()
    }
}

impl Snapshot {
    /// The epoch-zero snapshot: nothing ingested, every query empty.
    pub fn empty() -> Snapshot {
        Snapshot::assemble(
            SnapshotMeta::default(),
            DatasetTotals::default(),
            Vec::new(),
            Vec::new(),
            &HashMap::new(),
        )
    }

    /// Build a snapshot from the streaming analyzer's dense layers: the
    /// confirmed activities still in dense-id form, the growing dataset
    /// (interner + columns + compliance verdicts), and the per-NFT
    /// confirmation blocks. Every id is resolved here, exactly once.
    pub fn from_dense(
        meta: SnapshotMeta,
        confirmed: &[DenseActivity],
        dataset: &Dataset,
        directory: &MarketplaceDirectory,
        oracle: &PriceOracle,
        confirmed_at: &HashMap<NftId, BlockNumber>,
    ) -> Snapshot {
        let records =
            Snapshot::dense_records(confirmed, dataset, directory, oracle, paper_catalogue());
        let table1 = dataset.marketplace_volumes(directory, oracle);
        let marketplaces = rollup_marketplaces(&records, &table1);
        Snapshot::assemble(meta, dataset_totals(dataset), records, marketplaces, confirmed_at)
    }

    /// [`Snapshot::from_dense`] with the per-marketplace rollup rows passed
    /// in instead of recomputed. The streaming analyzer publishes through
    /// this seam: its `Characterization::per_marketplace` rows are
    /// bit-identical to what [`Snapshot::from_dense`] would derive (the
    /// parity suite pins that), and reusing them avoids a second
    /// O(all-transfers) `marketplace_volumes` scan per epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn from_dense_with_marketplaces(
        meta: SnapshotMeta,
        confirmed: &[DenseActivity],
        dataset: &Dataset,
        directory: &MarketplaceDirectory,
        oracle: &PriceOracle,
        confirmed_at: &HashMap<NftId, BlockNumber>,
        marketplaces: Vec<MarketplaceWashRow>,
        wash_volumes: Option<WashVolumes>,
    ) -> Snapshot {
        let records =
            Snapshot::dense_records(confirmed, dataset, directory, oracle, paper_catalogue());
        Snapshot::assemble_with_volumes(
            meta,
            dataset_totals(dataset),
            records,
            marketplaces,
            confirmed_at,
            wash_volumes,
        )
    }

    /// Delta-encode the epoch-N+1 snapshot against epoch N: every NFT *not*
    /// in `changed` reuses `previous`'s resolved activity segment by `Arc`
    /// clone, and only changed NFTs pay the per-activity resolution (USD
    /// pricing, dominant venue, pattern classification, address resolution).
    /// When `changed` is empty, every index is shared wholesale and only the
    /// stats line is re-stamped — O(1) in the world size.
    ///
    /// `changed` must contain every NFT whose confirmed dense activities
    /// differ from the state `previous` was built from (the streaming
    /// analyzer derives it by diffing consecutive dense confirmed sets, so
    /// leverage-induced confirmation flips on untouched graphs are caught).
    /// An NFT conservatively listed as changed is merely re-resolved; the
    /// result is **bit-identical** to the full rebuild either way, which the
    /// AsOf-parity gate enforces.
    #[allow(clippy::too_many_arguments)]
    pub fn delta_from_dense(
        previous: &Snapshot,
        meta: SnapshotMeta,
        confirmed: &[DenseActivity],
        dataset: &Dataset,
        directory: &MarketplaceDirectory,
        oracle: &PriceOracle,
        confirmed_at: &HashMap<NftId, BlockNumber>,
        marketplaces: Vec<MarketplaceWashRow>,
        changed: &BTreeSet<NftId>,
        wash_volumes: Option<WashVolumes>,
    ) -> Snapshot {
        let started = Instant::now();
        let _build_span = obs::span!("serve.snapshot.delta_build_ns");
        let totals = dataset_totals(dataset);
        let prev = &previous.inner;

        // Nothing in the confirmed set moved: share every index, re-stamp
        // the stats line with the new epoch/watermark/dataset counters.
        if changed.is_empty() && prev.activities.len() == confirmed.len() {
            let build = SnapshotBuildStats {
                delta: true,
                build_ns: elapsed_ns(started),
                records_total: prev.activities.len(),
                records_reused: prev.activities.len(),
                segments_total: prev.activities.segment_count(),
                segments_reused: prev.activities.segment_count(),
            };
            note_delta_metrics(&build);
            return Snapshot {
                inner: Arc::new(SnapshotInner {
                    stats: SnapshotStats {
                        epoch: meta.epoch,
                        watermark: meta.watermark,
                        dataset_nfts: totals.nfts,
                        dataset_transfers: totals.transfers,
                        raw_transfer_events: totals.raw_transfer_events,
                        compliant_contracts: totals.compliant_contracts,
                        non_compliant_contracts: totals.non_compliant_contracts,
                        ..prev.stats
                    },
                    activities: prev.activities.clone(),
                    accounts: Arc::clone(&prev.accounts),
                    account_postings: Arc::clone(&prev.account_postings),
                    suspects: Arc::clone(&prev.suspects),
                    suspect_log: prev.suspect_log.clone(),
                    ranking: Arc::clone(&prev.ranking),
                    collections: Arc::clone(&prev.collections),
                    segment_keys: Arc::clone(&prev.segment_keys),
                    marketplaces: Arc::new(marketplaces),
                    build,
                }),
            };
        }

        // Merge-walk the new confirmed groups (ascending resolved NFT, the
        // confirmed sort order) against the previous epoch's segments.
        let interner = &dataset.interner;
        let catalogue = paper_catalogue();
        // The changed set, translated to dense keys once: the per-group
        // membership test becomes a binary search over a few dozen integers
        // instead of a tree walk comparing full NFT ids.
        let mut changed_keys: Vec<usize> = changed
            .iter()
            .filter_map(|nft| interner.nft_key(*nft).map(|key| key.index()))
            .collect();
        changed_keys.sort_unstable();
        let prev_segments = prev.activities.segments();
        // The previous suspect table is aligned 1:1 with the previous
        // segments and carries each one's NFT and length — the cursor walk
        // reads it instead of the segments themselves, turning a pointer
        // chase per segment into a scan of one contiguous table. When the
        // previous snapshot also carries its segments' dense keys (any
        // delta-built ancestor does), group identity is one `u32` compare
        // and the interner is consulted only around actual differences.
        let prev_nfts: &[NftSummary] = &prev.suspects;
        let prev_keys: Option<&[NftKey]> =
            (prev.segment_keys.len() == prev_nfts.len()).then(|| &prev.segment_keys[..]);
        // Warm every previous segment's `Arc` header in one tight pass: the
        // refcount bumps below are the walk's only touches of
        // non-contiguous memory, and issued one-per-reuse they serialize on
        // cache misses, while this loop keeps many in flight. One line per
        // segment — L2-resident by the time the walk needs it.
        for segment in prev_segments {
            std::hint::black_box(Arc::strong_count(segment));
        }
        let mut cursor = 0usize;
        let mut activities = SegmentedVec::new();
        // Per new segment: the previous segment it was reused from, if any —
        // the provenance the index assembly uses to patch (rather than
        // rebuild) the derived indexes — plus the segment's dense key, kept
        // for the next epoch's walk.
        let mut reused_from: Vec<Option<usize>> = Vec::new();
        let mut segment_keys: Vec<NftKey> = Vec::new();
        let mut records_reused = 0usize;
        let mut segments_reused = 0usize;
        let mut index = 0;
        while index < confirmed.len() {
            let key = confirmed[index].candidate.nft;
            let reusable = if changed_keys.binary_search(&key.index()).is_ok() {
                None
            } else {
                // Resolved lazily: with a key table on the previous side the
                // common exact-match step never needs the NFT identity, only
                // ordering around a mismatch does.
                let mut nft: Option<NftId> = None;
                loop {
                    let Some(summary) = prev_nfts.get(cursor) else { break None };
                    let same = match prev_keys {
                        Some(keys) => keys[cursor] == key,
                        None => summary.nft == *nft.get_or_insert_with(|| interner.nft(key)),
                    };
                    if same {
                        break Some((cursor, summary.activities));
                    }
                    if summary.nft < *nft.get_or_insert_with(|| interner.nft(key)) {
                        cursor += 1;
                    } else {
                        break None;
                    }
                }
            };
            segment_keys.push(key);
            if let Some((at, length)) = reusable {
                // An unchanged NFT's group must be exactly as long as its
                // previous segment; groups are contiguous, so two boundary
                // probes verify that without scanning the group. A wrong
                // `changed` set fails the probes and degrades to
                // re-resolution, never to a corrupt snapshot.
                let end = index + length;
                let covers = end <= confirmed.len()
                    && confirmed[end - 1].candidate.nft == key
                    && (end == confirmed.len() || confirmed[end].candidate.nft != key);
                if covers {
                    records_reused += length;
                    segments_reused += 1;
                    cursor = at + 1;
                    activities.push_segment(Arc::clone(&prev_segments[at]));
                    reused_from.push(Some(at));
                    index = end;
                    continue;
                }
            }
            let mut end = index + 1;
            while end < confirmed.len() && confirmed[end].candidate.nft == key {
                end += 1;
            }
            activities.push_segment(Arc::new(Snapshot::dense_records(
                &confirmed[index..end],
                dataset,
                directory,
                oracle,
                catalogue,
            )));
            reused_from.push(None);
            index = end;
        }

        let base = DeltaBase { prev, reused_from: &reused_from };
        let mut snapshot = Snapshot::assemble_indexes(
            meta,
            totals,
            activities,
            marketplaces,
            confirmed_at,
            Some(&base),
            segment_keys,
            wash_volumes,
        );
        let inner = Arc::get_mut(&mut snapshot.inner).expect("freshly built snapshot is unshared");
        inner.build = SnapshotBuildStats {
            delta: true,
            build_ns: elapsed_ns(started),
            records_total: inner.activities.len(),
            records_reused,
            segments_total: inner.activities.segment_count(),
            segments_reused,
        };
        note_delta_metrics(&inner.build);
        snapshot
    }

    /// Resolve dense confirmed activities into serving records — the one
    /// place stream-side ids become addresses.
    fn dense_records(
        confirmed: &[DenseActivity],
        dataset: &Dataset,
        directory: &MarketplaceDirectory,
        oracle: &PriceOracle,
        catalogue: &PatternCatalogue,
    ) -> Vec<ActivityRecord> {
        let interner = &dataset.interner;
        let records: Vec<ActivityRecord> = confirmed
            .iter()
            .map(|activity| {
                let candidate = &activity.candidate;
                let volume_usd = candidate
                    .internal_edges
                    .iter()
                    .map(|(_, _, edge)| {
                        oracle.wei_to_usd(edge.price, edge.timestamp).unwrap_or(0.0)
                    })
                    .sum();
                let marketplace = candidate
                    .dominant_marketplace(interner)
                    .and_then(|id| directory.by_contract(interner.market(id)))
                    .map(|info| info.name.clone());
                let shape = component_shape(candidate);
                ActivityRecord {
                    nft: interner.nft(candidate.nft),
                    accounts: candidate.accounts.iter().map(|&id| interner.address(id)).collect(),
                    volume: candidate.volume,
                    volume_usd,
                    marketplace,
                    pattern: catalogue
                        .classify(candidate.accounts.len(), &shape)
                        .map(|PatternId(id)| id),
                    first_trade: candidate.first_trade,
                    last_trade: candidate.last_trade,
                    methods: activity.methods,
                }
            })
            .collect();
        records
    }

    /// Build a snapshot from a finished batch [`AnalysisReport`] — the
    /// serving layer without a live analyzer. Confirmation blocks are not
    /// part of a batch report, so every suspect is dated to the last covered
    /// block (`meta.watermark - 1`); everything else is identical to the
    /// snapshot a stream publishes after ingesting the same chain.
    pub fn from_report(
        report: &AnalysisReport,
        directory: &MarketplaceDirectory,
        oracle: &PriceOracle,
        meta: SnapshotMeta,
    ) -> Snapshot {
        let catalogue = paper_catalogue();
        let records: Vec<ActivityRecord> = report
            .detection
            .confirmed
            .iter()
            .map(|activity| {
                let candidate = &activity.candidate;
                let volume_usd = candidate
                    .internal_edges
                    .iter()
                    .map(|(_, _, edge)| {
                        oracle.wei_to_usd(edge.price, edge.timestamp).unwrap_or(0.0)
                    })
                    .sum();
                let marketplace = candidate
                    .dominant_marketplace()
                    .and_then(|contract| directory.by_contract(contract))
                    .map(|info| info.name.clone());
                ActivityRecord {
                    nft: candidate.nft,
                    accounts: candidate.accounts.clone(),
                    volume: candidate.volume,
                    volume_usd,
                    marketplace,
                    pattern: catalogue
                        .classify(candidate.accounts.len(), &candidate.shape())
                        .map(|PatternId(id)| id),
                    first_trade: candidate.first_trade,
                    last_trade: candidate.last_trade,
                    methods: activity.methods,
                }
            })
            .collect();
        let totals = DatasetTotals {
            nfts: report.dataset_nfts,
            transfers: report.dataset_transfers,
            raw_transfer_events: report.raw_transfer_events,
            compliant_contracts: report.compliant_contracts,
            non_compliant_contracts: report.non_compliant_contracts,
        };
        // The report's Table II rows are exactly the rollup this snapshot
        // would derive from `records` and `report.table1` (the parity suite
        // pins the equality) — reuse them instead of recomputing.
        let marketplaces = report.characterization.per_marketplace.clone();
        Snapshot::assemble(meta, totals, records, marketplaces, &HashMap::new())
    }

    /// Full (non-delta) assembly: segment the resolved records at NFT
    /// boundaries and build every index.
    fn assemble(
        meta: SnapshotMeta,
        totals: DatasetTotals,
        records: Vec<ActivityRecord>,
        marketplaces: Vec<MarketplaceWashRow>,
        confirmed_at: &HashMap<NftId, BlockNumber>,
    ) -> Snapshot {
        Snapshot::assemble_with_volumes(meta, totals, records, marketplaces, confirmed_at, None)
    }

    /// [`Snapshot::assemble`] with the float wash-volume totals optionally
    /// forwarded from an already-computed characterization instead of
    /// re-folded over every record.
    fn assemble_with_volumes(
        meta: SnapshotMeta,
        totals: DatasetTotals,
        records: Vec<ActivityRecord>,
        marketplaces: Vec<MarketplaceWashRow>,
        confirmed_at: &HashMap<NftId, BlockNumber>,
        wash_volumes: Option<WashVolumes>,
    ) -> Snapshot {
        let started = Instant::now();
        let _build_span = obs::span!("serve.snapshot.build_ns");
        // Canonicalize to ascending-NFT order (stable, so intra-NFT order is
        // kept). Pipeline outputs already arrive sorted — the sort is a
        // no-op there — but every index below, and delta builds on top of
        // this snapshot, rely on the invariant.
        let mut records = records;
        records.sort_by_key(|record| record.nft);
        let activities = segment_by_nft(records);
        let mut snapshot = Snapshot::assemble_indexes(
            meta,
            totals,
            activities,
            marketplaces,
            confirmed_at,
            None,
            Vec::new(),
            wash_volumes,
        );
        let inner = Arc::get_mut(&mut snapshot.inner).expect("freshly built snapshot is unshared");
        inner.build = SnapshotBuildStats {
            delta: false,
            build_ns: elapsed_ns(started),
            records_total: inner.activities.len(),
            records_reused: 0,
            segments_total: inner.activities.segment_count(),
            segments_reused: 0,
        };
        snapshot
    }

    /// Assemble every index from the (possibly shared) resolved activity
    /// store and pre-computed marketplace rollup rows. `confirmed_at` dates
    /// each suspect NFT; missing entries fall back to the last covered
    /// block. All floating-point accumulation walks the records in their
    /// given (deterministic, confirmed) order, so full- and delta-built
    /// snapshots of the same state are bit-identical. With `delta`, the
    /// derived indexes are patched from the previous epoch's — dropped
    /// and re-merged around the changed NFTs — instead of rebuilt, so
    /// index-assembly cost follows the epoch delta, not the world size.
    #[allow(clippy::too_many_arguments)]
    fn assemble_indexes(
        meta: SnapshotMeta,
        totals: DatasetTotals,
        activities: SegmentedVec<ActivityRecord>,
        marketplaces: Vec<MarketplaceWashRow>,
        confirmed_at: &HashMap<NftId, BlockNumber>,
        delta: Option<&DeltaBase<'_>>,
        segment_keys: Vec<NftKey>,
        wash_volumes: Option<WashVolumes>,
    ) -> Snapshot {
        let tip = BlockNumber(meta.watermark.0.saturating_sub(1));

        // Point-lookup table and its two derived orders (log, ranking). The
        // activity store is segmented at NFT boundaries in ascending NFT
        // order on every build path, so one pass over the segments yields
        // the NFT-sorted summary table, aligned 1:1 with the segments — an
        // invariant the delta paths below lean on. The same pass collects
        // the summary diff the index patches key off: which previous
        // positions were carried over (the rest go stale) and which current
        // summaries are freshly resolved.
        let mut suspects: Vec<NftSummary> = Vec::with_capacity(activities.segment_count());
        let mut kept = vec![false; delta.map_or(0, |base| base.prev.suspects.len())];
        let mut fresh: Vec<NftSummary> = Vec::new();
        for (position, segment) in activities.segments().iter().enumerate() {
            // A reused segment's summary is its previous one, copied whole:
            // its records are byte-identical, and its confirmation block
            // cannot have moved — a re-confirmation always comes with
            // changed records, which the `changed` diff turns into a fresh
            // segment. (The retention proptest pins this against the full
            // rebuild across hundreds of worlds.)
            if let Some((old, previous)) = delta.and_then(|base| {
                let old = base.reused_from[position]?;
                Some((old, base.prev.suspects.get(old).copied()?))
            }) {
                kept[old] = true;
                suspects.push(previous);
                continue;
            }
            let nft = segment[0].nft;
            let mut volume = Wei::ZERO;
            for record in segment.iter() {
                volume += record.volume;
            }
            let summary = NftSummary {
                nft,
                activities: segment.len(),
                volume,
                confirmed_at: confirmed_at.get(&nft).copied().unwrap_or(tip),
            };
            if delta.is_some() {
                fresh.push(summary);
            }
            suspects.push(summary);
        }

        // Log and ranking: merge-patched around the summary diff on the
        // delta path, sorted from scratch otherwise. Both comparators are
        // total orders over unique NFTs, so merge and sort agree bit for
        // bit.
        let (suspect_log, ranking) = match delta {
            Some(base) => {
                // Previous positions not carried over go stale; a
                // re-resolved NFT whose summary happens to be unchanged
                // lands in both lists, and the patches drop and re-insert
                // the identical entry in place — still bit-identical to a
                // value-level diff of the two tables.
                let stale: Vec<NftSummary> = kept
                    .iter()
                    .enumerate()
                    .filter(|(_, kept)| !**kept)
                    .map(|(old, _)| base.prev.suspects[old])
                    .collect();
                let diff = SummaryDiff { stale, fresh };
                let mut fresh_log: Vec<(BlockNumber, NftId)> =
                    diff.fresh.iter().map(|summary| (summary.confirmed_at, summary.nft)).collect();
                fresh_log.sort_unstable();
                let mut drop_log: Vec<(BlockNumber, NftId)> =
                    diff.stale.iter().map(|summary| (summary.confirmed_at, summary.nft)).collect();
                drop_log.sort_unstable();
                let suspect_log = patch_log(&base.prev.suspect_log, &drop_log, &fresh_log);

                let rank_key = |(nft, volume): &(NftId, Wei)| (std::cmp::Reverse(*volume), *nft);
                let mut fresh_rank: Vec<(NftId, Wei)> =
                    diff.fresh.iter().map(|summary| (summary.nft, summary.volume)).collect();
                fresh_rank.sort_unstable_by_key(rank_key);
                let mut drop_rank: Vec<(NftId, Wei)> =
                    diff.stale.iter().map(|summary| (summary.nft, summary.volume)).collect();
                drop_rank.sort_unstable_by_key(rank_key);
                let ranking = splice_patched(&base.prev.ranking, &drop_rank, &fresh_rank, rank_key);
                (suspect_log, ranking)
            }
            None => {
                let mut log_entries: Vec<(BlockNumber, NftId)> =
                    suspects.iter().map(|summary| (summary.confirmed_at, summary.nft)).collect();
                log_entries.sort_unstable();
                let mut ranking: Vec<(NftId, Wei)> =
                    suspects.iter().map(|summary| (summary.nft, summary.volume)).collect();
                ranking.sort_unstable_by_key(|(nft, volume)| (std::cmp::Reverse(*volume), *nft));
                (share_log_prefix(None, log_entries), ranking)
            }
        };

        // Account postings: sorted involved-account table + CSR into the
        // activity list.
        let (accounts, account_postings) = match delta {
            Some(base) => delta_postings(base, &activities),
            None => full_postings(&activities),
        };

        // Collection rollups. NFT ids order by contract first, so each
        // collection is one contiguous run of segments on every build path.
        // Full builds fold every run from its records and sort; delta builds
        // walk the current and previous contract runs in lockstep (both are
        // contract-ascending), re-fold only the dirty runs, and merge-patch
        // them into the previous sorted table — the fold and the comparator
        // are shared, so both paths agree bit for bit.
        let collections: Vec<CollectionRollup> = match delta {
            Some(base) => delta_collections(base, &suspects, &activities),
            None => {
                let mut rows: Vec<CollectionRollup> = contract_runs(&suspects)
                    .map(|(contract, run)| rollup_collection(contract, &activities.segments()[run]))
                    .collect();
                rows.sort_by(compare_collection_rows);
                rows
            }
        };

        // Totals. The Wei total is exact integer arithmetic, so summing the
        // per-segment subtotals already sitting in the (contiguous) suspect
        // table equals the flat record fold bit for bit. The float totals
        // are order-sensitive: use the forwarded characterization fold when
        // the caller has one (same sequence, same order, same bits — pinned
        // by the parity suite), and run the flat record fold otherwise.
        let mut wash_volume = Wei::ZERO;
        for summary in &suspects {
            wash_volume += summary.volume;
        }
        let (wash_volume_eth, wash_volume_usd) = match wash_volumes {
            Some(volumes) => (volumes.eth, volumes.usd),
            None => {
                let mut eth = 0.0;
                let mut usd = 0.0;
                for segment in activities.segments() {
                    for record in segment.iter() {
                        eth += record.volume.to_eth();
                        usd += record.volume_usd;
                    }
                }
                (eth, usd)
            }
        };
        let stats = SnapshotStats {
            epoch: meta.epoch,
            watermark: meta.watermark,
            dataset_nfts: totals.nfts,
            dataset_transfers: totals.transfers,
            raw_transfer_events: totals.raw_transfer_events,
            compliant_contracts: totals.compliant_contracts,
            non_compliant_contracts: totals.non_compliant_contracts,
            confirmed_activities: activities.len(),
            suspect_nfts: suspects.len(),
            involved_accounts: accounts.len(),
            wash_volume,
            wash_volume_eth,
            wash_volume_usd,
        };

        Snapshot {
            inner: Arc::new(SnapshotInner {
                stats,
                activities,
                accounts: Arc::new(accounts),
                account_postings: Arc::new(account_postings),
                suspects: Arc::new(suspects),
                suspect_log,
                ranking: Arc::new(ranking),
                collections: Arc::new(collections),
                segment_keys: Arc::new(segment_keys),
                marketplaces: Arc::new(marketplaces),
                build: SnapshotBuildStats::default(),
            }),
        }
    }

    /// Epoch number of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.inner.stats.epoch
    }

    /// First block not covered by this snapshot.
    pub fn watermark(&self) -> BlockNumber {
        self.inner.stats.watermark
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SnapshotStats {
        self.inner.stats
    }

    /// How this snapshot was built (delta vs full, wall time, chunk reuse).
    pub fn build_stats(&self) -> SnapshotBuildStats {
        self.inner.build
    }

    /// The confirmed activities, fully resolved, in confirmed order.
    pub fn activities(&self) -> impl Iterator<Item = &ActivityRecord> + '_ {
        self.inner.activities.iter()
    }

    /// Accounts involved in at least one confirmed activity, ascending.
    pub fn accounts(&self) -> &[Address] {
        &self.inner.accounts
    }

    /// Every suspect NFT's summary, ascending by NFT identity.
    pub fn suspects(&self) -> &[NftSummary] {
        &self.inner.suspects
    }

    /// Point lookup: the summary of one suspect NFT, `None` if the NFT has
    /// no confirmed activity in this snapshot.
    pub fn suspect(&self, nft: NftId) -> Option<NftSummary> {
        self.inner
            .suspects
            .binary_search_by_key(&nft, |summary| summary.nft)
            .ok()
            .map(|index| self.inner.suspects[index])
    }

    /// Suspect NFTs whose latest confirmation happened at or after `block`,
    /// ascending by NFT identity: a binary search into the block-sorted
    /// suspect log plus a suffix walk — O(log n + answer), not O(all NFTs).
    pub fn suspects_since(&self, block: BlockNumber) -> Vec<NftId> {
        let log = &self.inner.suspect_log;
        let start = partition_point_log(log, |(confirmed_at, _)| *confirmed_at < block);
        let mut suspects: Vec<NftId> = (start..log.len()).map(|index| log.get(index).1).collect();
        suspects.sort_unstable();
        suspects
    }

    /// Suspect NFTs whose latest confirmation lies in `first..=last`,
    /// ascending by NFT identity.
    pub fn suspects_between(&self, first: BlockNumber, last: BlockNumber) -> Vec<NftId> {
        let log = &self.inner.suspect_log;
        let start = partition_point_log(log, |(confirmed_at, _)| *confirmed_at < first);
        let end = partition_point_log(log, |(confirmed_at, _)| *confirmed_at <= last);
        let mut suspects: Vec<NftId> =
            (start..end.max(start)).map(|index| log.get(index).1).collect();
        suspects.sort_unstable();
        suspects
    }

    /// The `n` suspect NFTs with the largest wash volume, descending (ties
    /// broken by NFT identity): a prefix of the precomputed ranking.
    pub fn top_movers(&self, n: usize) -> Vec<(NftId, Wei)> {
        self.inner.ranking.iter().take(n).copied().collect()
    }

    /// One account's wash-trading dossier, derived from the postings index;
    /// `None` if the account participates in no confirmed activity.
    pub fn dossier(&self, account: Address) -> Option<AccountDossier> {
        let position = self.inner.accounts.binary_search(&account).ok()?;
        let postings = self.inner.account_postings.get(position as u32);
        let mut nfts = Vec::new();
        let mut collaborators = Vec::new();
        let mut wash_volume = Wei::ZERO;
        for &index in postings {
            let record = self.inner.activities.get(index as usize);
            nfts.push(record.nft);
            wash_volume += record.volume;
            collaborators.extend(record.accounts.iter().copied().filter(|&a| a != account));
        }
        nfts.sort_unstable();
        nfts.dedup();
        collaborators.sort_unstable();
        collaborators.dedup();
        Some(AccountDossier {
            account,
            activities: postings.len(),
            nfts,
            wash_volume,
            collaborators,
        })
    }

    /// Per-collection rollups, heaviest wash volume (USD) first.
    pub fn collections(&self) -> &[CollectionRollup] {
        &self.inner.collections
    }

    /// The `n` heaviest collections.
    pub fn top_collections(&self, n: usize) -> Vec<CollectionRollup> {
        self.inner.collections.iter().take(n).cloned().collect()
    }

    /// Per-marketplace wash rollups — the same rows, values and order as
    /// `Characterization::per_marketplace` (Table II).
    pub fn marketplaces(&self) -> &[MarketplaceWashRow] {
        &self.inner.marketplaces
    }
}

/// The Fig. 7 pattern catalogue, built once per process: it is a fixed
/// paper constant, and constructing it (12 canonicalized digraphs) is
/// measurable against a delta publish's budget.
fn paper_catalogue() -> &'static PatternCatalogue {
    static CATALOGUE: std::sync::OnceLock<PatternCatalogue> = std::sync::OnceLock::new();
    CATALOGUE.get_or_init(PatternCatalogue::paper)
}

/// Wall-clock nanoseconds since `started`, saturating.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Record the delta-build counters: the records each delta build reused
/// and resolved afresh, the inputs of the chunk-reuse ratio.
fn note_delta_metrics(build: &SnapshotBuildStats) {
    obs::counter!("serve.snapshot.delta_builds");
    obs::counter!("serve.snapshot.records_reused", build.records_reused as u64);
    obs::counter!(
        "serve.snapshot.records_resolved",
        (build.records_total - build.records_reused) as u64
    );
}

/// What a delta build knows about its base: the previous epoch's inner
/// state, and for each segment of the new activity store, the previous
/// segment it was `Arc`-reused from (`None` for re-resolved segments). The
/// index-patching paths in `assemble_indexes` are driven by this.
struct DeltaBase<'a> {
    prev: &'a SnapshotInner,
    reused_from: &'a [Option<usize>],
}

/// The per-NFT summary diff between two epochs' (NFT-sorted) suspect
/// tables, read straight off the segment-reuse map while the summary table
/// is assembled: a reused segment's summary is its previous one copied
/// whole, so only re-resolved positions can differ — no elementwise table
/// compare needed. Both sides come out ascending by NFT (positions are
/// visited in order).
struct SummaryDiff {
    /// Previous-side summaries of NFTs that were not carried over whole —
    /// their log and ranking entries are dropped before merging.
    stale: Vec<NftSummary>,
    /// Current-side summaries of NFTs that were re-resolved this epoch —
    /// re-sorted per index and merged in.
    fresh: Vec<NftSummary>,
}

/// Patch a sorted sequence: drop the `drop` entries — each present in
/// `prev`, sorted the same way — and merge in the sorted `fresh` entries.
/// All inputs hold distinct keys, so the output equals sorting
/// `(prev \ drop) ∪ fresh` — what the full build computes.
fn merge_patched<T: Copy, K: Ord>(
    prev: impl Iterator<Item = T>,
    drop: &[T],
    fresh: &[T],
    key: impl Fn(&T) -> K,
    capacity: usize,
) -> Vec<T> {
    let mut out = Vec::with_capacity(capacity);
    let (mut d, mut f) = (0, 0);
    for item in prev {
        if d < drop.len() && key(&drop[d]) == key(&item) {
            d += 1;
            continue;
        }
        while f < fresh.len() && key(&fresh[f]) < key(&item) {
            out.push(fresh[f]);
            f += 1;
        }
        out.push(item);
    }
    out.extend_from_slice(&fresh[f..]);
    out
}

/// [`merge_patched`] for slice-backed tables: kept runs of `prev` are
/// copied wholesale and only the edit positions are binary-searched, so
/// the cost is O(edits · log n) plus the output memcpy — not a per-item
/// walk. A drop and an insert carrying the same key apply drop-first,
/// which is exactly where [`merge_patched`] re-inserts a re-resolved
/// entry, so the two agree bit for bit.
fn splice_patched<T: Copy, K: Ord>(
    prev: &[T],
    drop: &[T],
    fresh: &[T],
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    let mut out = Vec::with_capacity(prev.len() - drop.len() + fresh.len());
    let (mut d, mut f) = (0, 0);
    let mut cursor = 0;
    loop {
        let drop_first = match (drop.get(d), fresh.get(f)) {
            (None, None) => break,
            (Some(stale), Some(new)) => key(stale) <= key(new),
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if drop_first {
            let at = cursor + prev[cursor..].partition_point(|entry| key(entry) < key(&drop[d]));
            debug_assert!(at < prev.len() && key(&prev[at]) == key(&drop[d]));
            out.extend_from_slice(&prev[cursor..at]);
            cursor = at + 1;
            d += 1;
        } else {
            let at = cursor + prev[cursor..].partition_point(|entry| key(entry) < key(&fresh[f]));
            out.extend_from_slice(&prev[cursor..at]);
            out.push(fresh[f]);
            cursor = at;
            f += 1;
        }
    }
    out.extend_from_slice(&prev[cursor..]);
    out
}

/// Patch the block-sorted suspect log around its first edited position.
/// Prefix segments strictly before the first dropped or inserted key are
/// shared untouched — the edit keys prove their entries cannot have moved,
/// so unlike [`share_log_prefix`] no elementwise compare is needed — and
/// everything from the boundary segment on is rebuilt as one merged tail.
fn patch_log(
    prev: &SegmentedVec<(BlockNumber, NftId)>,
    drop: &[(BlockNumber, NftId)],
    fresh: &[(BlockNumber, NftId)],
) -> SegmentedVec<(BlockNumber, NftId)> {
    let first_edit = match (drop.first(), fresh.first()) {
        (Some(stale), Some(new)) => *stale.min(new),
        (Some(stale), None) => *stale,
        (None, Some(new)) => *new,
        (None, None) => return prev.clone(),
    };
    let mut log = SegmentedVec::new();
    let segments = prev.segments();
    let mut shared = 0;
    let mut position = 0;
    while shared < segments.len() {
        match segments[shared].last() {
            Some(last) if *last < first_edit => {
                log.push_segment(Arc::clone(&segments[shared]));
                position += segments[shared].len();
                shared += 1;
            }
            _ => break,
        }
    }
    let remaining = segments[shared..].iter().flat_map(|segment| segment.iter().copied());
    let tail =
        merge_patched(remaining, drop, fresh, |entry| *entry, prev.len() - position + fresh.len());
    log.push_segment(Arc::new(tail));
    log
}

/// The involved-account table and its CSR postings, built from scratch: one
/// (account, activity) pair per account mention, sorted, deduped, and
/// grouped.
fn full_postings(activities: &SegmentedVec<ActivityRecord>) -> (Vec<Address>, Postings<u32>) {
    let mut pairs: Vec<(Address, u32)> = activities
        .iter()
        .enumerate()
        .flat_map(|(index, record)| {
            record.accounts.iter().map(move |account| (*account, index as u32))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut accounts: Vec<Address> = Vec::new();
    let mut offsets: Vec<u32> = vec![0];
    let mut values: Vec<u32> = Vec::with_capacity(pairs.len());
    let mut iter = pairs.into_iter().peekable();
    while let Some((account, activity)) = iter.next() {
        values.push(activity);
        match iter.peek() {
            Some((next, _)) if *next == account => {}
            _ => {
                accounts.push(account);
                offsets.push(values.len() as u32);
            }
        }
    }
    (accounts, Postings::from_parts(offsets, values))
}

/// The delta twin of [`full_postings`]: translate the previous epoch's
/// postings through the segment-reuse map (dropping entries of re-resolved
/// segments) and merge in the fresh segments' pairs, account by account.
/// Activity indices of reused segments shift monotonically, so translated
/// entry lists stay sorted and the merged table is bit-identical to the
/// from-scratch build — without the all-pairs sort.
fn delta_postings(
    base: &DeltaBase<'_>,
    activities: &SegmentedVec<ActivityRecord>,
) -> (Vec<Address>, Postings<u32>) {
    let prev = base.prev;
    let segments = activities.segments();

    // Old → new activity-index translation; `u32::MAX` marks entries of
    // prev segments that were not reused (their records re-resolved or
    // gone).
    const DROPPED: u32 = u32::MAX;
    let mut new_of_old = vec![DROPPED; prev.activities.len()];
    let mut fresh: Vec<(Address, u32)> = Vec::new();
    for (i, reused) in base.reused_from.iter().enumerate() {
        let new_start = activities.segment_offset(i);
        match *reused {
            Some(j) => {
                // The reused segment's length sits in the contiguous
                // previous suspect table — no need to chase the `Arc`.
                let old_start = prev.activities.segment_offset(j);
                let length = prev.suspects[j].activities;
                for k in 0..length {
                    new_of_old[old_start + k] = (new_start + k) as u32;
                }
            }
            None => {
                for (k, record) in segments[i].iter().enumerate() {
                    let index = (new_start + k) as u32;
                    fresh.extend(record.accounts.iter().map(|account| (*account, index)));
                }
            }
        }
    }
    fresh.sort_unstable();
    fresh.dedup();

    // The walk emits accounts ascending with their postings grouped, so the
    // CSR arrays are built directly — no pair sort, no regroup.
    let mut accounts: Vec<Address> = Vec::with_capacity(prev.accounts.len());
    let mut offsets: Vec<u32> = Vec::with_capacity(prev.accounts.len() + 1);
    offsets.push(0);
    let mut values: Vec<u32> = Vec::with_capacity(prev.account_postings.len() + fresh.len());
    let mut f = 0;
    // Emit every entry of one fresh-only account run.
    let emit_fresh_account = |f: &mut usize,
                              accounts: &mut Vec<Address>,
                              offsets: &mut Vec<u32>,
                              values: &mut Vec<u32>| {
        let address = fresh[*f].0;
        accounts.push(address);
        while *f < fresh.len() && fresh[*f].0 == address {
            values.push(fresh[*f].1);
            *f += 1;
        }
        offsets.push(values.len() as u32);
    };
    for (old_position, account) in prev.accounts.iter().enumerate() {
        while f < fresh.len() && fresh[f].0 < *account {
            emit_fresh_account(&mut f, &mut accounts, &mut offsets, &mut values);
        }
        let mut fresh_end = f;
        while fresh_end < fresh.len() && fresh[fresh_end].0 == *account {
            fresh_end += 1;
        }
        // Merge this account's translated kept entries with its fresh ones;
        // the index spaces are disjoint (reused vs re-resolved segments).
        // Accounts untouched by the epoch's churn — almost all of them —
        // have no fresh entries and skip the merge bound checks entirely.
        let before = values.len();
        let mut fi = f;
        if fi == fresh_end {
            for &old in prev.account_postings.get(old_position as u32) {
                let translated = new_of_old[old as usize];
                if translated != DROPPED {
                    values.push(translated);
                }
            }
        } else {
            for &old in prev.account_postings.get(old_position as u32) {
                let translated = new_of_old[old as usize];
                if translated == DROPPED {
                    continue;
                }
                while fi < fresh_end && fresh[fi].1 < translated {
                    values.push(fresh[fi].1);
                    fi += 1;
                }
                values.push(translated);
            }
        }
        for entry in &fresh[fi..fresh_end] {
            values.push(entry.1);
        }
        f = fresh_end;
        if values.len() > before {
            accounts.push(*account);
            offsets.push(values.len() as u32);
        }
    }
    while f < fresh.len() {
        emit_fresh_account(&mut f, &mut accounts, &mut offsets, &mut values);
    }
    (accounts, Postings::from_parts(offsets, values))
}

/// Iterate the contiguous per-collection (contract) runs of an NFT-sorted
/// segment list, as segment-index ranges.
fn contract_runs(
    suspects: &[NftSummary],
) -> impl Iterator<Item = (Address, std::ops::Range<usize>)> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= suspects.len() {
            return None;
        }
        let contract = suspects[start].nft.contract;
        let mut end = start + 1;
        while end < suspects.len() && suspects[end].nft.contract == contract {
            end += 1;
        }
        let run = start..end;
        start = end;
        Some((contract, run))
    })
}

/// Served order of the collections table: heaviest USD volume first,
/// contract address as the (unique) tiebreak — a total order, so a merge
/// against it agrees with a from-scratch sort bit for bit.
fn compare_collection_rows(a: &CollectionRollup, b: &CollectionRollup) -> std::cmp::Ordering {
    b.volume_usd.total_cmp(&a.volume_usd).then_with(|| a.collection.cmp(&b.collection))
}

/// Roll one collection's contiguous segment run up into its served row,
/// folding the records in their stored (ascending NFT, confirmed) order —
/// the one fold every build path uses.
fn rollup_collection(contract: Address, run: &[Arc<Vec<ActivityRecord>>]) -> CollectionRollup {
    let mut activities = 0;
    let mut volume_eth = 0.0;
    let mut volume_usd = 0.0;
    let mut patterns: BTreeMap<usize, usize> = BTreeMap::new();
    for segment in run {
        activities += segment.len();
        for record in segment.iter() {
            volume_eth += record.volume.to_eth();
            volume_usd += record.volume_usd;
            if let Some(pattern) = record.pattern {
                *patterns.entry(pattern).or_insert(0) += 1;
            }
        }
    }
    let mut sorted: Vec<(usize, usize)> = patterns.into_iter().collect();
    sorted.sort_by_key(|(pattern, count)| (std::cmp::Reverse(*count), *pattern));
    let mut top_patterns = [(0, 0); 3];
    for (slot, entry) in top_patterns.iter_mut().zip(sorted) {
        *slot = entry;
    }
    CollectionRollup {
        collection: contract,
        suspect_nfts: run.len(),
        activities,
        volume_eth,
        volume_usd,
        top_patterns,
    }
}

/// Patch the collections table around the epoch's dirty contract runs.
///
/// Current and previous segment stores are both segmented per NFT in
/// ascending NFT order, and NFT ids order by contract first — so both sides'
/// contract runs (read off the contiguous suspect tables, which align 1:1
/// with the segments) come out contract-ascending and a single lockstep walk
/// pairs them up. A run whose segments all map to the matching previous run,
/// in order and covering it entirely, keeps its previous row (same records,
/// same fold, same bits); every other run is re-folded from its records and
/// its previous row (if any) marked stale. The fresh rows are then merged
/// into the previous volume-sorted table with the stale rows dropped, which
/// equals re-sorting from scratch because [`compare_collection_rows`] is a
/// total order over unique contracts.
fn delta_collections(
    base: &DeltaBase<'_>,
    suspects: &[NftSummary],
    activities: &SegmentedVec<ActivityRecord>,
) -> Vec<CollectionRollup> {
    let mut stale: Vec<Address> = Vec::new();
    let mut fresh: Vec<CollectionRollup> = Vec::new();
    let mut prev_runs = contract_runs(&base.prev.suspects).peekable();
    for (contract, run) in contract_runs(suspects) {
        // Previous contracts we walked past no longer have suspects at all:
        // their rows drop with no replacement.
        while prev_runs.peek().is_some_and(|(previous, _)| *previous < contract) {
            stale.push(prev_runs.next().expect("peeked").0);
        }
        let matched = prev_runs.next_if(|(previous, _)| *previous == contract);
        let reused = matched.as_ref().is_some_and(|(_, prev_run)| {
            run.len() == prev_run.len()
                && run
                    .clone()
                    .zip(prev_run.clone())
                    .all(|(new, old)| base.reused_from[new] == Some(old))
        });
        if reused {
            continue;
        }
        if matched.is_some() {
            stale.push(contract);
        }
        fresh.push(rollup_collection(contract, &activities.segments()[run]));
    }
    stale.extend(prev_runs.map(|(contract, _)| contract));
    stale.sort_unstable();
    fresh.sort_by(compare_collection_rows);

    let previous = &base.prev.collections;
    let mut rows: Vec<CollectionRollup> = Vec::with_capacity(previous.len() + fresh.len());
    let mut pending = fresh.into_iter().peekable();
    for row in previous.iter() {
        if stale.binary_search(&row.collection).is_ok() {
            continue;
        }
        while pending
            .peek()
            .is_some_and(|next| compare_collection_rows(next, row) == std::cmp::Ordering::Less)
        {
            rows.push(pending.next().expect("peeked"));
        }
        rows.push(*row);
    }
    rows.extend(pending);
    rows
}

/// Cut resolved records into one segment per NFT (the confirmed order keeps
/// each NFT's activities contiguous) — the sharing granularity delta builds
/// reuse at.
fn segment_by_nft(records: Vec<ActivityRecord>) -> SegmentedVec<ActivityRecord> {
    let mut activities = SegmentedVec::new();
    let mut group: Vec<ActivityRecord> = Vec::new();
    for record in records {
        if let Some(first) = group.first() {
            if first.nft != record.nft {
                activities.push_segment(Arc::new(std::mem::take(&mut group)));
            }
        }
        group.push(record);
    }
    activities.push_segment(Arc::new(group));
    activities
}

/// Build the block-sorted suspect log, sharing the longest segment-aligned
/// prefix of the previous epoch's log. New confirmations carry the epoch's
/// last block and therefore sort to the end, so in the common append-only
/// case the whole previous log is reused and only a tail segment is built;
/// a lost or re-confirmed suspect invalidates the log from its segment on.
fn share_log_prefix(
    previous: Option<&SegmentedVec<(BlockNumber, NftId)>>,
    mut entries: Vec<(BlockNumber, NftId)>,
) -> SegmentedVec<(BlockNumber, NftId)> {
    let mut log = SegmentedVec::new();
    let mut position = 0;
    if let Some(previous) = previous {
        for segment in previous.segments() {
            let end = position + segment.len();
            if end <= entries.len() && entries[position..end] == segment[..] {
                log.push_segment(Arc::clone(segment));
                position = end;
            } else {
                break;
            }
        }
    }
    log.push_segment(Arc::new(entries.split_off(position)));
    log
}

/// `partition_point` over a [`SegmentedVec`]-backed sorted log.
fn partition_point_log(
    log: &SegmentedVec<(BlockNumber, NftId)>,
    predicate: impl Fn(&(BlockNumber, NftId)) -> bool,
) -> usize {
    let mut low = 0;
    let mut high = log.len();
    while low < high {
        let mid = low + (high - low) / 2;
        if predicate(log.get(mid)) {
            low = mid + 1;
        } else {
            high = mid;
        }
    }
    low
}

/// The snapshot's dataset counters, read off the growing dataset.
fn dataset_totals(dataset: &Dataset) -> DatasetTotals {
    DatasetTotals {
        nfts: dataset.nft_count(),
        transfers: dataset.transfer_count(),
        raw_transfer_events: dataset.raw_transfer_events,
        compliant_contracts: dataset.compliant_contracts.len(),
        non_compliant_contracts: dataset.non_compliant_contracts.len(),
    }
}

/// Derive the per-marketplace rollup rows from activity records plus the
/// Table I venue totals, mirroring the §V Table II computation exactly
/// (same grouping, accumulation order, share semantics and sort) — so the
/// derived rows equal `Characterization::per_marketplace` bit for bit, and
/// callers that already hold those rows may pass them instead
/// ([`Snapshot::from_dense_with_marketplaces`]).
fn rollup_marketplaces(
    records: &[ActivityRecord],
    table1: &[MarketplaceVolume],
) -> Vec<MarketplaceWashRow> {
    let market_totals: HashMap<&str, f64> =
        table1.iter().map(|row| (row.name.as_str(), row.volume_usd)).collect();
    struct MarketAccumulator {
        nfts: std::collections::BTreeSet<NftId>,
        activities: usize,
        volume_eth: f64,
        volume_usd: f64,
    }
    let mut per_market: HashMap<String, MarketAccumulator> = HashMap::new();
    for record in records {
        let name = record.marketplace.clone().unwrap_or_else(|| "Off-market".to_string());
        let accumulator = per_market.entry(name).or_insert(MarketAccumulator {
            nfts: std::collections::BTreeSet::new(),
            activities: 0,
            volume_eth: 0.0,
            volume_usd: 0.0,
        });
        accumulator.nfts.insert(record.nft);
        accumulator.activities += 1;
        accumulator.volume_eth += record.volume.to_eth();
        accumulator.volume_usd += record.volume_usd;
    }
    let mut marketplaces: Vec<MarketplaceWashRow> = per_market
        .iter()
        .map(|(name, accumulator)| MarketplaceWashRow {
            name: name.clone(),
            nfts: accumulator.nfts.len(),
            activities: accumulator.activities,
            volume_eth: accumulator.volume_eth,
            volume_usd: accumulator.volume_usd,
            share_of_marketplace_volume: market_totals.get(name.as_str()).map(|total| {
                if *total > 0.0 {
                    accumulator.volume_usd / total
                } else {
                    0.0
                }
            }),
        })
        .collect();
    marketplaces
        .sort_by(|a, b| b.volume_usd.total_cmp(&a.volume_usd).then_with(|| a.name.cmp(&b.name)));
    marketplaces
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{Timestamp, TxHash};
    use ids::AccountId;
    use washtrade::refine::DenseCandidate;
    use washtrade::txgraph::DenseTradeEdge;

    /// Intern a small dense activity into `dataset`, mirroring the
    /// characterization test fixture: `edges` index into the sorted account
    /// list.
    fn activity(
        dataset: &mut Dataset,
        collection: &str,
        token: u64,
        accounts: &[&str],
        edges: &[(usize, usize, f64)],
        start_secs: u64,
    ) -> DenseActivity {
        let accounts: Vec<AccountId> = {
            let mut addresses: Vec<Address> =
                accounts.iter().map(|s| Address::derived(s)).collect();
            addresses.sort();
            addresses.into_iter().map(|a| dataset.interner.intern_account(a)).collect()
        };
        let nft = dataset.interner.intern_nft(NftId::new(Address::derived(collection), token));
        let internal_edges: Vec<(AccountId, AccountId, DenseTradeEdge)> = edges
            .iter()
            .enumerate()
            .map(|(i, (from, to, price))| {
                (
                    accounts[*from],
                    accounts[*to],
                    DenseTradeEdge {
                        timestamp: Timestamp::from_secs(start_secs + i as u64 * 3_600),
                        tx_hash: TxHash::hash_of(format!("{collection}-{token}-{i}").as_bytes()),
                        tx: ids::TxId((token * 16 + i as u64) as u32),
                        marketplace: None,
                        price: Wei::from_eth(*price),
                    },
                )
            })
            .collect();
        let first = internal_edges.iter().map(|(_, _, e)| e.timestamp).min().unwrap();
        let last = internal_edges.iter().map(|(_, _, e)| e.timestamp).max().unwrap();
        DenseActivity {
            candidate: DenseCandidate {
                nft,
                accounts,
                volume: internal_edges.iter().map(|(_, _, e)| e.price).sum(),
                first_trade: first,
                last_trade: last,
                internal_edges,
            },
            methods: MethodSet { zero_risk: true, ..MethodSet::default() },
        }
    }

    /// Sort dense activities into the pipeline's confirmed order.
    fn confirmed_order(
        dataset: &Dataset,
        mut activities: Vec<DenseActivity>,
    ) -> Vec<DenseActivity> {
        activities.sort_by_key(|activity| activity.candidate.sort_key(&dataset.interner));
        activities
    }

    fn fixture() -> Snapshot {
        let mut dataset = Dataset::default();
        let activities = vec![
            activity(&mut dataset, "meebits", 1, &["s1", "s2"], &[(0, 1, 1.0), (1, 0, 1.0)], 1_000),
            activity(&mut dataset, "meebits", 2, &["s1", "s2"], &[(0, 1, 2.0), (1, 0, 2.0)], 2_000),
            activity(
                &mut dataset,
                "loot",
                7,
                &["t1", "t2", "t3"],
                &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
                3_000,
            ),
            activity(&mut dataset, "loot", 9, &["solo"], &[(0, 0, 5.0)], 4_000),
        ];
        let confirmed_at: HashMap<NftId, BlockNumber> = activities
            .iter()
            .enumerate()
            .map(|(index, a)| {
                (dataset.interner.nft(a.candidate.nft), BlockNumber(10 * (index as u64 + 1)))
            })
            .collect();
        let directory = MarketplaceDirectory::new();
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(0), 400, 1);
        Snapshot::from_dense(
            SnapshotMeta { epoch: 3, watermark: BlockNumber(100) },
            &activities,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
        )
    }

    #[test]
    fn stats_and_point_lookups() {
        let snapshot = fixture();
        let stats = snapshot.stats();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.watermark, BlockNumber(100));
        assert_eq!(stats.confirmed_activities, 4);
        assert_eq!(stats.suspect_nfts, 4);
        assert_eq!(stats.involved_accounts, 6);
        assert_eq!(stats.wash_volume, Wei::from_eth(14.0));
        assert!(stats.wash_volume_usd > 0.0);

        let meebits1 = NftId::new(Address::derived("meebits"), 1);
        let summary = snapshot.suspect(meebits1).expect("confirmed NFT");
        assert_eq!(summary.activities, 1);
        assert_eq!(summary.volume, Wei::from_eth(2.0));
        assert_eq!(summary.confirmed_at, BlockNumber(10));
        assert_eq!(snapshot.suspect(NftId::new(Address::derived("ghost"), 0)), None);
    }

    #[test]
    fn suspect_log_answers_block_windows() {
        let snapshot = fixture();
        // Confirmation blocks are 10, 20, 30, 40 in activity order.
        assert_eq!(snapshot.suspects_since(BlockNumber(0)).len(), 4);
        let since_25 = snapshot.suspects_since(BlockNumber(25));
        assert_eq!(since_25.len(), 2);
        assert!(since_25.windows(2).all(|w| w[0] < w[1]), "ascending NFT identity");
        assert_eq!(snapshot.suspects_since(BlockNumber(41)), Vec::<NftId>::new());
        assert_eq!(snapshot.suspects_between(BlockNumber(15), BlockNumber(30)).len(), 2);
        assert_eq!(snapshot.suspects_between(BlockNumber(0), BlockNumber(9)), Vec::<NftId>::new());
    }

    #[test]
    fn ranking_serves_top_movers() {
        let snapshot = fixture();
        let movers = snapshot.top_movers(2);
        assert_eq!(movers[0].1, Wei::from_eth(5.0), "the self-trade is the heaviest");
        assert_eq!(movers[0].0, NftId::new(Address::derived("loot"), 9));
        assert_eq!(movers[1].1, Wei::from_eth(4.0));
        assert_eq!(movers[1].0, NftId::new(Address::derived("meebits"), 2));
        assert_eq!(snapshot.top_movers(0), Vec::new());
        assert_eq!(snapshot.top_movers(99).len(), 4);
    }

    #[test]
    fn account_dossiers_follow_the_postings() {
        let snapshot = fixture();
        let s1 = snapshot.dossier(Address::derived("s1")).expect("serial trader");
        assert_eq!(s1.activities, 2);
        assert_eq!(s1.nfts.len(), 2);
        assert_eq!(s1.wash_volume, Wei::from_eth(6.0));
        assert_eq!(s1.collaborators, vec![Address::derived("s2")]);

        let solo = snapshot.dossier(Address::derived("solo")).expect("self trader");
        assert_eq!(solo.activities, 1);
        assert!(solo.collaborators.is_empty());

        assert_eq!(snapshot.dossier(Address::derived("bystander")), None);
    }

    #[test]
    fn collection_and_marketplace_rollups() {
        let snapshot = fixture();
        let collections = snapshot.collections();
        assert_eq!(collections.len(), 2);
        // loot carries 8 ETH (3 + 5) vs meebits' 6 ETH.
        assert_eq!(collections[0].collection, Address::derived("loot"));
        assert_eq!(collections[0].suspect_nfts, 2);
        assert!(collections[0].volume_usd > collections[1].volume_usd);
        assert!(collections[0].top_patterns[0].1 > 0);
        assert_eq!(snapshot.top_collections(1).len(), 1);

        let marketplaces = snapshot.marketplaces();
        assert_eq!(marketplaces.len(), 1);
        assert_eq!(marketplaces[0].name, "Off-market");
        assert_eq!(marketplaces[0].activities, 4);
        assert_eq!(marketplaces[0].share_of_marketplace_volume, None);
    }

    #[test]
    fn from_dense_rollups_equal_the_characterization_rows() {
        // `Snapshot::from_dense` derives its marketplace rollups itself
        // (`rollup_marketplaces`); the streaming/batch constructors instead
        // reuse `Characterization::per_marketplace`. This pins the two
        // computations to each other — on a fixture with real venue
        // attribution, not just the Off-market fallback — so Table II logic
        // cannot drift from the self-contained constructor unnoticed.
        let mut dataset = Dataset::default();
        let opensea = Address::derived("opensea");
        let mut activities = vec![
            activity(&mut dataset, "meebits", 1, &["s1", "s2"], &[(0, 1, 1.0), (1, 0, 3.0)], 1_000),
            activity(&mut dataset, "loot", 9, &["solo"], &[(0, 0, 5.0)], 4_000),
        ];
        // Route the pair's heavier leg through a real marketplace.
        let market = dataset.interner.intern_market(opensea);
        activities[0].candidate.internal_edges[1].2.marketplace = Some(market);
        let mut directory = MarketplaceDirectory::new();
        directory.add(marketplace::MarketplaceInfo {
            name: "OpenSea".to_string(),
            contract: opensea,
            treasury: Address::derived("opensea-treasury"),
            escrow: None,
            fee_bps: 250,
            reward: None,
        });
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(0), 400, 1);

        let snapshot = Snapshot::from_dense(
            SnapshotMeta { epoch: 1, watermark: BlockNumber(50) },
            &activities,
            &dataset,
            &directory,
            &oracle,
            &HashMap::new(),
        );
        let characterization =
            washtrade::characterize::characterize(&activities, &dataset, &directory, &oracle);
        assert_eq!(snapshot.marketplaces(), &characterization.per_marketplace[..]);
        let names: Vec<&str> =
            snapshot.marketplaces().iter().map(|row| row.name.as_str()).collect();
        assert!(names.contains(&"OpenSea") && names.contains(&"Off-market"));
        assert_eq!(snapshot.stats().wash_volume_usd, characterization.total_volume_usd);
    }

    #[test]
    fn snapshots_are_cheap_handles_with_content_equality() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();

        let snapshot = fixture();
        let clone = snapshot.clone();
        assert!(Arc::ptr_eq(&snapshot.inner, &clone.inner), "clone is a refcount bump");
        assert_eq!(snapshot, clone);
        assert_eq!(Snapshot::empty(), Snapshot::default());
        assert_ne!(snapshot, Snapshot::empty());
    }

    #[test]
    fn delta_with_no_changes_shares_every_index() {
        let mut dataset = Dataset::default();
        let activities = vec![
            activity(&mut dataset, "meebits", 1, &["a", "b"], &[(0, 1, 1.0), (1, 0, 1.0)], 500),
            activity(&mut dataset, "loot", 9, &["solo"], &[(0, 0, 5.0)], 900),
        ];
        let activities = confirmed_order(&dataset, activities);
        let directory = MarketplaceDirectory::new();
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(0), 400, 1);
        let confirmed_at: HashMap<NftId, BlockNumber> = activities
            .iter()
            .map(|a| (dataset.interner.nft(a.candidate.nft), BlockNumber(10)))
            .collect();

        let base = Snapshot::from_dense(
            SnapshotMeta { epoch: 1, watermark: BlockNumber(20) },
            &activities,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
        );
        let meta = SnapshotMeta { epoch: 2, watermark: BlockNumber(30) };
        let delta = Snapshot::delta_from_dense(
            &base,
            meta,
            &activities,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
            base.marketplaces().to_vec(),
            &BTreeSet::new(),
            None,
        );
        let full = Snapshot::from_dense_with_marketplaces(
            meta,
            &activities,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
            base.marketplaces().to_vec(),
            None,
        );
        assert_eq!(delta, full, "no-change delta is bit-identical to the full rebuild");
        let build = delta.build_stats();
        assert!(build.delta);
        assert_eq!(build.records_reused, build.records_total);
        assert_eq!(build.chunk_reuse_ratio(), 1.0);
        assert!(Arc::ptr_eq(&delta.inner.suspects, &base.inner.suspects), "index Arc-shared");
        assert!(Arc::ptr_eq(&delta.inner.ranking, &base.inner.ranking));
    }

    #[test]
    fn delta_rebuilds_only_changed_nfts_and_matches_the_full_build() {
        let mut dataset = Dataset::default();
        let epoch1 = vec![
            activity(&mut dataset, "meebits", 1, &["a", "b"], &[(0, 1, 1.0), (1, 0, 1.0)], 500),
            activity(&mut dataset, "loot", 9, &["solo"], &[(0, 0, 5.0)], 900),
        ];
        let epoch1 = confirmed_order(&dataset, epoch1);
        let directory = MarketplaceDirectory::new();
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(0), 400, 1);
        let mut confirmed_at: HashMap<NftId, BlockNumber> = epoch1
            .iter()
            .map(|a| (dataset.interner.nft(a.candidate.nft), BlockNumber(10)))
            .collect();
        let base = Snapshot::from_dense(
            SnapshotMeta { epoch: 1, watermark: BlockNumber(20) },
            &epoch1,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
        );

        // Epoch 2: a brand-new suspect joins, the old ones are untouched.
        let mut epoch2 = epoch1.clone();
        epoch2.push(activity(
            &mut dataset,
            "punks",
            3,
            &["x", "y"],
            &[(0, 1, 2.0), (1, 0, 2.0)],
            2_000,
        ));
        let epoch2 = confirmed_order(&dataset, epoch2);
        let punk = NftId::new(Address::derived("punks"), 3);
        confirmed_at.insert(punk, BlockNumber(29));
        let changed: BTreeSet<NftId> = [punk].into_iter().collect();

        let meta = SnapshotMeta { epoch: 2, watermark: BlockNumber(30) };
        let delta = Snapshot::delta_from_dense(
            &base,
            meta,
            &epoch2,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
            Vec::new(),
            &changed,
            None,
        );
        let full = Snapshot::from_dense_with_marketplaces(
            meta,
            &epoch2,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
            Vec::new(),
            None,
        );
        assert_eq!(delta, full, "delta build is bit-identical to the full rebuild");
        let build = delta.build_stats();
        assert!(build.delta);
        assert_eq!(build.records_total, 3);
        assert_eq!(build.records_reused, 2, "both unchanged NFTs reused their segments");
        assert_eq!(build.segments_reused, 2);
        // The new suspect confirms at the tip, so the previous log is a
        // shared prefix and only a tail segment was appended.
        assert_eq!(delta.inner.suspect_log.shared_len_with(&base.inner.suspect_log), 2);
    }

    #[test]
    fn delta_handles_lost_and_changed_suspects() {
        let mut dataset = Dataset::default();
        let epoch1 = vec![
            activity(&mut dataset, "meebits", 1, &["a", "b"], &[(0, 1, 1.0), (1, 0, 1.0)], 500),
            activity(&mut dataset, "loot", 9, &["solo"], &[(0, 0, 5.0)], 900),
            activity(&mut dataset, "punks", 3, &["x", "y"], &[(0, 1, 2.0), (1, 0, 2.0)], 1_500),
        ];
        let epoch1 = confirmed_order(&dataset, epoch1);
        let directory = MarketplaceDirectory::new();
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(0), 400, 1);
        let confirmed_at: HashMap<NftId, BlockNumber> = epoch1
            .iter()
            .map(|a| (dataset.interner.nft(a.candidate.nft), BlockNumber(10)))
            .collect();
        let base = Snapshot::from_dense(
            SnapshotMeta { epoch: 1, watermark: BlockNumber(20) },
            &epoch1,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at,
        );

        // Epoch 2: loot 9 loses its confirmation; punks 3 doubles up.
        let loot = NftId::new(Address::derived("loot"), 9);
        let punk = NftId::new(Address::derived("punks"), 3);
        let mut epoch2: Vec<DenseActivity> = epoch1
            .iter()
            .filter(|a| dataset.interner.nft(a.candidate.nft) != loot)
            .cloned()
            .collect();
        epoch2.push(activity(
            &mut dataset,
            "punks",
            3,
            &["x", "y"],
            &[(0, 1, 3.0), (1, 0, 3.0)],
            2_500,
        ));
        let epoch2 = confirmed_order(&dataset, epoch2);
        let mut confirmed_at2 = confirmed_at.clone();
        confirmed_at2.remove(&loot);
        let changed: BTreeSet<NftId> = [loot, punk].into_iter().collect();

        let meta = SnapshotMeta { epoch: 2, watermark: BlockNumber(30) };
        let delta = Snapshot::delta_from_dense(
            &base,
            meta,
            &epoch2,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at2,
            Vec::new(),
            &changed,
            None,
        );
        let full = Snapshot::from_dense_with_marketplaces(
            meta,
            &epoch2,
            &dataset,
            &directory,
            &oracle,
            &confirmed_at2,
            Vec::new(),
            None,
        );
        assert_eq!(delta, full, "losses and re-confirmations still match the full rebuild");
        assert_eq!(delta.build_stats().records_reused, 1, "only meebits 1 was reusable");
        assert_eq!(delta.suspect(loot), None);
        assert_eq!(delta.suspect(punk).expect("still confirmed").activities, 2);
    }
}
