//! The typed request/response surface: a [`Query`] goes in, a [`Served`]
//! response comes out, answered from exactly one published [`Snapshot`]
//! (whose epoch the response carries) with an optional trip through the
//! sharded LRU cache.
//!
//! The catalog covers the queries the paper's downstream consumers issue:
//! point status of an NFT, block-windowed suspect feeds, volume rankings,
//! account dossiers, collection and marketplace rollups, and the aggregate
//! stats line — plus the **longitudinal** surface retention enables:
//! [`Query::AsOf`] re-targets any point query at a retained historical
//! epoch, [`Query::SuspectDiff`] reports the suspect-set churn between two
//! epochs, and [`Query::WashVolumeTrend`] serves the wash-volume series
//! across every retained epoch. Historical answers are immutable, so their
//! cache entries are exempt from epoch invalidation and age out by LRU
//! only; asking for an evicted epoch yields a typed
//! [`Response::NotRetained`] miss, never a panic.

use ethsim::{Address, BlockNumber, Wei};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tokens::NftId;
use washtrade::characterize::MarketplaceWashRow;

use crate::cache::{CacheStats, ShardedLru};
use crate::publish::SnapshotPublisher;
use crate::snapshot::{AccountDossier, CollectionRollup, NftSummary, Snapshot, SnapshotStats};

/// A read-side request. `Hash`/`Eq` make queries directly usable as cache
/// keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Query {
    /// Aggregate counters of the current snapshot.
    Stats,
    /// Point lookup: is this NFT a confirmed suspect, and how bad?
    Nft(NftId),
    /// Suspects whose latest confirmation is at or after the block.
    SuspectsSince(BlockNumber),
    /// Suspects whose latest confirmation lies in the inclusive block range.
    SuspectsBetween(BlockNumber, BlockNumber),
    /// The `n` suspects with the largest wash volume.
    TopMovers(usize),
    /// One account's wash-trading dossier.
    Account(Address),
    /// The `n` collections with the most wash volume.
    TopCollections(usize),
    /// Per-marketplace wash rollups (the Table II rows).
    Marketplaces,
    /// Time travel: answer the inner query from the snapshot retained for
    /// `epoch` instead of the current one. The inner query must be a
    /// snapshot-level query (not `Metrics` or another historical variant).
    AsOf(u64, Box<Query>),
    /// Suspect-set churn between two retained epochs: which NFTs entered
    /// the suspect set going `from → to`, and which left it.
    SuspectDiff {
        /// Baseline epoch.
        from: u64,
        /// Comparison epoch.
        to: u64,
    },
    /// The wash-volume trend across every retained epoch, ascending.
    WashVolumeTrend,
    /// A snapshot of the process-wide runtime metrics (ingest, executor,
    /// stream, serve). Answered live, never cached.
    Metrics,
    /// The latest SLO verdicts from the health watchdog
    /// ([`obs::health::report`]). Live process state like [`Query::Metrics`]:
    /// answered at ask time, never cached.
    Health,
}

impl Query {
    /// Whether this query addresses fixed historical epochs, making its
    /// answer immutable once computed. Historical cache entries are exempt
    /// from epoch invalidation (they can never go stale) and are reclaimed
    /// by LRU pressure only.
    pub fn is_historical(&self) -> bool {
        matches!(self, Query::AsOf(_, _) | Query::SuspectDiff { .. })
    }
}

/// One point of the [`Query::WashVolumeTrend`] series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrendPoint {
    /// The retained epoch.
    pub epoch: u64,
    /// First block not covered by that epoch.
    pub watermark: BlockNumber,
    /// Confirmed activities at that epoch.
    pub confirmed_activities: usize,
    /// Distinct suspect NFTs at that epoch.
    pub suspect_nfts: usize,
    /// Confirmed wash volume in ETH at that epoch.
    pub wash_volume_eth: f64,
    /// Confirmed wash volume in USD at that epoch.
    pub wash_volume_usd: f64,
}

/// The payload of a served query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Query::Stats`].
    Stats(SnapshotStats),
    /// Answer to [`Query::Nft`]; `None` when the NFT is not a suspect.
    Nft(Option<NftSummary>),
    /// Answer to [`Query::SuspectsSince`] / [`Query::SuspectsBetween`].
    Suspects(Vec<NftId>),
    /// Answer to [`Query::TopMovers`].
    TopMovers(Vec<(NftId, Wei)>),
    /// Answer to [`Query::Account`]; `None` when the account is uninvolved.
    Account(Option<AccountDossier>),
    /// Answer to [`Query::TopCollections`].
    Collections(Vec<CollectionRollup>),
    /// Answer to [`Query::Marketplaces`].
    Marketplaces(Vec<MarketplaceWashRow>),
    /// Answer to [`Query::SuspectDiff`]: suspect-set churn `from → to`,
    /// both ascending by NFT identity.
    SuspectDiff {
        /// NFTs suspect at `to` but not at `from`.
        added: Vec<NftId>,
        /// NFTs suspect at `from` but not at `to`.
        removed: Vec<NftId>,
    },
    /// Answer to [`Query::WashVolumeTrend`]: one point per retained epoch,
    /// ascending by epoch.
    Trend(Vec<TrendPoint>),
    /// Typed miss for a historical query naming an epoch the publisher no
    /// longer (or never) retained.
    NotRetained {
        /// The epoch the query asked for.
        requested: u64,
        /// The latest published epoch.
        latest: u64,
        /// Every epoch currently answerable, ascending.
        retained: Vec<u64>,
    },
    /// The query cannot be answered in this position (e.g. nesting a
    /// historical or live-metrics query inside [`Query::AsOf`]).
    Unsupported(&'static str),
    /// Answer to [`Query::Metrics`]: the deterministic name-sorted metrics
    /// snapshot taken at answer time.
    Metrics(obs::MetricsSnapshot),
    /// Answer to [`Query::Health`]: the latest [`obs::HealthReport`] (empty
    /// before the first evaluation or while recording is off).
    Health(obs::HealthReport),
}

/// A response plus its provenance: the epoch of the snapshot that produced
/// it and whether it came from the cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Epoch of the snapshot the response was computed from. For historical
    /// queries this is the *addressed* epoch (for [`Query::SuspectDiff`],
    /// the later of the two).
    pub epoch: u64,
    /// Whether the response was served from the LRU cache.
    pub cached: bool,
    /// The payload.
    pub response: Response,
}

impl Snapshot {
    /// Answer one query from this snapshot. Every arm is an index lookup;
    /// nothing here touches analysis state. Queries that need the
    /// publisher's retained history ([`Query::AsOf`] and friends) cannot be
    /// answered by a lone snapshot and come back
    /// [`Response::Unsupported`] — route them through a [`QueryService`].
    pub fn answer(&self, query: &Query) -> Response {
        match query {
            Query::Stats => Response::Stats(self.stats()),
            Query::Nft(nft) => Response::Nft(self.suspect(*nft)),
            Query::SuspectsSince(block) => Response::Suspects(self.suspects_since(*block)),
            Query::SuspectsBetween(first, last) => {
                Response::Suspects(self.suspects_between(*first, *last))
            }
            Query::TopMovers(n) => Response::TopMovers(self.top_movers(*n)),
            Query::Account(account) => Response::Account(self.dossier(*account)),
            Query::TopCollections(n) => Response::Collections(self.top_collections(*n)),
            Query::Marketplaces => Response::Marketplaces(self.marketplaces().to_vec()),
            Query::AsOf(_, _) | Query::SuspectDiff { .. } | Query::WashVolumeTrend => {
                Response::Unsupported("historical queries need a QueryService with retention")
            }
            Query::Metrics => Response::Metrics(obs::snapshot()),
            Query::Health => Response::Health(obs::health::report()),
        }
    }

    /// The trend-series point this snapshot contributes.
    fn trend_point(&self) -> TrendPoint {
        let stats = self.stats();
        TrendPoint {
            epoch: stats.epoch,
            watermark: stats.watermark,
            confirmed_activities: stats.confirmed_activities,
            suspect_nfts: stats.suspect_nfts,
            wash_volume_eth: stats.wash_volume_eth,
            wash_volume_usd: stats.wash_volume_usd,
        }
    }
}

/// Shards (independent locks) of a [`QueryService`]'s response cache.
const CACHE_SHARDS: usize = 16;
/// Entries per shard of a [`QueryService`]'s response cache.
const CACHE_ENTRIES_PER_SHARD: usize = 64;

/// The concurrent query front end: consults the sharded LRU under the
/// published epoch, and on a miss loads the current snapshot from the
/// publisher and computes. Clones share the publisher slot *and* the cache,
/// so one service can be handed to any number of reader threads.
#[derive(Debug, Clone)]
pub struct QueryService {
    publisher: SnapshotPublisher,
    cache: Arc<ShardedLru>,
}

impl QueryService {
    /// A service over `publisher` with a 16-shard × 64-entry response
    /// cache. The cache is registered with the publisher so
    /// [`SnapshotPublisher::cache_stats`] sees it for as long as this service
    /// (or a clone) is alive.
    pub fn new(publisher: SnapshotPublisher) -> Self {
        let cache = Arc::new(ShardedLru::new(CACHE_SHARDS, CACHE_ENTRIES_PER_SHARD));
        publisher.register_cache(&cache);
        QueryService { publisher, cache }
    }

    /// Serve one query. Snapshot-level queries answer from the currently
    /// published snapshot; historical queries resolve their epochs through
    /// the publisher's retained history. The returned epoch identifies the
    /// snapshot that answered; the response is internally consistent with
    /// it by construction (one snapshot, one answer — and cache entries only
    /// ever match their own epoch).
    ///
    /// A snapshot-level query first looks the cache up under the published
    /// epoch ([`SnapshotPublisher::current_epoch`], one atomic load) without
    /// loading the snapshot: a hit is an answer computed from that epoch's
    /// snapshot, and costs one shard lock. Only a miss loads the snapshot,
    /// answers from it and caches the answer under the snapshot's epoch.
    /// `Metrics` and `Health` are stamped with the published epoch the same
    /// way.
    ///
    /// Each call records its end-to-end latency into the per-variant
    /// `serve.query.<variant>_ns` histogram (their counts sum to the queries
    /// served) and — for current-snapshot queries — records
    /// `serve.query.epoch_lag`: how many epochs the snapshot that answered
    /// trails the latest published one (non-zero only when a publish raced
    /// this query). The query path keeps its own clock pair rather than a
    /// span: a span per query would allocate a name and flood the flight
    /// ring.
    pub fn query(&self, query: &Query) -> Served {
        let timed = obs::recording().then(std::time::Instant::now);
        let served = self.answer_via_cache(query);
        if let Some(started) = timed {
            latency_histogram(query).get().record_duration(started.elapsed());
            // Historical queries address old epochs on purpose; recording
            // their distance as "lag" would drown the real publish-race
            // signal.
            if !query.is_historical() {
                let lag = self.publisher.current_epoch().saturating_sub(served.epoch);
                obs::histogram!("serve.query.epoch_lag", lag);
            }
        }
        served
    }

    fn answer_via_cache(&self, query: &Query) -> Served {
        match query {
            // Metrics and health are live process state, not snapshot state:
            // caching either would freeze the counters/verdicts they exist
            // to report. Neither reads the snapshot, so neither loads it.
            Query::Metrics => self.live(Response::Metrics(obs::snapshot())),
            Query::Health => self.live(Response::Health(obs::health::report())),
            Query::AsOf(epoch, inner) => self.answer_as_of(*epoch, inner, query),
            Query::SuspectDiff { from, to } => self.answer_diff(*from, *to, query),
            Query::WashVolumeTrend => self.answer_trend(query),
            _ => {
                // The epoch mirror may trail the slot by one publish; an
                // entry it finds still answers its own epoch exactly.
                let epoch = self.publisher.current_epoch();
                if let Some(response) = self.cache.get(epoch, query) {
                    return Served { epoch, cached: true, response };
                }
                let snapshot = self.publisher.load();
                let epoch = snapshot.epoch();
                let response = snapshot.answer(query);
                self.cache.insert(epoch, query.clone(), response.clone());
                Served { epoch, cached: false, response }
            }
        }
    }

    /// A live-state answer, never cached, stamped with the published epoch.
    fn live(&self, response: Response) -> Served {
        Served { epoch: self.publisher.current_epoch(), cached: false, response }
    }

    /// Answer `inner` from the snapshot retained for `epoch`. Cached under
    /// the *historical* epoch: the answer can never go stale, so the entry
    /// keeps serving even after the epoch itself is evicted from retention.
    fn answer_as_of(&self, epoch: u64, inner: &Query, key: &Query) -> Served {
        if matches!(
            inner,
            Query::Metrics
                | Query::Health
                | Query::AsOf(_, _)
                | Query::SuspectDiff { .. }
                | Query::WashVolumeTrend
        ) {
            return Served {
                epoch: self.publisher.current_epoch(),
                cached: false,
                response: Response::Unsupported(
                    "AsOf wraps snapshot-level queries only (not Metrics/Health or historical \
                     variants)",
                ),
            };
        }
        if let Some(response) = self.cache.get(epoch, key) {
            return Served { epoch, cached: true, response };
        }
        match self.publisher.at_epoch(epoch) {
            Some(snapshot) => {
                let response = snapshot.answer(inner);
                self.cache.insert(epoch, key.clone(), response.clone());
                Served { epoch, cached: false, response }
            }
            None => self.not_retained(epoch),
        }
    }

    /// Suspect-set churn between two retained epochs, cached under the
    /// later epoch.
    fn answer_diff(&self, from: u64, to: u64, key: &Query) -> Served {
        let key_epoch = from.max(to);
        if let Some(response) = self.cache.get(key_epoch, key) {
            return Served { epoch: key_epoch, cached: true, response };
        }
        let Some(base) = self.publisher.at_epoch(from) else {
            return self.not_retained(from);
        };
        let Some(target) = self.publisher.at_epoch(to) else {
            return self.not_retained(to);
        };
        let response = suspect_diff(&base, &target);
        self.cache.insert(key_epoch, key.clone(), response.clone());
        Served { epoch: key_epoch, cached: false, response }
    }

    /// The wash-volume series over every retained epoch. Cached under the
    /// *current* epoch (not historical): each publish extends the series,
    /// so epoch invalidation is exactly the right freshness rule.
    fn answer_trend(&self, key: &Query) -> Served {
        let epoch = self.publisher.epoch();
        if let Some(response) = self.cache.get(epoch, key) {
            return Served { epoch, cached: true, response };
        }
        let points: Vec<TrendPoint> = self
            .publisher
            .retained_epochs()
            .into_iter()
            .filter_map(|retained| self.publisher.at_epoch(retained))
            .map(|snapshot| snapshot.trend_point())
            .collect();
        let response = Response::Trend(points);
        self.cache.insert(epoch, key.clone(), response.clone());
        Served { epoch, cached: false, response }
    }

    /// The typed miss for an epoch outside the retained set; never cached
    /// (a *future* epoch will eventually be published and must not be
    /// answered by a stale miss).
    fn not_retained(&self, requested: u64) -> Served {
        let latest = self.publisher.current_epoch();
        Served {
            epoch: latest,
            cached: false,
            response: Response::NotRetained {
                requested,
                latest,
                retained: self.publisher.retained_epochs(),
            },
        }
    }

    /// The snapshot the next query would be answered from.
    pub fn snapshot(&self) -> Snapshot {
        self.publisher.load()
    }

    /// The publisher this service reads from.
    pub fn publisher(&self) -> &SnapshotPublisher {
        &self.publisher
    }

    /// Cache hit/miss counters since the service was created.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Suspect-set churn between two snapshots: a linear merge over the two
/// identity-sorted suspect tables.
fn suspect_diff(base: &Snapshot, target: &Snapshot) -> Response {
    let from = base.suspects();
    let to = target.suspects();
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < from.len() || j < to.len() {
        match (from.get(i), to.get(j)) {
            (Some(old), Some(new)) if old.nft == new.nft => {
                i += 1;
                j += 1;
            }
            (Some(old), Some(new)) if old.nft < new.nft => {
                removed.push(old.nft);
                i += 1;
            }
            (Some(_), Some(new)) => {
                added.push(new.nft);
                j += 1;
            }
            (Some(old), None) => {
                removed.push(old.nft);
                i += 1;
            }
            (None, Some(new)) => {
                added.push(new.nft);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    Response::SuspectDiff { added, removed }
}

/// The per-variant latency histogram for `query`, resolved through static
/// lazy handles so the hot path never formats a metric name or takes the
/// registry lock after first use.
fn latency_histogram(query: &Query) -> &'static obs::LazyHistogram {
    static STATS: obs::LazyHistogram = obs::LazyHistogram::new("serve.query.stats_ns");
    static NFT: obs::LazyHistogram = obs::LazyHistogram::new("serve.query.nft_ns");
    static SUSPECTS_SINCE: obs::LazyHistogram =
        obs::LazyHistogram::new("serve.query.suspects_since_ns");
    static SUSPECTS_BETWEEN: obs::LazyHistogram =
        obs::LazyHistogram::new("serve.query.suspects_between_ns");
    static TOP_MOVERS: obs::LazyHistogram = obs::LazyHistogram::new("serve.query.top_movers_ns");
    static ACCOUNT: obs::LazyHistogram = obs::LazyHistogram::new("serve.query.account_ns");
    static TOP_COLLECTIONS: obs::LazyHistogram =
        obs::LazyHistogram::new("serve.query.top_collections_ns");
    static MARKETPLACES: obs::LazyHistogram =
        obs::LazyHistogram::new("serve.query.marketplaces_ns");
    static AS_OF: obs::LazyHistogram = obs::LazyHistogram::new("serve.query.as_of_ns");
    static SUSPECT_DIFF: obs::LazyHistogram =
        obs::LazyHistogram::new("serve.query.suspect_diff_ns");
    static WASH_VOLUME_TREND: obs::LazyHistogram =
        obs::LazyHistogram::new("serve.query.wash_volume_trend_ns");
    static METRICS: obs::LazyHistogram = obs::LazyHistogram::new("serve.query.metrics_ns");
    static HEALTH: obs::LazyHistogram = obs::LazyHistogram::new("serve.query.health_ns");
    match query {
        Query::Stats => &STATS,
        Query::Nft(_) => &NFT,
        Query::SuspectsSince(_) => &SUSPECTS_SINCE,
        Query::SuspectsBetween(_, _) => &SUSPECTS_BETWEEN,
        Query::TopMovers(_) => &TOP_MOVERS,
        Query::Account(_) => &ACCOUNT,
        Query::TopCollections(_) => &TOP_COLLECTIONS,
        Query::Marketplaces => &MARKETPLACES,
        Query::AsOf(_, _) => &AS_OF,
        Query::SuspectDiff { .. } => &SUSPECT_DIFF,
        Query::WashVolumeTrend => &WASH_VOLUME_TREND,
        Query::Metrics => &METRICS,
        Query::Health => &HEALTH,
    }
}
