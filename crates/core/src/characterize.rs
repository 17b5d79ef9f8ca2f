//! Characterization of confirmed wash-trading activities (§V of the paper):
//! volumes per marketplace and collection, temporal behaviour, participation
//! patterns and serial wash traders.
//!
//! The computation runs on dense activities and the columnar dataset —
//! accumulators are `Vec`s and bitsets indexed by [`AccountId`](ids::AccountId)/[`NftKey`],
//! not address-keyed maps — and resolves to addresses only in the output
//! structs. Every floating-point sum accumulates in a fixed order derived
//! from the data (sorted NFT identity, candidate order), never from map
//! iteration or ingest order, so the report is bit-identical run to run and
//! between the batch and streaming pipelines.

use std::collections::{HashMap, HashSet};

use ethsim::{Address, Timestamp};
use graphlib::{PatternCatalogue, PatternId};
use ids::{BitSet, NftKey};
use marketplace::MarketplaceDirectory;
use oracle::PriceOracle;
use serde::{Deserialize, Serialize};

use crate::dataset::{Dataset, MarketplaceVolume};
use crate::detect::DenseActivity;
use crate::parallel::Executor;
use crate::refine::DenseCandidate;
use crate::stats::Cdf;

/// One row of Table II: wash trading on a marketplace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketplaceWashRow {
    /// Marketplace name (or "Off-market" for direct transfers).
    pub name: String,
    /// Number of distinct NFTs affected.
    pub nfts: usize,
    /// Number of confirmed activities.
    pub activities: usize,
    /// Wash-traded volume in ETH.
    pub volume_eth: f64,
    /// Wash-traded volume in USD at trade time.
    pub volume_usd: f64,
    /// Wash volume as a share of the marketplace's total volume (0–1);
    /// `None` for off-market activity, which has no marketplace total.
    pub share_of_marketplace_volume: Option<f64>,
}

/// Fig. 4 data: the lifetime distribution of activities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeStats {
    /// Empirical CDF of activity lifetimes, in days.
    pub cdf_days: Cdf,
    /// Fraction of activities lasting at most one day.
    pub within_one_day: f64,
    /// Fraction of activities lasting less than ten days.
    pub within_ten_days: f64,
}

/// Fig. 5 data: wash-trading occurrences relative to collection creation, for
/// the collections with the most affected NFTs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionTimeline {
    /// The collection contract.
    pub collection: Address,
    /// Timestamp of the first observed transfer of the collection (its
    /// creation, as seen on chain).
    pub created_at: Timestamp,
    /// Number of distinct NFTs of the collection affected by wash trading.
    pub affected_nfts: usize,
    /// Wash-traded volume on the collection, in USD.
    pub volume_usd: f64,
    /// Timestamps of the confirmed activities (first trade of each).
    pub activity_times: Vec<Timestamp>,
}

/// Fig. 6 / Fig. 7 data: participation and shape of the activities.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PatternStats {
    /// Histogram of the number of participating accounts: index 0 holds
    /// one-account activities, …, index 4 holds five-account activities,
    /// index 5 holds six or more.
    pub accounts_histogram: [usize; 6],
    /// Occurrences per catalogued Fig. 7 pattern id.
    pub pattern_occurrences: HashMap<usize, usize>,
    /// Activities whose shape is not in the 12-pattern catalogue.
    pub uncatalogued: usize,
    /// Fraction of activities performed by exactly two accounts.
    pub two_account_fraction: f64,
    /// Fraction of activities that are pure self-trades (pattern 0).
    pub self_trade_fraction: f64,
}

/// §V-D data: serial wash traders.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SerialTraderStats {
    /// Total accounts involved in confirmed activities.
    pub total_accounts: usize,
    /// Accounts involved in two or more activities.
    pub serial_accounts: usize,
    /// Activities involving at least one serial account.
    pub activities_with_serials: usize,
    /// Total confirmed activities.
    pub total_activities: usize,
    /// Mean number of activities per serial account.
    pub mean_activities_per_serial: f64,
    /// Maximum number of activities a single account participates in.
    pub max_activities_per_account: usize,
    /// Fraction of serial accounts that hit the same collection repeatedly.
    pub same_collection_fraction: f64,
    /// Fraction of serial accounts that collaborate exclusively with other
    /// serial accounts.
    pub exclusive_collaboration_fraction: f64,
}

/// The full §V characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Total confirmed activities.
    pub total_activities: usize,
    /// Total wash-traded volume in USD.
    pub total_volume_usd: f64,
    /// Total wash-traded volume in ETH.
    pub total_volume_eth: f64,
    /// Table II rows, sorted by wash volume.
    pub per_marketplace: Vec<MarketplaceWashRow>,
    /// Fig. 3 data: per-marketplace CDFs of activity volume (USD), plus the
    /// volume CDF of unaffected (legit) trading.
    pub volume_cdfs: HashMap<String, Cdf>,
    /// Fig. 4 data.
    pub lifetimes: LifetimeStats,
    /// Fig. 5 data (top collections by affected NFTs).
    pub collection_timelines: Vec<CollectionTimeline>,
    /// Fig. 6 / Fig. 7 data.
    pub patterns: PatternStats,
    /// §V-D data.
    pub serial_traders: SerialTraderStats,
    /// §V-B: fraction of activities whose NFT was acquired the same day the
    /// manipulation started, and within 14 days.
    pub acquired_same_day_fraction: f64,
    /// Fraction acquired at most 14 days before the first wash trade.
    pub acquired_within_two_weeks_fraction: f64,
}

/// The shape (distinct directed edges over local positions) of a candidate's
/// internal trading, used for pattern classification. Positions are indices
/// into the candidate's address-sorted account list.
pub fn component_shape(candidate: &DenseCandidate) -> Vec<(usize, usize)> {
    crate::refine::edge_shape(
        &candidate.accounts,
        candidate.internal_edges.iter().map(|(from, to, _)| (*from, *to)),
    )
}

/// The expensive per-activity leaf values of the §V characterization: USD
/// pricing of the internal edges, dominant-marketplace attribution, pattern
/// classification and the acquisition-lead scan over the NFT's rows.
///
/// Facts are a pure function of the candidate and its NFT's (immutable,
/// append-only) transfer history, so the streaming analyzer caches them per
/// candidate and recomputes them only when the NFT's graph changes; the
/// final reduce ([`characterize_from_parts`]) then replays the batch fold
/// over cached leaves — same values, same order, bit-identical floats. The
/// cached facts are also the only source of a published snapshot record's
/// USD volume, marketplace and pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityFacts {
    /// Name of the marketplace carrying most of the volume; `None` for
    /// off-market activity.
    pub marketplace: Option<String>,
    /// USD value of the internal edges, folded in edge order.
    pub volume_usd: f64,
    /// ETH volume of the candidate.
    pub volume_eth: f64,
    /// Lifetime in whole days, as the CDF sample.
    pub lifetime_days: f64,
    /// First internal trade (collection-timeline sample).
    pub first_trade: Timestamp,
    /// The NFT's collection contract.
    pub collection: Address,
    /// Catalogued Fig. 7 pattern id; `None` when uncatalogued.
    pub pattern: Option<usize>,
    /// Days between acquisition and the first wash trade; `None` when no
    /// acquiring transfer precedes the activity.
    pub acquisition_days: Option<u64>,
}

impl ActivityFacts {
    /// The activity's Table II row key: its marketplace's name, or
    /// `"Off-market"` when no marketplace carried it.
    pub fn market_name(&self) -> &str {
        self.marketplace.as_deref().unwrap_or("Off-market")
    }
}

/// USD value of a candidate's internal edges, folded in edge order — the one
/// per-activity volume fold every consumer (per-market rows, collection
/// timelines) shares.
pub fn activity_usd_volume(candidate: &DenseCandidate, oracle: &PriceOracle) -> f64 {
    candidate
        .internal_edges
        .iter()
        .map(|(_, _, edge)| oracle.wei_to_usd(edge.price, edge.timestamp).unwrap_or(0.0))
        .sum()
}

/// Compute the [`ActivityFacts`] for one candidate — the per-activity half
/// of the two-level characterization.
pub fn activity_facts(
    candidate: &DenseCandidate,
    dataset: &Dataset,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
    catalogue: &PatternCatalogue,
) -> ActivityFacts {
    let interner = &dataset.interner;
    let columns = &dataset.columns;
    let marketplace = candidate
        .dominant_marketplace(interner)
        .and_then(|id| directory.by_contract(interner.market(id)))
        .map(|info| info.name.clone());

    // Acquisition lead time: last transfer into the component from outside
    // (or the mint) before the first internal trade. Component membership is
    // a linear probe of the (tiny) account list — no per-activity set.
    let accounts = &candidate.accounts;
    let acquisition_days = columns
        .rows_of(candidate.nft)
        .iter()
        .filter(|&&row| {
            let i = row as usize;
            accounts.contains(&columns.to[i])
                && !accounts.contains(&columns.from[i])
                && columns.timestamp[i] <= candidate.first_trade
        })
        .map(|&row| columns.timestamp[row as usize])
        .max()
        .map(|acquired_at| candidate.first_trade.days_since(acquired_at));

    let shape = component_shape(candidate);
    let pattern = catalogue.classify(accounts.len(), &shape).map(|PatternId(id)| id);

    ActivityFacts {
        marketplace,
        volume_usd: activity_usd_volume(candidate, oracle),
        volume_eth: candidate.volume.to_eth(),
        lifetime_days: candidate.lifetime_days() as f64,
        first_trade: candidate.first_trade,
        collection: interner.nft(candidate.nft).contract,
        pattern,
        acquisition_days,
    }
}

/// The dataset-level inputs of the characterization: the unaffected-trading
/// volume CDF (Fig. 3 baseline) and collection creation times (Fig. 5). The
/// batch path builds them by scanning the columns
/// ([`characterize_baseline`]); the streaming analyzer maintains them
/// incrementally and hands the values in. Both paths key the Fig. 3 wash
/// set by dense [`TxId`](ids::TxId), never by transaction hash.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeBaseline {
    /// CDF of per-transfer USD volumes outside the wash set.
    pub legit_volume_cdf: Cdf,
    /// Collection contract → timestamp of its first observed transfer.
    pub collection_created: HashMap<Address, Timestamp>,
}

/// Marketplace name → total USD volume, read off the Table I rows: the
/// denominators of Table II's shares, which both pipelines derive this way.
pub fn market_totals(table1: &[MarketplaceVolume]) -> HashMap<String, f64> {
    table1.iter().map(|row| (row.name.clone(), row.volume_usd)).collect()
}

/// Build the [`CharacterizeBaseline`] by scanning the dataset — the batch
/// path. The wash set is a [`BitSet`] of the confirmed edges' transaction
/// ids, so the legit-volume scan tests one bit per row. Its per-row USD
/// pricing fans out over `executor` in row-order-preserving chunks, so the
/// collected vector (and with it the CDF) is identical at any thread count.
pub fn characterize_baseline(
    activities: &[DenseActivity],
    dataset: &Dataset,
    oracle: &PriceOracle,
    executor: &Executor,
) -> CharacterizeBaseline {
    let interner = &dataset.interner;
    let columns = &dataset.columns;
    let wash_txs: BitSet = activities
        .iter()
        .flat_map(|a| a.candidate.internal_edges.iter().map(|(_, _, e)| e.tx.index()))
        .collect();
    // One linear pass over the columns; the CDF sorts, so the (fixed) row
    // order only needs to be deterministic, which chain order is. The pass
    // is chunked over the executor with chunk results concatenated in row
    // order — the same vector the serial scan built.
    let chunks: Vec<std::ops::Range<usize>> = {
        let chunk = (columns.len() / (executor.threads().max(1) * 4)).max(4096);
        (0..columns.len())
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(columns.len()))
            .collect()
    };
    let legit_volumes: Vec<f64> = executor
        .map(&chunks, |range| {
            range
                .clone()
                .filter(|&row| {
                    !wash_txs.contains(columns.tx[row].index()) && !columns.price[row].is_zero()
                })
                .map(|row| {
                    oracle.wei_to_usd(columns.price[row], columns.timestamp[row]).unwrap_or(0.0)
                })
                .collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .collect();

    // Fig. 5 input: per-NFT histories are chronological, so each NFT's first
    // row carries its earliest timestamp; the per-collection minimum folds
    // over those.
    let collection_created: HashMap<Address, Timestamp> = {
        let mut created: HashMap<Address, Timestamp> = HashMap::new();
        for key in 0..interner.nft_count() as u32 {
            let Some(&first_row) = columns.rows_of(NftKey(key)).first() else {
                continue;
            };
            let first_seen = columns.timestamp[first_row as usize];
            let entry = created.entry(interner.nft(NftKey(key)).contract).or_insert(first_seen);
            if first_seen < *entry {
                *entry = first_seen;
            }
        }
        created
    };

    CharacterizeBaseline { legit_volume_cdf: Cdf::new(legit_volumes), collection_created }
}

/// Produce the §V characterization of the confirmed activities.
///
/// `dataset` supplies the interner, Table I (folded here), the
/// unaffected-trading baseline (Fig. 3) and collection creation times
/// (Fig. 5); `directory` and `oracle` provide marketplace attribution and
/// USD conversion.
pub fn characterize(
    activities: &[DenseActivity],
    dataset: &Dataset,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
) -> Characterization {
    let table1 = dataset.marketplace_volumes(directory, oracle);
    characterize_with(activities, dataset, directory, oracle, &table1, &Executor::new(1))
}

/// [`characterize`] over an already folded Table I (`table1`, the
/// dataset's [`Dataset::marketplace_volumes`] rows), with the per-activity
/// facts and the per-row baseline pricing fanned out over `executor`. Facts
/// come back in activity order and every float fold runs in the final
/// reduce exactly as the serial path folds it, so the result is
/// bit-identical at any thread count.
pub fn characterize_with(
    activities: &[DenseActivity],
    dataset: &Dataset,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
    table1: &[MarketplaceVolume],
    executor: &Executor,
) -> Characterization {
    let catalogue = PatternCatalogue::paper();
    let facts = executor.map(activities, |activity| {
        activity_facts(&activity.candidate, dataset, directory, oracle, &catalogue)
    });
    let facts: Vec<&ActivityFacts> = facts.iter().collect();
    let wash = marketplace_wash(activities, &facts, &market_totals(table1));
    let baseline = characterize_baseline(activities, dataset, oracle, executor);
    characterize_from_parts(activities, &facts, wash, baseline)
}

/// Table II and the wash totals: the part of the §V characterization a
/// published snapshot carries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MarketplaceWash {
    /// Table II rows, sorted by wash volume (USD) descending, then name.
    pub rows: Vec<MarketplaceWashRow>,
    /// Total wash-traded volume in USD.
    pub total_volume_usd: f64,
    /// Total wash-traded volume in ETH.
    pub total_volume_eth: f64,
}

/// One confirmed activity's Table II input: its NFT, its marketplace as a
/// slot of a [`MarketSlots`] table, and its volumes. A slice of leaves in
/// confirmed order is all [`fold_marketplace_wash`] reads, so the streaming
/// analyzer keeps one leaf per confirmed activity and folds them every
/// epoch without touching the cached facts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WashLeaf {
    /// The activity's NFT.
    pub nft: NftKey,
    /// The activity's marketplace, as a slot of the table that built the
    /// leaf.
    pub market: u32,
    /// The activity's USD volume ([`ActivityFacts::volume_usd`]).
    pub volume_usd: f64,
    /// The activity's ETH volume ([`ActivityFacts::volume_eth`]).
    pub volume_eth: f64,
}

/// Table II's marketplace slots: one per distinct
/// [`ActivityFacts::market_name`], numbered in order of first sight. Table II
/// has one row per marketplace, so the table stays a handful of names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MarketSlots {
    names: Vec<String>,
}

impl MarketSlots {
    /// The slot of the marketplace `name`, assigned on first sight.
    fn slot(&mut self, name: &str) -> u32 {
        let slot = match self.names.iter().position(|known| known == name) {
            Some(slot) => slot,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        };
        u32::try_from(slot).expect("fewer than 2^32 marketplaces")
    }

    /// The [`WashLeaf`] of one activity on `nft` with the given facts.
    pub fn leaf(&mut self, nft: NftKey, facts: &ActivityFacts) -> WashLeaf {
        WashLeaf {
            nft,
            market: self.slot(facts.market_name()),
            volume_usd: facts.volume_usd,
            volume_eth: facts.volume_eth,
        }
    }
}

/// Fold per-activity [`ActivityFacts`] (in activity order, the sorted
/// confirmed order both pipelines share) into Table II and the wash totals;
/// `market_totals` gives each row's share of its marketplace's volume.
/// Builds one [`WashLeaf`] per activity and runs [`fold_marketplace_wash`],
/// the fold the streaming analyzer runs each epoch over the leaves it
/// keeps, so the rows and totals come out with the same bits either way.
pub fn marketplace_wash(
    activities: &[DenseActivity],
    facts: &[&ActivityFacts],
    market_totals: &HashMap<String, f64>,
) -> MarketplaceWash {
    assert_eq!(activities.len(), facts.len(), "one facts record per activity");
    let mut slots = MarketSlots::default();
    let leaves: Vec<WashLeaf> = activities
        .iter()
        .zip(facts)
        .map(|(activity, facts)| slots.leaf(activity.nft(), facts))
        .collect();
    fold_marketplace_wash(&leaves, &slots, market_totals)
}

/// Table II and the wash totals over `leaves`, built with `slots`. Each
/// row's volumes and both totals add in leaf order, so leaves in confirmed
/// order give batch's bits. Accumulators are a `Vec` indexed by slot: no
/// hashing and no string reads per leaf. Slots with no leaf (a marketplace
/// whose activities all left) give no row, and rows sort by USD volume
/// descending, then name, so slot numbering never shows.
pub fn fold_marketplace_wash(
    leaves: &[WashLeaf],
    slots: &MarketSlots,
    market_totals: &HashMap<String, f64>,
) -> MarketplaceWash {
    #[derive(Default)]
    struct MarketAccumulator {
        nfts: BitSet,
        activities: usize,
        volume_eth: f64,
        volume_usd: f64,
    }
    let mut per_slot: Vec<MarketAccumulator> =
        slots.names.iter().map(|_| MarketAccumulator::default()).collect();
    let mut total_volume_usd = 0.0;
    let mut total_volume_eth = 0.0;

    for leaf in leaves {
        total_volume_usd += leaf.volume_usd;
        total_volume_eth += leaf.volume_eth;
        let accumulator = &mut per_slot[leaf.market as usize];
        accumulator.nfts.insert(leaf.nft.index());
        accumulator.activities += 1;
        accumulator.volume_eth += leaf.volume_eth;
        accumulator.volume_usd += leaf.volume_usd;
    }

    let mut rows: Vec<MarketplaceWashRow> = per_slot
        .into_iter()
        .zip(&slots.names)
        .filter(|(accumulator, _)| accumulator.activities > 0)
        .map(|(accumulator, name)| MarketplaceWashRow {
            name: name.clone(),
            nfts: accumulator.nfts.len(),
            activities: accumulator.activities,
            volume_eth: accumulator.volume_eth,
            volume_usd: accumulator.volume_usd,
            share_of_marketplace_volume: market_totals.get(name).map(|total| {
                if *total > 0.0 {
                    accumulator.volume_usd / total
                } else {
                    0.0
                }
            }),
        })
        .collect();
    rows.sort_by(|a, b| b.volume_usd.total_cmp(&a.volume_usd).then_with(|| a.name.cmp(&b.name)));
    MarketplaceWash { rows, total_volume_usd, total_volume_eth }
}

/// The final reduce of the two-level characterization: fold per-activity
/// [`ActivityFacts`] (in activity order — the sorted confirmed order both
/// pipelines share), the Table II pass over the same activities (`wash`,
/// from [`marketplace_wash`] or [`fold_marketplace_wash`]) and the
/// dataset-level [`CharacterizeBaseline`] into the [`Characterization`].
/// Every floating-point fold here accumulates cached leaf values in exactly
/// the order the one-level path accumulated freshly computed ones, so batch,
/// batch-parallel and streaming-incremental callers produce bit-identical
/// reports. Facts are borrowed, so a caller holding them in a cache (the
/// streaming analyzer) hands them over without a copy.
pub fn characterize_from_parts(
    activities: &[DenseActivity],
    facts: &[&ActivityFacts],
    wash: MarketplaceWash,
    baseline: CharacterizeBaseline,
) -> Characterization {
    let CharacterizeBaseline { legit_volume_cdf, collection_created } = baseline;
    let MarketplaceWash { rows: per_marketplace, total_volume_usd, total_volume_eth } = wash;

    // --- Per-marketplace activity volume CDFs (Fig. 3). --- Plus the legit
    // baseline. A CDF sorts its samples, so the order they are grouped in
    // changes no bit.
    let mut activity_volumes_usd: HashMap<&str, Vec<f64>> = HashMap::new();
    for facts in facts {
        activity_volumes_usd.entry(facts.market_name()).or_default().push(facts.volume_usd);
    }
    let mut volume_cdfs: HashMap<String, Cdf> = activity_volumes_usd
        .into_iter()
        .map(|(name, volumes)| (name.to_string(), Cdf::new(volumes)))
        .collect();
    volume_cdfs.insert("Volume w/o wash trading".to_string(), legit_volume_cdf);

    // --- Temporal analysis (Fig. 4, §V-B, Fig. 5). ---
    let cdf_days = Cdf::new(facts.iter().map(|f| f.lifetime_days));
    let lifetimes = LifetimeStats {
        within_one_day: cdf_days.fraction_at_most(1.0),
        within_ten_days: cdf_days.fraction_at_most(9.0),
        cdf_days,
    };

    let mut acquired_same_day = 0usize;
    let mut acquired_within_two_weeks = 0usize;
    for facts in facts {
        if let Some(days) = facts.acquisition_days {
            if days == 0 {
                acquired_same_day += 1;
            }
            if days <= 14 {
                acquired_within_two_weeks += 1;
            }
        }
    }
    let acquired_base = activities.len().max(1) as f64;

    struct TimelineAccumulator {
        affected_nfts: usize,
        volume_usd: f64,
        times: Vec<Timestamp>,
    }
    // An NFT belongs to exactly one collection (its contract), so one
    // seen-NFT set counts every collection's distinct NFTs — instead of a
    // bitset per collection, each grown to the highest NFT index it meets.
    let mut seen_nfts = BitSet::new();
    let mut per_collection: HashMap<Address, TimelineAccumulator> = HashMap::new();
    for (activity, facts) in activities.iter().zip(facts) {
        let accumulator = per_collection.entry(facts.collection).or_insert_with(|| {
            TimelineAccumulator { affected_nfts: 0, volume_usd: 0.0, times: Vec::new() }
        });
        if seen_nfts.insert(activity.nft().index()) {
            accumulator.affected_nfts += 1;
        }
        accumulator.volume_usd += facts.volume_usd;
        accumulator.times.push(facts.first_trade);
    }
    let mut collection_timelines: Vec<CollectionTimeline> = per_collection
        .into_iter()
        .map(|(collection, accumulator)| {
            let mut activity_times = accumulator.times;
            activity_times.sort();
            CollectionTimeline {
                collection,
                created_at: collection_created
                    .get(&collection)
                    .copied()
                    .unwrap_or(Timestamp::from_secs(0)),
                affected_nfts: accumulator.affected_nfts,
                volume_usd: accumulator.volume_usd,
                activity_times,
            }
        })
        .collect();
    // Tiebreak on the collection address: `per_collection` is a HashMap, so
    // without it equal-count collections would rank in random order run to run.
    collection_timelines
        .sort_by_key(|timeline| (std::cmp::Reverse(timeline.affected_nfts), timeline.collection));
    collection_timelines.truncate(10);

    // --- Patterns (Fig. 6 / Fig. 7). ---
    let mut patterns = PatternStats::default();
    let mut self_trades = 0usize;
    let mut two_accounts = 0usize;
    for (activity, facts) in activities.iter().zip(facts) {
        let accounts = activity.accounts().len();
        let bucket = accounts.clamp(1, 6) - 1;
        patterns.accounts_histogram[bucket] += 1;
        if accounts == 2 {
            two_accounts += 1;
        }
        match facts.pattern {
            Some(id) => {
                *patterns.pattern_occurrences.entry(id).or_insert(0) += 1;
                if id == 0 {
                    self_trades += 1;
                }
            }
            None => patterns.uncatalogued += 1,
        }
    }
    let total = activities.len().max(1) as f64;
    patterns.two_account_fraction = two_accounts as f64 / total;
    patterns.self_trade_fraction = self_trades as f64 / total;

    // --- Serial traders (§V-D). --- Participation is gathered only for the
    // accounts that actually appear in activities (a table over the whole
    // interner would cost O(total accounts) per call — per *epoch* in the
    // streaming reassembly): sort the (account, activity) pairs and group,
    // giving per-account activity lists in ascending account-id order.
    // "Serial" membership stays a bitset over the dense id space.
    let mut participation: Vec<(usize, usize)> = activities
        .iter()
        .enumerate()
        .flat_map(|(index, activity)| {
            activity.accounts().iter().map(move |account| (account.index(), index))
        })
        .collect();
    participation.sort_unstable();
    let groups: Vec<(usize, &[(usize, usize)])> =
        participation.chunk_by(|a, b| a.0 == b.0).map(|group| (group[0].0, group)).collect();
    let serials: BitSet =
        groups.iter().filter(|(_, group)| group.len() >= 2).map(|(account, _)| *account).collect();
    let activities_with_serials = activities
        .iter()
        .filter(|a| a.accounts().iter().any(|account| serials.contains(account.index())))
        .count();
    let mean_activities_per_serial = if serials.is_empty() {
        0.0
    } else {
        groups
            .iter()
            .filter(|(_, group)| group.len() >= 2)
            .map(|(_, group)| group.len())
            .sum::<usize>() as f64
            / serials.len() as f64
    };
    let max_activities_per_account = groups.iter().map(|(_, group)| group.len()).max().unwrap_or(0);
    let same_collection_serials = groups
        .iter()
        .filter(|(_, group)| group.len() >= 2)
        .filter(|(_, group)| {
            let collections: HashSet<Address> =
                group.iter().map(|&(_, index)| facts[index].collection).collect();
            collections.len() < group.len()
        })
        .count();
    let exclusive_collaborators = groups
        .iter()
        .filter(|(_, group)| group.len() >= 2)
        .filter(|(account, group)| {
            group.iter().all(|&(_, index)| {
                activities[index]
                    .accounts()
                    .iter()
                    .all(|other| other.index() == *account || serials.contains(other.index()))
            })
        })
        .count();
    let total_accounts = groups.len();
    let serial_traders = SerialTraderStats {
        total_accounts,
        serial_accounts: serials.len(),
        activities_with_serials,
        total_activities: activities.len(),
        mean_activities_per_serial,
        max_activities_per_account,
        same_collection_fraction: if serials.is_empty() {
            0.0
        } else {
            same_collection_serials as f64 / serials.len() as f64
        },
        exclusive_collaboration_fraction: if serials.is_empty() {
            0.0
        } else {
            exclusive_collaborators as f64 / serials.len() as f64
        },
    };

    Characterization {
        total_activities: activities.len(),
        total_volume_usd,
        total_volume_eth,
        per_marketplace,
        volume_cdfs,
        lifetimes,
        collection_timelines,
        patterns,
        serial_traders,
        acquired_same_day_fraction: acquired_same_day as f64 / acquired_base,
        acquired_within_two_weeks_fraction: acquired_within_two_weeks as f64 / acquired_base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::MethodSet;
    use crate::txgraph::DenseTradeEdge;
    use ethsim::{TxHash, Wei};
    use ids::AccountId;
    use tokens::NftId;

    fn activity(
        dataset: &mut Dataset,
        collection: &str,
        token: u64,
        accounts: &[&str],
        edges: &[(usize, usize, f64)],
        start_secs: u64,
        lifetime_days: u64,
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
                        timestamp: Timestamp::from_secs(
                            start_secs
                                + i as u64 * lifetime_days * 86_400
                                    / (edges.len() as u64 - 1).max(1),
                        ),
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

    fn fixtures() -> (Dataset, Vec<DenseActivity>) {
        let mut dataset = Dataset::default();
        let activities = vec![
            // Round trip by two accounts, one-day lifetime.
            activity(
                &mut dataset,
                "meebits",
                1,
                &["s1", "s2"],
                &[(0, 1, 1.0), (1, 0, 1.0)],
                1_000_000,
                0,
            ),
            // The same pair hits the same collection again (serial traders).
            activity(
                &mut dataset,
                "meebits",
                2,
                &["s1", "s2"],
                &[(0, 1, 2.0), (1, 0, 2.0)],
                2_000_000,
                3,
            ),
            // A 3-cycle by unrelated accounts, longer lifetime.
            activity(
                &mut dataset,
                "loot",
                7,
                &["t1", "t2", "t3"],
                &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
                3_000_000,
                20,
            ),
            // A self-trade.
            activity(&mut dataset, "loot", 9, &["solo"], &[(0, 0, 5.0)], 4_000_000, 0),
        ];
        (dataset, activities)
    }

    fn directory_and_oracle() -> (MarketplaceDirectory, PriceOracle) {
        (MarketplaceDirectory::new(), PriceOracle::paper_presets(Timestamp::from_secs(0), 400, 1))
    }

    #[test]
    fn pattern_and_account_statistics() {
        let (dataset, activities) = fixtures();
        let (directory, oracle) = directory_and_oracle();
        let characterization = characterize(&activities, &dataset, &directory, &oracle);
        assert_eq!(characterization.total_activities, 4);
        assert_eq!(characterization.patterns.accounts_histogram[0], 1); // self-trade
        assert_eq!(characterization.patterns.accounts_histogram[1], 2); // pairs
        assert_eq!(characterization.patterns.accounts_histogram[2], 1); // triple
        assert_eq!(characterization.patterns.pattern_occurrences.get(&1), Some(&2));
        assert_eq!(characterization.patterns.pattern_occurrences.get(&2), Some(&1));
        assert_eq!(characterization.patterns.pattern_occurrences.get(&0), Some(&1));
        assert_eq!(characterization.patterns.uncatalogued, 0);
        assert!((characterization.patterns.two_account_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lifetime_statistics() {
        let (dataset, activities) = fixtures();
        let (directory, oracle) = directory_and_oracle();
        let characterization = characterize(&activities, &dataset, &directory, &oracle);
        // Two activities are same-day, one lasts 3 days (within ten), one 20.
        assert!((characterization.lifetimes.within_one_day - 0.5).abs() < 1e-9);
        assert!((characterization.lifetimes.within_ten_days - 0.75).abs() < 1e-9);
    }

    #[test]
    fn serial_trader_statistics() {
        let (dataset, activities) = fixtures();
        let (directory, oracle) = directory_and_oracle();
        let characterization = characterize(&activities, &dataset, &directory, &oracle);
        let serial = &characterization.serial_traders;
        assert_eq!(serial.total_accounts, 6);
        assert_eq!(serial.serial_accounts, 2); // s1 and s2
        assert_eq!(serial.activities_with_serials, 2);
        assert_eq!(serial.max_activities_per_account, 2);
        assert!((serial.mean_activities_per_serial - 2.0).abs() < 1e-9);
        // s1/s2 repeatedly target the same collection and only work together.
        assert!((serial.same_collection_fraction - 1.0).abs() < 1e-9);
        assert!((serial.exclusive_collaboration_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn marketplace_rows_cover_off_market_activity() {
        let (dataset, activities) = fixtures();
        let (directory, oracle) = directory_and_oracle();
        let characterization = characterize(&activities, &dataset, &directory, &oracle);
        assert_eq!(characterization.per_marketplace.len(), 1);
        assert_eq!(characterization.per_marketplace[0].name, "Off-market");
        assert_eq!(characterization.per_marketplace[0].activities, 4);
        assert!(characterization.total_volume_usd > 0.0);
        assert!(characterization.volume_cdfs.contains_key("Off-market"));
    }

    #[test]
    fn collection_timelines_rank_by_affected_nfts() {
        let (dataset, activities) = fixtures();
        let (directory, oracle) = directory_and_oracle();
        let characterization = characterize(&activities, &dataset, &directory, &oracle);
        assert_eq!(characterization.collection_timelines.len(), 2);
        assert!(
            characterization.collection_timelines[0].affected_nfts
                >= characterization.collection_timelines[1].affected_nfts
        );
    }

    /// The per-activity `HashMap` fold [`fold_marketplace_wash`] replaced,
    /// kept as the reference the leaf fold must match bit for bit.
    fn reference_marketplace_wash(
        activities: &[DenseActivity],
        facts: &[&ActivityFacts],
        market_totals: &HashMap<String, f64>,
    ) -> MarketplaceWash {
        struct MarketAccumulator {
            nfts: BitSet,
            activities: usize,
            volume_eth: f64,
            volume_usd: f64,
        }
        let mut per_market: HashMap<&str, MarketAccumulator> = HashMap::new();
        let mut total_volume_usd = 0.0;
        let mut total_volume_eth = 0.0;
        for (activity, facts) in activities.iter().zip(facts) {
            total_volume_usd += facts.volume_usd;
            total_volume_eth += facts.volume_eth;
            let accumulator =
                per_market.entry(facts.market_name()).or_insert_with(|| MarketAccumulator {
                    nfts: BitSet::new(),
                    activities: 0,
                    volume_eth: 0.0,
                    volume_usd: 0.0,
                });
            accumulator.nfts.insert(activity.nft().index());
            accumulator.activities += 1;
            accumulator.volume_eth += facts.volume_eth;
            accumulator.volume_usd += facts.volume_usd;
        }
        let mut rows: Vec<MarketplaceWashRow> = per_market
            .into_iter()
            .map(|(name, accumulator)| MarketplaceWashRow {
                name: name.to_string(),
                nfts: accumulator.nfts.len(),
                activities: accumulator.activities,
                volume_eth: accumulator.volume_eth,
                volume_usd: accumulator.volume_usd,
                share_of_marketplace_volume: market_totals.get(name).map(|total| {
                    if *total > 0.0 {
                        accumulator.volume_usd / total
                    } else {
                        0.0
                    }
                }),
            })
            .collect();
        rows.sort_by(|a, b| {
            b.volume_usd.total_cmp(&a.volume_usd).then_with(|| a.name.cmp(&b.name))
        });
        MarketplaceWash { rows, total_volume_usd, total_volume_eth }
    }

    /// Every field of two Table II passes, floats compared by their bits.
    fn assert_same_bits(leaf: &MarketplaceWash, reference: &MarketplaceWash) {
        assert_eq!(leaf.total_volume_usd.to_bits(), reference.total_volume_usd.to_bits());
        assert_eq!(leaf.total_volume_eth.to_bits(), reference.total_volume_eth.to_bits());
        assert_eq!(leaf.rows.len(), reference.rows.len(), "{leaf:?} vs {reference:?}");
        for (row, expected) in leaf.rows.iter().zip(&reference.rows) {
            assert_eq!(row.name, expected.name);
            assert_eq!(row.nfts, expected.nfts, "{}", row.name);
            assert_eq!(row.activities, expected.activities, "{}", row.name);
            assert_eq!(row.volume_eth.to_bits(), expected.volume_eth.to_bits(), "{}", row.name);
            assert_eq!(row.volume_usd.to_bits(), expected.volume_usd.to_bits(), "{}", row.name);
            assert_eq!(
                row.share_of_marketplace_volume.map(f64::to_bits),
                expected.share_of_marketplace_volume.map(f64::to_bits),
                "{}",
                row.name
            );
        }
    }

    /// Facts of one activity with the given venue and volumes; the fields
    /// Table II does not read are fixed.
    fn wash_facts(marketplace: Option<&str>, volume_usd: f64, volume_eth: f64) -> ActivityFacts {
        ActivityFacts {
            marketplace: marketplace.map(str::to_string),
            volume_usd,
            volume_eth,
            lifetime_days: 0.0,
            first_trade: Timestamp::from_secs(0),
            collection: Address::derived("collection"),
            pattern: None,
            acquisition_days: None,
        }
    }

    /// A confirmed activity on `nft` with no edges: Table II reads only its
    /// NFT.
    fn on_nft(nft: u32) -> DenseActivity {
        DenseActivity {
            candidate: DenseCandidate {
                nft: NftKey(nft),
                accounts: Vec::new(),
                volume: Wei::ZERO,
                first_trade: Timestamp::from_secs(0),
                last_trade: Timestamp::from_secs(0),
                internal_edges: Vec::new(),
            },
            methods: MethodSet { self_trade: true, ..MethodSet::default() },
        }
    }

    proptest::proptest! {
        // Random facts on five venues, off-market included, plus two
        // markets with equal USD volume. The leaf fold equals the
        // per-activity HashMap fold in every row field and both totals, bit
        // for bit, through `marketplace_wash` and through a slot table
        // whose slots were assigned in a shuffled order before any leaf
        // and that also holds a market whose activities all left.
        #[test]
        fn leaf_fold_matches_the_per_activity_fold(
            activities in proptest::collection::vec(
                ((0u32..40, 0usize..5), (0.0f64..1e7, 0.0f64..2e3)),
                0..120,
            ),
            (shuffle, tie) in (proptest::collection::vec(0u64..u64::MAX, 7..8), 0.0f64..1e6),
        ) {
            const VENUES: [Option<&str>; 5] =
                [None, Some("OpenSea"), Some("LooksRare"), Some("X2Y2"), Some("Rarible")];
            let mut input: Vec<(DenseActivity, ActivityFacts)> = activities
                .iter()
                .map(|&((nft, venue), (volume_usd, volume_eth))| {
                    (on_nft(nft), wash_facts(VENUES[venue], volume_usd, volume_eth))
                })
                .collect();
            input.push((on_nft(41), wash_facts(Some("Tie A"), tie, 1.0)));
            input.push((on_nft(42), wash_facts(Some("Tie B"), tie, 2.0)));
            let totals: HashMap<String, f64> = [
                ("OpenSea", 5e8),
                ("LooksRare", 0.0),
                ("X2Y2", 1e7),
                ("Tie A", 3e6),
                ("Gone", 1e6),
            ]
            .into_iter()
            .map(|(name, total)| (name.to_string(), total))
            .collect();
            let (activities, facts): (Vec<DenseActivity>, Vec<ActivityFacts>) =
                input.into_iter().unzip();
            let facts: Vec<&ActivityFacts> = facts.iter().collect();
            let reference = reference_marketplace_wash(&activities, &facts, &totals);
            assert_same_bits(&marketplace_wash(&activities, &facts, &totals), &reference);

            // Slots assigned in a shuffled order, "Gone" among them; its one
            // activity is folded in and then leaves, as a lost suspect's
            // leaves leave the stream's column.
            const NAMES: [&str; 7] =
                ["Off-market", "OpenSea", "LooksRare", "X2Y2", "Rarible", "Tie A", "Tie B"];
            let mut names: Vec<(u64, &str)> = shuffle.into_iter().zip(NAMES).collect();
            names.sort_unstable();
            let mut slots = MarketSlots::default();
            let gone = slots.slot("Gone");
            for (_, name) in names {
                slots.slot(name);
            }
            let gone_facts = wash_facts(Some("Gone"), 1e3, 1.0);
            let mut leaves = vec![slots.leaf(NftKey(0), &gone_facts)];
            for (activity, facts) in activities.iter().zip(&facts) {
                leaves.push(slots.leaf(activity.nft(), facts));
            }
            proptest::prop_assert_eq!(leaves[0].market, gone);
            let with_gone = fold_marketplace_wash(&leaves, &slots, &totals);
            proptest::prop_assert!(with_gone.rows.iter().any(|row| row.name == "Gone"));
            assert_same_bits(&fold_marketplace_wash(&leaves[1..], &slots, &totals), &reference);
        }
    }

    #[test]
    fn empty_input_produces_empty_characterization() {
        let dataset = Dataset::default();
        let (directory, oracle) = directory_and_oracle();
        let characterization = characterize(&[], &dataset, &directory, &oracle);
        assert_eq!(characterization.total_activities, 0);
        assert_eq!(characterization.total_volume_usd, 0.0);
        assert!(characterization.per_marketplace.is_empty());
        assert_eq!(characterization.serial_traders.serial_accounts, 0);
    }
}
