//! Incrementally maintained inputs of the streaming characterization tail.
//!
//! The Fig. 3 "volume without wash trading" baseline is the one
//! characterization input that depends on *both* halves of the state: every
//! ingested transfer row (its USD pricing) and the current confirmed set
//! (which rows are wash trades). The batch path rebuilds it each time with a
//! full column scan; [`LegitVolumeSet`] maintains the same sample multiset
//! across epochs — appends price only the new rows, and the confirmed-set
//! delta flips only the rows of transactions whose wash status actually
//! changed — so snapshotting the CDF is a memcpy instead of a world scan.
//! The delta is fed only the confirmed activities of NFTs whose confirmed
//! group changed this epoch: an unchanged group would add −k then +k to each
//! of its transactions' reference counts, so leaving it out yields the same
//! integer counts, the same flips and the same multiset.
//!
//! Bit-identity argument: `Cdf::new` sorts its samples by `total_cmp`, a
//! total order under which equal elements are identical bit patterns, so the
//! sorted sequence is unique for a given multiset. The maintained sorted
//! multiset therefore yields — via [`Cdf::from_sorted`] — exactly the bits a
//! batch scan-and-sort over the same rows yields, and no float is ever
//! subtracted: samples enter and leave the multiset whole.

use std::collections::HashMap;

use ethsim::TxHash;
use ids::BitSet;
use marketplace::MarketplaceDirectory;
use washtrade::dataset::{Dataset, NftMarketLeaves};
use washtrade::detect::DenseActivity;
use washtrade::stats::Cdf;

use oracle::PriceOracle;

/// The maintained "volume w/o wash trading" sample multiset (Fig. 3
/// baseline): USD values of every priced transfer row whose transaction is
/// not currently part of a confirmed wash activity.
#[derive(Debug, Clone, Default)]
pub struct LegitVolumeSet {
    /// First column row not yet priced.
    next_row: usize,
    /// Per-row USD value (immutable once priced — rows are append-only).
    row_usd: Vec<f64>,
    /// Whether the row is a CDF sample at all: non-zero price and a
    /// non-NaN USD value (`Cdf::new` drops NaNs, so the maintained set
    /// excludes them the same way).
    row_eligible: Vec<bool>,
    /// Rows carried by each transaction, for flipping a transaction's rows
    /// in and out of the sample set when its wash status changes.
    tx_rows: HashMap<TxHash, Vec<u32>>,
    /// How many confirmed internal edges currently reference each
    /// transaction; a transaction is wash iff its count is non-zero.
    wash_refcount: HashMap<TxHash, u32>,
    /// The sample multiset, sorted by `total_cmp`.
    sorted: Vec<f64>,
    /// Samples entering the multiset this epoch (merged on commit).
    pending_add: Vec<f64>,
    /// Samples leaving the multiset this epoch (merged on commit).
    pending_remove: Vec<f64>,
}

impl LegitVolumeSet {
    /// An empty set, no rows priced.
    pub fn new() -> Self {
        LegitVolumeSet::default()
    }

    /// Price and index the column rows appended since the last call. New
    /// rows whose transaction is already wash are indexed but not sampled —
    /// the flip machinery owns them from the start.
    pub fn append_rows(&mut self, dataset: &Dataset, oracle: &PriceOracle) {
        let columns = &dataset.columns;
        for row in self.next_row..columns.len() {
            let usd = oracle.wei_to_usd(columns.price[row], columns.timestamp[row]).unwrap_or(0.0);
            let eligible = !columns.price[row].is_zero() && !usd.is_nan();
            self.row_usd.push(usd);
            self.row_eligible.push(eligible);
            self.tx_rows.entry(columns.tx_hash[row]).or_default().push(row as u32);
            if eligible && self.wash_refcount.get(&columns.tx_hash[row]).copied().unwrap_or(0) == 0
            {
                self.pending_add.push(usd);
            }
        }
        self.next_row = columns.len();
    }

    /// Apply one epoch's confirmed-set transition: reference counts drop for
    /// every internal edge of the `previous` activities and rise for the
    /// `current` ones, and the rows of each transaction whose wash status
    /// flipped move out of or into the sample multiset.
    ///
    /// Callers pass only the groups that changed — the previous and current
    /// confirmed activities of each NFT whose confirmed group differs — not
    /// both whole confirmed sets. That is exact: an unchanged group's edges
    /// would be subtracted and added back, a net zero on every count, so
    /// the counts, the flipped transactions and the multiset all come out
    /// as they would from the whole sets. Every `previous` activity must be
    /// one the counts currently include; a count that would drop below zero
    /// panics rather than wrap and mark its transaction wash forever.
    pub fn apply_confirmed_delta<'x>(
        &mut self,
        previous: impl IntoIterator<Item = &'x DenseActivity>,
        current: impl IntoIterator<Item = &'x DenseActivity>,
    ) {
        // Status before the transition, recorded once per touched tx.
        let mut was_wash: HashMap<TxHash, bool> = HashMap::new();
        for activity in previous {
            for (_, _, edge) in &activity.candidate.internal_edges {
                let count = self.wash_refcount.entry(edge.tx_hash).or_insert(0);
                was_wash.entry(edge.tx_hash).or_insert(*count > 0);
                *count = count.checked_sub(1).expect("wash refcount underflow");
            }
        }
        for activity in current {
            for (_, _, edge) in &activity.candidate.internal_edges {
                let count = self.wash_refcount.entry(edge.tx_hash).or_insert(0);
                was_wash.entry(edge.tx_hash).or_insert(*count > 0);
                *count += 1;
            }
        }
        for (tx, was) in was_wash {
            let is = self.wash_refcount.get(&tx).copied().unwrap_or(0) > 0;
            if was == is {
                continue;
            }
            let Some(rows) = self.tx_rows.get(&tx) else {
                continue;
            };
            for &row in rows {
                if !self.row_eligible[row as usize] {
                    continue;
                }
                let usd = self.row_usd[row as usize];
                if is {
                    self.pending_remove.push(usd);
                } else {
                    self.pending_add.push(usd);
                }
            }
        }
    }

    /// The current baseline CDF — commits pending moves, then snapshots the
    /// sorted multiset.
    pub fn cdf(&mut self) -> Cdf {
        self.commit();
        Cdf::from_sorted(self.sorted.clone())
    }

    /// Merge this epoch's pending adds/removes into the sorted multiset:
    /// one sort of the (small) pending sets plus one linear merge. Equal
    /// samples are interchangeable (identical bits under `total_cmp`), so
    /// add/remove pairs cancel and removals may take any matching instance.
    fn commit(&mut self) {
        if self.pending_add.is_empty() && self.pending_remove.is_empty() {
            return;
        }
        self.pending_add.sort_by(|a, b| a.total_cmp(b));
        self.pending_remove.sort_by(|a, b| a.total_cmp(b));

        // Cancel same-epoch add/remove pairs (e.g. a row appended and
        // immediately washed): both lists are sorted, so one linear pass.
        let (mut adds, mut removes) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < self.pending_add.len() && j < self.pending_remove.len() {
            match self.pending_add[i].total_cmp(&self.pending_remove[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    adds.push(self.pending_add[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    removes.push(self.pending_remove[j]);
                    j += 1;
                }
            }
        }
        adds.extend_from_slice(&self.pending_add[i..]);
        removes.extend_from_slice(&self.pending_remove[j..]);
        self.pending_add.clear();
        self.pending_remove.clear();

        let mut merged = Vec::with_capacity(self.sorted.len() + adds.len());
        let mut add = adds.iter().copied().peekable();
        let mut remove_at = 0usize;
        for &value in &self.sorted {
            while add.peek().is_some_and(|a| a.total_cmp(&value).is_lt()) {
                merged.push(add.next().unwrap());
            }
            if remove_at < removes.len() && removes[remove_at].to_bits() == value.to_bits() {
                remove_at += 1;
                continue;
            }
            merged.push(value);
        }
        merged.extend(add);
        assert_eq!(remove_at, removes.len(), "removed sample missing from multiset");
        self.sorted = merged;
    }
}

/// Dense transaction ids for the streamed Table I fold: each distinct
/// [`TxHash`] is hashed exactly once, when a dirty NFT's leaves are cached —
/// every later per-epoch fold replay dedups through a [`BitSet`] over these
/// ids instead of re-hashing 32-byte hashes into a fresh set per epoch.
#[derive(Debug, Clone, Default)]
pub struct TxIds {
    ids: HashMap<TxHash, u32>,
}

impl TxIds {
    /// An empty assignment.
    pub fn new() -> Self {
        TxIds::default()
    }

    /// The dense id of `hash`, assigning the next free one on first sight.
    pub fn id(&mut self, hash: TxHash) -> u32 {
        let next = self.ids.len() as u32;
        *self.ids.entry(hash).or_insert(next)
    }

    /// Number of distinct transactions seen.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no transaction has been assigned an id yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// One pre-priced marketplace row of an NFT with its transaction in dense-id
/// form — the cached leaf of the streamed Table I fold (the stream-side
/// mirror of [`washtrade::dataset::MarketLeaf`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMarketLeaf {
    /// The attributed marketplace.
    pub market: ids::MarketId,
    /// Dense id of the carrying transaction (volume dedups per transaction).
    pub tx: u32,
    /// Price in ETH.
    pub eth: f64,
    /// Price in USD at the transfer's timestamp.
    pub usd: f64,
}

/// The cached dense leaves of one NFT (see [`DenseMarketLeaf`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseMarketLeaves {
    /// Leaves in row (chronological) order.
    pub leaves: Vec<DenseMarketLeaf>,
}

impl DenseMarketLeaves {
    /// Convert freshly priced leaves into dense form, assigning transaction
    /// ids through `txs`.
    pub fn from_leaves(leaves: &NftMarketLeaves, txs: &mut TxIds) -> Self {
        DenseMarketLeaves {
            leaves: leaves
                .leaves
                .iter()
                .map(|leaf| DenseMarketLeaf {
                    market: leaf.market,
                    tx: txs.id(leaf.tx_hash),
                    eth: leaf.eth,
                    usd: leaf.usd,
                })
                .collect(),
        }
    }
}

/// The streamed Table I reduce: the exact accumulation of
/// [`washtrade::dataset::MarketVolumeFold`] — per-market f64 sums over leaves
/// fed in identity-sorted NFT order, first leaf per (market, transaction)
/// winning — with the per-epoch transaction dedup running over a [`BitSet`]
/// of dense ids instead of a hash set of 32-byte hashes. Dense ids are
/// bijective with hashes, so every dedup verdict (and with it every f64 add,
/// in the same order) matches the batch fold bit for bit.
pub struct DenseVolumeFold {
    per_market: Vec<Option<DenseMarketAccumulator>>,
}

struct DenseMarketAccumulator {
    transactions: BitSet,
    volume_usd: f64,
}

impl DenseVolumeFold {
    /// An empty fold over `market_count` dense marketplace ids.
    pub fn new(market_count: usize) -> Self {
        let mut per_market = Vec::new();
        per_market.resize_with(market_count, || None);
        DenseVolumeFold { per_market }
    }

    /// Fold one NFT's cached leaves. Callers must add NFTs in identity-sorted
    /// order — same contract as the batch fold.
    pub fn add(&mut self, leaves: &DenseMarketLeaves) {
        for leaf in &leaves.leaves {
            let accumulator = self.per_market[leaf.market.index()].get_or_insert_with(|| {
                DenseMarketAccumulator { transactions: BitSet::new(), volume_usd: 0.0 }
            });
            if accumulator.transactions.insert(leaf.tx as usize) {
                accumulator.volume_usd += leaf.usd;
            }
        }
    }

    /// Resolve the fold into the marketplace-name → total-USD-volume map the
    /// characterization baseline consumes (the same values
    /// `MarketVolumeFold::rows` carries in its rows).
    pub fn totals(
        self,
        directory: &MarketplaceDirectory,
        interner: &ids::Interner,
    ) -> HashMap<String, f64> {
        directory
            .iter()
            .map(|info| {
                let volume = interner
                    .market_id(info.contract)
                    .and_then(|id| self.per_market[id.index()].as_ref())
                    .map(|accumulator| accumulator.volume_usd)
                    .unwrap_or(0.0);
                (info.name.clone(), volume)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_merges_adds_and_removes() {
        let mut set = LegitVolumeSet::new();
        set.pending_add.extend([3.0, 1.0, 2.0]);
        set.commit();
        assert_eq!(set.sorted, vec![1.0, 2.0, 3.0]);
        set.pending_add.push(2.5);
        set.pending_remove.push(2.0);
        set.commit();
        assert_eq!(set.sorted, vec![1.0, 2.5, 3.0]);
        // Same-epoch add+remove of an equal sample cancels.
        set.pending_add.push(9.0);
        set.pending_remove.push(9.0);
        set.commit();
        assert_eq!(set.sorted, vec![1.0, 2.5, 3.0]);
    }

    /// A confirmed activity whose internal edges carry the given
    /// transactions, each a self-trade of one account on one NFT.
    fn activity(txs: &[TxHash]) -> DenseActivity {
        use washtrade::detect::MethodSet;
        use washtrade::refine::DenseCandidate;
        use washtrade::txgraph::DenseTradeEdge;
        let account = ids::AccountId(0);
        let edge = |tx: &TxHash| DenseTradeEdge {
            timestamp: ethsim::Timestamp::from_secs(0),
            tx_hash: *tx,
            marketplace: None,
            price: ethsim::Wei::from_eth(1.0),
        };
        DenseActivity {
            candidate: DenseCandidate {
                nft: ids::NftKey(0),
                accounts: vec![account],
                internal_edges: txs.iter().map(|tx| (account, account, edge(tx))).collect(),
                first_trade: ethsim::Timestamp::from_secs(0),
                last_trade: ethsim::Timestamp::from_secs(0),
                volume: ethsim::Wei::from_eth(txs.len() as f64),
            },
            methods: MethodSet { self_trade: true, ..MethodSet::default() },
        }
    }

    #[test]
    fn changed_groups_alone_give_the_whole_set_delta() {
        let tx: Vec<TxHash> = (0..5u8).map(|i| TxHash::hash_of(&[i])).collect();
        let mut base = LegitVolumeSet::new();
        for (row, hash) in tx.iter().enumerate() {
            base.row_usd.push(10.0 * (row + 1) as f64);
            base.row_eligible.push(true);
            base.tx_rows.insert(*hash, vec![row as u32]);
            base.pending_add.push(base.row_usd[row]);
        }
        // `kept` shares tx[1] with the group that changes from `old` to `new`.
        let kept = activity(&tx[..2]);
        let (old, new) = (activity(&tx[1..3]), activity(&tx[3..4]));
        base.apply_confirmed_delta([], [&kept, &old]);
        base.commit();

        let mut whole = base.clone();
        whole.apply_confirmed_delta([&kept, &old], [&kept, &new]);
        let mut changed = base;
        changed.apply_confirmed_delta([&old], [&new]);
        whole.commit();
        changed.commit();
        assert_eq!(changed.sorted, whole.sorted);
        assert_eq!(changed.sorted, vec![30.0, 50.0]);
        let wash = |set: &LegitVolumeSet| -> Vec<(TxHash, u32)> {
            let mut counts: Vec<(TxHash, u32)> =
                set.wash_refcount.iter().filter(|(_, n)| **n > 0).map(|(t, n)| (*t, *n)).collect();
            counts.sort();
            counts
        };
        assert_eq!(wash(&changed), wash(&whole));
    }

    #[test]
    #[should_panic(expected = "wash refcount underflow")]
    fn retracting_an_uncounted_activity_panics() {
        let mut set = LegitVolumeSet::new();
        set.apply_confirmed_delta([&activity(&[TxHash::hash_of(b"never added")])], []);
    }

    #[test]
    #[should_panic(expected = "removed sample missing from multiset")]
    fn removing_an_absent_sample_panics() {
        let mut set = LegitVolumeSet::new();
        set.pending_add.push(1.0);
        set.commit();
        set.pending_remove.push(2.0);
        set.commit();
    }

    #[test]
    fn duplicate_samples_remove_one_instance() {
        let mut set = LegitVolumeSet::new();
        set.pending_add.extend([5.0, 5.0, 5.0]);
        set.commit();
        set.pending_remove.push(5.0);
        set.commit();
        assert_eq!(set.sorted, vec![5.0, 5.0]);
    }
}
