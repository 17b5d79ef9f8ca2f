//! The incrementally maintained Fig. 3 baseline of the streaming
//! characterization tail.
//!
//! The Fig. 3 "volume without wash trading" baseline is the one
//! characterization input that depends on *both* halves of the state: every
//! ingested transfer row (its USD pricing) and the current confirmed set
//! (which rows are wash trades). The batch path rebuilds it each time with a
//! full column scan; [`LegitVolumeSet`] maintains the same sample multiset
//! across epochs — appends price only the new rows, and the confirmed-set
//! delta flips only the rows of transactions whose wash status actually
//! changed — so reading the CDF is one merge and copy instead of a world
//! scan, and the analyzer reads it only when its report is read.
//! The delta is fed only the confirmed activities of NFTs whose confirmed
//! group changed this epoch: an unchanged group would add −k then +k to each
//! of its transactions' reference counts, so leaving it out yields the same
//! integer counts, the same flips and the same multiset.
//!
//! Everything here is keyed by dense [`TxId`]: the reference counts are a
//! `Vec` indexed by it, and a transaction's rows are the contiguous range
//! [`TransferColumns::tx_rows`] answers, so no transaction hash is hashed.
//! (The streamed Table I fold needs no state of its own: the analyzer
//! caches each NFT's [`NftMarketLeaves`](washtrade::dataset::NftMarketLeaves)
//! and folds them with the batch
//! [`MarketVolumeFold`](washtrade::dataset::MarketVolumeFold).)
//!
//! Bit-identity argument: `Cdf::new` sorts its samples by `total_cmp`, a
//! total order under which equal elements are identical bit patterns, so the
//! sorted sequence is unique for a given multiset. The maintained sorted
//! multiset therefore yields — via [`Cdf::from_sorted`] — exactly the bits a
//! batch scan-and-sort over the same rows yields, and no float is ever
//! subtracted: samples enter and leave the multiset whole.

use ids::TxId;
use washtrade::columns::TransferColumns;
use washtrade::dataset::Dataset;
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
    /// How many confirmed internal edges currently reference each
    /// transaction, indexed by [`TxId`]; a transaction is wash iff its count
    /// is non-zero.
    wash_refcount: Vec<u32>,
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

    /// Price the column rows appended since the last call and make room for
    /// their transactions' counts. New rows whose transaction is already
    /// wash are priced but not sampled — the flip machinery owns them from
    /// the start.
    pub fn append_rows(&mut self, dataset: &Dataset, oracle: &PriceOracle) {
        let columns = &dataset.columns;
        self.wash_refcount.resize(columns.tx_count(), 0);
        for row in self.next_row..columns.len() {
            let usd = oracle.wei_to_usd(columns.price[row], columns.timestamp[row]).unwrap_or(0.0);
            let eligible = !columns.price[row].is_zero() && !usd.is_nan();
            self.row_usd.push(usd);
            self.row_eligible.push(eligible);
            if eligible && self.wash_refcount[columns.tx[row].index()] == 0 {
                self.pending_add.push(usd);
            }
        }
        self.next_row = columns.len();
        self.settle();
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
    /// `columns` must be the store whose rows [`LegitVolumeSet::append_rows`]
    /// priced last.
    pub fn apply_confirmed_delta<'x>(
        &mut self,
        columns: &TransferColumns,
        previous: impl IntoIterator<Item = &'x DenseActivity>,
        current: impl IntoIterator<Item = &'x DenseActivity>,
    ) {
        let txs = |activity: &'x DenseActivity| {
            activity.candidate.internal_edges.iter().map(|(_, _, edge)| edge.tx)
        };
        // A transaction stops being wash iff the retractions take its count
        // to zero and the additions leave it there. It becomes wash iff the
        // additions raise it from zero and the retractions did not lower it
        // to zero (else it was wash all along).
        let mut emptied: Vec<TxId> = Vec::new();
        for tx in previous.into_iter().flat_map(txs) {
            let count = self
                .wash_refcount
                .get_mut(tx.index())
                .filter(|count| **count > 0)
                .expect("wash refcount underflow");
            *count -= 1;
            if *count == 0 {
                emptied.push(tx);
            }
        }
        let mut filled: Vec<TxId> = Vec::new();
        for tx in current.into_iter().flat_map(txs) {
            let count = &mut self.wash_refcount[tx.index()];
            if *count == 0 {
                filled.push(tx);
            }
            *count += 1;
        }
        emptied.sort_unstable();
        for &tx in &emptied {
            if self.wash_refcount[tx.index()] == 0 {
                self.flip(columns, tx, false);
            }
        }
        for tx in filled {
            if emptied.binary_search(&tx).is_err() {
                self.flip(columns, tx, true);
            }
        }
        self.settle();
    }

    /// Move the eligible rows of `tx` out of the sample multiset (it became
    /// wash) or back in (it stopped being wash).
    fn flip(&mut self, columns: &TransferColumns, tx: TxId, to_wash: bool) {
        for row in columns.tx_rows(tx) {
            if !self.row_eligible[row] {
                continue;
            }
            let usd = self.row_usd[row];
            if to_wash {
                self.pending_remove.push(usd);
            } else {
                self.pending_add.push(usd);
            }
        }
    }

    /// The current baseline CDF: the sorted multiset with the pending moves
    /// merged in, leaving the set itself as it is. O(samples): it copies
    /// the multiset, which is why the analyzer only asks for it when its
    /// report is read.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_sorted(self.merged())
    }

    /// Commit the pending moves once they reach an eighth of the multiset.
    /// A commit is one linear merge, so its cost spreads to O(1) per moved
    /// sample; an analyzer whose report is never read never pays a merge
    /// per epoch, and the pending lists stay bounded.
    fn settle(&mut self) {
        if self.pending_add.len() + self.pending_remove.len() > self.sorted.len() / 8 {
            self.commit();
        }
    }

    /// Merge the pending adds/removes into the sorted multiset.
    fn commit(&mut self) {
        if self.pending_add.is_empty() && self.pending_remove.is_empty() {
            return;
        }
        self.sorted = self.merged();
        self.pending_add.clear();
        self.pending_remove.clear();
    }

    /// The sorted multiset with the pending moves applied: one sort of the
    /// (small) pending sets plus one linear merge. Equal samples are
    /// interchangeable (identical bits under `total_cmp`), so add/remove
    /// pairs cancel and removals may take any matching instance — which
    /// also makes the result independent of how many epochs the pending
    /// moves span.
    fn merged(&self) -> Vec<f64> {
        let mut pending_add = self.pending_add.clone();
        let mut pending_remove = self.pending_remove.clone();
        pending_add.sort_by(|a, b| a.total_cmp(b));
        pending_remove.sort_by(|a, b| a.total_cmp(b));

        // Cancel add/remove pairs (e.g. a row appended and then washed):
        // both lists are sorted, so one linear pass.
        let (mut adds, mut removes) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < pending_add.len() && j < pending_remove.len() {
            match pending_add[i].total_cmp(&pending_remove[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    adds.push(pending_add[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    removes.push(pending_remove[j]);
                    j += 1;
                }
            }
        }
        adds.extend_from_slice(&pending_add[i..]);
        removes.extend_from_slice(&pending_remove[j..]);

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
        merged
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
    fn activity(txs: &[u32]) -> DenseActivity {
        use washtrade::detect::MethodSet;
        use washtrade::refine::DenseCandidate;
        use washtrade::txgraph::DenseTradeEdge;
        let account = ids::AccountId(0);
        let edge = |tx: &u32| DenseTradeEdge {
            timestamp: ethsim::Timestamp::from_secs(0),
            tx_hash: ethsim::TxHash::hash_of(&tx.to_le_bytes()),
            tx: TxId(*tx),
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

    /// A store of `n` one-row transactions, and a set whose rows are priced
    /// 10, 20, … and all sampled.
    fn one_row_per_tx(n: u32) -> (TransferColumns, LegitVolumeSet) {
        let mut columns = TransferColumns::new();
        let mut set = LegitVolumeSet::new();
        for row in 0..n {
            columns.push(washtrade::columns::TransferRow {
                nft: ids::NftKey(0),
                from: ids::AccountId(0),
                to: ids::AccountId(0),
                tx_hash: ethsim::TxHash::hash_of(&row.to_le_bytes()),
                block: ethsim::BlockNumber(u64::from(row)),
                timestamp: ethsim::Timestamp::from_secs(u64::from(row)),
                price: ethsim::Wei::from_eth(1.0),
                marketplace: None,
            });
            set.row_usd.push(10.0 * f64::from(row + 1));
            set.row_eligible.push(true);
            set.pending_add.push(10.0 * f64::from(row + 1));
        }
        set.wash_refcount.resize(columns.tx_count(), 0);
        set.next_row = columns.len();
        (columns, set)
    }

    #[test]
    fn changed_groups_alone_give_the_whole_set_delta() {
        let (columns, mut base) = one_row_per_tx(5);
        // `kept` shares tx 1 with the group that changes from `old` to `new`.
        let kept = activity(&[0, 1]);
        let (old, new) = (activity(&[1, 2]), activity(&[3]));
        base.apply_confirmed_delta(&columns, [], [&kept, &old]);
        base.commit();

        let mut whole = base.clone();
        whole.apply_confirmed_delta(&columns, [&kept, &old], [&kept, &new]);
        let mut changed = base;
        changed.apply_confirmed_delta(&columns, [&old], [&new]);
        whole.commit();
        changed.commit();
        assert_eq!(changed.sorted, whole.sorted);
        assert_eq!(changed.sorted, vec![30.0, 50.0]);
        assert_eq!(changed.wash_refcount, whole.wash_refcount);
        assert_eq!(changed.wash_refcount, vec![1, 1, 0, 1, 0]);
    }

    #[test]
    fn a_transaction_washed_on_both_sides_never_flips() {
        let (columns, mut set) = one_row_per_tx(3);
        set.apply_confirmed_delta(&columns, [], [&activity(&[1])]);
        assert_eq!(set.cdf(), Cdf::from_sorted(vec![10.0, 30.0]));
        // Tx 1 drops to zero on the retraction side and is raised again on
        // the addition side: still wash, so no sample moves. Tx 2 becomes
        // wash.
        set.apply_confirmed_delta(&columns, [&activity(&[1])], [&activity(&[1, 2])]);
        assert_eq!(set.cdf(), Cdf::from_sorted(vec![10.0]));
        set.apply_confirmed_delta(&columns, [&activity(&[1, 2])], []);
        assert_eq!(set.cdf(), Cdf::from_sorted(vec![10.0, 20.0, 30.0]));
    }

    #[test]
    #[should_panic(expected = "wash refcount underflow")]
    fn retracting_an_uncounted_activity_panics() {
        let (columns, mut set) = one_row_per_tx(1);
        set.apply_confirmed_delta(&columns, [&activity(&[0])], []);
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
    fn cdf_reads_pending_moves_that_span_epochs_without_committing() {
        let (columns, mut set) = one_row_per_tx(32);
        set.commit();
        // Epoch one washes tx 1, epoch two un-washes it and washes tx 2:
        // three moves in all, under the commit threshold of 32 / 8.
        set.apply_confirmed_delta(&columns, [], [&activity(&[1])]);
        set.apply_confirmed_delta(&columns, [&activity(&[1])], [&activity(&[2])]);
        let read = set.cdf();
        assert_eq!(set.pending_add.len() + set.pending_remove.len(), 3, "a read commits nothing");
        let mut committed = set.clone();
        committed.commit();
        assert_eq!(read, Cdf::from_sorted(committed.sorted));
        assert_eq!(read.len(), 31);
        // Past the threshold, the moves commit on their own.
        set.apply_confirmed_delta(&columns, [], [&activity(&[3, 4])]);
        assert!(set.pending_add.is_empty() && set.pending_remove.is_empty());
        assert_eq!(set.sorted.len(), 29);
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
