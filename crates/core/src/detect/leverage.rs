//! The leverage pass (§IV-C v) as an index over per-NFT candidate groups.
//!
//! A candidate that none of the four base methods confirms is confirmed by
//! leverage when a base-confirmed candidate has the same account set. The
//! verdict of one candidate therefore depends on every other NFT's group,
//! but only through one fact per account set: whether any base-confirmed
//! candidate carries it. The index keeps that fact as a refcount per account
//! set, and keeps postings from each account set to the NFTs that hold an
//! unconfirmed candidate with it. Replacing one NFT's group changes the
//! refcounts of that group's sets only, and the NFTs whose verdict can flip
//! are exactly those posted under a set whose refcount crossed zero.
//!
//! Batch detection builds the index once over every group
//! ([`LeverageIndex::build`]); the streaming analyzer keeps one across
//! epochs and replaces the groups of the NFTs each epoch dirties
//! ([`LeverageIndex::replace`]). Both read the same derived verdicts and
//! counters, so their outcomes agree by construction.

use std::collections::HashMap;

use ids::{AccountId, NftKey};

use super::{DenseActivity, DenseDetectionOutcome, MethodSet, VennCounts};
use crate::refine::DenseCandidate;

/// The detection counters of [`DenseDetectionOutcome`], kept per NFT group
/// and summed over the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    rejected: usize,
    venn: VennCounts,
    leveraged_only: usize,
    self_trades: usize,
}

impl Tally {
    /// Apply `op` to each counter of `self` and the matching one of `other`.
    fn merge(&mut self, other: &Tally, op: fn(&mut usize, usize)) {
        let (venn, other_venn) = (&mut self.venn, &other.venn);
        for (counter, value) in [
            (&mut self.rejected, other.rejected),
            (&mut self.leveraged_only, other.leveraged_only),
            (&mut self.self_trades, other.self_trades),
            (&mut venn.zero_risk_only, other_venn.zero_risk_only),
            (&mut venn.funder_only, other_venn.funder_only),
            (&mut venn.exit_only, other_venn.exit_only),
            (&mut venn.zero_and_funder, other_venn.zero_and_funder),
            (&mut venn.zero_and_exit, other_venn.zero_and_exit),
            (&mut venn.funder_and_exit, other_venn.funder_and_exit),
            (&mut venn.all_three, other_venn.all_three),
        ] {
            op(counter, value);
        }
    }
}

/// One NFT's candidate group and its derived verdicts.
#[derive(Debug, Clone, Default)]
struct Group {
    /// Each candidate's account set and base evidence, in the order the
    /// group was given.
    base: Vec<(Vec<AccountId>, MethodSet)>,
    /// The confirmed candidates in group order: the position in `base` and
    /// the final methods, `leveraged` included.
    confirmed: Vec<(usize, MethodSet)>,
    /// This group's share of the index's counters.
    tally: Tally,
}

/// The leverage pass over per-NFT candidate groups, maintained under group
/// replacement (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct LeverageIndex {
    /// Per NFT, indexed by [`NftKey`]; NFTs past the end have no group.
    groups: Vec<Group>,
    /// Account set → how many base-confirmed candidates carry it, over
    /// every group. Only positive counts are stored.
    confirmed_sets: HashMap<Vec<AccountId>, u32>,
    /// Account set → the NFT of each base-unconfirmed candidate that
    /// carries it, one entry per candidate. Empty lists are removed.
    postings: HashMap<Vec<AccountId>, Vec<NftKey>>,
    /// The counters summed over every group.
    totals: Tally,
}

impl LeverageIndex {
    /// An empty index: no groups, every counter zero.
    pub fn new() -> Self {
        LeverageIndex::default()
    }

    /// The index over the given groups, built in one pass: every group's
    /// base verdicts are counted first, then each group's verdicts are
    /// derived once. `evidence[i]` is the [`Detector::evaluate`] result for
    /// `candidates[i]`, with `leveraged` still `false`.
    ///
    /// # Panics
    ///
    /// If an NFT is given twice, or a group's two slices differ in length.
    ///
    /// [`Detector::evaluate`]: super::Detector::evaluate
    pub fn build<'c>(
        groups: impl IntoIterator<Item = (NftKey, &'c [DenseCandidate], &'c [MethodSet])>,
    ) -> Self {
        let mut index = LeverageIndex::new();
        let mut keys = Vec::new();
        for (nft, candidates, evidence) in groups {
            let given = index.groups.get(nft.index()).is_some_and(|group| !group.base.is_empty());
            assert!(!given, "NFT {nft:?} given twice");
            index.insert_base(nft, candidates, evidence);
            keys.push(nft);
        }
        for nft in keys {
            index.derive(nft);
        }
        index
    }

    /// Replace `nft`'s candidate group with `candidates` (an empty group
    /// removes it) and re-derive the verdicts of `nft` and of every NFT
    /// whose leverage verdict the change flipped. Returns the flipped NFTs,
    /// ascending and without `nft` itself: those holding an unconfirmed
    /// candidate whose account set gained its first base-confirmed
    /// candidate or lost its last. Every other NFT keeps its verdicts, so
    /// after any sequence of replacements the index equals
    /// [`LeverageIndex::build`] over the current groups.
    ///
    /// # Panics
    ///
    /// If `candidates` and `evidence` differ in length.
    pub fn replace(
        &mut self,
        nft: NftKey,
        candidates: &[DenseCandidate],
        evidence: &[MethodSet],
    ) -> Vec<NftKey> {
        let emptied = self.remove_base(nft);
        let filled = self.insert_base(nft, candidates, evidence);
        // A set emptied and then filled again was confirmed throughout.
        let mut flipped: Vec<NftKey> = emptied
            .iter()
            .filter(|set| !filled.contains(set))
            .chain(filled.iter().filter(|set| !emptied.contains(set)))
            .filter_map(|set| self.postings.get(set))
            .flatten()
            .copied()
            .filter(|&other| other != nft)
            .collect();
        flipped.sort_unstable();
        flipped.dedup();
        self.derive(nft);
        for &other in &flipped {
            self.derive(other);
        }
        flipped
    }

    /// The confirmed candidates of `nft`, in group order: each one's
    /// position in the group last given for `nft`, and its final methods.
    pub fn confirmed(&self, nft: NftKey) -> &[(usize, MethodSet)] {
        self.groups.get(nft.index()).map_or(&[], |group| &group.confirmed)
    }

    /// A [`DenseDetectionOutcome`] carrying `confirmed` and the index's
    /// counters (rejected, Venn, leveraged-only and self-trade counts).
    pub fn outcome(&self, confirmed: Vec<DenseActivity>) -> DenseDetectionOutcome {
        let Tally { rejected, venn, leveraged_only, self_trades } = self.totals;
        DenseDetectionOutcome { confirmed, rejected, venn, leveraged_only, self_trades }
    }

    /// Take `nft`'s group out of the refcounts, postings and totals.
    /// Returns the account sets whose last base-confirmed candidate it was.
    fn remove_base(&mut self, nft: NftKey) -> Vec<Vec<AccountId>> {
        let Some(slot) = self.groups.get_mut(nft.index()) else {
            return Vec::new();
        };
        let group = std::mem::take(slot);
        self.totals.merge(&group.tally, |total, value| *total -= value);
        let mut emptied = Vec::new();
        for (set, methods) in group.base {
            if methods.confirmed() {
                let count = self.confirmed_sets.get_mut(&set).expect("counted account set");
                *count -= 1;
                if *count == 0 {
                    self.confirmed_sets.remove(&set);
                    emptied.push(set);
                }
            } else {
                let nfts = self.postings.get_mut(&set).expect("posted account set");
                let at = nfts.iter().position(|&other| other == nft).expect("posted NFT");
                nfts.swap_remove(at);
                if nfts.is_empty() {
                    self.postings.remove(&set);
                }
            }
        }
        emptied
    }

    /// Store `nft`'s group (whose slot must be empty) and count its base
    /// verdicts into the refcounts and postings; the verdicts stay
    /// underived. Returns the account sets it gave their first
    /// base-confirmed candidate.
    fn insert_base(
        &mut self,
        nft: NftKey,
        candidates: &[DenseCandidate],
        evidence: &[MethodSet],
    ) -> Vec<Vec<AccountId>> {
        assert_eq!(candidates.len(), evidence.len(), "one evidence record per candidate");
        if candidates.is_empty() {
            return Vec::new();
        }
        if self.groups.len() <= nft.index() {
            self.groups.resize_with(nft.index() + 1, Group::default);
        }
        let mut filled = Vec::new();
        let mut base = Vec::with_capacity(candidates.len());
        for (candidate, methods) in candidates.iter().zip(evidence) {
            let set = candidate.accounts.as_slice();
            if methods.confirmed() {
                match self.confirmed_sets.get_mut(set) {
                    Some(count) => *count += 1,
                    None => {
                        self.confirmed_sets.insert(set.to_vec(), 1);
                        filled.push(set.to_vec());
                    }
                }
            } else {
                match self.postings.get_mut(set) {
                    Some(nfts) => nfts.push(nft),
                    None => {
                        self.postings.insert(set.to_vec(), vec![nft]);
                    }
                }
            }
            base.push((set.to_vec(), *methods));
        }
        self.groups[nft.index()].base = base;
        filled
    }

    /// Re-derive `nft`'s verdicts from its base evidence and the current
    /// refcounts, and swap its share of the totals.
    fn derive(&mut self, nft: NftKey) {
        let Some(group) = self.groups.get_mut(nft.index()) else {
            return;
        };
        self.totals.merge(&group.tally, |total, value| *total -= value);
        let mut tally = Tally::default();
        group.confirmed.clear();
        for (position, (set, base)) in group.base.iter().enumerate() {
            let mut methods = *base;
            if !methods.confirmed() && self.confirmed_sets.contains_key(set) {
                methods.leveraged = true;
                tally.leveraged_only += 1;
            }
            if !methods.confirmed() {
                tally.rejected += 1;
                continue;
            }
            if methods.flow_method_count() > 0 {
                tally.venn.record(&methods);
            }
            if methods.self_trade {
                tally.self_trades += 1;
            }
            group.confirmed.push((position, methods));
        }
        group.tally = tally;
        self.totals.merge(&tally, |total, value| *total += value);
    }
}
