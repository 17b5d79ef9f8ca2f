//! # ids — dense interned identifiers for the analysis pipeline
//!
//! The paper's pipeline is join-heavy: every stage used to re-hash 20-byte
//! [`Address`] and 28-byte [`NftId`] keys through `HashMap`s on every edge
//! touch. This crate provides the interning layer that removes those hashes
//! from the hot paths: each entity is mapped **once, at ingest**, to a dense
//! `u32` id, and every downstream stage indexes plain `Vec`s with it. The
//! dense ids resolve back to real addresses exactly once, at the report
//! boundary.
//!
//! Four id spaces exist, one per entity kind:
//!
//! * [`AccountId`] — transfer senders and recipients (the null address
//!   included, since mints and burns use it),
//! * [`NftKey`] — `(contract, token id)` pairs with at least one transfer,
//! * [`MarketId`] — marketplace contracts attributed to at least one sale,
//! * [`TxId`] — transactions carrying at least one compliant transfer.
//!
//! The [`Interner`] owning the first three is **append-only and
//! stream-stable**: ids are assigned in first-seen order, an id is never
//! reassigned, and feeding the same entries epoch by epoch produces the same
//! assignment as a one-shot pass — which is what lets the streaming
//! subsystem share dense artifacts with the batch pipeline bit for bit.
//! Ingest interns in one serial pass in chain execution order (decoding may
//! fan out, interning never does), so first-seen order is chain order at
//! any thread count.
//! [`TxId`]s need no map at all: the transfer store appends rows in chain
//! execution order, so one transaction's rows are consecutive and a row
//! takes the next id exactly when its hash differs from the previous row's.
//! They are just as append-only and stream-stable, by contiguity.
//!
//! [`BitSet`] is the membership structure the dense stages use in place of
//! `HashSet<Address>`: constant-time insert/contains over small integer ids.
//! [`Postings`] is its lookup-side sibling: a compressed-sparse-row table
//! mapping each dense id to a contiguous slice of values, used by the
//! serving layer's secondary indexes (account → suspect activities).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ethsim::fxhash::FxHashMap;
use ethsim::Address;
use serde::{Deserialize, Serialize};
use tokens::NftId;

/// Dense id of an account, assigned in first-seen order at ingest.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AccountId(pub u32);

impl AccountId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of an NFT, assigned in first-seen order at ingest.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NftKey(pub u32);

impl NftKey {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of a marketplace contract, assigned in first-seen order.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct MarketId(pub u32);

impl MarketId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense id of a transaction that carries at least one compliant transfer,
/// numbered in chain order. Assigned by the transfer store on append (by
/// contiguity, not through the [`Interner`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TxId(pub u32);

impl TxId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The append-only entity interner: `Address → AccountId`,
/// `NftId → NftKey`, marketplace `Address → MarketId`, plus the reverse
/// tables for resolution at the report boundary.
///
/// # Examples
///
/// ```
/// use ethsim::Address;
/// use ids::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern_account(Address::derived("alice"));
/// let b = interner.intern_account(Address::derived("bob"));
/// assert_ne!(a, b);
/// assert_eq!(interner.intern_account(Address::derived("alice")), a);
/// assert_eq!(interner.address(a), Address::derived("alice"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Interner {
    accounts: Vec<Address>,
    account_ids: FxHashMap<Address, AccountId>,
    nfts: Vec<NftId>,
    nft_keys: FxHashMap<NftId, NftKey>,
    markets: Vec<Address>,
    market_ids: FxHashMap<Address, MarketId>,
}

impl Interner {
    /// An empty interner: no entity has an id yet.
    pub fn new() -> Self {
        Interner::default()
    }

    // -- accounts ----------------------------------------------------------

    /// The id of `address`, assigning the next dense id on first sight.
    pub fn intern_account(&mut self, address: Address) -> AccountId {
        if let Some(&id) = self.account_ids.get(&address) {
            return id;
        }
        let id = AccountId(u32::try_from(self.accounts.len()).expect("account space fits u32"));
        self.account_ids.insert(address, id);
        self.accounts.push(address);
        id
    }

    /// The id of an already-interned account.
    pub fn account_id(&self, address: Address) -> Option<AccountId> {
        self.account_ids.get(&address).copied()
    }

    /// Resolve an account id back to its address.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this interner.
    #[inline]
    pub fn address(&self, id: AccountId) -> Address {
        self.accounts[id.index()]
    }

    /// Number of interned accounts (ids are `0..account_count`).
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// The addresses of all interned accounts, in id order.
    pub fn accounts(&self) -> &[Address] {
        &self.accounts
    }

    // -- NFTs --------------------------------------------------------------

    /// The key of `nft`, assigning the next dense key on first sight.
    pub fn intern_nft(&mut self, nft: NftId) -> NftKey {
        if let Some(&key) = self.nft_keys.get(&nft) {
            return key;
        }
        let key = NftKey(u32::try_from(self.nfts.len()).expect("nft space fits u32"));
        self.nft_keys.insert(nft, key);
        self.nfts.push(nft);
        key
    }

    /// The key of an already-interned NFT.
    pub fn nft_key(&self, nft: NftId) -> Option<NftKey> {
        self.nft_keys.get(&nft).copied()
    }

    /// Resolve an NFT key back to its `(contract, token id)` identity.
    ///
    /// # Panics
    ///
    /// Panics if the key was not produced by this interner.
    #[inline]
    pub fn nft(&self, key: NftKey) -> NftId {
        self.nfts[key.index()]
    }

    /// Number of interned NFTs (keys are `0..nft_count`).
    pub fn nft_count(&self) -> usize {
        self.nfts.len()
    }

    /// The identities of all interned NFTs, in key order.
    pub fn nfts(&self) -> &[NftId] {
        &self.nfts
    }

    // -- marketplaces ------------------------------------------------------

    /// The id of marketplace `contract`, assigning the next dense id on
    /// first sight.
    pub fn intern_market(&mut self, contract: Address) -> MarketId {
        if let Some(&id) = self.market_ids.get(&contract) {
            return id;
        }
        let id = MarketId(u32::try_from(self.markets.len()).expect("market space fits u32"));
        self.market_ids.insert(contract, id);
        self.markets.push(contract);
        id
    }

    /// The id of an already-interned marketplace contract.
    pub fn market_id(&self, contract: Address) -> Option<MarketId> {
        self.market_ids.get(&contract).copied()
    }

    /// Resolve a marketplace id back to its contract address.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this interner.
    #[inline]
    pub fn market(&self, id: MarketId) -> Address {
        self.markets[id.index()]
    }

    /// Number of interned marketplace contracts.
    pub fn market_count(&self) -> usize {
        self.markets.len()
    }
}

/// A growable bitset over dense ids: the constant-time membership structure
/// the analysis stages use in place of `HashSet<Address>`.
///
/// # Examples
///
/// ```
/// use ids::{AccountId, BitSet};
///
/// let mut set = BitSet::new();
/// set.insert(AccountId(3).index());
/// assert!(set.contains(AccountId(3).index()));
/// assert!(!set.contains(AccountId(4).index()));
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

/// Set-semantic equality: two sets are equal iff they contain the same ids,
/// regardless of pre-sized or cleared-but-still-allocated trailing blocks
/// (a derived `PartialEq` on `blocks` would make `with_capacity(64)`
/// compare unequal to `new()` though both are empty).
impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (short, long) =
            if self.blocks.len() <= other.blocks.len() { (self, other) } else { (other, self) };
        short.blocks == long.blocks[..short.blocks.len()]
            && long.blocks[short.blocks.len()..].iter().all(|&block| block == 0)
    }
}

impl Eq for BitSet {}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// An empty set pre-sized for ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet { blocks: vec![0; capacity.div_ceil(64)], len: 0 }
    }

    /// Insert an id; returns whether it was newly inserted.
    pub fn insert(&mut self, index: usize) -> bool {
        let block = index / 64;
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << (index % 64);
        if self.blocks[block] & mask != 0 {
            return false;
        }
        self.blocks[block] |= mask;
        self.len += 1;
        true
    }

    /// Whether the id is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.blocks.get(index / 64).is_some_and(|block| block & (1u64 << (index % 64)) != 0)
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
        self.len = 0;
    }

    /// Iterate the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(block_index, &block)| {
            let mut bits = block;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(block_index * 64 + bit)
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut set = BitSet::new();
        for index in iter {
            set.insert(index);
        }
        set
    }
}

/// A compressed-sparse-row postings table over dense `u32` keys: for each
/// key, a contiguous slice of values, stored as one values array plus an
/// offsets array — the secondary-index building block the serving layer uses
/// for account → suspect-activity lookups.
///
/// Keys are dense (`0..keys()`); a key beyond the largest seen simply has an
/// empty postings list. Construction sorts stably by key, so values with the
/// same key keep their input order.
///
/// # Examples
///
/// ```
/// use ids::Postings;
///
/// let postings = Postings::from_pairs(vec![(2u32, "c"), (0, "a"), (2, "b")]);
/// assert_eq!(postings.get(0), ["a"]);
/// assert_eq!(postings.get(1), [""; 0]);
/// assert_eq!(postings.get(2), ["c", "b"], "input order is kept within a key");
/// assert_eq!(postings.get(99), [""; 0], "out-of-range keys are empty");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postings<V> {
    /// `offsets[k]..offsets[k + 1]` is key `k`'s slice of `values`.
    offsets: Vec<u32>,
    values: Vec<V>,
}

impl<V> Default for Postings<V> {
    fn default() -> Self {
        Postings { offsets: vec![0], values: Vec::new() }
    }
}

impl<V> Postings<V> {
    /// An empty table: every key has an empty postings list.
    pub fn new() -> Self {
        Postings::default()
    }

    /// Build the table from `(key, value)` pairs, grouping by key. The sort
    /// is stable: values sharing a key keep the order they were pushed in.
    pub fn from_pairs(mut pairs: Vec<(u32, V)>) -> Self {
        if pairs.is_empty() {
            return Postings::default();
        }
        pairs.sort_by_key(|(key, _)| *key);
        let keys = pairs.last().map(|(key, _)| *key as usize + 1).unwrap_or(0);
        let mut offsets = Vec::with_capacity(keys + 1);
        offsets.push(0u32);
        let mut values = Vec::with_capacity(pairs.len());
        for (key, value) in pairs {
            while offsets.len() <= key as usize {
                offsets.push(values.len() as u32);
            }
            values.push(value);
        }
        offsets.push(values.len() as u32);
        Postings { offsets, values }
    }

    /// Build the table directly from its CSR parts:
    /// `offsets[k]..offsets[k + 1]` spans key `k`'s slice of `values`. For
    /// callers that already produce grouped, key-ordered output — skips
    /// [`Postings::from_pairs`]' sort and regroup passes.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` starts at 0, ends at `values.len()`, and
    /// ascends.
    pub fn from_parts(offsets: Vec<u32>, values: Vec<V>) -> Self {
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            offsets.last().map(|&last| last as usize),
            Some(values.len()),
            "offsets must end at values.len()"
        );
        assert!(offsets.windows(2).all(|pair| pair[0] <= pair[1]), "offsets must ascend");
        Postings { offsets, values }
    }

    /// Number of keys with an allocated slot (`0..keys()`; trailing keys
    /// without postings are not represented).
    pub fn keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The postings list of one key; empty for keys never seen.
    pub fn get(&self, key: u32) -> &[V] {
        let key = key as usize;
        if key >= self.keys() {
            return &[];
        }
        &self.values[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }

    /// Total number of stored values across all keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value is stored at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(key, postings)` over every allocated key, ascending, empty
    /// lists included.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[V])> + '_ {
        (0..self.keys() as u32).map(move |key| (key, self.get(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut interner = Interner::new();
        let a = interner.intern_account(Address::derived("a"));
        let b = interner.intern_account(Address::derived("b"));
        let a2 = interner.intern_account(Address::derived("a"));
        assert_eq!(a, a2);
        assert_eq!((a.0, b.0), (0, 1), "ids are dense in first-seen order");
        assert_eq!(interner.account_count(), 2);
        assert_eq!(interner.address(a), Address::derived("a"));
        assert_eq!(interner.account_id(Address::derived("b")), Some(b));
        assert_eq!(interner.account_id(Address::derived("c")), None);
    }

    #[test]
    fn nft_and_market_spaces_are_independent() {
        let mut interner = Interner::new();
        let contract = Address::derived("collection");
        let key = interner.intern_nft(NftId::new(contract, 7));
        let market = interner.intern_market(Address::derived("opensea"));
        assert_eq!(key.0, 0);
        assert_eq!(market.0, 0);
        assert_eq!(interner.nft(key), NftId::new(contract, 7));
        assert_eq!(interner.market(market), Address::derived("opensea"));
        assert_eq!(interner.nft_key(NftId::new(contract, 8)), None);
    }

    #[test]
    fn bitset_inserts_and_iterates_in_order() {
        let mut set = BitSet::with_capacity(10);
        assert!(set.insert(130));
        assert!(set.insert(2));
        assert!(!set.insert(130), "double insert reports false");
        assert!(set.contains(2) && set.contains(130) && !set.contains(64));
        assert_eq!(set.len(), 2);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![2, 130]);
        set.clear();
        assert!(set.is_empty() && !set.contains(2));
        let from: BitSet = [5usize, 1, 5].into_iter().collect();
        assert_eq!(from.len(), 2);
    }

    #[test]
    fn equality_is_set_semantic_not_representational() {
        assert_eq!(BitSet::new(), BitSet::with_capacity(640), "pre-sizing is invisible");
        let mut cleared = BitSet::new();
        cleared.insert(500);
        cleared.clear();
        assert_eq!(cleared, BitSet::new(), "clearing is invisible");
        let mut a = BitSet::with_capacity(1000);
        let mut b = BitSet::new();
        a.insert(3);
        b.insert(3);
        assert_eq!(a, b);
        b.insert(70);
        assert_ne!(a, b);
    }

    #[test]
    fn postings_group_by_key_and_keep_input_order() {
        let postings = Postings::from_pairs(vec![(3u32, 30), (1, 10), (3, 31), (1, 11), (3, 32)]);
        assert_eq!(postings.keys(), 4);
        assert_eq!(postings.len(), 5);
        assert!(!postings.is_empty());
        assert_eq!(postings.get(0), [0i32; 0]);
        assert_eq!(postings.get(1), [10, 11]);
        assert_eq!(postings.get(2), [0i32; 0]);
        assert_eq!(postings.get(3), [30, 31, 32]);
        assert_eq!(postings.get(4), [0i32; 0], "out of range is empty, not a panic");
        let collected: Vec<(u32, usize)> =
            postings.iter().map(|(key, values)| (key, values.len())).collect();
        assert_eq!(collected, vec![(0, 0), (1, 2), (2, 0), (3, 3)]);
    }

    #[test]
    fn empty_postings_have_no_keys() {
        let postings: Postings<u8> = Postings::new();
        assert_eq!(postings.keys(), 0);
        assert!(postings.is_empty());
        assert_eq!(postings.get(0), [0u8; 0]);
        assert_eq!(postings, Postings::from_pairs(Vec::new()));
    }

    proptest::proptest! {
        #[test]
        fn postings_match_reference_map(
            pairs in proptest::collection::vec((0u32..40, 0u64..1000), 0..80)
        ) {
            let postings = Postings::from_pairs(pairs.clone());
            let mut reference: std::collections::BTreeMap<u32, Vec<u64>> =
                std::collections::BTreeMap::new();
            for (key, value) in &pairs {
                reference.entry(*key).or_default().push(*value);
            }
            for key in 0u32..45 {
                let expected = reference.get(&key).map(|v| v.as_slice()).unwrap_or(&[]);
                proptest::prop_assert_eq!(postings.get(key), expected);
            }
            proptest::prop_assert_eq!(postings.len(), pairs.len());
        }

        #[test]
        fn intern_resolve_round_trips(seeds in proptest::collection::vec(0u64..500, 1..60)) {
            let mut interner = Interner::new();
            let mut ids = Vec::new();
            for seed in &seeds {
                let address = Address::derived(&format!("acct-{seed}"));
                ids.push((address, interner.intern_account(address)));
            }
            // Round trip and density.
            for (address, id) in &ids {
                proptest::prop_assert_eq!(interner.address(*id), *address);
                proptest::prop_assert_eq!(interner.account_id(*address), Some(*id));
            }
            let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
            proptest::prop_assert_eq!(interner.account_count(), distinct.len());
            let max_id = ids.iter().map(|(_, id)| id.0).max().unwrap();
            proptest::prop_assert_eq!(max_id as usize + 1, distinct.len(), "ids are dense");
        }

        #[test]
        fn bitset_matches_reference_hashset(
            inserts in proptest::collection::vec(0usize..500, 0..100)
        ) {
            let mut set = BitSet::new();
            let mut reference = std::collections::BTreeSet::new();
            for index in &inserts {
                proptest::prop_assert_eq!(set.insert(*index), reference.insert(*index));
            }
            proptest::prop_assert_eq!(set.len(), reference.len());
            proptest::prop_assert_eq!(
                set.iter().collect::<Vec<_>>(),
                reference.iter().copied().collect::<Vec<_>>()
            );
        }
    }
}
