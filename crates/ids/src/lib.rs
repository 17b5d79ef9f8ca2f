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

    /// All NFT keys ordered by their resolved `NftId` — the fixed iteration
    /// order every float accumulation over NFTs uses, so sums never depend on
    /// first-seen (ingest) order.
    pub fn nft_keys_sorted_by_id(&self) -> Vec<NftKey> {
        let mut keys: Vec<NftKey> = (0..self.nfts.len() as u32).map(NftKey).collect();
        keys.sort_by_key(|key| self.nfts[key.index()]);
        keys
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

    // -- speculative interning ---------------------------------------------

    /// Freeze a read-only view of the interner for a parallel phase: the
    /// per-space base lengths plus shared lookups. Shards intern
    /// speculatively against the snapshot through [`SpeculativeInterner`]
    /// while the interner itself stays untouched.
    pub fn snapshot(&self) -> InternerSnapshot<'_> {
        InternerSnapshot {
            interner: self,
            account_base: self.accounts.len() as u32,
            nft_base: self.nfts.len() as u32,
            market_base: self.markets.len() as u32,
        }
    }

    /// Commit one shard's new accounts in their first-encounter order,
    /// returning the dense id each contender slot resolved to. Interning is
    /// idempotent, so a contender another shard already claimed simply maps
    /// to that earlier id — walking shards in order therefore reproduces the
    /// serial first-occurrence assignment exactly.
    pub fn reconcile_accounts(&mut self, contenders: &[Address]) -> Vec<AccountId> {
        contenders.iter().map(|&address| self.intern_account(address)).collect()
    }

    /// [`Interner::reconcile_accounts`] for the NFT id space.
    pub fn reconcile_nfts(&mut self, contenders: &[NftId]) -> Vec<NftKey> {
        contenders.iter().map(|&nft| self.intern_nft(nft)).collect()
    }

    /// [`Interner::reconcile_accounts`] for the marketplace id space.
    pub fn reconcile_markets(&mut self, contenders: &[Address]) -> Vec<MarketId> {
        contenders.iter().map(|&contract| self.intern_market(contract)).collect()
    }
}

/// A read-only view of an [`Interner`] taken before a parallel phase.
///
/// The snapshot pins each id space's **base** (its length at capture time),
/// which gives speculative ids an unambiguous encoding: a slot below the
/// base is a settled global id; a slot at or above it is `base + i`, the
/// shard's `i`-th new contender in that space, resolved to a real id during
/// reconciliation. The underlying interner must not be mutated while
/// snapshots of it are alive — the borrow checker enforces exactly that.
#[derive(Debug, Clone, Copy)]
pub struct InternerSnapshot<'a> {
    interner: &'a Interner,
    account_base: u32,
    nft_base: u32,
    market_base: u32,
}

impl<'a> InternerSnapshot<'a> {
    /// Number of accounts settled at capture time; speculative account slots
    /// start here.
    pub fn account_base(&self) -> u32 {
        self.account_base
    }

    /// Number of NFTs settled at capture time.
    pub fn nft_base(&self) -> u32 {
        self.nft_base
    }

    /// Number of marketplaces settled at capture time.
    pub fn market_base(&self) -> u32 {
        self.market_base
    }

    /// The settled id of `address`, if it was interned before the snapshot.
    pub fn account_id(&self, address: Address) -> Option<AccountId> {
        self.interner.account_id(address)
    }

    /// The settled key of `nft`, if it was interned before the snapshot.
    pub fn nft_key(&self, nft: NftId) -> Option<NftKey> {
        self.interner.nft_key(nft)
    }

    /// The settled id of marketplace `contract`, if interned before the
    /// snapshot.
    pub fn market_id(&self, contract: Address) -> Option<MarketId> {
        self.interner.market_id(contract)
    }
}

/// The new entities one shard discovered, per id space, in first-encounter
/// order — the contender lists serial reconciliation walks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NewEntities {
    /// Accounts not in the snapshot, in the order this shard first saw them.
    pub accounts: Vec<Address>,
    /// NFTs not in the snapshot, in first-seen order.
    pub nfts: Vec<NftId>,
    /// Marketplace contracts not in the snapshot, in first-seen order.
    pub markets: Vec<Address>,
}

impl NewEntities {
    /// Whether the shard discovered nothing new in any id space.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty() && self.nfts.is_empty() && self.markets.is_empty()
    }
}

/// A shard-local interner that never mutates the shared tables: known
/// entities resolve through the [`InternerSnapshot`], unknown ones get
/// provisional slots `base + i` and are collected as contenders
/// ([`SpeculativeInterner::into_contenders`]) for serial reconciliation.
///
/// # Examples
///
/// ```
/// use ethsim::Address;
/// use ids::{Interner, SpeculativeInterner};
///
/// let mut interner = Interner::new();
/// let known = interner.intern_account(Address::derived("known"));
/// let snapshot = interner.snapshot();
/// let base = snapshot.account_base();
/// let mut shard = SpeculativeInterner::new(snapshot);
/// assert_eq!(shard.intern_account(Address::derived("known")), known.0);
/// let slot = shard.intern_account(Address::derived("new"));
/// assert_eq!(slot, base); // first contender
/// let contenders = shard.into_contenders();
/// let remap = interner.reconcile_accounts(&contenders.accounts);
/// assert_eq!(remap[(slot - base) as usize].0, 1);
/// ```
#[derive(Debug)]
pub struct SpeculativeInterner<'a> {
    snapshot: InternerSnapshot<'a>,
    new_accounts: Vec<Address>,
    account_slots: FxHashMap<Address, u32>,
    new_nfts: Vec<NftId>,
    nft_slots: FxHashMap<NftId, u32>,
    new_markets: Vec<Address>,
    market_slots: FxHashMap<Address, u32>,
}

impl<'a> SpeculativeInterner<'a> {
    /// A shard-local interner over `snapshot`, with no contenders yet.
    pub fn new(snapshot: InternerSnapshot<'a>) -> Self {
        SpeculativeInterner {
            snapshot,
            new_accounts: Vec::new(),
            account_slots: FxHashMap::default(),
            new_nfts: Vec::new(),
            nft_slots: FxHashMap::default(),
            new_markets: Vec::new(),
            market_slots: FxHashMap::default(),
        }
    }

    /// The speculative slot of `address`: its settled id if the snapshot
    /// knows it, otherwise `account_base + i` for the shard's `i`-th new
    /// account.
    pub fn intern_account(&mut self, address: Address) -> u32 {
        if let Some(id) = self.snapshot.account_id(address) {
            return id.0;
        }
        if let Some(&slot) = self.account_slots.get(&address) {
            return slot;
        }
        let slot = self.snapshot.account_base + self.new_accounts.len() as u32;
        self.account_slots.insert(address, slot);
        self.new_accounts.push(address);
        slot
    }

    /// The speculative slot of `nft` (see [`Self::intern_account`]).
    pub fn intern_nft(&mut self, nft: NftId) -> u32 {
        if let Some(key) = self.snapshot.nft_key(nft) {
            return key.0;
        }
        if let Some(&slot) = self.nft_slots.get(&nft) {
            return slot;
        }
        let slot = self.snapshot.nft_base + self.new_nfts.len() as u32;
        self.nft_slots.insert(nft, slot);
        self.new_nfts.push(nft);
        slot
    }

    /// The speculative slot of marketplace `contract` (see
    /// [`Self::intern_account`]).
    pub fn intern_market(&mut self, contract: Address) -> u32 {
        if let Some(id) = self.snapshot.market_id(contract) {
            return id.0;
        }
        if let Some(&slot) = self.market_slots.get(&contract) {
            return slot;
        }
        let slot = self.snapshot.market_base + self.new_markets.len() as u32;
        self.market_slots.insert(contract, slot);
        self.new_markets.push(contract);
        slot
    }

    /// Finish the shard, yielding its contender lists in first-encounter
    /// order (slot `base + i` is entry `i` of the matching list).
    pub fn into_contenders(self) -> NewEntities {
        NewEntities { accounts: self.new_accounts, nfts: self.new_nfts, markets: self.new_markets }
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
    fn speculative_same_address_first_seen_in_two_shards_reconciles_to_one_id() {
        // Two shards race to claim the same brand-new address: each gets the
        // same provisional slot (they share the snapshot base and neither
        // knows of the other), and reconciliation in shard order must settle
        // both on the single id the first shard's contender list wins.
        let mut interner = Interner::new();
        interner.intern_account(Address::derived("settled"));
        let snapshot = interner.snapshot();
        let base = snapshot.account_base();
        let mut shard_a = SpeculativeInterner::new(snapshot);
        let mut shard_b = SpeculativeInterner::new(snapshot);
        let contested = Address::derived("contested");
        let slot_a = shard_a.intern_account(contested);
        let only_b = shard_b.intern_account(Address::derived("only-in-b"));
        let slot_b = shard_b.intern_account(contested);
        assert_eq!(slot_a, base);
        assert_eq!(slot_b, base + 1, "b saw its own entity first");

        let contenders_a = shard_a.into_contenders();
        let contenders_b = shard_b.into_contenders();
        let remap_a = interner.reconcile_accounts(&contenders_a.accounts);
        let remap_b = interner.reconcile_accounts(&contenders_b.accounts);
        let settled_a = remap_a[(slot_a - base) as usize];
        let settled_b = remap_b[(slot_b - base) as usize];
        assert_eq!(settled_a, settled_b, "both shards settle on one dense id");
        assert_eq!(settled_a.0, 1, "first unsettled id after the snapshot");
        assert_eq!(remap_b[(only_b - base) as usize].0, 2);
        assert_eq!(interner.account_count(), 3, "contested address interned once");
    }

    #[test]
    fn speculative_shard_with_zero_new_ids_contributes_nothing() {
        let mut interner = Interner::new();
        let known_account = interner.intern_account(Address::derived("a"));
        let known_nft = interner.intern_nft(NftId::new(Address::derived("c"), 1));
        let known_market = interner.intern_market(Address::derived("m"));
        let before = interner.clone();
        let snapshot = interner.snapshot();
        let mut shard = SpeculativeInterner::new(snapshot);
        assert_eq!(shard.intern_account(Address::derived("a")), known_account.0);
        assert_eq!(shard.intern_nft(NftId::new(Address::derived("c"), 1)), known_nft.0);
        assert_eq!(shard.intern_market(Address::derived("m")), known_market.0);
        let contenders = shard.into_contenders();
        assert!(contenders.is_empty());
        assert!(interner.reconcile_accounts(&contenders.accounts).is_empty());
        assert!(interner.reconcile_nfts(&contenders.nfts).is_empty());
        assert!(interner.reconcile_markets(&contenders.markets).is_empty());
        assert_eq!(interner, before, "reconciling an empty shard is a no-op");
    }

    #[test]
    fn speculative_slots_are_per_space_and_repeat_stable() {
        let mut interner = Interner::new();
        let snapshot = interner.snapshot();
        let mut shard = SpeculativeInterner::new(snapshot);
        let account = shard.intern_account(Address::derived("x"));
        let nft = shard.intern_nft(NftId::new(Address::derived("c"), 9));
        let market = shard.intern_market(Address::derived("x"));
        // Same address in two spaces gets independent slots; repeats return
        // the first slot.
        assert_eq!((account, nft, market), (0, 0, 0));
        assert_eq!(shard.intern_account(Address::derived("x")), account);
        assert_eq!(shard.intern_market(Address::derived("x")), market);
        let contenders = shard.into_contenders();
        assert_eq!(contenders.accounts.len(), 1);
        assert_eq!(contenders.nfts.len(), 1);
        assert_eq!(contenders.markets.len(), 1);
        let _ = interner.reconcile_accounts(&contenders.accounts);
        assert_eq!(interner.account_count(), 1);
    }

    #[test]
    fn nft_keys_sorted_by_id_orders_by_identity_not_first_seen() {
        let mut interner = Interner::new();
        let contract = Address::derived("c");
        let late = interner.intern_nft(NftId::new(contract, 9));
        let early = interner.intern_nft(NftId::new(contract, 1));
        assert_eq!(interner.nft_keys_sorted_by_id(), vec![early, late]);
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
