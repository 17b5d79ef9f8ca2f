//! Dataset construction (§III of the paper).
//!
//! The pipeline starts from the chain's event logs: every log with the
//! `Transfer(address,address,uint256)` topic and four topics is an ERC-721
//! transfer candidate. The emitting contracts are then checked for ERC-165 /
//! ERC-721 compliance, and the surviving transfers are annotated with the
//! amount paid and the marketplace the transaction interacted with.
//!
//! Storage is columnar and interned: every account, NFT and marketplace is
//! mapped to a dense id **once, here at ingest**. Batch [`Dataset::build`]
//! and the stream's epochs both run [`Dataset::ingest_blocks`], whose serial
//! commit appends every transfer through the one [`Dataset::push_transfer`]
//! seam in chain order, so the [`Interner`] is append-only and
//! stream-stable. The transfers live in the struct-of-arrays
//! [`TransferColumns`]. Downstream stages index `Vec`s by the dense ids;
//! addresses reappear only at the report boundary.

use ethsim::fxhash::FxHashSet;
use ethsim::{Address, BlockNumber, Chain, LogFilter, Timestamp, TxHash, Wei};
use ids::{BitSet, Interner, NftKey, TxId};
use marketplace::MarketplaceDirectory;
use oracle::PriceOracle;
use serde::{Deserialize, Serialize};
use tokens::NftId;

use crate::columns::{TransferColumns, TransferRow};
use crate::parallel::Executor;

/// A single ERC-721 transfer in resolved (address-keyed) form: the
/// compatibility view materialized from [`TransferColumns`] at the report
/// boundary, and the input shape [`Dataset::push_transfer`] interns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NftTransfer {
    /// The NFT being moved.
    pub nft: NftId,
    /// Previous owner (null address for mints).
    pub from: Address,
    /// New owner (null address for burns).
    pub to: Address,
    /// The transaction carrying the transfer log.
    pub tx_hash: TxHash,
    /// Block of the transaction.
    pub block: BlockNumber,
    /// Timestamp of the transaction.
    pub timestamp: Timestamp,
    /// Amount paid for the NFT in this transaction.
    pub price: Wei,
    /// The marketplace contract the transaction interacted with, if any.
    pub marketplace: Option<Address>,
}

/// Aggregate dataset statistics for one marketplace (one row of Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketplaceVolume {
    /// Marketplace name.
    pub name: String,
    /// Number of distinct NFTs traded there.
    pub nfts: usize,
    /// Number of sale transactions.
    pub transactions: usize,
    /// Traded volume in ETH.
    pub volume_eth: f64,
    /// Traded volume in USD at transaction time.
    pub volume_usd: f64,
}

/// The assembled dataset: the entity interner, the columnar transfer store,
/// and the compliance verdicts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// The dense-id assignment for every account, NFT and marketplace seen.
    pub interner: Interner,
    /// Transfer history in struct-of-arrays form, with per-NFT row slices.
    pub columns: TransferColumns,
    /// Contracts that emitted ERC-721-shaped logs and passed the compliance
    /// probe.
    pub compliant_contracts: FxHashSet<Address>,
    /// Contracts that emitted ERC-721-shaped logs but failed the probe; their
    /// transfers are excluded from the columns.
    pub non_compliant_contracts: FxHashSet<Address>,
    /// Number of raw ERC-721-shaped transfer logs scanned (before the
    /// compliance filter).
    pub raw_transfer_events: usize,
}

/// What one [`Dataset::ingest_blocks`] call changed: the NFTs that received
/// new transfers (as dense keys, sorted and deduplicated) and how many
/// transfers were appended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedEntries {
    /// NFTs that gained at least one transfer, in ascending key order.
    pub dirty: Vec<NftKey>,
    /// Number of compliant transfers appended across all NFTs.
    pub appended: usize,
}

impl Dataset {
    /// The `eth_getLogs` filter the dataset stage scans (§III-A): every log
    /// with the `Transfer` topic and four topics is an ERC-721 candidate.
    pub fn transfer_filter() -> LogFilter {
        LogFilter::all().with_topic0(ethsim::log::transfer_topic()).with_topic_count(4)
    }

    /// Build the dataset from a chain and the marketplace directory,
    /// mirroring §III-A: scan transfer events, check compliance, store the
    /// per-NFT transfer lists with price and marketplace annotations.
    ///
    /// Runs [`Dataset::ingest_blocks`] over the whole chain on a single
    /// thread. Bit-identical to [`Dataset::build_with`] at any thread count
    /// and to epoch-by-epoch ingest at any slicing: every call commits
    /// through the same [`Dataset::push_transfer`] seam in execution order.
    pub fn build(chain: &Chain, directory: &MarketplaceDirectory) -> Dataset {
        Self::build_with(chain, directory, &Executor::new(1))
    }

    /// [`Dataset::build`] with an explicit thread budget for the parallel
    /// decode phase. The result is bit-identical at any thread count.
    pub fn build_with(
        chain: &Chain,
        directory: &MarketplaceDirectory,
        executor: &Executor,
    ) -> Dataset {
        let mut dataset = Dataset::default();
        dataset.ingest_blocks(
            chain,
            directory,
            BlockNumber(0),
            chain.current_block_number(),
            executor,
        );
        dataset
    }

    /// Intern and append one transfer — the single seam every transfer row
    /// enters the store through (the ingest commit for batch builds and
    /// streaming epochs alike, and test fixtures), which is what keeps the
    /// id assignment append-only and stream-stable. Returns the NFT's dense
    /// key.
    pub fn push_transfer(&mut self, transfer: &NftTransfer) -> NftKey {
        let nft = self.interner.intern_nft(transfer.nft);
        let row = TransferRow {
            nft,
            from: self.interner.intern_account(transfer.from),
            to: self.interner.intern_account(transfer.to),
            tx_hash: transfer.tx_hash,
            block: transfer.block,
            timestamp: transfer.timestamp,
            price: transfer.price,
            marketplace: transfer.marketplace.map(|market| self.interner.intern_market(market)),
        };
        self.columns.push(row);
        nft
    }

    /// Probe `contract` for ERC-721 compliance — the structural equivalent
    /// of calling `supportsInterface(0x80ac58cd)` — unless a verdict is
    /// already cached. The ingest commit calls it for every emitting
    /// contract, in chain order.
    pub(crate) fn probe_contract(&mut self, chain: &Chain, contract: Address) {
        if self.compliant_contracts.contains(&contract)
            || self.non_compliant_contracts.contains(&contract)
        {
            return;
        }
        let supports = chain
            .code_at(contract)
            .map(tokens::compliance::supports_erc721_interface)
            .unwrap_or(false);
        if supports {
            self.compliant_contracts.insert(contract);
        } else {
            self.non_compliant_contracts.insert(contract);
        }
    }

    /// Number of distinct NFTs with at least one transfer. (Every interned
    /// NFT key has at least one row — keys are assigned on first transfer.)
    pub fn nft_count(&self) -> usize {
        self.interner.nft_count()
    }

    /// Total number of (compliant) transfers.
    pub fn transfer_count(&self) -> usize {
        self.columns.len()
    }

    /// The resolved transfer history of one NFT, chronological — the
    /// report-boundary view of the columnar store (allocates; hot paths use
    /// [`TransferColumns::rows_of`] directly).
    pub fn transfers_of(&self, nft: NftId) -> Vec<NftTransfer> {
        let Some(key) = self.interner.nft_key(nft) else {
            return Vec::new();
        };
        self.columns
            .rows_of(key)
            .iter()
            .map(|&row| self.columns.resolve(row, &self.interner))
            .collect()
    }

    /// All accounts appearing as source or recipient of a transfer, in
    /// ascending address order (sorted so every consumer — reports, live
    /// deltas — iterates deterministically). The interner only assigns
    /// account ids from transfer endpoints, so this is exactly its account
    /// table, re-ordered by address.
    pub fn accounts(&self) -> Vec<Address> {
        let mut accounts: Vec<Address> = self.interner.accounts().to_vec();
        accounts.sort_unstable();
        accounts
    }

    /// Per-marketplace totals (Table I): NFTs, transactions and volume of all
    /// activity attributed to each marketplace. Batch analysis folds this
    /// once per run, in its `characterize` stage, and reports those rows.
    pub fn marketplace_volumes(
        &self,
        directory: &MarketplaceDirectory,
        oracle: &PriceOracle,
    ) -> Vec<MarketplaceVolume> {
        self.marketplace_volumes_with(directory, oracle, &Executor::new(1))
    }

    /// [`Dataset::marketplace_volumes`] as a two-level fold: the USD pricing
    /// of each NFT's marketplace rows ([`Dataset::nft_market_leaves`], the
    /// expensive half) fans out over `executor`, then a serial
    /// [`MarketVolumeFold`] replays the per-transaction accumulation in
    /// identity-sorted NFT order — the exact order the one-level loop used,
    /// so the f64 totals are bit-identical at any thread count. The
    /// streaming analyzer reuses the same fold over *cached* leaves,
    /// repricing only dirty NFTs.
    pub fn marketplace_volumes_with(
        &self,
        directory: &MarketplaceDirectory,
        oracle: &PriceOracle,
        executor: &Executor,
    ) -> Vec<MarketplaceVolume> {
        let keys = self.interner.nft_keys_sorted_by_id();
        let leaves = executor.map(&keys, |&key| self.nft_market_leaves(key, oracle));
        let mut fold = MarketVolumeFold::new(self.interner.market_count());
        for (key, leaves) in keys.iter().zip(&leaves) {
            fold.add(*key, leaves);
        }
        fold.rows(directory, &self.interner)
    }

    /// The marketplace-attributed transfer rows of one NFT with their USD
    /// pricing precomputed, in row (chronological) order — the per-NFT leaf
    /// record of the two-level [`MarketVolumeFold`]. Each leaf carries its
    /// row's dense [`TxId`], never the 32-byte hash. Leaves are a pure
    /// function of the NFT's (append-only) history, and transaction ids are
    /// append-only too, so the streaming analyzer caches the leaves of clean
    /// NFTs across epochs and folds them with the same [`MarketVolumeFold`].
    pub fn nft_market_leaves(&self, key: NftKey, oracle: &PriceOracle) -> NftMarketLeaves {
        let leaves = self
            .columns
            .rows_of(key)
            .iter()
            .filter_map(|&row| {
                let row = row as usize;
                let market = self.columns.marketplace[row]?;
                Some(MarketLeaf {
                    market,
                    tx: self.columns.tx[row],
                    eth: self.columns.price[row].to_eth(),
                    usd: oracle
                        .wei_to_usd(self.columns.price[row], self.columns.timestamp[row])
                        .unwrap_or(0.0),
                })
            })
            .collect();
        NftMarketLeaves { leaves }
    }
}

/// One marketplace-attributed transfer of an NFT with its price converted —
/// the leaf of the two-level Table I fold.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketLeaf {
    /// The attributed marketplace.
    pub market: ids::MarketId,
    /// The carrying transaction (volume is deduplicated per transaction).
    pub tx: TxId,
    /// Price in ETH.
    pub eth: f64,
    /// Price in USD at the transfer's timestamp.
    pub usd: f64,
}

/// Pre-priced marketplace rows of one NFT (see
/// [`Dataset::nft_market_leaves`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NftMarketLeaves {
    /// Leaves in row (chronological) order.
    pub leaves: Vec<MarketLeaf>,
}

/// The serial reduce of the Table I marketplace volumes: feed it per-NFT
/// [`NftMarketLeaves`] in identity-sorted NFT order via
/// [`MarketVolumeFold::add`] and it accumulates exactly as the original
/// one-level loop did — including the global per-market transaction
/// deduplication, replayed in the same order, so every f64 sum lands on the
/// same bits. The dedup is a [`BitSet`] over dense [`TxId`]s, which are
/// bijective with transaction hashes, so every verdict is the one a hash set
/// would give. Batch ([`Dataset::marketplace_volumes_with`]) and the
/// streaming analyzer (over cached leaves) share this one fold.
pub struct MarketVolumeFold {
    per_market: Vec<Option<MarketAccumulator>>,
}

struct MarketAccumulator {
    nfts: BitSet,
    transactions: BitSet,
    volume_eth: f64,
    volume_usd: f64,
}

impl MarketVolumeFold {
    /// An empty fold over `market_count` dense marketplace ids.
    pub fn new(market_count: usize) -> Self {
        let mut per_market = Vec::new();
        per_market.resize_with(market_count, || None);
        MarketVolumeFold { per_market }
    }

    /// Fold one NFT's leaves. Callers must add NFTs in identity-sorted
    /// order: the volume fields are f64 sums, and floating-point addition is
    /// order-sensitive, so the accumulation order must be a property of the
    /// data, never of ingest order.
    pub fn add(&mut self, key: NftKey, leaves: &NftMarketLeaves) {
        for leaf in &leaves.leaves {
            let accumulator =
                self.per_market[leaf.market.index()].get_or_insert_with(|| MarketAccumulator {
                    nfts: BitSet::new(),
                    transactions: BitSet::new(),
                    volume_eth: 0.0,
                    volume_usd: 0.0,
                });
            accumulator.nfts.insert(key.index());
            if accumulator.transactions.insert(leaf.tx.index()) {
                accumulator.volume_eth += leaf.eth;
                accumulator.volume_usd += leaf.usd;
            }
        }
    }

    /// Resolve the fold into directory-named rows sorted by USD volume.
    pub fn rows(
        self,
        directory: &MarketplaceDirectory,
        interner: &Interner,
    ) -> Vec<MarketplaceVolume> {
        let mut rows: Vec<MarketplaceVolume> = directory
            .iter()
            .map(|info| {
                let accumulator = interner
                    .market_id(info.contract)
                    .and_then(|id| self.per_market[id.index()].as_ref());
                MarketplaceVolume {
                    name: info.name.clone(),
                    nfts: accumulator.map(|a| a.nfts.len()).unwrap_or(0),
                    transactions: accumulator.map(|a| a.transactions.len()).unwrap_or(0),
                    volume_eth: accumulator.map(|a| a.volume_eth).unwrap_or(0.0),
                    volume_usd: accumulator.map(|a| a.volume_usd).unwrap_or(0.0),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.volume_usd.total_cmp(&a.volume_usd));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethsim::{Selector, Timestamp, TxRequest};
    use labels::LabelRegistry;
    use marketplace::{presets, Marketplace};
    use tokens::TokenRegistry;

    fn build_world() -> (Chain, TokenRegistry, MarketplaceDirectory, Vec<Address>) {
        let mut chain = Chain::new(Timestamp::from_secs(1_640_995_200));
        let mut tokens = TokenRegistry::new();
        let mut labels = LabelRegistry::new();
        let mut directory = MarketplaceDirectory::new();
        let mut engines = Vec::new();
        for spec in [presets::opensea(), presets::looksrare()] {
            let engine = Marketplace::deploy(&mut chain, &mut tokens, &mut labels, spec).unwrap();
            directory.add(engine.info());
            engines.push(engine);
        }
        let genesis = chain.current_timestamp();
        let good = tokens.deploy_erc721(&mut chain, "good", "Good", true, genesis).unwrap();
        let rogue = tokens.deploy_erc721(&mut chain, "rogue", "Rogue", false, genesis).unwrap();
        let alice = chain.create_eoa("alice").unwrap();
        let bob = chain.create_eoa("bob").unwrap();
        chain.fund(alice, Wei::from_eth(50.0));
        chain.fund(bob, Wei::from_eth(50.0));
        // One block per transaction, so block ranges can slice between them.
        let next_block = |chain: &mut Chain| {
            chain.advance_to(chain.current_timestamp().plus_secs(13)).unwrap();
        };

        // Mint + marketplace sale on the compliant collection.
        let (nft, mint_log) = tokens.erc721_mut(good).unwrap().mint(alice);
        chain
            .submit(
                TxRequest::contract_call(
                    alice,
                    good,
                    Selector::of("mint(address)"),
                    Wei::ZERO,
                    90_000,
                    Wei::from_gwei(30),
                )
                .with_log(mint_log),
            )
            .unwrap();
        next_block(&mut chain);
        engines[0]
            .execute_sale(
                &mut chain,
                &mut tokens,
                alice,
                bob,
                nft,
                Wei::from_eth(2.0),
                Wei::from_gwei(30),
            )
            .unwrap();

        // A transfer on the rogue (non-compliant) collection.
        next_block(&mut chain);
        let (rogue_nft, rogue_mint) = tokens.erc721_mut(rogue).unwrap().mint(alice);
        chain
            .submit(
                TxRequest::contract_call(
                    alice,
                    rogue,
                    Selector::of("mint(address)"),
                    Wei::ZERO,
                    90_000,
                    Wei::from_gwei(30),
                )
                .with_log(rogue_mint),
            )
            .unwrap();
        let rogue_log =
            tokens.erc721_mut(rogue).unwrap().transfer(alice, bob, rogue_nft.token_id).unwrap();
        next_block(&mut chain);
        chain
            .submit(TxRequest {
                from: bob,
                to: Some(alice),
                value: Wei::from_eth(1.0),
                gas_used: 85_000,
                gas_price: Wei::from_gwei(30),
                input: vec![],
                logs: vec![rogue_log],
                internal_transfers: vec![],
            })
            .unwrap();

        (chain, tokens, directory, vec![good, rogue])
    }

    #[test]
    fn compliance_filter_excludes_rogue_contracts() {
        let (chain, _tokens, directory, contracts) = build_world();
        let dataset = Dataset::build(&chain, &directory);
        assert!(dataset.compliant_contracts.contains(&contracts[0]));
        assert!(dataset.non_compliant_contracts.contains(&contracts[1]));
        // Raw events include the rogue transfers; the dataset does not.
        assert_eq!(dataset.raw_transfer_events, 4);
        assert_eq!(dataset.nft_count(), 1);
        assert_eq!(dataset.transfer_count(), 2); // mint + sale of the good NFT
    }

    #[test]
    fn prices_and_marketplace_attribution() {
        let (chain, _tokens, directory, contracts) = build_world();
        let dataset = Dataset::build(&chain, &directory);
        let nft = NftId::new(contracts[0], 0);
        let transfers = dataset.transfers_of(nft);
        assert_eq!(transfers.len(), 2);
        // The mint is free and off-market.
        assert!(transfers[0].from.is_null());
        assert_eq!(transfers[0].price, Wei::ZERO);
        assert_eq!(transfers[0].marketplace, None);
        // The sale is on OpenSea at 2 ETH.
        assert_eq!(transfers[1].price, Wei::from_eth(2.0));
        let opensea = directory.by_name("OpenSea").unwrap().contract;
        assert_eq!(transfers[1].marketplace, Some(opensea));
        assert!(transfers[1].timestamp >= transfers[0].timestamp);
        // The interner learned the marketplace and both endpoints.
        assert!(dataset.interner.market_id(opensea).is_some());
        assert!(dataset.interner.account_id(Address::derived("alice")).is_some());
    }

    #[test]
    fn marketplace_volumes_report_table1_rows() {
        let (chain, _tokens, directory, _) = build_world();
        let dataset = Dataset::build(&chain, &directory);
        let oracle = PriceOracle::paper_presets(Timestamp::from_secs(1_640_995_200), 30, 1);
        let rows = dataset.marketplace_volumes(&directory, &oracle);
        assert_eq!(rows.len(), 2);
        let opensea = rows.iter().find(|r| r.name == "OpenSea").unwrap();
        assert_eq!(opensea.nfts, 1);
        assert_eq!(opensea.transactions, 1);
        assert!((opensea.volume_eth - 2.0).abs() < 1e-9);
        assert!(opensea.volume_usd > 0.0);
        let looksrare = rows.iter().find(|r| r.name == "LooksRare").unwrap();
        assert_eq!(looksrare.transactions, 0);
    }

    #[test]
    fn token_ids_beyond_u64_do_not_alias_a_small_token() {
        let mut chain = Chain::new(Timestamp::from_secs(1_640_995_200));
        let mut tokens = TokenRegistry::new();
        let genesis = chain.current_timestamp();
        let collection = tokens.deploy_erc721(&mut chain, "wide", "Wide", true, genesis).unwrap();
        let alice = chain.create_eoa("alice").unwrap();
        let bob = chain.create_eoa("bob").unwrap();
        chain.fund(alice, Wei::from_eth(5.0));
        let small = ethsim::Log::erc721_transfer(collection, Address::NULL, alice, 5);
        let mut wide = ethsim::Log::erc721_transfer(collection, alice, bob, 5);
        wide.topics[3] = ethsim::B256::from_u128((1u128 << 64) + 5);
        for log in [small, wide] {
            let call = Selector::of("transferFrom(address,address,uint256)");
            let gas_price = Wei::from_gwei(30);
            let request =
                TxRequest::contract_call(alice, collection, call, Wei::ZERO, 90_000, gas_price);
            chain.submit(request.with_log(log)).unwrap();
        }
        let dataset = Dataset::build(&chain, &MarketplaceDirectory::new());
        assert_eq!(dataset.raw_transfer_events, 2);
        assert_eq!(dataset.nft_count(), 1);
        assert_eq!(dataset.transfers_of(NftId::new(collection, 5)).len(), 1);
    }

    #[test]
    fn padded_address_topics_count_as_raw_events_but_yield_no_transfer() {
        let mut chain = Chain::new(Timestamp::from_secs(1_640_995_200));
        let mut tokens = TokenRegistry::new();
        let genesis = chain.current_timestamp();
        let collection = tokens.deploy_erc721(&mut chain, "pad", "Pad", true, genesis).unwrap();
        let alice = chain.create_eoa("alice").unwrap();
        chain.fund(alice, Wei::from_eth(5.0));
        let mint = ethsim::Log::erc721_transfer(collection, Address::NULL, alice, 5);
        // `Transfer(X', X, 5)` with X' = 0xff…ff‖X: the low 20 bytes of the
        // `from` topic spell alice, so a decoder ignoring the padding reads
        // alice → alice, a self-loop.
        let mut padded = ethsim::Log::erc721_transfer(collection, alice, alice, 5);
        padded.topics[1].0[..12].fill(0xff);
        for log in [mint, padded] {
            let call = Selector::of("transferFrom(address,address,uint256)");
            let gas_price = Wei::from_gwei(30);
            let request =
                TxRequest::contract_call(alice, collection, call, Wei::ZERO, 90_000, gas_price);
            chain.submit(request.with_log(log)).unwrap();
        }
        let dataset = Dataset::build(&chain, &MarketplaceDirectory::new());
        assert_eq!(dataset.raw_transfer_events, 2);
        assert_eq!(dataset.transfer_count(), 1);
        assert_eq!(dataset.transfers_of(NftId::new(collection, 5))[0].from, Address::NULL);
    }

    #[test]
    fn accounts_cover_all_transfer_parties_in_sorted_order() {
        let (chain, _tokens, directory, _) = build_world();
        let dataset = Dataset::build(&chain, &directory);
        let accounts = dataset.accounts();
        assert!(accounts.contains(&Address::derived("alice")));
        assert!(accounts.contains(&Address::derived("bob")));
        assert!(accounts.contains(&Address::NULL));
        assert!(accounts.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
    }

    #[test]
    fn incremental_application_matches_one_shot_build() {
        let (chain, _tokens, directory, _) = build_world();
        let batch = Dataset::build(&chain, &directory);
        // Replay the same logs in two block ranges, cut where half of them
        // have been seen.
        let entries = chain.logs(&Dataset::transfer_filter());
        let split = entries.len() / 2;
        let cut = entries[split].block;
        assert!(entries[split - 1].block < cut, "the cut falls between blocks");
        let executor = Executor::new(1);
        let mut incremental = Dataset::default();
        let before = BlockNumber(cut.0 - 1);
        let tip = chain.current_block_number();
        let first =
            incremental.ingest_blocks(&chain, &directory, BlockNumber(0), before, &executor);
        let second = incremental.ingest_blocks(&chain, &directory, cut, tip, &executor);
        assert_eq!(incremental.raw_transfer_events, entries.len());
        assert_eq!(first.appended, 2, "the good collection's mint and sale");
        assert_eq!(first.appended + second.appended, batch.transfer_count());
        assert!(first.dirty.windows(2).all(|w| w[0] < w[1]));
        // Columns, id assignment and verdicts are all identical: the interner
        // is stream-stable under any epoch slicing.
        assert_eq!(incremental, batch);
    }
}
