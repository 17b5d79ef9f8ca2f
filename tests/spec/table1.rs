//! Table I (§III): for each marketplace, the NFTs traded there, its sale
//! transactions and its traded volume in ETH and USD, each transaction
//! counted once.

use std::collections::{BTreeMap, BTreeSet};

use ethsim::{Address, Chain, Selector, Timestamp, TxHash, TxRequest, Wei};
use labels::LabelRegistry;
use marketplace::{presets, Marketplace, MarketplaceDirectory};
use oracle::PriceOracle;
use tokens::{NftId, TokenRegistry};
use washtrade::dataset::{Dataset, MarketplaceVolume, NftTransfer};
use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions};
use workload::{WorkloadConfig, World};

/// One marketplace's Table I entry as the paper defines it.
#[derive(Debug, Default)]
struct SpecMarket {
    /// Every NFT with a transfer attributed to the marketplace.
    nfts: BTreeSet<NftId>,
    /// Every sale transaction once, with the price and timestamp of its
    /// first transfer in chain order.
    transactions: BTreeMap<TxHash, (Wei, Timestamp)>,
}

/// Every resolved transfer in chain order: the store appends transfers in
/// execution order.
fn resolved_transfers(dataset: &Dataset) -> Vec<NftTransfer> {
    (0..dataset.columns.len() as u32)
        .map(|row| dataset.columns.resolve(row, &dataset.interner))
        .collect()
}

/// Table I from its definition, keyed by marketplace address.
fn spec_table1(transfers: &[NftTransfer]) -> BTreeMap<Address, SpecMarket> {
    let mut markets: BTreeMap<Address, SpecMarket> = BTreeMap::new();
    for transfer in transfers {
        let Some(market) = transfer.marketplace else {
            continue;
        };
        let entry = markets.entry(market).or_default();
        entry.nfts.insert(transfer.nft);
        entry.transactions.entry(transfer.tx_hash).or_insert((transfer.price, transfer.timestamp));
    }
    markets
}

/// Compensated (Neumaier) summation: the reference each production volume,
/// a plain f64 fold in chain order, is held to.
fn neumaier_sum(values: &[f64]) -> f64 {
    let (mut sum, mut compensation) = (0.0f64, 0.0f64);
    for &x in values {
        let next = sum + x;
        compensation += if sum.abs() >= x.abs() { (sum - next) + x } else { (x - next) + sum };
        sum = next;
    }
    sum + compensation
}

/// Assert `actual` lies within `(n+1)·2⁻⁵³·Σ|x|` of the compensated sum of
/// `summands`: the error bound of any recursive summation order, plus the
/// reference's own rounding.
fn assert_volume(actual: f64, summands: &[f64], what: &str) {
    let reference = neumaier_sum(summands);
    let magnitude: f64 = summands.iter().map(|x| x.abs()).sum();
    let bound = (summands.len() + 1) as f64 * f64::EPSILON / 2.0 * magnitude;
    assert!(
        (actual - reference).abs() <= bound,
        "{what}: {actual} is {} from the reference {reference}, bound {bound}",
        (actual - reference).abs()
    );
}

/// Check production Table I rows against the specification of `dataset`.
fn check_table1(
    rows: &[MarketplaceVolume],
    dataset: &Dataset,
    directory: &MarketplaceDirectory,
    oracle: &PriceOracle,
) {
    let spec = spec_table1(&resolved_transfers(dataset));
    for market in spec.keys() {
        assert!(directory.by_contract(*market).is_some(), "{market:?} is a directory venue");
    }
    assert_eq!(rows.len(), directory.iter().count(), "one row per directory venue");
    let empty = SpecMarket::default();
    for info in directory.iter() {
        let expected = spec.get(&info.contract).unwrap_or(&empty);
        let row = rows.iter().find(|row| row.name == info.name).expect("a row per venue");
        assert_eq!(row.nfts, expected.nfts.len(), "{} NFTs", info.name);
        assert_eq!(row.transactions, expected.transactions.len(), "{} transactions", info.name);
        let eth: Vec<f64> =
            expected.transactions.values().map(|(price, _)| price.to_eth()).collect();
        let usd: Vec<f64> = expected
            .transactions
            .values()
            .map(|&(price, at)| oracle.wei_to_usd(price, at).unwrap_or(0.0))
            .collect();
        assert_volume(row.volume_eth, &eth, &format!("{} volume_eth", info.name));
        assert_volume(row.volume_usd, &usd, &format!("{} volume_usd", info.name));
    }
}

#[test]
fn table1_matches_the_definition_on_small_worlds() {
    for seed in [1, 7, 23, 2024] {
        let world = World::generate(WorkloadConfig::small(seed)).expect("world");
        let input = AnalysisInput {
            chain: &world.chain,
            labels: &world.labels,
            directory: &world.directory,
            oracle: &world.oracle,
        };
        let report = analyze_with(input, AnalysisOptions::default());
        let dataset = Dataset::build(&world.chain, &world.directory);
        assert!(report.table1.iter().any(|row| row.transactions > 0), "seed {seed} trades");
        check_table1(&report.table1, &dataset, &world.directory, &world.oracle);
    }
}

#[test]
fn table1_counts_a_two_nft_sale_once() {
    let start = Timestamp::from_secs(1_640_995_200);
    let mut chain = Chain::new(start);
    let mut tokens = TokenRegistry::new();
    let mut labels = LabelRegistry::new();
    let mut directory = MarketplaceDirectory::new();
    let opensea =
        Marketplace::deploy(&mut chain, &mut tokens, &mut labels, presets::opensea()).unwrap();
    directory.add(opensea.info());
    let venue = opensea.info().contract;
    let collection = tokens.deploy_erc721(&mut chain, "pair", "Pair", true, start).unwrap();
    let seller = chain.create_eoa("seller").unwrap();
    let buyer = chain.create_eoa("buyer").unwrap();
    chain.fund(seller, Wei::from_eth(5.0));
    chain.fund(buyer, Wei::from_eth(50.0));
    let gas_price = Wei::from_gwei(30);
    let call = |from, to, value, logs: Vec<ethsim::Log>| {
        TxRequest::contract_call(from, to, Selector::of("call()"), value, 90_000, gas_price)
            .with_logs(logs)
    };
    // Mint tokens 9 and 1 to the seller, then sell both in one marketplace
    // transaction, token 9's log first, and token 1 alone afterwards.
    let mints = vec![
        ethsim::Log::erc721_transfer(collection, Address::NULL, seller, 9),
        ethsim::Log::erc721_transfer(collection, Address::NULL, seller, 1),
    ];
    chain.submit(call(seller, collection, Wei::ZERO, mints)).unwrap();
    chain.advance_to(chain.current_timestamp().plus_secs(13)).unwrap();
    let pair = vec![
        ethsim::Log::erc721_transfer(collection, seller, buyer, 9),
        ethsim::Log::erc721_transfer(collection, seller, buyer, 1),
    ];
    chain.submit(call(buyer, venue, Wei::from_eth(3.0), pair)).unwrap();
    chain.advance_to(chain.current_timestamp().plus_secs(13)).unwrap();
    let back = vec![ethsim::Log::erc721_transfer(collection, buyer, seller, 1)];
    chain.submit(call(seller, venue, Wei::from_eth(2.0), back)).unwrap();

    let oracle = PriceOracle::paper_presets(start, 30, 1);
    let dataset = Dataset::build(&chain, &directory);
    assert_eq!(dataset.transfer_count(), 5, "two mints, the pair sale, one resale");
    let rows = dataset.marketplace_volumes(&directory, &oracle);
    check_table1(&rows, &dataset, &directory, &oracle);
    let row = rows.iter().find(|row| row.name == "OpenSea").unwrap();
    assert_eq!((row.nfts, row.transactions), (2, 2));
    assert_eq!(row.volume_eth, 5.0, "the pair sale's 3 ETH once, plus the 2 ETH resale");
}
