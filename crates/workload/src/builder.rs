//! The world builder: executes a [`WorkloadConfig`] into a fully populated
//! chain with marketplaces, tokens, background activity and planted
//! wash-trading scenarios, returning the [`World`] plus ground truth.

use std::collections::HashMap;

use ethsim::{Address, Chain, ChainError, Selector, Timestamp, TxRequest, Wei};
use labels::{LabelCategory, LabelRegistry};
use marketplace::{presets, MarketError, Marketplace, MarketplaceDirectory};
use oracle::PriceOracle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tokens::{NftId, TokenError, TokenRegistry};

use crate::config::WorkloadConfig;
use crate::scenario::{
    ExitEvidence, FundingEvidence, ScenarioSampler, Venue, WashGoal, WashScenarioSpec,
};
use crate::truth::WashActivityTruth;
use crate::world::World;

/// Gas used by a direct (non-marketplace) NFT transfer.
const DIRECT_TRANSFER_GAS: u64 = 85_000;
/// Gas used by a mint transaction.
const MINT_GAS: u64 = 90_000;
/// Seconds advanced between consecutive events inside a day.
const EVENT_SPACING_SECS: u64 = 180;

/// Errors produced while building a world.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A chain operation failed.
    Chain(ChainError),
    /// A token operation failed.
    Token(TokenError),
    /// A marketplace operation failed.
    Market(MarketError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Chain(e) => write!(f, "chain error while building world: {e}"),
            BuildError::Token(e) => write!(f, "token error while building world: {e}"),
            BuildError::Market(e) => write!(f, "marketplace error while building world: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ChainError> for BuildError {
    fn from(e: ChainError) -> Self {
        BuildError::Chain(e)
    }
}
impl From<TokenError> for BuildError {
    fn from(e: TokenError) -> Self {
        BuildError::Token(e)
    }
}
impl From<MarketError> for BuildError {
    fn from(e: MarketError) -> Self {
        BuildError::Market(e)
    }
}

/// One scheduled event in the global timeline.
#[derive(Debug, Clone)]
enum Event {
    SeedCollection { collection_index: usize },
    NoncompliantActivity { index: usize },
    Erc1155Activity { index: usize },
    DexMint { index: usize },
    LegitSale { index: usize },
    Shuffle { index: usize },
    ScenarioFunding { scenario: usize },
    ScenarioAcquire { scenario: usize },
    ScenarioTrade { scenario: usize, step: usize },
    ScenarioResale { scenario: usize },
    ScenarioClaim { scenario: usize },
    ScenarioExit { scenario: usize },
}

/// Mutable per-scenario execution state.
#[derive(Debug, Clone)]
struct ScenarioRuntime {
    spec: WashScenarioSpec,
    accounts: Vec<Address>,
    prices: Vec<Wei>,
    nft: Option<NftId>,
    first_trade: Option<Timestamp>,
    last_trade: Option<Timestamp>,
    wash_volume: Wei,
    trade_hashes: Vec<ethsim::TxHash>,
    acquisition_price: Wei,
    acquired_at: Option<Timestamp>,
    resale_price: Option<Wei>,
    claim_hashes: Vec<ethsim::TxHash>,
    claimed_tokens: u128,
    gas_fees: Wei,
    marketplace_fees: Wei,
    collection: Address,
    collection_created_day: u64,
}

/// Builds a [`World`] from a [`WorkloadConfig`].
pub struct WorldBuilder {
    config: WorkloadConfig,
}

struct CollectionMeta {
    address: Address,
    created_day: u64,
}

impl WorldBuilder {
    /// Create a builder for the given configuration.
    pub fn new(config: WorkloadConfig) -> Self {
        WorldBuilder { config }
    }

    /// Execute the configuration into a fully populated world.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if any underlying chain, token or marketplace
    /// operation fails; with a well-formed configuration this indicates a bug
    /// in the builder rather than bad input.
    pub fn build(self) -> Result<World, BuildError> {
        Runner::new(self.config)?.run()
    }
}

struct Runner {
    config: WorkloadConfig,
    rng: ChaCha8Rng,
    chain: Chain,
    tokens: TokenRegistry,
    labels: LabelRegistry,
    oracle: PriceOracle,
    engines: HashMap<String, Marketplace>,
    directory: MarketplaceDirectory,
    collections: Vec<CollectionMeta>,
    noncompliant: Vec<Address>,
    erc1155: Vec<Address>,
    dex_collection: Address,
    legit_traders: Vec<Address>,
    legit_owned: Vec<(NftId, Address)>,
    exchanges: Vec<Address>,
    scenarios: Vec<ScenarioRuntime>,
    gas_price: Wei,
}

impl Runner {
    fn new(config: WorkloadConfig) -> Result<Self, BuildError> {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut chain = Chain::new(config.start);
        let mut tokens = TokenRegistry::new();
        let mut labels = LabelRegistry::new();
        let oracle = PriceOracle::paper_presets(
            config.start,
            config.duration_days as usize + 90,
            config.seed,
        );
        let gas_price = Wei::from_gwei(config.gas_price_gwei);

        // Marketplaces.
        let mut engines = HashMap::new();
        let mut directory = MarketplaceDirectory::new();
        for spec in presets::all() {
            let name = spec.name.clone();
            let engine = Marketplace::deploy(&mut chain, &mut tokens, &mut labels, spec)?;
            directory.add(engine.info());
            engines.insert(name, engine);
        }

        // Service accounts: exchanges, CeFi, game operator, DeFi router.
        let mut exchanges = Vec::new();
        for name in ["Coinbase", "Binance"] {
            let address = chain.create_eoa(&format!("exchange-{name}"))?;
            chain.fund(address, Wei::from_eth(5_000_000.0));
            labels.insert(address, name, LabelCategory::Exchange);
            exchanges.push(address);
        }
        let cefi = chain.create_eoa("cefi-custody")?;
        chain.fund(cefi, Wei::from_eth(100_000.0));
        labels.insert(cefi, "Nexo Custody", LabelCategory::CeFi);
        let game = chain.create_eoa("game-operator")?;
        chain.fund(game, Wei::from_eth(10_000.0));
        labels.insert(game, "EthermonGame", LabelCategory::Game);
        let defi_router = chain.deploy_contract(
            "uniswap-router",
            tokens::compliance::generic_contract_bytecode(0xde),
        )?;
        labels.insert(defi_router, "Uniswap V3: Router", LabelCategory::DeFi);

        // Collections. Creation days are spread over the first 60% of the
        // period; the activity near a collection's launch clusters after it
        // (Fig. 5).
        let mut collections = Vec::with_capacity(config.collections);
        for i in 0..config.collections {
            let created_day = rng.gen_range(0..(config.duration_days * 6 / 10).max(1));
            let address = tokens.deploy_erc721(
                &mut chain,
                &format!("collection-{i}"),
                &format!("Collection {i}"),
                true,
                config.start.plus_days(created_day),
            )?;
            collections.push(CollectionMeta { address, created_day });
        }
        let mut noncompliant = Vec::new();
        for i in 0..config.non_compliant_collections {
            let created_day = rng.gen_range(0..(config.duration_days / 2).max(1));
            let address = tokens.deploy_erc721(
                &mut chain,
                &format!("rogue-collection-{i}"),
                &format!("Rogue {i}"),
                false,
                config.start.plus_days(created_day),
            )?;
            noncompliant.push(address);
        }
        let mut erc1155 = Vec::new();
        for i in 0..config.erc1155_collections {
            erc1155.push(tokens.deploy_erc1155(
                &mut chain,
                &format!("erc1155-{i}"),
                &format!("MultiToken {i}"),
            )?);
        }
        // DEX position NFTs (UniswapV3-like noise). ERC-721 compliant, as on
        // the real chain, but never wash traded.
        let dex_collection = tokens.deploy_erc721(
            &mut chain,
            "uniswap-v3-positions",
            "Uniswap V3 Positions",
            true,
            config.start,
        )?;
        labels.insert(dex_collection, "Uniswap V3: Positions NFT", LabelCategory::DeFi);

        // Ordinary traders.
        let mut legit_traders = Vec::with_capacity(config.legit_traders);
        for i in 0..config.legit_traders {
            let address = chain.create_eoa(&format!("legit-trader-{i}"))?;
            chain.fund(address, Wei::from_eth(300.0));
            legit_traders.push(address);
        }

        // Wash scenarios.
        let sampler = ScenarioSampler {
            collections: collections.len(),
            trader_pool: (config.wash_activities * 2).max(8),
            serial_fraction: config.serial_trader_fraction,
            duration_days: config.duration_days,
        };
        let mut specs = sampler.sample_many(&mut rng, config.wash_activities);
        // Cluster activities shortly after their collection's creation (Fig. 5).
        for spec in &mut specs {
            let created = collections[spec.collection_index].created_day;
            let uniform: f64 = rng.gen_range(0.0f64..1.0);
            let lag = (-(1.0 - uniform).ln() * 20.0).round() as u64;
            let latest =
                config.duration_days.saturating_sub(spec.lifetime_days + 20).max(created + 1);
            spec.start_day = (created + 1 + lag).min(latest);
        }
        let scenarios = specs
            .into_iter()
            .map(|spec| {
                let collection = collections[spec.collection_index].address;
                let collection_created_day = collections[spec.collection_index].created_day;
                let walk_len = spec.pattern.walk().len() - 1;
                let steps = spec.trades.max(walk_len);
                let mut prices = Vec::with_capacity(steps);
                let mut price = Wei::from_eth(spec.base_price_eth);
                for _ in 0..steps {
                    prices.push(price);
                    if spec.escalate_prices {
                        price = Wei::new(price.raw() / 100 * 118);
                    }
                }
                ScenarioRuntime {
                    accounts: Vec::new(),
                    prices,
                    nft: None,
                    first_trade: None,
                    last_trade: None,
                    wash_volume: Wei::ZERO,
                    trade_hashes: Vec::new(),
                    acquisition_price: Wei::ZERO,
                    acquired_at: None,
                    resale_price: None,
                    claim_hashes: Vec::new(),
                    claimed_tokens: 0,
                    gas_fees: Wei::ZERO,
                    marketplace_fees: Wei::ZERO,
                    collection,
                    collection_created_day,
                    spec,
                }
            })
            .collect();

        Ok(Runner {
            config,
            rng,
            chain,
            tokens,
            labels,
            oracle,
            engines,
            directory,
            collections,
            noncompliant,
            erc1155,
            dex_collection,
            legit_traders,
            legit_owned: Vec::new(),
            exchanges,
            scenarios,
            gas_price,
        })
    }

    fn run(mut self) -> Result<World, BuildError> {
        let events = self.schedule();
        let mut current_day = 0u64;
        for (day, _, event) in events {
            while current_day < day {
                self.accrue_day(current_day);
                current_day += 1;
            }
            let day_start = self.config.start.plus_days(day);
            let next = std::cmp::max(
                self.chain.current_timestamp().plus_secs(EVENT_SPACING_SECS),
                day_start,
            );
            self.chain.advance_to(next)?;
            self.execute(event)?;
        }
        // Close out the remaining days so late rewards accrue.
        for day in current_day..=self.config.duration_days {
            self.accrue_day(day);
        }

        let truth = self.scenarios.iter().map(|s| self.truth_of(s)).collect();
        Ok(World {
            config: self.config,
            chain: self.chain,
            tokens: self.tokens,
            labels: self.labels,
            oracle: self.oracle,
            directory: self.directory,
            marketplaces: self.engines,
            collections: self.collections.iter().map(|c| c.address).collect(),
            truth,
        })
    }

    fn accrue_day(&mut self, day_offset: u64) {
        let absolute_day = self.config.start.plus_days(day_offset).day();
        for engine in self.engines.values_mut() {
            engine.accrue_rewards_for_day(absolute_day);
        }
    }

    /// Build the global `(day, sequence, event)` timeline.
    fn schedule(&mut self) -> Vec<(u64, u32, Event)> {
        let mut events: Vec<(u64, u32, Event)> = Vec::new();
        let mut sequence = 0u32;
        let mut push = |events: &mut Vec<(u64, u32, Event)>, day: u64, event: Event| {
            events.push((day, sequence, event));
            sequence += 1;
        };

        for (index, collection) in self.collections.iter().enumerate() {
            push(
                &mut events,
                collection.created_day,
                Event::SeedCollection { collection_index: index },
            );
        }
        for index in 0..self.noncompliant.len() {
            let day = self.rng.gen_range(1..self.config.duration_days.max(2));
            push(&mut events, day, Event::NoncompliantActivity { index });
        }
        for index in 0..self.erc1155.len() {
            let day = self.rng.gen_range(1..self.config.duration_days.max(2));
            push(&mut events, day, Event::Erc1155Activity { index });
        }
        for index in 0..self.config.dex_position_nfts {
            let day = self.rng.gen_range(0..self.config.duration_days.max(1));
            push(&mut events, day, Event::DexMint { index });
        }
        for index in 0..self.config.legit_sales {
            let day = self.rng.gen_range(1..self.config.duration_days.max(2));
            push(&mut events, day, Event::LegitSale { index });
        }
        for index in 0..self.config.zero_volume_shuffles {
            let day = self.rng.gen_range(1..self.config.duration_days.max(2));
            push(&mut events, day, Event::Shuffle { index });
        }

        for (index, runtime) in self.scenarios.iter().enumerate() {
            let spec = &runtime.spec;
            let start = spec.start_day;
            let acquire_lead = if spec.acquire_externally {
                // §V-B: 39% bought the same day, 75% within 14 days.
                [0u64, 0, 1, 2, 3, 5, 8, 12, 20][self.rng.gen_range(0..9)]
            } else {
                0
            };
            // Funding must precede the acquisition (the first colluder pays for
            // the NFT out of the planted funds), which precedes the trades.
            let acquire_day = start.saturating_sub(acquire_lead);
            let funding_day = acquire_day.saturating_sub(1);
            push(&mut events, funding_day, Event::ScenarioFunding { scenario: index });
            push(&mut events, acquire_day, Event::ScenarioAcquire { scenario: index });
            let steps = runtime.prices.len();
            for step in 0..steps {
                let day = if steps <= 1 || spec.lifetime_days == 0 {
                    start
                } else {
                    start + (spec.lifetime_days * step as u64) / (steps as u64 - 1)
                };
                push(&mut events, day, Event::ScenarioTrade { scenario: index, step });
            }
            let last_day = start + spec.lifetime_days;
            if matches!(spec.goal, WashGoal::Resale { resale_price_eth: Some(_) }) {
                let lag = [0u64, 0, 1, 3, 7, 14, 25][self.rng.gen_range(0..7)];
                push(&mut events, last_day + lag, Event::ScenarioResale { scenario: index });
            }
            if matches!(spec.goal, WashGoal::RewardExploit { claims: true }) {
                push(&mut events, last_day + 1, Event::ScenarioClaim { scenario: index });
            }
            if spec.exit != ExitEvidence::None {
                push(&mut events, last_day + 2, Event::ScenarioExit { scenario: index });
            }
        }

        events.sort_by_key(|(day, seq, _)| (*day, *seq));
        events
    }

    fn execute(&mut self, event: Event) -> Result<(), BuildError> {
        match event {
            Event::SeedCollection { collection_index } => self.seed_collection(collection_index),
            Event::NoncompliantActivity { index } => self.noncompliant_activity(index),
            Event::Erc1155Activity { index } => self.erc1155_activity(index),
            Event::DexMint { index } => self.dex_mint(index),
            Event::LegitSale { index } => self.legit_sale(index),
            Event::Shuffle { index } => self.shuffle(index),
            Event::ScenarioFunding { scenario } => self.scenario_funding(scenario),
            Event::ScenarioAcquire { scenario } => self.scenario_acquire(scenario),
            Event::ScenarioTrade { scenario, step } => self.scenario_trade(scenario, step),
            Event::ScenarioResale { scenario } => self.scenario_resale(scenario),
            Event::ScenarioClaim { scenario } => self.scenario_claim(scenario),
            Event::ScenarioExit { scenario } => self.scenario_exit(scenario),
        }
    }

    // ------------------------------------------------------------------
    // Low-level helpers
    // ------------------------------------------------------------------

    fn ensure_account(&mut self, seed: &str, min_balance: Wei) -> Result<Address, BuildError> {
        let address = Address::derived(seed);
        if !self.chain.has_account(address) {
            self.chain.register_eoa(address)?;
        }
        if self.chain.balance(address) < min_balance {
            let top_up = min_balance - self.chain.balance(address);
            self.chain.fund(address, top_up);
        }
        Ok(address)
    }

    fn mint_nft(&mut self, collection: Address, to: Address) -> Result<NftId, BuildError> {
        let (nft, log) = self
            .tokens
            .erc721_mut(collection)
            .ok_or(TokenError::UnknownContract(collection))?
            .mint(to);
        let request = TxRequest::contract_call(
            to,
            collection,
            Selector::of("mint(address)"),
            Wei::ZERO,
            MINT_GAS,
            self.gas_price,
        )
        .with_log(log);
        self.chain.submit(request)?;
        Ok(nft)
    }

    /// A direct, off-marketplace sale: the buyer pays the seller in the same
    /// transaction that carries the ERC-721 transfer log. A zero price models
    /// a plain ownership transfer.
    fn direct_sale(
        &mut self,
        nft: NftId,
        seller: Address,
        buyer: Address,
        price: Wei,
    ) -> Result<ethsim::TxHash, BuildError> {
        let log = self
            .tokens
            .erc721_mut(nft.contract)
            .ok_or(TokenError::UnknownContract(nft.contract))?
            .transfer(seller, buyer, nft.token_id)?;
        let request = TxRequest {
            from: buyer,
            to: Some(seller),
            value: price,
            gas_used: DIRECT_TRANSFER_GAS,
            gas_price: self.gas_price,
            input: Vec::new(),
            logs: vec![log],
            internal_transfers: Vec::new(),
        };
        Ok(self.chain.submit(request)?)
    }

    /// A zero-payment ownership transfer sent to the NFT contract itself
    /// (`transferFrom`-style), as wash traders moving assets between their
    /// own wallets do.
    fn free_transfer(
        &mut self,
        nft: NftId,
        from: Address,
        to: Address,
    ) -> Result<ethsim::TxHash, BuildError> {
        let log = self
            .tokens
            .erc721_mut(nft.contract)
            .ok_or(TokenError::UnknownContract(nft.contract))?
            .transfer(from, to, nft.token_id)?;
        let request = TxRequest::contract_call(
            from,
            nft.contract,
            Selector::of("transferFrom(address,address,uint256)"),
            Wei::ZERO,
            DIRECT_TRANSFER_GAS,
            self.gas_price,
        )
        .with_log(log);
        Ok(self.chain.submit(request)?)
    }

    fn marketplace_sale(
        &mut self,
        venue: Venue,
        nft: NftId,
        seller: Address,
        buyer: Address,
        price: Wei,
    ) -> Result<marketplace::SaleReceipt, BuildError> {
        let name = venue.marketplace_name().expect("marketplace venue");
        let engine = self.engines.get_mut(name).expect("all presets deployed");
        Ok(engine.execute_sale(
            &mut self.chain,
            &mut self.tokens,
            seller,
            buyer,
            nft,
            price,
            self.gas_price,
        )?)
    }

    // ------------------------------------------------------------------
    // Background activity
    // ------------------------------------------------------------------

    fn seed_collection(&mut self, collection_index: usize) -> Result<(), BuildError> {
        let collection = self.collections[collection_index].address;
        let mints = self.rng.gen_range(3..=6);
        for _ in 0..mints {
            let owner = self.legit_traders[self.rng.gen_range(0..self.legit_traders.len())];
            let nft = self.mint_nft(collection, owner)?;
            self.legit_owned.push((nft, owner));
        }
        Ok(())
    }

    fn noncompliant_activity(&mut self, index: usize) -> Result<(), BuildError> {
        let contract = self.noncompliant[index];
        let a = self.ensure_account(&format!("rogue-user-{index}-a"), Wei::from_eth(5.0))?;
        let b = self.ensure_account(&format!("rogue-user-{index}-b"), Wei::from_eth(5.0))?;
        let nft = self.mint_nft(contract, a)?;
        // Even a suspicious-looking round trip on a non-compliant contract
        // must be excluded by the compliance filter.
        self.direct_sale(nft, a, b, Wei::from_eth(1.0))?;
        self.direct_sale(nft, b, a, Wei::from_eth(1.0))?;
        Ok(())
    }

    fn erc1155_activity(&mut self, index: usize) -> Result<(), BuildError> {
        let contract = self.erc1155[index];
        let operator = self.ensure_account(&format!("erc1155-user-{index}"), Wei::from_eth(2.0))?;
        let friend = self.ensure_account(&format!("erc1155-friend-{index}"), Wei::from_eth(2.0))?;
        let token =
            self.tokens.erc1155_mut(contract).ok_or(TokenError::UnknownContract(contract))?;
        let mint_log = token.mint(operator, operator, index as u64, 10);
        let transfer_log = token.transfer(operator, operator, friend, index as u64, 4)?;
        let request = TxRequest::contract_call(
            operator,
            contract,
            Selector::of("safeTransferFrom(address,address,uint256,uint256,bytes)"),
            Wei::ZERO,
            120_000,
            self.gas_price,
        )
        .with_logs([mint_log, transfer_log]);
        self.chain.submit(request)?;
        Ok(())
    }

    fn dex_mint(&mut self, index: usize) -> Result<(), BuildError> {
        let owner = self.legit_traders[index % self.legit_traders.len()];
        self.mint_nft(self.dex_collection, owner)?;
        Ok(())
    }

    fn legit_sale(&mut self, _index: usize) -> Result<(), BuildError> {
        if self.legit_owned.is_empty() {
            // Nothing minted yet: mint one to a random trader first.
            let collection =
                self.collections[self.rng.gen_range(0..self.collections.len())].address;
            let owner = self.legit_traders[self.rng.gen_range(0..self.legit_traders.len())];
            let nft = self.mint_nft(collection, owner)?;
            self.legit_owned.push((nft, owner));
        }
        let slot = self.rng.gen_range(0..self.legit_owned.len());
        let (nft, seller) = self.legit_owned[slot];
        let mut buyer = self.legit_traders[self.rng.gen_range(0..self.legit_traders.len())];
        if buyer == seller {
            buyer = self.legit_traders
                [(self.rng.gen_range(0..self.legit_traders.len()) + 1) % self.legit_traders.len()];
            if buyer == seller {
                return Ok(());
            }
        }
        // Venue mix of ordinary marketplace activity (Table I transaction
        // counts): OpenSea dominates, LooksRare is rare but high-value.
        let venue_draw: f64 = self.rng.gen_range(0.0..1.0);
        let (venue, price_eth) = if venue_draw < 0.955 {
            (Venue::OpenSea, self.rng.gen_range(0.05..3.0))
        } else if venue_draw < 0.984 {
            (Venue::Foundation, self.rng.gen_range(0.05..1.0))
        } else if venue_draw < 0.990 {
            (Venue::SuperRare, self.rng.gen_range(0.2..2.0))
        } else if venue_draw < 0.995 {
            (Venue::Rarible, self.rng.gen_range(0.05..2.0))
        } else if venue_draw < 0.998 {
            (Venue::Decentraland, self.rng.gen_range(0.3..3.0))
        } else {
            (Venue::LooksRare, self.rng.gen_range(5.0..60.0))
        };
        let price = Wei::from_eth(price_eth);
        // Make sure the buyer can pay.
        if self.chain.balance(buyer) < price.saturating_add(Wei::from_eth(1.0)) {
            self.chain.fund(buyer, price.saturating_add(Wei::from_eth(2.0)));
        }
        self.marketplace_sale(venue, nft, seller, buyer, price)?;
        self.legit_owned[slot] = (nft, buyer);
        Ok(())
    }

    fn shuffle(&mut self, index: usize) -> Result<(), BuildError> {
        // A clique of related wallets moving an NFT around for free: forms an
        // SCC but is dropped by the zero-volume refinement step.
        let size = self.rng.gen_range(2..=3);
        let mut members = Vec::with_capacity(size);
        for j in 0..size {
            members.push(self.ensure_account(&format!("shuffle-{index}-{j}"), Wei::from_eth(2.0))?);
        }
        let collection = self.collections[self.rng.gen_range(0..self.collections.len())].address;
        let nft = self.mint_nft(collection, members[0])?;
        for hop in 0..size {
            let from = members[hop % size];
            let to = members[(hop + 1) % size];
            self.free_transfer(nft, from, to)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Wash-trading scenarios
    // ------------------------------------------------------------------

    fn scenario_funding(&mut self, index: usize) -> Result<(), BuildError> {
        // Resolve accounts and work out how much each needs.
        let (seeds, funder, max_price, participants) = {
            let runtime = &self.scenarios[index];
            let max_price = runtime.prices.iter().copied().max().unwrap_or(Wei::ZERO);
            (
                runtime.spec.account_seeds.clone(),
                runtime.spec.funder,
                max_price,
                runtime.spec.participants(),
            )
        };
        let need = Wei::new(max_price.raw() / 100 * 130).saturating_add(Wei::from_eth(3.0));
        let mut accounts = Vec::with_capacity(participants);
        for seed in &seeds {
            let address = Address::derived(seed);
            if !self.chain.has_account(address) {
                self.chain.register_eoa(address)?;
            }
            accounts.push(address);
        }

        match funder {
            FundingEvidence::None => {
                for account in &accounts {
                    self.top_up(*account, need);
                }
            }
            FundingEvidence::Internal => {
                let leader = accounts[0];
                let total = Wei::new(need.raw() * accounts.len() as u128)
                    .saturating_add(Wei::from_eth(2.0));
                self.top_up(leader, total);
                let mut gas = Wei::ZERO;
                for account in accounts.iter().skip(1) {
                    let request = TxRequest::ether_transfer(leader, *account, need, self.gas_price);
                    gas += request.fee();
                    self.chain.submit(request)?;
                }
                self.scenarios[index].gas_fees += gas;
            }
            FundingEvidence::External => {
                let funder_account =
                    self.ensure_account(&format!("scenario-{index}-funder"), Wei::ZERO)?;
                let total = Wei::new(need.raw() * (accounts.len() as u128 + 1));
                self.chain.fund(funder_account, total);
                for account in &accounts {
                    self.chain.submit(TxRequest::ether_transfer(
                        funder_account,
                        *account,
                        need,
                        self.gas_price,
                    ))?;
                }
            }
            FundingEvidence::Exchange => {
                let exchange = self.exchanges[index % self.exchanges.len()];
                for account in &accounts {
                    self.chain.submit(TxRequest::ether_transfer(
                        exchange,
                        *account,
                        need,
                        self.gas_price,
                    ))?;
                }
            }
        }
        self.scenarios[index].accounts = accounts;
        Ok(())
    }

    fn scenario_acquire(&mut self, index: usize) -> Result<(), BuildError> {
        let (collection, first_account, acquire_externally, venue, base_price) = {
            let runtime = &self.scenarios[index];
            (
                runtime.collection,
                runtime.accounts[0],
                runtime.spec.acquire_externally,
                runtime.spec.venue,
                runtime.prices.first().copied().unwrap_or(Wei::from_eth(0.1)),
            )
        };
        let (nft, acquisition_price, gas) = if acquire_externally {
            let holder =
                self.ensure_account(&format!("scenario-{index}-holder"), Wei::from_eth(2.0))?;
            let nft = self.mint_nft(collection, holder)?;
            let price = Wei::new(base_price.raw() / 100 * 30).saturating_add(Wei::from_eth(0.01));
            // Serial wash traders share accounts across scenarios, so another
            // scenario's exit sweep may have drained this one between our
            // funding day and today; restore the float before buying.
            if self.chain.balance(first_account) < price.saturating_add(Wei::from_eth(1.0)) {
                self.top_up(first_account, price.saturating_add(Wei::from_eth(2.0)));
            }
            let gas = match venue.marketplace_name() {
                Some(_) => {
                    let receipt =
                        self.marketplace_sale(venue, nft, holder, first_account, price)?;
                    self.scenarios[index].marketplace_fees += receipt.fee;
                    receipt.gas_fee
                }
                None => {
                    self.direct_sale(nft, holder, first_account, price)?;
                    Wei::new(DIRECT_TRANSFER_GAS as u128 * self.gas_price.raw())
                }
            };
            (nft, price, gas)
        } else {
            let nft = self.mint_nft(collection, first_account)?;
            (nft, Wei::ZERO, Wei::new(MINT_GAS as u128 * self.gas_price.raw()))
        };
        let runtime = &mut self.scenarios[index];
        runtime.nft = Some(nft);
        runtime.acquisition_price = acquisition_price;
        runtime.acquired_at = Some(self.chain.current_timestamp());
        runtime.gas_fees += gas;
        Ok(())
    }

    fn scenario_trade(&mut self, index: usize, step: usize) -> Result<(), BuildError> {
        let (nft, venue, walk, price) = {
            let runtime = &self.scenarios[index];
            let walk = runtime.spec.pattern.walk();
            (
                runtime.nft.expect("acquire scheduled before trades"),
                runtime.spec.venue,
                walk,
                runtime.prices[step],
            )
        };
        let hop = step % (walk.len() - 1);
        let seller = self.scenarios[index].accounts[walk[hop]];
        let buyer = self.scenarios[index].accounts[walk[hop + 1]];
        // Top the buyer up if repeated large trades drained it (fees erode the
        // float each round trip).
        if self.chain.balance(buyer) < price.saturating_add(Wei::from_eth(1.0)) {
            self.top_up(buyer, price.saturating_add(Wei::from_eth(2.0)));
        }
        let (tx_hash, fee, gas) = match venue.marketplace_name() {
            Some(_) => {
                let receipt = self.marketplace_sale(venue, nft, seller, buyer, price)?;
                (receipt.tx_hash, receipt.fee, receipt.gas_fee)
            }
            None => {
                let hash = self.direct_sale(nft, seller, buyer, price)?;
                (hash, Wei::ZERO, Wei::new(DIRECT_TRANSFER_GAS as u128 * self.gas_price.raw()))
            }
        };
        let now = self.chain.current_timestamp();
        let runtime = &mut self.scenarios[index];
        runtime.first_trade.get_or_insert(now);
        runtime.last_trade = Some(now);
        runtime.wash_volume += price;
        runtime.trade_hashes.push(tx_hash);
        runtime.marketplace_fees += fee;
        runtime.gas_fees += gas;
        Ok(())
    }

    fn scenario_resale(&mut self, index: usize) -> Result<(), BuildError> {
        let (nft, venue, resale_price, owner) = {
            let runtime = &self.scenarios[index];
            let WashGoal::Resale { resale_price_eth: Some(price) } = runtime.spec.goal else {
                return Ok(());
            };
            let walk = runtime.spec.pattern.walk();
            (
                runtime.nft.expect("acquired"),
                runtime.spec.venue,
                Wei::from_eth(price),
                runtime.accounts[*walk.last().expect("non-empty walk")],
            )
        };
        let victim = self.ensure_account(
            &format!("scenario-{index}-victim"),
            resale_price.saturating_add(Wei::from_eth(2.0)),
        )?;
        match venue.marketplace_name() {
            Some(_) => {
                let receipt = self.marketplace_sale(venue, nft, owner, victim, resale_price)?;
                self.scenarios[index].marketplace_fees += receipt.fee;
            }
            None => {
                self.direct_sale(nft, owner, victim, resale_price)?;
            }
        }
        self.scenarios[index].resale_price = Some(resale_price);
        Ok(())
    }

    fn scenario_claim(&mut self, index: usize) -> Result<(), BuildError> {
        let (venue, accounts) = {
            let runtime = &self.scenarios[index];
            (runtime.spec.venue, runtime.accounts.clone())
        };
        let Some(name) = venue.marketplace_name() else {
            return Ok(());
        };
        let engine = self.engines.get_mut(name).expect("deployed");
        if engine.reward_distributor.is_none() {
            return Ok(());
        }
        let mut unique = accounts;
        unique.sort();
        unique.dedup();
        for account in unique {
            if engine.pending_reward(account) == 0 {
                continue;
            }
            let receipt =
                engine.claim_rewards(&mut self.chain, &mut self.tokens, account, self.gas_price)?;
            let runtime = &mut self.scenarios[index];
            runtime.claim_hashes.push(receipt.tx_hash);
            runtime.claimed_tokens += receipt.token_amount;
            runtime.gas_fees += Wei::new(marketplace::CLAIM_GAS as u128 * self.gas_price.raw());
        }
        Ok(())
    }

    fn scenario_exit(&mut self, index: usize) -> Result<(), BuildError> {
        let (exit, accounts) = {
            let runtime = &self.scenarios[index];
            (runtime.spec.exit, runtime.accounts.clone())
        };
        let mut unique = accounts.clone();
        unique.sort();
        unique.dedup();
        let target = match exit {
            ExitEvidence::None => return Ok(()),
            ExitEvidence::Internal => accounts[0],
            ExitEvidence::External => {
                self.ensure_account(&format!("scenario-{index}-exit"), Wei::ZERO)?
            }
        };
        let mut gas = Wei::ZERO;
        for account in unique {
            if account == target {
                continue;
            }
            let balance = self.chain.balance(account);
            let keepback = Wei::from_eth(0.5);
            if balance <= keepback {
                continue;
            }
            let request =
                TxRequest::ether_transfer(account, target, balance - keepback, self.gas_price);
            gas += request.fee();
            self.chain.submit(request)?;
        }
        self.scenarios[index].gas_fees += gas;
        Ok(())
    }

    fn top_up(&mut self, account: Address, target: Wei) {
        let balance = self.chain.balance(account);
        if balance < target {
            self.chain.fund(account, target - balance);
        }
    }

    fn truth_of(&self, runtime: &ScenarioRuntime) -> WashActivityTruth {
        let spec = &runtime.spec;
        let fallback = self.config.start.plus_days(spec.start_day);
        WashActivityTruth {
            id: spec.id,
            nft: runtime.nft.unwrap_or(NftId::new(runtime.collection, u64::MAX)),
            venue: spec.venue,
            marketplace_contract: spec
                .venue
                .marketplace_name()
                .and_then(|name| self.directory.by_name(name))
                .map(|info| info.contract),
            accounts: runtime.accounts.clone(),
            pattern: spec.pattern,
            funder: spec.funder,
            exit: spec.exit,
            zero_risk: spec.is_zero_risk(),
            goal: spec.goal,
            first_trade: runtime.first_trade.unwrap_or(fallback),
            last_trade: runtime.last_trade.unwrap_or(fallback),
            wash_volume: runtime.wash_volume,
            trade_tx_hashes: runtime.trade_hashes.clone(),
            acquisition_price: runtime.acquisition_price,
            acquired_at: runtime.acquired_at.unwrap_or(fallback),
            resale_price: runtime.resale_price,
            claim_tx_hashes: runtime.claim_hashes.clone(),
            claimed_tokens: runtime.claimed_tokens,
            gas_fees: runtime.gas_fees,
            marketplace_fees: runtime.marketplace_fees,
            collection: runtime.collection,
            collection_created_day: runtime.collection_created_day,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;

    #[test]
    fn small_world_builds_and_has_expected_ingredients() {
        let world = WorldBuilder::new(WorkloadConfig::small(7)).build().expect("build");
        let stats = world.chain.stats();
        assert!(stats.transactions > 200, "expected a busy chain, got {stats:?}");
        assert_eq!(world.truth.len(), 40);
        assert_eq!(world.directory.len(), 6);
        // Every executed scenario traded its NFT at least once.
        for truth in &world.truth {
            assert!(!truth.trade_tx_hashes.is_empty(), "scenario {} has no trades", truth.id);
            assert!(truth.last_trade >= truth.first_trade);
            assert_eq!(truth.accounts.len(), truth.pattern.participants());
        }
        // Reward claims only happen on reward venues.
        for truth in &world.truth {
            if truth.claimed_rewards() {
                assert!(truth.venue.has_reward_system());
                assert!(truth.claimed_tokens > 0);
            }
        }
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let a = WorldBuilder::new(WorkloadConfig::small(11)).build().unwrap();
        let b = WorldBuilder::new(WorkloadConfig::small(11)).build().unwrap();
        assert_eq!(a.chain.stats(), b.chain.stats());
        assert_eq!(a.truth.len(), b.truth.len());
        for (x, y) in a.truth.iter().zip(b.truth.iter()) {
            assert_eq!(x.nft, y.nft);
            assert_eq!(x.wash_volume, y.wash_volume);
            assert_eq!(x.accounts, y.accounts);
        }
        let c = WorldBuilder::new(WorkloadConfig::small(12)).build().unwrap();
        assert_ne!(a.chain.stats().transactions, c.chain.stats().transactions);
    }

    #[test]
    fn zero_risk_scenarios_were_minted_not_bought() {
        let world = WorldBuilder::new(WorkloadConfig::small(21)).build().unwrap();
        for truth in &world.truth {
            if truth.zero_risk {
                assert!(truth.acquisition_price.is_zero());
                assert!(truth.resale_price.is_none());
            }
        }
    }
}
