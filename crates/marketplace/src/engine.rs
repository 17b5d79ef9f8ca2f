//! The marketplace engine: deploying a marketplace, executing sales, and
//! operating the volume-based token reward system.

use std::collections::{HashMap, HashSet};

use ethsim::{Address, Chain, Log, Selector, Timestamp, TxHash, TxRequest, Wei};
use labels::{LabelCategory, LabelRegistry};
use serde::{Deserialize, Serialize};
use tokens::{NftId, TokenRegistry};

use crate::directory::{MarketplaceInfo, RewardInfo};
use crate::error::MarketError;
use crate::spec::MarketplaceSpec;

/// Gas consumed by a marketplace sale transaction.
pub const SALE_GAS: u64 = 160_000;
/// Gas consumed by a reward-claim transaction.
pub const CLAIM_GAS: u64 = 80_000;

/// Receipt of an executed sale.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SaleReceipt {
    /// Hash of the sale transaction.
    pub tx_hash: TxHash,
    /// The marketplace contract the transaction interacted with.
    pub marketplace: Address,
    /// The NFT sold.
    pub nft: NftId,
    /// Seller account.
    pub seller: Address,
    /// Buyer account.
    pub buyer: Address,
    /// Sale price paid by the buyer.
    pub price: Wei,
    /// Platform fee retained by the marketplace treasury.
    pub fee: Wei,
    /// Gas fee paid by the buyer.
    pub gas_fee: Wei,
    /// Block timestamp of the sale.
    pub timestamp: Timestamp,
}

/// Receipt of a reward claim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClaimReceipt {
    /// Hash of the claim transaction.
    pub tx_hash: TxHash,
    /// The claiming account.
    pub account: Address,
    /// Reward tokens received, in base units.
    pub token_amount: u128,
    /// Block timestamp of the claim.
    pub timestamp: Timestamp,
}

/// Per-day trading volume bookkeeping used by the reward formula.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct DayVolume {
    total: Wei,
    per_user: HashMap<Address, Wei>,
}

/// A deployed marketplace with mutable engine state.
#[derive(Debug, Clone)]
pub struct Marketplace {
    /// The static specification (name, fees, reward system).
    pub spec: MarketplaceSpec,
    /// The exchange contract sale transactions interact with.
    pub contract: Address,
    /// The treasury account receiving platform fees.
    pub treasury: Address,
    /// The escrow account, if the marketplace uses escrow.
    pub escrow: Option<Address>,
    /// The reward-token distribution contract, if any.
    pub reward_distributor: Option<Address>,
    /// The reward token's ERC-20 contract, if any.
    pub reward_token: Option<Address>,
    daily: HashMap<u64, DayVolume>,
    pending_rewards: HashMap<Address, u128>,
    accrued_days: HashSet<u64>,
    total_volume: Wei,
    sale_count: u64,
}

impl Marketplace {
    /// Deploy a marketplace onto the chain: exchange contract, treasury,
    /// optional escrow, and (for reward marketplaces) a reward ERC-20 token
    /// plus its distribution contract. All addresses are labelled in the
    /// registry under the [`LabelCategory::Marketplace`] category.
    ///
    /// # Errors
    ///
    /// Propagates chain/token deployment failures (address collisions).
    pub fn deploy(
        chain: &mut Chain,
        tokens: &mut TokenRegistry,
        labels: &mut LabelRegistry,
        spec: MarketplaceSpec,
    ) -> Result<Self, MarketError> {
        let seed = spec.name.to_lowercase().replace(' ', "-");
        let contract = chain.deploy_contract(
            &format!("marketplace:{seed}"),
            tokens::compliance::generic_contract_bytecode(0xaa),
        )?;
        let treasury = chain.create_eoa(&format!("{seed}-treasury"))?;
        labels.insert(
            contract,
            format!("{}: Exchange Contract", spec.name),
            LabelCategory::Marketplace,
        );
        labels.insert(treasury, format!("{}: Treasury", spec.name), LabelCategory::Marketplace);

        let escrow = if spec.uses_escrow {
            let escrow = chain.create_eoa(&format!("{seed}-escrow"))?;
            labels.insert(escrow, format!("{}: Escrow", spec.name), LabelCategory::Marketplace);
            Some(escrow)
        } else {
            None
        };

        let (reward_distributor, reward_token) = if let Some(reward) = &spec.reward {
            let distributor = chain.deploy_contract(
                &format!("{seed}-reward-distributor"),
                tokens::compliance::generic_contract_bytecode(0xbb),
            )?;
            let token = tokens.deploy_erc20(
                chain,
                &format!("{seed}-reward-token"),
                &reward.token_symbol,
                reward.token_decimals,
            )?;
            labels.insert(
                distributor,
                format!("{}: Token Distributor", spec.name),
                LabelCategory::Marketplace,
            );
            labels.insert(token, reward.token_symbol.clone(), LabelCategory::Token);
            (Some(distributor), Some(token))
        } else {
            (None, None)
        };

        Ok(Marketplace {
            spec,
            contract,
            treasury,
            escrow,
            reward_distributor,
            reward_token,
            daily: HashMap::new(),
            pending_rewards: HashMap::new(),
            accrued_days: HashSet::new(),
            total_volume: Wei::ZERO,
            sale_count: 0,
        })
    }

    /// The static, serializable view of this marketplace used by the
    /// detection pipeline.
    pub fn info(&self) -> MarketplaceInfo {
        MarketplaceInfo {
            name: self.spec.name.clone(),
            contract: self.contract,
            treasury: self.treasury,
            escrow: self.escrow,
            fee_bps: self.spec.fee_bps,
            reward: self.spec.reward.as_ref().map(|r| RewardInfo {
                distributor: self.reward_distributor.expect("reward marketplace has distributor"),
                token_contract: self.reward_token.expect("reward marketplace has token"),
                token_symbol: r.token_symbol.clone(),
                token_decimals: r.token_decimals,
                daily_emission: r.daily_emission,
            }),
        }
    }

    /// Execute a sale: the buyer pays `price` to the exchange contract, the
    /// contract forwards the proceeds to the seller and the fee to the
    /// treasury, and the collection emits the ERC-721 transfer log.
    ///
    /// Both buyer and seller are credited with `price` of daily trading
    /// volume, which is how volume-based reward systems count activity.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::UnknownCollection`] if the NFT's contract is not
    /// registered, [`MarketError::Token`] if `seller` does not own the token,
    /// and [`MarketError::Chain`] if the buyer cannot cover price plus gas.
    /// Ownership and balances are unchanged on error.
    // One argument per sale party/parameter; bundling them into a struct
    // would only move the argument list to the construction site.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_sale(
        &mut self,
        chain: &mut Chain,
        tokens: &mut TokenRegistry,
        seller: Address,
        buyer: Address,
        nft: NftId,
        price: Wei,
        gas_price: Wei,
    ) -> Result<SaleReceipt, MarketError> {
        // Validate ownership before touching any state.
        {
            let collection =
                tokens.erc721(nft.contract).ok_or(MarketError::UnknownCollection(nft.contract))?;
            match collection.owner_of(nft.token_id) {
                Some(owner) if owner == seller => {}
                owner => {
                    return Err(MarketError::Token(tokens::TokenError::NotTokenOwner {
                        contract: nft.contract,
                        token_id: nft.token_id,
                        claimed_owner: seller,
                        actual_owner: owner,
                    }))
                }
            }
        }

        let fee = price.bps(self.spec.fee_bps);
        let proceeds = price.saturating_sub(fee);
        let transfer_log = Log::erc721_transfer(nft.contract, seller, buyer, nft.token_id);

        let mut request = TxRequest::contract_call(
            buyer,
            self.contract,
            Selector::of("matchAskWithTakerBid(address,address,uint256,uint256)"),
            price,
            SALE_GAS,
            gas_price,
        )
        .with_log(transfer_log);
        if !proceeds.is_zero() {
            request = request.with_internal_transfer(self.contract, seller, proceeds);
        }
        if !fee.is_zero() {
            request = request.with_internal_transfer(self.contract, self.treasury, fee);
        }
        let gas_fee = request.fee();
        let tx_hash = chain.submit(request)?;
        let timestamp = chain.current_timestamp();

        // The chain accepted the transaction; now commit the ownership change.
        tokens
            .erc721_mut(nft.contract)
            .expect("validated above")
            .transfer(seller, buyer, nft.token_id)
            .expect("ownership validated above");

        // Volume bookkeeping for the reward system.
        let day = timestamp.day();
        let entry = self.daily.entry(day).or_default();
        entry.total += price;
        *entry.per_user.entry(buyer).or_insert(Wei::ZERO) += price;
        *entry.per_user.entry(seller).or_insert(Wei::ZERO) += price;
        self.total_volume += price;
        self.sale_count += 1;

        Ok(SaleReceipt {
            tx_hash,
            marketplace: self.contract,
            nft,
            seller,
            buyer,
            price,
            fee,
            gas_fee,
            timestamp,
        })
    }

    /// Accrue the reward emission of `day` to the users who traded that day,
    /// according to Eq. 1 of the paper (`R_A = a / b * c`). Idempotent per
    /// day. Days without volume emit nothing. Does nothing for marketplaces
    /// without a reward system.
    pub fn accrue_rewards_for_day(&mut self, day: u64) {
        let Some(reward) = &self.spec.reward else {
            return;
        };
        if self.accrued_days.contains(&day) {
            return;
        }
        let Some(volume) = self.daily.get(&day) else {
            return;
        };
        if volume.total.is_zero() {
            return;
        }
        let emission_base_units = reward.daily_emission * 10f64.powi(reward.token_decimals as i32);
        for (user, user_volume) in &volume.per_user {
            let share = user_volume.raw() as f64 / volume.total.raw() as f64 / 2.0;
            // Both sides of every sale are credited, so shares sum to 1 after
            // halving (buyer volume + seller volume = 2 × sale volume).
            let amount = (share * emission_base_units).round() as u128;
            if amount > 0 {
                *self.pending_rewards.entry(*user).or_insert(0) += amount;
            }
        }
        self.accrued_days.insert(day);
    }

    /// Accrue rewards for every day that has recorded volume.
    pub fn accrue_all_days(&mut self) {
        let days: Vec<u64> = self.daily.keys().copied().collect();
        for day in days {
            self.accrue_rewards_for_day(day);
        }
    }

    /// Rewards currently claimable by an account, in token base units.
    pub fn pending_reward(&self, account: Address) -> u128 {
        self.pending_rewards.get(&account).copied().unwrap_or(0)
    }

    /// Claim all pending rewards for `account`: a transaction from the account
    /// to the distribution contract whose log transfers the reward tokens.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::NoRewardSystem`] for marketplaces without
    /// rewards, [`MarketError::NothingToClaim`] when nothing is pending, and
    /// chain errors if the account cannot pay the claim gas.
    pub fn claim_rewards(
        &mut self,
        chain: &mut Chain,
        tokens: &mut TokenRegistry,
        account: Address,
        gas_price: Wei,
    ) -> Result<ClaimReceipt, MarketError> {
        let distributor = self.reward_distributor.ok_or(MarketError::NoRewardSystem)?;
        let token_contract = self.reward_token.ok_or(MarketError::NoRewardSystem)?;
        let amount = match self.pending_rewards.get(&account).copied() {
            Some(amount) if amount > 0 => amount,
            _ => return Err(MarketError::NothingToClaim(account)),
        };

        let request = TxRequest::contract_call(
            account,
            distributor,
            Selector::of("claim()"),
            Wei::ZERO,
            CLAIM_GAS,
            gas_price,
        )
        .with_log(Log::erc20_transfer(token_contract, distributor, account, amount));
        let tx_hash = chain.submit(request)?;
        let timestamp = chain.current_timestamp();

        // Keep the ERC-20 balance table consistent with the emitted log.
        let token = tokens
            .erc20_mut(token_contract)
            .expect("reward token was deployed by this marketplace");
        token.mint(distributor, amount);
        token.transfer(distributor, account, amount).expect("distributor was just credited");

        self.pending_rewards.remove(&account);
        Ok(ClaimReceipt { tx_hash, account, token_amount: amount, timestamp })
    }

    /// Total traded volume since deployment.
    pub fn total_volume(&self) -> Wei {
        self.total_volume
    }

    /// Number of executed sales.
    pub fn sale_count(&self) -> u64 {
        self.sale_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::presets;

    struct World {
        chain: Chain,
        tokens: TokenRegistry,
        labels: LabelRegistry,
    }

    fn setup(spec: MarketplaceSpec) -> (World, Marketplace, Address, Address, NftId) {
        let mut chain = Chain::new(Timestamp::from_secs(1_640_995_200));
        let mut tokens = TokenRegistry::new();
        let mut labels = LabelRegistry::new();
        let marketplace = Marketplace::deploy(&mut chain, &mut tokens, &mut labels, spec).unwrap();
        let genesis = chain.current_timestamp();
        let collection =
            tokens.deploy_erc721(&mut chain, "collection", "TestArt", true, genesis).unwrap();
        let seller = chain.create_eoa("seller").unwrap();
        let buyer = chain.create_eoa("buyer").unwrap();
        chain.fund(seller, Wei::from_eth(10.0));
        chain.fund(buyer, Wei::from_eth(10.0));
        let (nft, mint_log) = tokens.erc721_mut(collection).unwrap().mint(seller);
        // Record the mint on-chain as the null-address transfer it really is.
        let mint_request = TxRequest::contract_call(
            seller,
            collection,
            Selector::of("mint(address)"),
            Wei::ZERO,
            90_000,
            Wei::from_gwei(30),
        )
        .with_log(mint_log);
        chain.submit(mint_request).unwrap();
        (World { chain, tokens, labels }, marketplace, seller, buyer, nft)
    }

    #[test]
    fn deploy_labels_all_service_addresses() {
        let (world, marketplace, _, _, _) = setup(presets::looksrare());
        assert!(world.labels.get(marketplace.contract).is_some());
        assert!(world.labels.get(marketplace.treasury).is_some());
        assert!(world.labels.get(marketplace.reward_distributor.unwrap()).is_some());
        assert!(world.chain.is_contract(marketplace.contract));
        assert!(!world.chain.is_contract(marketplace.treasury));
        let info = marketplace.info();
        assert_eq!(info.name, "LooksRare");
        assert_eq!(info.reward.as_ref().unwrap().token_symbol, "LOOKS");
    }

    #[test]
    fn sale_moves_nft_money_and_fee() {
        let (mut world, mut marketplace, seller, buyer, nft) = setup(presets::opensea());
        let receipt = marketplace
            .execute_sale(
                &mut world.chain,
                &mut world.tokens,
                seller,
                buyer,
                nft,
                Wei::from_eth(2.0),
                Wei::from_gwei(30),
            )
            .unwrap();
        // 2.5% of 2 ETH.
        assert_eq!(receipt.fee, Wei::from_eth(0.05));
        assert_eq!(world.tokens.erc721(nft.contract).unwrap().owner_of(nft.token_id), Some(buyer));
        assert_eq!(world.chain.balance(marketplace.treasury), Wei::from_eth(0.05));
        // Seller receives the proceeds; the only fee the seller ever paid is
        // the gas of the setup mint transaction (90,000 gas at 30 gwei).
        let mint_gas = Wei(90_000u128 * Wei::from_gwei(30).raw());
        assert_eq!(
            world.chain.balance(seller),
            Wei::from_eth(10.0) + Wei::from_eth(1.95) - mint_gas
        );
        // The buyer paid price plus sale gas.
        assert_eq!(
            world.chain.balance(buyer),
            Wei::from_eth(10.0) - Wei::from_eth(2.0) - receipt.gas_fee
        );
        // The sale transaction interacted with the marketplace contract.
        let tx = world.chain.transaction(receipt.tx_hash).unwrap();
        assert_eq!(tx.to, Some(marketplace.contract));
        assert_eq!(tx.logs.len(), 1);
        assert!(tx.logs[0].is_erc721_transfer());
        assert_eq!(marketplace.sale_count(), 1);
        assert_eq!(marketplace.total_volume(), Wei::from_eth(2.0));
    }

    #[test]
    fn sale_by_non_owner_fails_cleanly() {
        let (mut world, mut marketplace, _seller, buyer, nft) = setup(presets::opensea());
        let stranger = world.chain.create_eoa("stranger").unwrap();
        world.chain.fund(stranger, Wei::from_eth(5.0));
        let result = marketplace.execute_sale(
            &mut world.chain,
            &mut world.tokens,
            stranger,
            buyer,
            nft,
            Wei::from_eth(1.0),
            Wei::from_gwei(30),
        );
        assert!(matches!(result, Err(MarketError::Token(_))));
        assert_eq!(marketplace.sale_count(), 0);
    }

    #[test]
    fn sale_with_insufficient_buyer_funds_fails_without_moving_nft() {
        let (mut world, mut marketplace, seller, buyer, nft) = setup(presets::opensea());
        let result = marketplace.execute_sale(
            &mut world.chain,
            &mut world.tokens,
            seller,
            buyer,
            nft,
            Wei::from_eth(100.0),
            Wei::from_gwei(30),
        );
        assert!(matches!(result, Err(MarketError::Chain(_))));
        assert_eq!(
            world.tokens.erc721(nft.contract).unwrap().owner_of(nft.token_id),
            Some(seller),
            "ownership must not change when payment fails"
        );
    }

    #[test]
    fn reward_accrual_follows_equation_one() {
        let (mut world, mut marketplace, seller, buyer, nft) = setup(presets::looksrare());
        marketplace
            .execute_sale(
                &mut world.chain,
                &mut world.tokens,
                seller,
                buyer,
                nft,
                Wei::from_eth(4.0),
                Wei::from_gwei(30),
            )
            .unwrap();
        let day = world.chain.current_timestamp().day();
        marketplace.accrue_rewards_for_day(day);
        // Only two participants, equal volume: each gets half of the daily emission.
        let emission = 2_866_500.0 * 1e18;
        let expected_half = (emission / 2.0) as u128;
        let tolerance = 10u128.pow(12);
        for account in [seller, buyer] {
            let pending = marketplace.pending_reward(account);
            assert!(
                pending.abs_diff(expected_half) < tolerance,
                "pending {pending} vs expected {expected_half}"
            );
        }
        // Accrual is idempotent.
        marketplace.accrue_rewards_for_day(day);
        assert!(marketplace.pending_reward(seller).abs_diff(expected_half) < tolerance);
    }

    #[test]
    fn claim_transfers_tokens_and_clears_pending() {
        let (mut world, mut marketplace, seller, buyer, nft) = setup(presets::looksrare());
        marketplace
            .execute_sale(
                &mut world.chain,
                &mut world.tokens,
                seller,
                buyer,
                nft,
                Wei::from_eth(1.0),
                Wei::from_gwei(30),
            )
            .unwrap();
        marketplace.accrue_all_days();
        let pending = marketplace.pending_reward(seller);
        assert!(pending > 0);
        let receipt = marketplace
            .claim_rewards(&mut world.chain, &mut world.tokens, seller, Wei::from_gwei(30))
            .unwrap();
        assert_eq!(receipt.token_amount, pending);
        assert_eq!(marketplace.pending_reward(seller), 0);
        // The claim transaction targets the distributor and carries the token log.
        let tx = world.chain.transaction(receipt.tx_hash).unwrap();
        assert_eq!(tx.to, marketplace.reward_distributor);
        assert_eq!(tx.selector(), Some(Selector::of("claim()")));
        let token = world.tokens.erc20(marketplace.reward_token.unwrap()).unwrap();
        assert_eq!(token.balance_of(seller), pending);
        // Claiming again fails.
        assert!(matches!(
            marketplace.claim_rewards(
                &mut world.chain,
                &mut world.tokens,
                seller,
                Wei::from_gwei(30)
            ),
            Err(MarketError::NothingToClaim(_))
        ));
    }

    #[test]
    fn non_reward_marketplace_rejects_claims() {
        let (mut world, mut marketplace, seller, _, _) = setup(presets::opensea());
        marketplace.accrue_all_days();
        assert_eq!(marketplace.pending_reward(seller), 0);
        assert!(matches!(
            marketplace.claim_rewards(
                &mut world.chain,
                &mut world.tokens,
                seller,
                Wei::from_gwei(30)
            ),
            Err(MarketError::NoRewardSystem)
        ));
    }

    #[test]
    fn zero_price_sale_is_allowed_and_records_no_volume_value() {
        let (mut world, mut marketplace, seller, buyer, nft) = setup(presets::opensea());
        let receipt = marketplace
            .execute_sale(
                &mut world.chain,
                &mut world.tokens,
                seller,
                buyer,
                nft,
                Wei::ZERO,
                Wei::from_gwei(30),
            )
            .unwrap();
        assert_eq!(receipt.fee, Wei::ZERO);
        assert_eq!(marketplace.total_volume(), Wei::ZERO);
        let tx = world.chain.transaction(receipt.tx_hash).unwrap();
        assert!(!tx.moves_value());
    }
}
