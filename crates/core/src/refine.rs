//! Graph refinement (§IV-B): removing service accounts, smart-contract
//! accounts and zero-volume components from the suspicious candidates.
//!
//! The refiner operates entirely on dense ids ([`DenseCandidate`]); account
//! addresses are resolved once per graph node for the label/bytecode probes
//! (instead of once per *edge*, as the address-keyed pipeline did) and at
//! the report boundary, where [`DenseCandidate::resolve`] materializes the
//! address-keyed [`Candidate`] the report exposes.

use ethsim::{Address, Chain, Timestamp, Wei};
use ids::{AccountId, BitSet, Interner, MarketId, NftKey};
use labels::LabelRegistry;
use serde::{Deserialize, Serialize};
use tokens::NftId;

use crate::parallel::Executor;
use crate::txgraph::{DenseTradeEdge, NftGraph, TradeEdge};

/// A refined wash-trading candidate in resolved (address-keyed) form: the
/// report-boundary twin of [`DenseCandidate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The NFT whose graph contains the component.
    pub nft: NftId,
    /// The component's accounts, sorted.
    pub accounts: Vec<Address>,
    /// Sales between component accounts (self-loops included), chronological.
    pub internal_edges: Vec<(Address, Address, TradeEdge)>,
    /// Timestamp of the first internal sale.
    pub first_trade: Timestamp,
    /// Timestamp of the last internal sale.
    pub last_trade: Timestamp,
    /// Total traded volume of the internal sales, saturating at
    /// `u128::MAX` (a malformed price log can carry any `u128`).
    pub volume: Wei,
}

impl Candidate {
    /// Whether the component contains a self-loop sale.
    pub fn has_self_trade(&self) -> bool {
        self.internal_edges.iter().any(|(from, to, _)| from == to)
    }

    /// The key every candidate list in the system is ordered by: the NFT,
    /// then the component's first (lowest) account.
    pub fn sort_key(&self) -> (NftId, Address) {
        (self.nft, self.accounts.first().copied().unwrap_or(Address::NULL))
    }

    /// Lifetime of the component's activity in whole days.
    pub fn lifetime_days(&self) -> u64 {
        self.last_trade.days_since(self.first_trade)
    }

    /// The marketplace contract carrying most of the component's volume, if
    /// any of its sales went through a marketplace — the resolved twin of
    /// [`DenseCandidate::dominant_marketplace`], with the identical
    /// accumulation and lowest-address tiebreak, so a snapshot built from a
    /// resolved report attributes every activity to the same venue as one
    /// built from the dense layers.
    pub fn dominant_marketplace(&self) -> Option<Address> {
        let mut volume_by_market: Vec<(Address, u128)> = Vec::new();
        for (_, _, edge) in &self.internal_edges {
            let Some(market) = edge.marketplace else {
                continue;
            };
            match volume_by_market.iter_mut().find(|(m, _)| *m == market) {
                Some((_, volume)) => *volume = volume.saturating_add(edge.price.raw().max(1)),
                None => volume_by_market.push((market, edge.price.raw().max(1))),
            }
        }
        volume_by_market
            .into_iter()
            .max_by_key(|(market, volume)| (*volume, std::cmp::Reverse(*market)))
            .map(|(market, _)| market)
    }

    /// The distinct directed shape of the component's internal trading, as
    /// positions into the sorted account list — the resolved twin of
    /// [`component_shape`](crate::characterize::component_shape), for
    /// consumers that work from the report.
    pub fn shape(&self) -> Vec<(usize, usize)> {
        edge_shape(&self.accounts, self.internal_edges.iter().map(|(from, to, _)| (*from, *to)))
    }
}

/// The one shape computation both candidate representations classify
/// through: the distinct directed edges of a component's internal trading,
/// as positions into its account list. Generic over the account type so the
/// dense pipeline ([`component_shape`](crate::characterize::component_shape))
/// and the resolved report type ([`Candidate::shape`]) cannot drift apart.
pub(crate) fn edge_shape<T: Copy + PartialEq>(
    accounts: &[T],
    endpoints: impl Iterator<Item = (T, T)>,
) -> Vec<(usize, usize)> {
    let position = |account: T| {
        accounts.iter().position(|&a| a == account).expect("edge endpoints are members")
    };
    let mut shape: Vec<(usize, usize)> =
        endpoints.map(|(from, to)| (position(from), position(to))).collect();
    shape.sort_unstable();
    shape.dedup();
    shape
}

/// A refined wash-trading candidate: one strongly connected component of one
/// NFT's transaction graph that survived every refinement step, in dense-id
/// form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseCandidate {
    /// The NFT whose graph contains the component.
    pub nft: NftKey,
    /// The component's accounts, sorted by resolved address (the position
    /// order shapes and report account lists are built on).
    pub accounts: Vec<AccountId>,
    /// Sales between component accounts (self-loops included), chronological.
    pub internal_edges: Vec<(AccountId, AccountId, DenseTradeEdge)>,
    /// Timestamp of the first internal sale.
    pub first_trade: Timestamp,
    /// Timestamp of the last internal sale.
    pub last_trade: Timestamp,
    /// Total traded volume of the internal sales, saturating at
    /// `u128::MAX` (a malformed price log can carry any `u128`).
    pub volume: Wei,
}

impl DenseCandidate {
    /// Whether the component contains a self-loop sale.
    pub fn has_self_trade(&self) -> bool {
        self.internal_edges.iter().any(|(from, to, _)| from == to)
    }

    /// The candidate ordering key, on resolved identities: the NFT, then the
    /// component's first (lowest-address) account. Batch refinement and the
    /// streaming re-assembly both sort by this key, which is what keeps
    /// their outputs bit-identical — and identical to the address-keyed
    /// pipeline, whose first-seen-independent order this reproduces.
    pub fn sort_key(&self, interner: &Interner) -> (NftId, Address) {
        (
            interner.nft(self.nft),
            self.accounts.first().map(|&id| interner.address(id)).unwrap_or(Address::NULL),
        )
    }

    /// The marketplace that carries most of the component's volume, if any
    /// of its sales went through a marketplace. Per-market volumes saturate
    /// at `u128::MAX`, and ties break towards the lowest market *address*
    /// (resolved through the interner), matching the address-keyed
    /// pipeline's deterministic tiebreak.
    pub fn dominant_marketplace(&self, interner: &Interner) -> Option<MarketId> {
        let mut volume_by_market: Vec<(MarketId, u128)> = Vec::new();
        for (_, _, edge) in &self.internal_edges {
            let Some(market) = edge.marketplace else {
                continue;
            };
            match volume_by_market.iter_mut().find(|(m, _)| *m == market) {
                Some((_, volume)) => *volume = volume.saturating_add(edge.price.raw().max(1)),
                None => volume_by_market.push((market, edge.price.raw().max(1))),
            }
        }
        volume_by_market
            .into_iter()
            .max_by_key(|(market, volume)| (*volume, std::cmp::Reverse(interner.market(*market))))
            .map(|(market, _)| market)
    }

    /// Lifetime of the component's activity in whole days.
    pub fn lifetime_days(&self) -> u64 {
        self.last_trade.days_since(self.first_trade)
    }

    /// Resolve to the report-boundary [`Candidate`] — the single point where
    /// this component's ids become addresses again.
    pub fn resolve(&self, interner: &Interner) -> Candidate {
        Candidate {
            nft: interner.nft(self.nft),
            accounts: self.accounts.iter().map(|&id| interner.address(id)).collect(),
            internal_edges: self
                .internal_edges
                .iter()
                .map(|(from, to, edge)| {
                    (interner.address(*from), interner.address(*to), edge.resolve(interner))
                })
                .collect(),
            first_trade: self.first_trade,
            last_trade: self.last_trade,
            volume: self.volume,
        }
    }
}

/// Candidate counts after one refinement stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageCount {
    /// NFTs with at least one surviving component.
    pub nfts: usize,
    /// Distinct accounts involved in surviving components.
    pub accounts: usize,
    /// Number of surviving components.
    pub components: usize,
}

/// Counts after each refinement stage (the paper reports these in §IV-A/B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RefinementReport {
    /// After the initial SCC search on the raw graphs.
    pub initial: StageCount,
    /// After removing labelled service accounts and the null address.
    pub after_service_removal: StageCount,
    /// After additionally removing accounts with bytecode.
    pub after_contract_removal: StageCount,
    /// After dropping components whose sales all have zero volume.
    pub after_zero_volume: StageCount,
}

/// Runs the refinement pipeline over per-NFT graphs.
pub struct Refiner<'a> {
    chain: &'a Chain,
    labels: &'a LabelRegistry,
    interner: &'a Interner,
}

/// The complete refinement outcome for one NFT graph: the suspicious
/// components surviving each §IV-B stage, plus the final candidates.
///
/// Produced by [`Refiner::refine_nft`], which is a pure function of the graph
/// (given the chain, labels and interner), so outcomes can be cached per NFT
/// and only recomputed when the graph changes — the seam the streaming
/// subsystem's dirty-set scheduler is built on. [`aggregate_refinements`]
/// folds any collection of outcomes into the [`RefinementReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NftRefinement {
    /// Suspicious components of the raw graph (address-sorted per component).
    pub initial: Vec<Vec<AccountId>>,
    /// Components surviving the service-account removal.
    pub after_service: Vec<Vec<AccountId>>,
    /// Components additionally surviving the contract-account removal.
    pub after_contract: Vec<Vec<AccountId>>,
    /// Components surviving the zero-volume filter, as full candidates.
    pub candidates: Vec<DenseCandidate>,
}

impl NftRefinement {
    /// Whether the graph produced no suspicious component at any stage.
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty()
            && self.after_service.is_empty()
            && self.after_contract.is_empty()
            && self.candidates.is_empty()
    }
}

/// Fold per-NFT refinement outcomes into the §IV-B per-stage counts.
///
/// Pure aggregation: counts are additive and account totals are dense bitset
/// cardinalities, so the result is independent of iteration order —
/// [`Refiner::refine_with`] and the streaming re-aggregation share it.
pub fn aggregate_refinements<'a>(
    outcomes: impl IntoIterator<Item = &'a NftRefinement>,
) -> RefinementReport {
    let mut report = RefinementReport::default();
    let mut initial_accounts = BitSet::new();
    let mut service_accounts = BitSet::new();
    let mut contract_accounts = BitSet::new();
    let mut final_accounts = BitSet::new();
    for outcome in outcomes {
        if !outcome.initial.is_empty() {
            report.initial.nfts += 1;
            report.initial.components += outcome.initial.len();
            for &account in outcome.initial.iter().flatten() {
                initial_accounts.insert(account.index());
            }
        }
        if !outcome.after_service.is_empty() {
            report.after_service_removal.nfts += 1;
            report.after_service_removal.components += outcome.after_service.len();
            for &account in outcome.after_service.iter().flatten() {
                service_accounts.insert(account.index());
            }
        }
        if !outcome.after_contract.is_empty() {
            report.after_contract_removal.nfts += 1;
            report.after_contract_removal.components += outcome.after_contract.len();
            for &account in outcome.after_contract.iter().flatten() {
                contract_accounts.insert(account.index());
            }
        }
        if !outcome.candidates.is_empty() {
            report.after_zero_volume.nfts += 1;
            report.after_zero_volume.components += outcome.candidates.len();
            for candidate in &outcome.candidates {
                for &account in &candidate.accounts {
                    final_accounts.insert(account.index());
                }
            }
        }
    }
    report.initial.accounts = initial_accounts.len();
    report.after_service_removal.accounts = service_accounts.len();
    report.after_contract_removal.accounts = contract_accounts.len();
    report.after_zero_volume.accounts = final_accounts.len();
    report
}

/// One stage of the [`RefinementAggregator`]: additive NFT/component counts
/// plus a per-account reference count whose non-zero support is the distinct
/// account cardinality. Each NFT contributes at most one reference per
/// account per stage (accounts are deduplicated within the outcome before
/// counting), so removing an outcome exactly undoes adding it.
#[derive(Debug, Clone, Default)]
struct StageAggregate {
    nfts: usize,
    components: usize,
    refcounts: Vec<u32>,
    distinct: usize,
}

impl StageAggregate {
    fn apply(&mut self, components: usize, deduped_accounts: &[usize], add: bool) {
        if components == 0 {
            return;
        }
        if add {
            self.nfts += 1;
            self.components += components;
            for &account in deduped_accounts {
                if account >= self.refcounts.len() {
                    self.refcounts.resize(account + 1, 0);
                }
                if self.refcounts[account] == 0 {
                    self.distinct += 1;
                }
                self.refcounts[account] += 1;
            }
        } else {
            self.nfts -= 1;
            self.components -= components;
            for &account in deduped_accounts {
                debug_assert!(self.refcounts[account] > 0, "refcount underflow");
                self.refcounts[account] -= 1;
                if self.refcounts[account] == 0 {
                    self.distinct -= 1;
                }
            }
        }
    }

    fn count(&self) -> StageCount {
        StageCount { nfts: self.nfts, accounts: self.distinct, components: self.components }
    }
}

/// Incrementally maintained [`RefinementReport`]: the streaming analyzer's
/// replacement for re-running [`aggregate_refinements`] over every suspect
/// each epoch. Add an NFT's [`NftRefinement`] when it enters the suspect
/// set, remove-then-add when a dirty NFT's outcome is recomputed; every
/// quantity is an integer count or a refcounted set cardinality —
/// order-independent — so [`RefinementAggregator::report`] equals the batch
/// fold over the same outcomes exactly.
#[derive(Debug, Clone, Default)]
pub struct RefinementAggregator {
    initial: StageAggregate,
    after_service: StageAggregate,
    after_contract: StageAggregate,
    after_zero_volume: StageAggregate,
}

impl RefinementAggregator {
    /// Fold one NFT's outcome in.
    pub fn add(&mut self, outcome: &NftRefinement) {
        self.apply(outcome, true);
    }

    /// Undo a previous [`RefinementAggregator::add`] of an equal outcome.
    pub fn remove(&mut self, outcome: &NftRefinement) {
        self.apply(outcome, false);
    }

    fn apply(&mut self, outcome: &NftRefinement, add: bool) {
        fn dedup(scratch: &mut Vec<usize>, accounts: impl Iterator<Item = AccountId>) {
            scratch.clear();
            scratch.extend(accounts.map(|id| id.index()));
            scratch.sort_unstable();
            scratch.dedup();
        }
        let mut scratch: Vec<usize> = Vec::new();
        dedup(&mut scratch, outcome.initial.iter().flatten().copied());
        self.initial.apply(outcome.initial.len(), &scratch, add);
        dedup(&mut scratch, outcome.after_service.iter().flatten().copied());
        self.after_service.apply(outcome.after_service.len(), &scratch, add);
        dedup(&mut scratch, outcome.after_contract.iter().flatten().copied());
        self.after_contract.apply(outcome.after_contract.len(), &scratch, add);
        dedup(&mut scratch, outcome.candidates.iter().flat_map(|c| c.accounts.iter()).copied());
        self.after_zero_volume.apply(outcome.candidates.len(), &scratch, add);
    }

    /// The report over every outcome currently folded in — equal to
    /// [`aggregate_refinements`] over the same collection.
    pub fn report(&self) -> RefinementReport {
        RefinementReport {
            initial: self.initial.count(),
            after_service_removal: self.after_service.count(),
            after_contract_removal: self.after_contract.count(),
            after_zero_volume: self.after_zero_volume.count(),
        }
    }
}

impl<'a> Refiner<'a> {
    /// Create a refiner reading account labels and bytecode from the given
    /// chain and registry, resolving dense ids through `interner`.
    pub fn new(chain: &'a Chain, labels: &'a LabelRegistry, interner: &'a Interner) -> Self {
        Refiner { chain, labels, interner }
    }

    /// Refine every NFT graph using one thread per available core; thin
    /// wrapper over [`Refiner::refine_with`].
    pub fn refine(&self, graphs: &[NftGraph]) -> (Vec<DenseCandidate>, RefinementReport) {
        self.refine_with(graphs, &Executor::default())
    }

    /// Refine every NFT graph, returning the surviving candidates and the
    /// per-stage counts. Each NFT graph is independent, so the work is
    /// spread over the executor's thread budget; candidates are sorted by
    /// their resolved [`DenseCandidate::sort_key`], making the output
    /// identical at any thread count (and at any graph enumeration order).
    pub fn refine_with(
        &self,
        graphs: &[NftGraph],
        executor: &Executor,
    ) -> (Vec<DenseCandidate>, RefinementReport) {
        let outcomes = executor.map(graphs, |graph| self.refine_nft(graph));
        let report = aggregate_refinements(outcomes.iter());
        let mut candidates: Vec<DenseCandidate> =
            outcomes.into_iter().flat_map(|outcome| outcome.candidates).collect();
        candidates.sort_by_key(|candidate| candidate.sort_key(self.interner));
        (candidates, report)
    }

    /// Refine a single NFT graph through every §IV-B stage. Pure with respect
    /// to the graph (chain, labels and interner are read-only), so the
    /// outcome can be cached and recomputed only when the graph gains edges.
    pub fn refine_nft(&self, graph: &NftGraph) -> NftRefinement {
        let initial = graph.suspicious_account_sets(self.interner);
        if initial.is_empty() {
            return NftRefinement::default();
        }

        // Classify every node once (label lookup + bytecode probe per
        // *account*, not per edge as the address-keyed refiner did).
        let node_count = graph.graph.node_count();
        let mut non_service = vec![false; node_count];
        let mut non_contract = vec![false; node_count];
        for (index, &account) in graph.graph.nodes() {
            let address = self.interner.address(account);
            let service = self.labels.is_service_account(address);
            non_service[index] = !service;
            non_contract[index] = !service && !self.chain.is_contract(address);
        }

        // Stage 1: drop labelled service accounts and the null address.
        let without_service = self.filtered_components(graph, &non_service);
        // Stage 2: additionally drop accounts holding bytecode.
        let without_contracts = self.filtered_components(graph, &non_contract);
        // Stage 3: drop zero-volume components.
        let candidates = without_contracts
            .iter()
            .filter_map(|accounts| self.candidate_from(graph, accounts))
            .collect();

        NftRefinement {
            initial,
            after_service: without_service,
            after_contract: without_contracts,
            candidates,
        }
    }

    /// Recompute the suspicious components of `graph` restricted to the
    /// nodes whose `keep` flag is set.
    ///
    /// Runs the masked SCC directly on the original graph — no filtered
    /// subgraph is materialized (the address-keyed refiner rebuilt a fresh
    /// `DiMultiGraph` per stage per NFT, two allocations-heavy copies of
    /// every hot graph). Equivalence: a masked search never enters a dropped
    /// node and skips edges into them, which is SCC on the induced subgraph;
    /// kept nodes with no kept edges fall out as loop-free singletons, just
    /// as they fell out of the edge-driven rebuild.
    fn filtered_components(&self, graph: &NftGraph, keep: &[bool]) -> Vec<Vec<AccountId>> {
        graphlib::suspicious_components_masked(&graph.graph, keep)
            .into_iter()
            .map(|component| {
                let mut accounts: Vec<AccountId> =
                    component.iter().map(|&index| *graph.graph.node(index)).collect();
                accounts.sort_unstable_by_key(|&id| self.interner.address(id));
                accounts
            })
            .collect()
    }

    /// Turn a surviving account set into a [`DenseCandidate`], unless all
    /// its internal sales are zero-volume.
    fn candidate_from(&self, graph: &NftGraph, accounts: &[AccountId]) -> Option<DenseCandidate> {
        let internal_edges = graph.edges_among(accounts);
        if internal_edges.is_empty() {
            return None;
        }
        let any_value = internal_edges.iter().any(|(_, _, edge)| {
            if !edge.price.is_zero() {
                return true;
            }
            // Even with a zero price annotation, the carrying transaction may
            // move ERC-20 value; check the chain before discarding.
            self.chain.transaction(edge.tx_hash).map(|tx| tx.moves_value()).unwrap_or(false)
        });
        if !any_value {
            return None;
        }
        let first_trade = internal_edges.iter().map(|(_, _, e)| e.timestamp).min()?;
        let last_trade = internal_edges.iter().map(|(_, _, e)| e.timestamp).max()?;
        let volume =
            internal_edges.iter().map(|(_, _, e)| e.price).fold(Wei::ZERO, Wei::saturating_add);
        Some(DenseCandidate {
            nft: graph.nft,
            accounts: accounts.to_vec(),
            internal_edges,
            first_trade,
            last_trade,
            volume,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, NftTransfer};
    use crate::txgraph::tests::{dataset_of, ids_of};
    use ethsim::{BlockNumber, Timestamp, TxHash};
    use labels::LabelCategory;

    fn transfer(nft: NftId, from: Address, to: Address, price_eth: f64, at: u64) -> NftTransfer {
        NftTransfer {
            nft,
            from,
            to,
            tx_hash: TxHash::hash_of(format!("{from}->{to}@{at}").as_bytes()),
            block: BlockNumber(at),
            timestamp: Timestamp::from_secs(at * 1000),
            price: Wei::from_eth(price_eth),
            marketplace: None,
        }
    }

    fn chain_with(accounts: &[(&str, bool)]) -> Chain {
        let mut chain = Chain::new(Timestamp::from_secs(0));
        for (seed, is_contract) in accounts {
            if *is_contract {
                chain.deploy_contract(seed, vec![0x60]).unwrap();
            } else {
                chain.register_eoa(Address::derived(seed)).unwrap();
            }
        }
        chain
    }

    fn graphs_of(dataset: &Dataset) -> Vec<NftGraph> {
        NftGraph::from_dataset(dataset)
    }

    #[test]
    fn wash_pair_survives_refinement() {
        let nft = NftId::new(Address::derived("collection"), 1);
        let a = Address::derived("a");
        let b = Address::derived("b");
        let dataset = dataset_of(&[
            transfer(nft, Address::NULL, a, 0.0, 1),
            transfer(nft, a, b, 1.0, 2),
            transfer(nft, b, a, 1.0, 3),
        ]);
        let graphs = graphs_of(&dataset);
        let chain = chain_with(&[("a", false), ("b", false)]);
        let labels = LabelRegistry::new();
        let (candidates, report) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert_eq!(candidates.len(), 1);
        let resolved = candidates[0].resolve(&dataset.interner);
        assert_eq!(resolved.accounts, vec![a.min(b), a.max(b)]);
        assert_eq!(resolved.volume, Wei::from_eth(2.0));
        assert_eq!(resolved.internal_edges.len(), 2);
        assert_eq!(report.initial.components, 1);
        assert_eq!(report.after_zero_volume.components, 1);
        assert!(!candidates[0].has_self_trade());
        assert!(!resolved.has_self_trade());
        assert_eq!(resolved.sort_key(), candidates[0].sort_key(&dataset.interner));
    }

    #[test]
    fn service_account_cycles_are_removed() {
        // A cycle that exists only because an exchange deposit address is in
        // the middle must disappear after the service-removal step.
        let nft = NftId::new(Address::derived("collection"), 2);
        let user = Address::derived("user");
        let exchange = Address::derived("exchange-hot-wallet");
        let dataset = dataset_of(&[
            transfer(nft, Address::NULL, user, 0.0, 1),
            transfer(nft, user, exchange, 1.0, 2),
            transfer(nft, exchange, user, 1.0, 3),
        ]);
        let graphs = graphs_of(&dataset);
        let chain = chain_with(&[("user", false), ("exchange-hot-wallet", false)]);
        let mut labels = LabelRegistry::new();
        labels.insert(exchange, "Binance 7", LabelCategory::Exchange);
        let (candidates, report) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert!(candidates.is_empty());
        assert_eq!(report.initial.components, 1);
        assert_eq!(report.after_service_removal.components, 0);
    }

    #[test]
    fn contract_account_cycles_are_removed() {
        let nft = NftId::new(Address::derived("collection"), 3);
        let user = Address::derived("user");
        let pool = Address::derived("contract:lending-pool");
        let dataset = dataset_of(&[
            transfer(nft, Address::NULL, user, 0.0, 1),
            transfer(nft, user, pool, 1.0, 2),
            transfer(nft, pool, user, 1.0, 3),
        ]);
        let graphs = graphs_of(&dataset);
        let mut chain = Chain::new(Timestamp::from_secs(0));
        chain.register_eoa(user).unwrap();
        chain.deploy_contract("lending-pool", vec![0x60, 0x80]).unwrap();
        let labels = LabelRegistry::new();
        let (candidates, report) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert!(candidates.is_empty());
        assert_eq!(report.after_service_removal.components, 1);
        assert_eq!(report.after_contract_removal.components, 0);
    }

    #[test]
    fn zero_volume_components_are_dropped() {
        let nft = NftId::new(Address::derived("collection"), 4);
        let a = Address::derived("wallet-1");
        let b = Address::derived("wallet-2");
        let dataset = dataset_of(&[
            transfer(nft, Address::NULL, a, 0.0, 1),
            transfer(nft, a, b, 0.0, 2),
            transfer(nft, b, a, 0.0, 3),
        ]);
        let graphs = graphs_of(&dataset);
        let chain = chain_with(&[("wallet-1", false), ("wallet-2", false)]);
        let labels = LabelRegistry::new();
        let (candidates, report) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert!(candidates.is_empty());
        assert_eq!(report.after_contract_removal.components, 1);
        assert_eq!(report.after_zero_volume.components, 0);
    }

    #[test]
    fn self_trade_candidate_is_detected() {
        let nft = NftId::new(Address::derived("collection"), 5);
        let a = Address::derived("selfish");
        let dataset =
            dataset_of(&[transfer(nft, Address::NULL, a, 0.0, 1), transfer(nft, a, a, 2.0, 2)]);
        let graphs = graphs_of(&dataset);
        let chain = chain_with(&[("selfish", false)]);
        let labels = LabelRegistry::new();
        let (candidates, _) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert_eq!(candidates.len(), 1);
        assert!(candidates[0].has_self_trade());
        assert_eq!(candidates[0].lifetime_days(), 0);
        assert_eq!(candidates[0].accounts, ids_of(&dataset, &["selfish"]));
    }

    #[test]
    fn dominant_marketplace_agrees_between_dense_and_resolved_views() {
        // Two venues, the second carrying more volume; a direct (off-market)
        // sale in between. Both candidate views must attribute the component
        // to the same marketplace, ties and all.
        let nft = NftId::new(Address::derived("collection"), 9);
        let a = Address::derived("m1");
        let b = Address::derived("m2");
        let opensea = Address::derived("opensea");
        let looksrare = Address::derived("looksrare");
        let mut rows = vec![
            transfer(nft, Address::NULL, a, 0.0, 1),
            transfer(nft, a, b, 1.0, 2),
            transfer(nft, b, a, 1.0, 3),
            transfer(nft, a, b, 3.0, 4),
        ];
        rows[1].marketplace = Some(opensea);
        rows[2].marketplace = None;
        rows[3].marketplace = Some(looksrare);
        let dataset = dataset_of(&rows);
        let graphs = graphs_of(&dataset);
        let chain = chain_with(&[("m1", false), ("m2", false)]);
        let labels = LabelRegistry::new();
        let (candidates, _) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert_eq!(candidates.len(), 1);
        let dense = candidates[0]
            .dominant_marketplace(&dataset.interner)
            .map(|id| dataset.interner.market(id));
        let resolved = candidates[0].resolve(&dataset.interner).dominant_marketplace();
        assert_eq!(dense, Some(looksrare));
        assert_eq!(dense, resolved);
    }

    #[test]
    fn max_price_sales_saturate_the_volume_and_venue_sums() {
        // Two OpenSea sales at 2^127 wei each (one ERC-20 log can price a
        // sale at any u128) and a LooksRare sale at 1 ETH. Wrapped, OpenSea's
        // total would be zero and LooksRare would dominate; saturated, the
        // candidate volume and OpenSea's total are both u128::MAX.
        let nft = NftId::new(Address::derived("collection"), 10);
        let a = Address::derived("big-1");
        let b = Address::derived("big-2");
        let opensea = Address::derived("opensea");
        let looksrare = Address::derived("looksrare");
        let mut rows = vec![
            transfer(nft, Address::NULL, a, 0.0, 1),
            transfer(nft, a, b, 0.0, 2),
            transfer(nft, b, a, 0.0, 3),
            transfer(nft, a, b, 1.0, 4),
        ];
        for row in &mut rows[1..3] {
            row.price = Wei(1 << 127);
            row.marketplace = Some(opensea);
        }
        rows[3].marketplace = Some(looksrare);
        let dataset = dataset_of(&rows);
        let graphs = graphs_of(&dataset);
        let chain = chain_with(&[("big-1", false), ("big-2", false)]);
        let labels = LabelRegistry::new();
        let (candidates, _) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].volume, Wei(u128::MAX));
        let dense = candidates[0]
            .dominant_marketplace(&dataset.interner)
            .map(|id| dataset.interner.market(id));
        let resolved = candidates[0].resolve(&dataset.interner).dominant_marketplace();
        assert_eq!(dense, Some(opensea));
        assert_eq!(resolved, Some(opensea));
    }

    #[test]
    fn report_counts_are_monotonically_non_increasing() {
        // Refinement only removes candidates, never adds them.
        let nft = NftId::new(Address::derived("collection"), 6);
        let a = Address::derived("p");
        let b = Address::derived("q");
        let dataset = dataset_of(&[
            transfer(nft, Address::NULL, a, 0.0, 1),
            transfer(nft, a, b, 1.0, 2),
            transfer(nft, b, a, 1.2, 3),
        ]);
        let graphs = graphs_of(&dataset);
        let chain = chain_with(&[("p", false), ("q", false)]);
        let labels = LabelRegistry::new();
        let (_, report) = Refiner::new(&chain, &labels, &dataset.interner).refine(&graphs);
        assert!(report.initial.components >= report.after_service_removal.components);
        assert!(
            report.after_service_removal.components >= report.after_contract_removal.components
        );
        assert!(report.after_contract_removal.components >= report.after_zero_volume.components);
    }
}
