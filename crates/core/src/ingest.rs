//! Two-phase ingestion: the §III-A dataset build as a block-sharded
//! parallel **decode** and one serial **commit**.
//!
//! ```text
//!   blocks [from, to]
//!   ───────────────► shard_blocks ───┬───────┬─────────┐
//!                                    ▼       ▼         ▼
//!   ┌── decode (parallel, read-only) ───────────────────────────────────┐
//!   │ per shard: borrow logs via for_each_log_in_blocks, skip contracts │
//!   │ already known to fail the compliance probe, resolve the payment   │
//!   │ once per tx → the shard's transfers and emitting-contract runs    │
//!   └───────────────────────────┬───────────────────────────────────────┘
//!                               ▼  (shards in block order)
//!   ┌── commit (serial) ────────────────────────────────────────────────┐
//!   │ per shard: probe its contracts (Dataset::probe_contract), then    │
//!   │ intern and append its compliant transfers through                 │
//!   │ Dataset::push_transfer                                            │
//!   └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The shards partition the block range contiguously and the commit walks
//! them in block order, so the verdict sets, interner tables and columns
//! are exactly those of a serial scan, at any thread count and epoch slicing
//! (pinned by `tests/parallel_ingest.rs` and the golden report). One thread
//! means one shard; the code path is the same.
//!
//! The commit stays serial on purpose. A parallel commit (speculative
//! interning per shard, a serial reconcile of new entities, a parallel
//! splice of column segments) was measured against it on the Large world
//! on a 2-vCPU host: +27% whole-chain ingest at one thread, even at two, and
//! ≈ 50% slower on 80-block tail epochs at two. It won only at paper scale,
//! where ingest is under a tenth of a batch run (see the README).

use ethsim::fxhash::FxHashSet;
use ethsim::{Address, BlockNumber, BlockSpan, Chain, Transaction, TxHash, Wei};
use marketplace::MarketplaceDirectory;
use tokens::NftId;

use crate::dataset::{AppliedEntries, Dataset, NftTransfer};
use crate::parallel::Executor;

/// The payment context of one transaction, resolved once and shared by every
/// ERC-721 log the transaction carries: the attached ETH value, the
/// marketplace attribution of the call target, and — only when no ETH was
/// attached — the decoded ERC-20 transfer list the per-buyer price sums
/// over.
struct TxPayment {
    /// The transaction this context belongs to.
    tx_hash: TxHash,
    /// The marketplace the transaction interacted with, if any.
    marketplace: Option<Address>,
    /// ETH attached to the transaction (the price when nonzero).
    value: Wei,
    /// `(payer, amount)` of each ERC-20 transfer log, decoded once; empty
    /// when `value` is nonzero (never consulted then).
    erc20: Vec<(Address, u128)>,
}

impl TxPayment {
    /// Resolve the payment context of `tx`.
    fn resolve(tx: &Transaction, directory: &MarketplaceDirectory) -> TxPayment {
        let erc20 = if tx.value.is_zero() {
            tx.logs
                .iter()
                .filter_map(|log| log.decode_erc20_transfer())
                .map(|transfer| (transfer.from, transfer.amount))
                .collect()
        } else {
            Vec::new()
        };
        TxPayment {
            tx_hash: tx.hash,
            marketplace: tx.to.filter(|to| directory.by_contract(*to).is_some()),
            value: tx.value,
            erc20,
        }
    }

    /// Amount paid by `buyer`: the ETH attached to the transaction, or —
    /// when the payment went through an ERC-20 token (e.g. WETH bids) — the
    /// sum the buyer sent in that token's transfer logs. Log amounts are
    /// whatever the emitting contract wrote, so a sum that overflows `u128`
    /// counts as no ERC-20 payment: [`Wei::ZERO`].
    fn price_paid_by(&self, buyer: Address) -> Wei {
        if !self.value.is_zero() {
            return self.value;
        }
        let paid = self
            .erc20
            .iter()
            .filter(|(payer, _)| *payer == buyer)
            .try_fold(0u128, |sum, (_, amount)| sum.checked_add(*amount));
        Wei::new(paid.unwrap_or(0))
    }
}

/// What one decode shard produced, in execution order: the matching-log
/// count, every decoded transfer (compliance still undecided for contracts
/// first seen in this range — verdicts are a commit concern), the
/// contracts of the logs no decoder accepted, and the emitting contracts as
/// first-seen runs.
struct ShardBatch {
    raw_events: usize,
    transfers: Vec<NftTransfer>,
    /// The emitting contract of each matching log that failed to decode,
    /// skipped known-bad contracts excepted.
    undecodable: Vec<Address>,
    /// Contracts of the shard's matching logs, memoized per consecutive run
    /// (so the list is short, but every contract that emitted a matching log
    /// appears at least once — decode failures included, which the verdict
    /// sets must cover).
    contracts: Vec<Address>,
}

/// Per-phase instrumentation of one [`Dataset::ingest_blocks_instrumented`]
/// call — the breakdown behind the benchmark's `ingest.*` layer metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestMetrics {
    /// Wall time of the parallel decode fan-out, nanoseconds.
    pub decode_ns: u64,
    /// Wall time of the serial probe-and-commit pass, nanoseconds.
    pub commit_ns: u64,
    /// Wall time of the commit's serial fraction, nanoseconds. The whole
    /// commit is serial, so this always equals `commit_ns`; the benchmark
    /// reports it as its own layer metric.
    pub reconcile_ns: u64,
    /// Decode shards the block range was split into.
    pub shards: usize,
    /// Threads the decode fan-out actually used.
    pub threads: usize,
    /// ERC-721-shaped logs scanned (before the compliance filter).
    pub raw_events: usize,
    /// Compliant transfers committed.
    pub appended: usize,
    /// ERC-721-shaped logs of compliant contracts that no decoder accepted
    /// (e.g. a padded address topic), dropped without a transfer. Logs of
    /// non-compliant contracts are not counted: those already known are
    /// skipped before decode, so counting theirs would depend on slicing.
    pub undecodable: usize,
}

impl IngestMetrics {
    /// Total wall time across all phases, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.decode_ns + self.commit_ns
    }
}

impl Dataset {
    /// Ingest the ERC-721 transfers of blocks `[from, to]`: parallel
    /// block-sharded decode, then one serial commit in shard order (see the
    /// module docs for the shape). Returns the NFTs that gained transfers
    /// and how many were appended.
    ///
    /// Successive calls must cover disjoint, ascending block ranges (as a
    /// block cursor produces them); under that contract the dataset is
    /// identical to a one-shot [`Dataset::build`] over the same blocks, at
    /// any thread count and slicing.
    ///
    /// # Panics
    ///
    /// Panics if the range is non-empty and does not start after the block
    /// of the last stored transfer: rows are appended without re-sorting, so
    /// going back in the chain would unsort the per-NFT row slices.
    pub fn ingest_blocks(
        &mut self,
        chain: &Chain,
        directory: &MarketplaceDirectory,
        from: BlockNumber,
        to: BlockNumber,
        executor: &Executor,
    ) -> AppliedEntries {
        self.ingest_blocks_instrumented(chain, directory, from, to, executor).0
    }

    /// [`Dataset::ingest_blocks`] with per-phase timing, for the benchmark's
    /// ingest layer metrics and the pipeline's stage metrics.
    ///
    /// # Panics
    ///
    /// As [`Dataset::ingest_blocks`].
    pub fn ingest_blocks_instrumented(
        &mut self,
        chain: &Chain,
        directory: &MarketplaceDirectory,
        from: BlockNumber,
        to: BlockNumber,
        executor: &Executor,
    ) -> (AppliedEntries, IngestMetrics) {
        if let Some(&last) = self.columns.block.last() {
            assert!(
                from > to || from > last,
                "ingest of blocks {}..={} goes back in the chain: block {} is already stored",
                from.0,
                to.0,
                last.0
            );
        }
        let mut metrics = IngestMetrics::default();
        let entities_before = (
            self.interner.account_count(),
            self.interner.nft_count(),
            self.interner.market_count(),
        );
        let spans = chain.shard_blocks(from, to, executor.threads());
        metrics.shards = spans.len();
        metrics.threads = executor.threads_for(spans.len());

        let mut decode_trace = obs::trace::span("ingest.decode");
        decode_trace.attr("shards", spans.len() as u64);
        let non_compliant = &self.non_compliant_contracts;
        let batches =
            executor.map(&spans, |span| decode_span(chain, directory, non_compliant, *span));
        metrics.decode_ns = nanos(decode_trace.finish());

        // Ordered probe-and-commit: shards are contiguous block ranges in
        // ascending order, so probing each shard's contracts and appending
        // its transfers in shard order reproduces the serial probe-and-push
        // sequence — and with it the verdict sets and the id assignment —
        // exactly.
        let mut commit_trace = obs::trace::span("ingest.commit");
        let mut applied = AppliedEntries::default();
        let total: usize = batches.iter().map(|batch| batch.transfers.len()).sum();
        self.columns.reserve(total);
        applied.dirty.reserve(total);
        // NFT logs cluster by contract, so one memoized verdict covers whole
        // runs of transfers without touching the sets.
        let mut verdict: Option<(Address, bool)> = None;
        for batch in &batches {
            self.raw_transfer_events += batch.raw_events;
            metrics.raw_events += batch.raw_events;
            // Shard balance: how evenly decode distributed the rows.
            obs::histogram!("ingest.shard_transfers", batch.transfers.len() as u64);
            // Compliance probe (§III-A) for the contracts this shard saw.
            for &contract in &batch.contracts {
                self.probe_contract(chain, contract);
            }
            metrics.undecodable += batch
                .undecodable
                .iter()
                .filter(|contract| self.compliant_contracts.contains(*contract))
                .count();
            for transfer in &batch.transfers {
                let contract = transfer.nft.contract;
                let compliant = match verdict {
                    Some((memoized, ok)) if memoized == contract => ok,
                    _ => {
                        let ok = self.compliant_contracts.contains(&contract);
                        verdict = Some((contract, ok));
                        ok
                    }
                };
                if !compliant {
                    continue;
                }
                applied.dirty.push(self.push_transfer(transfer));
                applied.appended += 1;
            }
        }
        applied.dirty.sort_unstable();
        applied.dirty.dedup();
        metrics.appended = applied.appended;
        commit_trace.attr("appended", applied.appended as u64);
        metrics.commit_ns = nanos(commit_trace.finish());
        metrics.reconcile_ns = metrics.commit_ns;
        self.record_ingest_metrics(&metrics, entities_before);
        (applied, metrics)
    }

    /// Publish one ingest call's counts and entity deltas into the
    /// process-wide metrics registry (`ingest.*` — see the README's metric
    /// catalog; the phase spans record `ingest.{decode,commit}_ns`). Purely
    /// observational: nothing here feeds back into results.
    fn record_ingest_metrics(
        &self,
        metrics: &IngestMetrics,
        entities_before: (usize, usize, usize),
    ) {
        if !obs::recording() {
            return;
        }
        obs::counter!("ingest.calls");
        obs::counter!("ingest.raw_events", metrics.raw_events as u64);
        obs::counter!("ingest.transfers", metrics.appended as u64);
        obs::counter!("ingest.undecodable_logs", metrics.undecodable as u64);
        obs::counter!("ingest.shards", metrics.shards as u64);
        let (accounts, nfts, markets) = entities_before;
        obs::counter!("ingest.new_accounts", (self.interner.account_count() - accounts) as u64);
        obs::counter!("ingest.new_nfts", (self.interner.nft_count() - nfts) as u64);
        obs::counter!("ingest.new_markets", (self.interner.market_count() - markets) as u64);
    }
}

/// Decode one shard: scan the span's matching logs (borrowed, not cloned),
/// resolve the payment once per transaction, and emit every decoded
/// transfer plus the contract run-list, all in execution order. Purely
/// read-only: `non_compliant` is the verdict cache as of previous ingest
/// calls, used to drop known-bad contracts before any payment work;
/// verdicts for contracts first seen here are decided at commit.
fn decode_span(
    chain: &Chain,
    directory: &MarketplaceDirectory,
    non_compliant: &FxHashSet<Address>,
    span: BlockSpan,
) -> ShardBatch {
    let filter = Dataset::transfer_filter();
    let mut batch = ShardBatch {
        raw_events: 0,
        // Most matching logs decode into exactly one transfer and most
        // transactions carry at most one, so the span's transaction count is
        // a good upper-bound first allocation.
        transfers: Vec::with_capacity(chain.transaction_count_in_blocks(span.first, span.last)),
        undecodable: Vec::new(),
        contracts: Vec::new(),
    };
    // One memoized verdict covers whole runs of same-contract logs.
    let mut known_bad: Option<(Address, bool)> = None;
    let mut payment: Option<TxPayment> = None;
    chain.for_each_log_in_blocks(span.first, span.last, &filter, |tx, _index, log| {
        batch.raw_events += 1;
        if batch.contracts.last() != Some(&log.address) {
            batch.contracts.push(log.address);
        }
        let bad = match known_bad {
            Some((memoized, bad)) if memoized == log.address => bad,
            _ => {
                let bad = non_compliant.contains(&log.address);
                known_bad = Some((log.address, bad));
                bad
            }
        };
        if bad {
            return;
        }
        let Some(decoded) = log.decode_erc721_transfer() else {
            batch.undecodable.push(log.address);
            return;
        };
        // The visitor hands over the owning transaction, so the payment
        // context costs no hash lookup — just a once-per-transaction resolve.
        if payment.as_ref().map(|cached| cached.tx_hash) != Some(tx.hash) {
            payment = Some(TxPayment::resolve(tx, directory));
        }
        let payment = payment.as_ref().expect("payment context resolved above");
        batch.transfers.push(NftTransfer {
            nft: NftId::new(decoded.contract, decoded.token_id),
            from: decoded.from,
            to: decoded.to,
            tx_hash: tx.hash,
            block: tx.block,
            timestamp: tx.timestamp,
            price: payment.price_paid_by(decoded.to),
            marketplace: payment.marketplace,
        });
    });
    batch
}

/// A span's reading as whole nanoseconds, clamped to 1 ns: a zero would be
/// indistinguishable from "not measured" in downstream tooling.
pub(crate) fn nanos(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos().max(1)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::NftKey;
    use workload::{EpochPlan, WorkloadConfig, World};

    #[test]
    fn sharded_ingest_matches_serial_build_at_every_thread_count() {
        let world = World::generate(WorkloadConfig::small(17)).expect("world");
        let serial = Dataset::build(&world.chain, &world.directory);
        assert!(serial.transfer_count() > 0);
        assert!(!serial.non_compliant_contracts.is_empty(), "world plants rogue contracts");
        for threads in [2, 4, 8] {
            let parallel =
                Dataset::build_with(&world.chain, &world.directory, &Executor::new(threads));
            assert_eq!(parallel, serial, "threads = {threads}");
            assert_eq!(parallel.interner.accounts(), serial.interner.accounts());
        }
    }

    #[test]
    fn sharded_ingest_matches_serial_ingest_over_the_same_blocks() {
        let world = World::generate(WorkloadConfig::small(23)).expect("world");
        let tip = world.chain.current_block_number();
        let mid = BlockNumber(tip.0 / 2);
        let halves = [(BlockNumber(0), mid), (BlockNumber(mid.0 + 1), tip)];
        let ingest = |threads: usize| {
            let mut dataset = Dataset::default();
            let deltas: Vec<AppliedEntries> = halves
                .iter()
                .map(|&(from, to)| {
                    let executor = Executor::new(threads);
                    dataset.ingest_blocks(&world.chain, &world.directory, from, to, &executor)
                })
                .collect();
            (dataset, deltas)
        };
        let (sharded, sharded_deltas) = ingest(4);
        let (reference, reference_deltas) = ingest(1);
        assert_eq!(sharded, reference);
        assert_eq!(sharded, Dataset::build(&world.chain, &world.directory));
        assert_eq!(sharded_deltas[0], reference_deltas[0], "first epoch delta diverged");
        assert_eq!(sharded_deltas[1], reference_deltas[1], "second epoch delta diverged");
    }

    #[test]
    fn ingest_deltas_match_the_appended_rows() {
        // Generated worlds decode every matching log, so append one that no
        // decoder accepts (a padded `from` topic): it counts as a raw event
        // but yields no transfer.
        let mut world = World::generate(WorkloadConfig::small(23)).expect("world");
        let collection = world.collections[0];
        let chain = &mut world.chain;
        chain.advance_to(chain.current_timestamp().plus_secs(13)).expect("monotonic");
        let sender = chain.create_eoa("padder").expect("fresh account");
        chain.fund(sender, Wei::from_eth(1.0));
        let mut padded = ethsim::Log::erc721_transfer(collection, sender, sender, 7);
        padded.topics[1].0[0] = 0xff;
        let call = ethsim::Selector::of("transferFrom(address,address,uint256)");
        let request = ethsim::TxRequest::contract_call(
            sender,
            collection,
            call,
            Wei::ZERO,
            90_000,
            Wei::from_gwei(30),
        );
        chain.submit(request.with_log(padded)).expect("accepted");
        let plan = EpochPlan::straddling(&world, 5);
        let filter = Dataset::transfer_filter();
        for threads in [1, 8] {
            let executor = Executor::new(threads);
            let mut dataset = Dataset::default();
            let mut from = BlockNumber(0);
            let mut undecodable = 0;
            for &to in &plan.ends {
                let rows_before = dataset.transfer_count();
                let (applied, metrics) = dataset.ingest_blocks_instrumented(
                    &world.chain,
                    &world.directory,
                    from,
                    to,
                    &executor,
                );
                let mut appended_keys: Vec<NftKey> = dataset.columns.nft[rows_before..].to_vec();
                appended_keys.sort_unstable();
                appended_keys.dedup();
                let context = format!("blocks {}..={} at {threads} threads", from.0, to.0);
                assert_eq!(applied.dirty, appended_keys, "{context}: dirty");
                assert_eq!(applied.appended, dataset.transfer_count() - rows_before, "{context}");
                assert_eq!(metrics.appended, applied.appended, "{context}");
                assert_eq!(
                    metrics.raw_events,
                    world.chain.logs_in_blocks(from, to, &filter).len(),
                    "{context}: raw events"
                );
                undecodable += metrics.undecodable;
                from = BlockNumber(to.0 + 1);
            }
            assert_eq!(undecodable, 1, "the padded log, counted once at {threads} threads");
            assert_eq!(dataset, Dataset::build(&world.chain, &world.directory));
        }
    }

    #[test]
    #[should_panic(expected = "goes back in the chain")]
    fn ingest_that_goes_back_in_the_chain_panics() {
        let world = World::generate(WorkloadConfig::small(23)).expect("world");
        let tip = world.chain.current_block_number();
        let executor = Executor::new(1);
        let mut dataset = Dataset::build(&world.chain, &world.directory);
        let last = *dataset.columns.block.last().expect("the world has transfers");
        dataset.ingest_blocks(&world.chain, &world.directory, last, tip, &executor);
    }

    #[test]
    fn instrumented_ingest_reports_phases_and_counts() {
        let world = World::generate(WorkloadConfig::small(5)).expect("world");
        let mut dataset = Dataset::default();
        let (applied, metrics) = dataset.ingest_blocks_instrumented(
            &world.chain,
            &world.directory,
            BlockNumber(0),
            world.chain.current_block_number(),
            &Executor::new(4),
        );
        assert_eq!(metrics.appended, applied.appended);
        assert_eq!(metrics.appended, dataset.transfer_count());
        assert_eq!(metrics.raw_events, dataset.raw_transfer_events);
        assert!(metrics.shards >= 1 && metrics.threads >= 1);
        assert!(metrics.decode_ns > 0 && metrics.commit_ns > 0);
        assert!(metrics.reconcile_ns <= metrics.commit_ns);
        assert_eq!(metrics.total_ns(), metrics.decode_ns + metrics.commit_ns);
    }

    #[test]
    fn fallback_reports_a_fully_serial_commit() {
        let world = World::generate(WorkloadConfig::small(5)).expect("world");
        for threads in [1, 4] {
            let mut dataset = Dataset::default();
            let (_, metrics) = dataset.ingest_blocks_instrumented(
                &world.chain,
                &world.directory,
                BlockNumber(0),
                world.chain.current_block_number(),
                &Executor::new(threads),
            );
            assert!((1..=threads).contains(&metrics.threads));
            assert_eq!(
                metrics.reconcile_ns, metrics.commit_ns,
                "the commit is serial end to end at {threads} threads"
            );
            assert_eq!(metrics.decode_ns + metrics.commit_ns, metrics.total_ns());
        }
    }

    #[test]
    fn overflowing_erc20_payment_counts_as_no_payment() {
        use ethsim::{Log, Selector, Timestamp, TxRequest};
        // Two `Transfer` logs of u128::MAX from the buyer: their sum
        // overflows, so the sale carries no ERC-20 payment.
        let mut chain = Chain::new(Timestamp::from_secs(1_640_995_200));
        let mut tokens = tokens::TokenRegistry::new();
        let genesis = chain.current_timestamp();
        let collection = tokens.deploy_erc721(&mut chain, "big", "Big", true, genesis).unwrap();
        let seller = chain.create_eoa("seller").unwrap();
        let buyer = chain.create_eoa("buyer").unwrap();
        chain.fund(buyer, Wei::from_eth(5.0));
        let weth = Address::derived("weth");
        let payment = Log::erc20_transfer(weth, buyer, seller, u128::MAX);
        let call = Selector::of("transferFrom(address,address,uint256)");
        let request = TxRequest::contract_call(
            buyer,
            collection,
            call,
            Wei::ZERO,
            90_000,
            Wei::from_gwei(30),
        )
        .with_logs([
            Log::erc721_transfer(collection, seller, buyer, 1),
            payment.clone(),
            payment,
        ]);
        chain.submit(request).unwrap();
        let dataset = Dataset::build(&chain, &MarketplaceDirectory::new());
        let transfers = dataset.transfers_of(NftId::new(collection, 1));
        assert_eq!(transfers.len(), 1);
        assert_eq!(transfers[0].price, Wei::ZERO);
    }

    proptest::proptest! {
        // One transaction's logs: valid ERC-20 transfers from three payers,
        // to the seller or to another payer, with amounts small, near 2^127
        // or near u128::MAX; ERC-721 transfers to the payers; and both kinds
        // mangled the way the log decoders' proptest mangles them (topic
        // count, a non-zero address-padding byte, an amount word ≥ 2^128 or
        // a token id word ≥ 2^64, data length). The attached value is zero
        // in half the cases. Resolution never panics. A non-zero value is
        // every buyer's price. Otherwise a buyer pays the sum of the ERC-20
        // transfers they sent that a mangling left decodable, or nothing
        // when that sum overflows u128. No other log counts.
        #[test]
        fn payment_is_the_value_or_the_buyer_s_decodable_erc20_sum(
            logs in proptest::collection::vec(
                (
                    (0usize..3, 0usize..9),
                    ((0u64..u64::MAX, 0u64..u64::MAX), (0usize..97, 1u16..256)),
                ),
                0..10,
            ),
            (value, noise) in (0u64..4, proptest::collection::vec(0u16..256, 192..193)),
        ) {
            use ethsim::{Log, Timestamp, B256};
            let noise: Vec<u8> = noise.into_iter().map(|byte| byte as u8).collect();
            let payers: Vec<Address> =
                (0..3).map(|i| Address::derived(&format!("payer-{i}"))).collect();
            let (collection, weth) = (Address::derived("collection"), Address::derived("weth"));
            let seller = Address::derived("seller");
            // Each counted ERC-20 transfer as (payer, amount), known by
            // construction rather than by decoding.
            let mut paid: Vec<(Address, u128)> = Vec::new();
            let mut tx_logs = Vec::new();
            for ((payer, kind), ((high, low), (param, byte))) in logs {
                let byte = byte as u8;
                let amount = match high % 3 {
                    0 => u128::from(low),
                    1 => u128::MAX - u128::from(low),
                    _ => (1 << 127) | u128::from(low),
                };
                let to = if kind == 2 { payers[(payer + 1) % 3] } else { seller };
                let mut log = Log::erc20_transfer(weth, payers[payer], to, amount);
                let counts = match kind {
                    0..=2 => true,
                    3 => {
                        log = Log::erc721_transfer(collection, seller, payers[payer], low);
                        false
                    }
                    4 => {
                        let topics = param % 7;
                        log.topics.truncate(topics);
                        while log.topics.len() < topics {
                            let slot = log.topics.len() - 3;
                            let mut word = [0u8; 32];
                            word.copy_from_slice(&noise[32 * slot..][..32]);
                            log.topics.push(B256(word));
                        }
                        topics == 3
                    }
                    5 => {
                        log.topics[1 + param % 2].0[param % 12] = byte;
                        false
                    }
                    6 => {
                        log.data[param % 16] = byte;
                        false
                    }
                    7 => {
                        log.data.truncate(param);
                        let kept = log.data.len();
                        log.data.extend_from_slice(&noise[96..96 + param - kept]);
                        param == 32
                    }
                    _ => {
                        // An ERC-721 log keeps four topics or empty data, so
                        // no mangling makes it ERC-20-shaped.
                        log = Log::erc721_transfer(collection, seller, payers[payer], low);
                        let at = param / 4;
                        match param % 4 {
                            0 => log.topics.truncate(at % 4),
                            1 => log.topics[1 + at % 2].0[at % 12] = byte,
                            2 => log.topics[3].0[at] = byte,
                            _ => log.data.extend_from_slice(&noise[..at]),
                        }
                        false
                    }
                };
                if counts {
                    paid.push((payers[payer], amount));
                }
                tx_logs.push(log);
            }
            let value = match value {
                0 | 1 => Wei::ZERO,
                2 => Wei::from_eth(0.5),
                _ => Wei::new(u128::MAX),
            };
            let tx = Transaction {
                hash: TxHash::hash_of(b"payment"),
                block: BlockNumber(1),
                timestamp: Timestamp::from_secs(1_640_995_200),
                from: payers[0],
                to: Some(collection),
                value,
                gas_used: 90_000,
                gas_price: Wei::from_gwei(30),
                input: Vec::new(),
                logs: tx_logs,
                internal_transfers: Vec::new(),
            };
            let payment = TxPayment::resolve(&tx, &MarketplaceDirectory::new());
            for buyer in payers.iter().copied().chain([seller, Address::derived("bystander")]) {
                let expected = if !value.is_zero() {
                    value
                } else {
                    // A carry out of any partial sum means the whole sum
                    // exceeds u128::MAX: amounts are non-negative.
                    let (sum, overflowed) = paid
                        .iter()
                        .filter(|(payer, _)| *payer == buyer)
                        .fold((0u128, false), |(sum, overflowed), (_, amount)| {
                            let (sum, carry) = sum.overflowing_add(*amount);
                            (sum, overflowed || carry)
                        });
                    if overflowed { Wei::ZERO } else { Wei::new(sum) }
                };
                proptest::prop_assert_eq!(payment.price_paid_by(buyer), expected, "{:?}", tx.logs);
            }
        }
    }

    #[test]
    fn payment_context_reproduces_per_log_resolution() {
        let world = World::generate(WorkloadConfig::small(11)).expect("world");
        for tx in world.chain.transactions() {
            let payment = TxPayment::resolve(tx, &world.directory);
            for log in &tx.logs {
                let Some(decoded) = log.decode_erc721_transfer() else {
                    continue;
                };
                let expected = if !tx.value.is_zero() {
                    tx.value
                } else {
                    Wei::new(
                        tx.logs
                            .iter()
                            .filter_map(|l| l.decode_erc20_transfer())
                            .filter(|t| t.from == decoded.to)
                            .map(|t| t.amount)
                            .sum(),
                    )
                };
                assert_eq!(payment.price_paid_by(decoded.to), expected);
                assert_eq!(
                    payment.marketplace,
                    tx.to.filter(|to| world.directory.by_contract(*to).is_some())
                );
            }
        }
    }
}
