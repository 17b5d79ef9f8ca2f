//! The headline invariant of the streaming subsystem: after ingesting all
//! epochs, the [`LiveReport`] is bit-identical to a batch `analyze()` over
//! the same chain — same wash-trade sets, Venn counts and characterization —
//! at any epoch size and any thread count. Plus the dirty-set guarantee:
//! mid-stream epochs re-detect strictly fewer NFTs than the total.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ethsim::{BlockNumber, Timestamp, Wei};
use tokens::NftId;
use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions, AnalysisReport};
use washtrade_stream::{LiveReport, NftStatus, StreamAnalyzer, StreamOptions};
use workload::{WorkloadConfig, World};

fn input_of(world: &World) -> AnalysisInput<'_> {
    AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    }
}

fn assert_live_equals_batch(live: &LiveReport, batch: &AnalysisReport, context: &str) {
    assert_eq!(live.detection, batch.detection, "detection diverged ({context})");
    assert_eq!(live.refinement, batch.refinement, "refinement diverged ({context})");
    assert_eq!(
        live.characterization, batch.characterization,
        "characterization diverged ({context})"
    );
    assert_eq!(live.dataset_nfts, batch.dataset_nfts, "NFT count diverged ({context})");
    assert_eq!(
        live.dataset_transfers, batch.dataset_transfers,
        "transfer count diverged ({context})"
    );
    assert_eq!(
        live.raw_transfer_events, batch.raw_transfer_events,
        "raw event count diverged ({context})"
    );
    assert_eq!(
        (live.compliant_contracts, live.non_compliant_contracts),
        (batch.compliant_contracts, batch.non_compliant_contracts),
        "compliance counts diverged ({context})"
    );
    assert_eq!(live.rewards, batch.rewards, "reward report diverged ({context})");
    assert_eq!(live.resales, batch.resales, "resale report diverged ({context})");
}

/// Reference recomputation of `suspects_since`: replay the per-epoch deltas
/// to recover each NFT's *latest* confirmation epoch (exactly the
/// bookkeeping the analyzer keeps), then filter by the currently confirmed
/// set — the linear scan the snapshot index replaced.
fn reference_suspects_since(report: &LiveReport, block: BlockNumber) -> Vec<NftId> {
    let mut first_confirmed: HashMap<NftId, BlockNumber> = HashMap::new();
    for delta in &report.epochs {
        for nft in &delta.new_suspects {
            first_confirmed.insert(*nft, delta.last_block);
        }
    }
    let confirmed: std::collections::BTreeSet<NftId> =
        report.detection.confirmed.iter().map(|a| a.nft()).collect();
    let mut suspects: Vec<NftId> = first_confirmed
        .into_iter()
        .filter(|(nft, confirmed_at)| *confirmed_at >= block && confirmed.contains(nft))
        .map(|(nft, _)| nft)
        .collect();
    suspects.sort_unstable();
    suspects
}

/// Reference recomputation of `top_movers`: aggregate confirmed wash volume
/// per NFT straight from the live report — the per-query scan the snapshot
/// ranking replaced.
fn reference_top_movers(report: &LiveReport, n: usize) -> Vec<(NftId, Wei)> {
    let mut volume_by_nft: BTreeMap<NftId, Wei> = BTreeMap::new();
    for activity in &report.detection.confirmed {
        let entry = volume_by_nft.entry(activity.nft()).or_insert(Wei::ZERO);
        *entry += activity.candidate.volume;
    }
    let mut ranked: Vec<(NftId, Wei)> = volume_by_nft.into_iter().collect();
    ranked.sort_by_key(|(nft, volume)| (std::cmp::Reverse(*volume), *nft));
    ranked.truncate(n);
    ranked
}

/// A world small enough that the proptest's 96 cases stay fast, while still
/// containing every ingredient (non-compliant contracts, shuffles, serial
/// traders) the pipeline filters on.
fn tiny_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        start: Timestamp::from_secs(1_609_459_200),
        duration_days: 80,
        collections: 4,
        non_compliant_collections: 1,
        erc1155_collections: 1,
        dex_position_nfts: 2,
        legit_traders: 12,
        legit_sales: 30,
        zero_volume_shuffles: 2,
        wash_activities: 10,
        serial_trader_fraction: 0.3,
        gas_price_gwei: 40,
    }
}

#[test]
fn live_report_matches_batch_at_any_thread_count() {
    let world = World::generate(WorkloadConfig::small(2024)).expect("world");
    let input = input_of(&world);
    let batch = analyze_with(input, AnalysisOptions::single_threaded());
    assert!(!batch.detection.confirmed.is_empty(), "world must contain detectable activity");

    let plan = world.epoch_plan(4);
    assert!(plan.len() >= 3, "the straddling plan must produce at least 3 epochs");
    for threads in [1, 0] {
        let mut live = StreamAnalyzer::new(input, StreamOptions { threads });
        let mut deltas = Vec::new();
        for budget in plan.budgets() {
            deltas.push(live.ingest_epoch(budget).expect("plan budgets cover the chain"));
        }
        assert!(live.is_caught_up());
        assert!(live.ingest_epoch(1).is_none());
        assert_live_equals_batch(live.report(), &batch, &format!("threads = {threads}"));

        // Dirty-set guarantee: once the NFT population is established, an
        // epoch re-detects strictly fewer NFTs than the total.
        let mid_stream = deltas.iter().skip(1).find(|d| d.total_nfts > 0).expect("mid epochs");
        assert!(
            mid_stream.dirty_nfts < mid_stream.total_nfts,
            "epoch {} re-detected every NFT ({} of {}), dirty-set scheduling is broken",
            mid_stream.index,
            mid_stream.dirty_nfts,
            mid_stream.total_nfts,
        );
        assert!(deltas.iter().any(|d| d.dirty_nfts > 0), "some epoch must touch NFTs");
    }
}

#[test]
fn query_api_is_consistent_with_the_live_report() {
    let world = World::generate(WorkloadConfig::small(7)).expect("world");
    let input = input_of(&world);
    let mut live = StreamAnalyzer::new(input, StreamOptions::default());
    let epochs = live.run_to_tip(400);
    assert!(epochs >= 2, "expected a multi-epoch run, got {epochs}");

    let report = live.report();
    assert!(!report.detection.confirmed.is_empty());
    for activity in &report.detection.confirmed {
        match live.status(activity.nft()) {
            NftStatus::Confirmed { activities, volume } => {
                assert!(activities >= 1);
                assert!(!volume.is_zero() || activity.candidate.volume.is_zero());
            }
            other => panic!("confirmed NFT {:?} reported as {other:?}", activity.nft()),
        }
    }
    // Every confirmed NFT was first confirmed somewhere within the chain.
    let all = live.suspects_since(ethsim::BlockNumber(0));
    let confirmed: std::collections::BTreeSet<_> =
        report.detection.confirmed.iter().map(|a| a.nft()).collect();
    assert_eq!(all, confirmed.iter().copied().collect::<Vec<_>>());
    // Top movers are ranked by volume, descending, and drawn from the
    // confirmed set.
    let movers = live.top_movers(5);
    assert!(movers.windows(2).all(|w| w[0].1 >= w[1].1));
    for (nft, _) in &movers {
        assert!(confirmed.contains(nft));
    }
    // An NFT that never traded is unseen.
    let ghost = tokens::NftId::new(ethsim::Address::derived("no-such-collection"), 0);
    assert_eq!(live.status(ghost), NftStatus::Unseen);
}

/// The partial-cache stress test: one world and epoch slicing (found by a
/// deterministic scan, pinned here) that exhibits every adversarial cache
/// transition at once —
///
/// * **suspect decay**: a previously confirmed NFT leaves the confirmed set
///   when its components merge (`lost_suspects > 0`), so stale partials must
///   be *removed* from every maintained aggregate, not just overwritten;
/// * **non-adjacent re-dirtying**: NFTs gain transfers in two epochs with a
///   quiet epoch in between, so partials survive an epoch of disuse and are
///   then replaced;
/// * **zero-dirty epoch**: an epoch whose blocks touch no NFT, so the
///   reassembly runs entirely from caches with an empty dirty set.
///
/// At every epoch, the incrementally reassembled [`LiveReport`] must be
/// bit-identical to [`StreamAnalyzer::rebuild_full_report`] — the
/// pre-incremental full-rescan tail over the same caches — and at the tip to
/// the batch report; all of it at 1, 2, 4 and 8 threads. The epoch's suspect
/// transitions, read off the reassembly's group diff, must match a set
/// difference of consecutive reports' confirmed NFTs, and the suspect log
/// must hold exactly the confirmed NFTs, mid-stream included.
#[test]
fn partial_caches_survive_adversarial_transitions() {
    let world = World::generate(tiny_config(11)).expect("world");
    let input = input_of(&world);
    let batch = analyze_with(input, AnalysisOptions::single_threaded());

    for threads in [1usize, 2, 4, 8] {
        let mut live = StreamAnalyzer::new(input, StreamOptions { threads });
        let mut lost_total = 0usize;
        let mut zero_dirty_epochs = 0usize;
        let mut previous_confirmed: BTreeSet<NftId> = BTreeSet::new();
        while let Some(delta) = live.ingest_epoch(7) {
            let confirmed: BTreeSet<NftId> =
                live.report().detection.confirmed.iter().map(|a| a.nft()).collect();
            assert_eq!(
                delta.new_suspects,
                confirmed.difference(&previous_confirmed).copied().collect::<Vec<_>>(),
                "new suspects diverged at epoch {} (threads {threads})",
                delta.index,
            );
            assert_eq!(
                delta.lost_suspects,
                previous_confirmed.difference(&confirmed).count(),
                "lost suspects diverged at epoch {} (threads {threads})",
                delta.index,
            );
            assert_eq!(
                live.suspects_since(BlockNumber(0)),
                confirmed.iter().copied().collect::<Vec<_>>(),
                "suspect log is not the confirmed set at epoch {} (threads {threads})",
                delta.index,
            );
            previous_confirmed = confirmed;
            lost_total += delta.lost_suspects;
            if delta.dirty_nfts == 0 {
                zero_dirty_epochs += 1;
            }
            // The epoch-granular invariant: the dirty-driven reassembly and
            // a from-scratch rebuild over the same per-NFT caches agree on
            // every field, mid-stream included.
            assert_eq!(
                live.report(),
                &live.rebuild_full_report(),
                "incremental reassembly diverged from the full rescan at epoch {} \
                 (threads {threads})",
                delta.index,
            );
        }
        // The scenarios this fixture was picked for actually occurred.
        assert!(lost_total > 0, "fixture lost no suspect (threads {threads})");
        assert!(zero_dirty_epochs > 0, "fixture had no zero-dirty epoch (threads {threads})");
        assert_live_equals_batch(
            live.report(),
            &batch,
            &format!("adversarial fixture, threads {threads}"),
        );
    }

    // Pin the non-adjacent re-dirtying ingredient explicitly: at least one
    // NFT must gain transfers in two epochs that are not consecutive.
    let executor = washtrade::parallel::Executor::new(1);
    let mut cursor = washtrade_stream::BlockCursor::new();
    let mut dataset = washtrade::dataset::Dataset::default();
    let mut dirty_epochs: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut index = 0usize;
    while let Some(span) = cursor.next_epoch(&world.chain, 7) {
        let applied =
            dataset.ingest_blocks(&world.chain, &world.directory, span.first, span.last, &executor);
        for key in &applied.dirty {
            dirty_epochs.entry(key.0).or_default().push(index);
        }
        index += 1;
    }
    assert!(
        dirty_epochs.values().any(|epochs| epochs.windows(2).any(|w| w[1] - w[0] >= 2)),
        "fixture dirtied no NFT in two non-adjacent epochs"
    );
}

/// A leverage flip on an NFT the epoch did not touch (§IV-C v). The pair
/// `{a, b}` buys NFT `x` from an outsider and round-trips it, with no flow
/// evidence, so `x` stays unconfirmed. A later epoch brings a zero-risk round
/// trip of NFT `y` by the same pair: it confirms `{a, b}`, and with it `x`
/// by leverage, although that epoch dirties `y` alone. The epoch must list
/// both as new suspects, and its report must equal the full rescan and, at
/// the tip, batch.
#[test]
fn leverage_flips_reach_nfts_the_epoch_did_not_touch() {
    use ethsim::{Address, Chain, Selector, TxRequest};
    use tokens::TokenRegistry;

    let mut chain = Chain::new(Timestamp::from_secs(1_640_995_200));
    let mut tokens = TokenRegistry::new();
    let genesis = chain.current_timestamp();
    let collection = tokens.deploy_erc721(&mut chain, "lever", "LEV", true, genesis).unwrap();
    let [outsider, a, b] = ["outsider", "a", "b"].map(|seed| {
        let account = chain.create_eoa(seed).unwrap();
        chain.fund(account, Wei::from_eth(10.0));
        account
    });
    // One transaction a day, each in its own block: a mint by its
    // recipient, or a sale paid by the buyer to the seller.
    let next_day = |chain: &mut Chain| {
        chain.advance_to(chain.current_timestamp().plus_secs(86_400)).unwrap();
    };
    let mint = |chain: &mut Chain, tokens: &mut TokenRegistry, owner: Address| {
        let (nft, log) = tokens.erc721_mut(collection).unwrap().mint(owner);
        let call = Selector::of("mint(address)");
        let request = TxRequest::contract_call(
            owner,
            collection,
            call,
            Wei::ZERO,
            90_000,
            Wei::from_gwei(30),
        );
        chain.submit(request.with_log(log)).unwrap();
        nft
    };
    let sell = |chain: &mut Chain, tokens: &mut TokenRegistry, nft: NftId, seller, buyer, eth| {
        let log = tokens.erc721_mut(collection).unwrap().transfer(seller, buyer, nft.token_id);
        chain
            .submit(TxRequest {
                from: buyer,
                to: Some(seller),
                value: Wei::from_eth(eth),
                gas_used: 85_000,
                gas_price: Wei::from_gwei(30),
                input: vec![],
                logs: vec![log.unwrap()],
                internal_transfers: vec![],
            })
            .unwrap();
    };
    let x = mint(&mut chain, &mut tokens, outsider);
    for (seller, buyer, eth) in [(outsider, a, 1.0), (a, b, 2.0), (b, a, 2.0)] {
        next_day(&mut chain);
        sell(&mut chain, &mut tokens, x, seller, buyer, eth);
    }
    next_day(&mut chain);
    let split = chain.current_block_number().0;
    let y = mint(&mut chain, &mut tokens, a);
    for (seller, buyer) in [(a, b), (b, a)] {
        next_day(&mut chain);
        sell(&mut chain, &mut tokens, y, seller, buyer, 2.0);
    }

    let labels = labels::LabelRegistry::new();
    let directory = marketplace::MarketplaceDirectory::new();
    let oracle = oracle::PriceOracle::paper_presets(genesis, 30, 1);
    let input =
        AnalysisInput { chain: &chain, labels: &labels, directory: &directory, oracle: &oracle };
    let mut live = StreamAnalyzer::new(input, StreamOptions::single_threaded());
    let first = live.ingest_epoch(split).expect("x's blocks");
    assert_eq!(first.new_suspects, Vec::<NftId>::new(), "x alone is no wash trade");
    assert_eq!(live.status(x), NftStatus::Candidate { components: 1 });
    let second = live.ingest_epoch(u64::MAX).expect("y's blocks");
    assert_eq!(second.dirty_nfts, 1, "the second epoch touches y alone");
    let mut both = vec![x, y];
    both.sort();
    assert_eq!(second.new_suspects, both);
    assert!(matches!(live.status(x), NftStatus::Confirmed { activities: 1, .. }));
    let report = live.report();
    assert_eq!(report.detection.leveraged_only, 1);
    assert_eq!(report, &live.rebuild_full_report());
    assert_live_equals_batch(
        report,
        &analyze_with(input, AnalysisOptions::single_threaded()),
        "tip",
    );
    assert_eq!(live.suspects_since(BlockNumber(0)), both);
}

proptest::proptest! {
    // Also reads the report after a random subset of epochs (bit `i % 64`
    // of `reads` picks epoch `i`): a read builds and caches the report, so a
    // cache the next epoch failed to drop would leave the final report
    // stale.
    #[test]
    fn streaming_equals_batch_at_random_epoch_slicings(
        seed in 0u64..1_000,
        threads in 1usize..5,
        budgets in proptest::collection::vec(1u64..120, 1..6),
        reads in 0u64..u64::MAX,
    ) {
        let world = World::generate(tiny_config(seed)).expect("world");
        let input = input_of(&world);
        let batch = analyze_with(
            input,
            AnalysisOptions { threads, ..AnalysisOptions::default() },
        );

        let mut live = StreamAnalyzer::new(input, StreamOptions { threads });
        let mut cycle = budgets.iter().cycle();
        while let Some(delta) = live.ingest_epoch(*cycle.next().expect("non-empty budgets")) {
            if reads >> (delta.index % 64) & 1 == 1 {
                let report = live.report();
                proptest::prop_assert_eq!(report.epochs.len(), delta.index + 1);
                proptest::prop_assert_eq!(report.watermark, BlockNumber(delta.last_block.0 + 1));
            }
        }

        let context = format!("seed {seed}, threads {threads}, budgets {budgets:?}, reads {reads:#x}");
        assert_live_equals_batch(live.report(), &batch, &context);
        proptest::prop_assert_eq!(live.report(), &live.rebuild_full_report(), "{}", context);

        // The wash-trade sets agree exactly (redundant with the detection
        // equality above, but this is the set the paper's tables build on —
        // assert it explicitly).
        let live_sets: Vec<_> = live
            .report()
            .detection
            .confirmed
            .iter()
            .map(|a| (a.nft(), a.accounts().to_vec()))
            .collect();
        let batch_sets: Vec<_> = batch
            .detection
            .confirmed
            .iter()
            .map(|a| (a.nft(), a.accounts().to_vec()))
            .collect();
        proptest::prop_assert_eq!(live_sets, batch_sets);
        proptest::prop_assert_eq!(live.report().detection.venn, batch.detection.venn);
        proptest::prop_assert_eq!(
            live.report().characterization.total_activities,
            batch.characterization.total_activities
        );

        // The snapshot-served query helpers stay bit-identical to the
        // pre-index linear scans they replaced, at every window and size.
        let report = live.report();
        let tip = report.watermark;
        for block in [0, tip.0 / 3, tip.0 / 2, tip.0.saturating_sub(1), tip.0] {
            proptest::prop_assert_eq!(
                live.suspects_since(BlockNumber(block)),
                reference_suspects_since(report, BlockNumber(block)),
                "suspects_since diverged at block {} ({})",
                block,
                context
            );
        }
        for n in [0, 1, 3, usize::MAX] {
            proptest::prop_assert_eq!(
                live.top_movers(n),
                reference_top_movers(report, n),
                "top_movers diverged at n = {} ({})",
                n,
                context
            );
        }
    }
}
