//! Determinism gate for the two-phase sharded ingest: on random worlds, the
//! dataset — columns, interner tables, verdict sets — and the full
//! `AnalysisReport` must be identical across thread counts {1, 2, 4, 8} and
//! across epoch slicings, and identical to the serial one-shot build.
//!
//! This is the property that lets batch and stream share one ingest code
//! path: the parallel decode fan-out is invisible in every observable
//! artifact, at any shard geometry. The dense transaction ids the store
//! assigns by contiguity are pinned here too: bijective with hashes, equal
//! under any slicing and thread count, and each id's row range is exactly
//! its hash's rows.

use std::collections::HashMap;

use ethsim::{Address, BlockNumber, Log, Selector, TxHash, TxRequest, Wei};
use ids::TxId;
use washtrade::columns::TransferColumns;
use washtrade::dataset::Dataset;
use washtrade::parallel::Executor;
use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions};
use washtrade::report::render_deterministic;
use workload::{WorkloadConfig, World};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Ingest the whole chain in epochs whose block budgets cycle through
/// `budgets`.
fn ingest_sliced(world: &World, budgets: &[u64], executor: &Executor) -> Dataset {
    let tip = world.chain.current_block_number();
    let mut dataset = Dataset::default();
    let mut from = 0u64;
    let mut cycle = budgets.iter().cycle();
    while from <= tip.0 {
        let budget = *cycle.next().expect("non-empty budgets");
        let last = (from + budget - 1).min(tip.0);
        dataset.ingest_blocks(
            &world.chain,
            &world.directory,
            BlockNumber(from),
            BlockNumber(last),
            executor,
        );
        from = last + 1;
    }
    dataset
}

/// Append `count` transactions that each carry two to four compliant
/// transfers, with a non-compliant log among them, two per block. Generated
/// worlds put at most one compliant transfer in a transaction, so without
/// these an id per row would pass the bijection check vacuously.
fn append_bundles(world: &mut World, count: u64) {
    let chain = &mut world.chain;
    let sender = chain.create_eoa("bundler").expect("fresh account");
    chain.fund(sender, Wei::from_eth(10.0));
    let collections = &world.collections;
    for k in 0..count {
        if k % 2 == 0 {
            chain.advance_to(chain.current_timestamp().plus_secs(13)).expect("monotonic");
        }
        let mut logs: Vec<Log> = (0..2 + k % 3)
            .map(|j| {
                let collection = collections[((k + j) % collections.len() as u64) as usize];
                Log::erc721_transfer(collection, Address::NULL, sender, 1_000_000 + k * 8 + j)
            })
            .collect();
        logs.insert(1, Log::erc721_transfer(Address::derived("unprobed"), sender, sender, k));
        let call = Selector::of("bundle()");
        let gas_price = Wei::from_gwei(30);
        let request =
            TxRequest::contract_call(sender, collections[0], call, Wei::ZERO, 90_000, gas_price);
        chain.submit(request.with_logs(logs)).expect("bundle accepted");
    }
}

/// Check the transaction-id invariants of one store: equal hash ⇔ equal id,
/// and each id's `tx_rows` are exactly the rows carrying its hash.
fn check_tx_ids(columns: &TransferColumns) -> Result<(), String> {
    let mut rows_of_hash: HashMap<TxHash, Vec<usize>> = HashMap::new();
    let mut id_of_hash: HashMap<TxHash, TxId> = HashMap::new();
    let mut hash_of_id: HashMap<TxId, TxHash> = HashMap::new();
    for row in 0..columns.len() {
        let (hash, id) = (columns.tx_hash[row], columns.tx[row]);
        rows_of_hash.entry(hash).or_default().push(row);
        if *id_of_hash.entry(hash).or_insert(id) != id {
            return Err(format!("row {row}: one hash carries two ids"));
        }
        if *hash_of_id.entry(id).or_insert(hash) != hash {
            return Err(format!("row {row}: {id:?} is shared by two hashes"));
        }
    }
    if columns.tx_count() != rows_of_hash.len() {
        return Err(format!("{} ids for {} hashes", columns.tx_count(), rows_of_hash.len()));
    }
    for (hash, rows) in &rows_of_hash {
        let id = id_of_hash[hash];
        if columns.tx_rows(id).collect::<Vec<usize>>() != *rows {
            return Err(format!("{id:?}: tx_rows differ from the rows carrying its hash"));
        }
    }
    Ok(())
}

fn input_of(world: &World) -> AnalysisInput<'_> {
    AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    }
}

proptest::proptest! {
    #[test]
    fn parallel_ingest_is_deterministic_across_threads_and_slicings(
        seed in 0u64..40,
        budgets in proptest::collection::vec(1u64..150, 1..4),
    ) {
        let world = World::generate(WorkloadConfig::small(seed)).expect("world");
        let serial = Dataset::build(&world.chain, &world.directory);

        for threads in THREAD_COUNTS {
            let executor = Executor::new(threads);

            // One-shot sharded build equals the serial one-shot build.
            let one_shot = Dataset::build_with(&world.chain, &world.directory, &executor);
            proptest::prop_assert_eq!(&one_shot, &serial, "one-shot at {} threads", threads);
            proptest::prop_assert_eq!(one_shot.interner.accounts(), serial.interner.accounts());
            proptest::prop_assert_eq!(one_shot.interner.nfts(), serial.interner.nfts());

            // Epoch-sliced sharded ingest equals it too: every epoch is
            // itself decoded in parallel shards, and the random budget cycle
            // cuts through planted activities at arbitrary blocks.
            let sliced = ingest_sliced(&world, &budgets, &executor);
            proptest::prop_assert_eq!(&sliced, &serial, "epoch-sliced at {} threads", threads);
        }
    }

    #[test]
    fn tx_ids_follow_hashes_at_any_slicing_and_thread_count(
        seed in 0u64..40,
        budgets in proptest::collection::vec(1u64..150, 1..4),
    ) {
        let mut world = World::generate(WorkloadConfig::small(seed)).expect("world");
        append_bundles(&mut world, 6);
        let one_shot = Dataset::build(&world.chain, &world.directory);
        proptest::prop_assert_eq!(check_tx_ids(&one_shot.columns), Ok(()));
        proptest::prop_assert!(one_shot.columns.tx_count() + 6 < one_shot.columns.len());
        for threads in [1, 2, 8] {
            let sliced = ingest_sliced(&world, &budgets, &Executor::new(threads));
            proptest::prop_assert_eq!(check_tx_ids(&sliced.columns), Ok(()));
            proptest::prop_assert_eq!(
                &sliced.columns.tx,
                &one_shot.columns.tx,
                "sliced ids at {} threads",
                threads
            );
        }
    }

    #[test]
    fn full_report_is_identical_across_thread_counts(seed in 0u64..20) {
        let world = World::generate(WorkloadConfig::small(seed)).expect("world");
        let input = input_of(&world);
        let options = |threads| AnalysisOptions { threads, collect_metrics: false };
        let baseline = render_deterministic(&analyze_with(input, options(1)));
        for threads in [2, 4, 8] {
            let report = analyze_with(input, options(threads));
            proptest::prop_assert_eq!(
                &render_deterministic(&report),
                &baseline,
                "report diverged at {} threads",
                threads
            );
        }
    }
}
