//! Interner and columnar-store invariants on generated worlds:
//!
//! * dense ids round-trip and enumerate `0..count` with no gaps,
//! * id assignment is **stream-stable**: interning epoch by epoch over
//!   [`EpochPlan::straddling`] (boundaries cutting through planted wash
//!   activities) yields exactly the id assignment of a one-shot build,
//! * [`TransferColumns`] per-NFT row slices resolve to exactly the per-NFT
//!   transfer vectors the address-keyed pipeline used to store, and the
//!   compliance verdicts and raw log count match, all verified against an
//!   independent reconstruction from the raw chain logs and contract code.

use std::collections::{BTreeSet, HashMap};

use ethsim::{Address, Wei};
use ids::NftKey;
use tokens::NftId;
use washtrade::dataset::{Dataset, NftTransfer};
use washtrade::parallel::Executor;
use workload::{EpochPlan, WorkloadConfig, World};

fn world(seed: u64) -> World {
    World::generate(WorkloadConfig::small(seed)).expect("world")
}

/// What ingest must produce, rebuilt independently of it.
struct Reference {
    /// The address-keyed pipeline's canonical storage: one chronological
    /// `Vec<NftTransfer>` per NFT.
    histories: HashMap<NftId, Vec<NftTransfer>>,
    /// Contracts whose bytecode passes the ERC-165 ERC-721 probe.
    compliant: BTreeSet<Address>,
    /// Contracts that emitted transfer logs but fail the probe.
    non_compliant: BTreeSet<Address>,
    /// Every log matching the transfer filter, before the compliance filter.
    raw_transfer_events: usize,
}

/// Independent reconstruction straight from the chain's logs and contract
/// code, mirroring §III-A decode/compliance/annotation without going through
/// `TransferColumns` or the dataset's verdicts: each emitting contract is
/// probed with [`tokens::compliance::supports_erc721_interface`] here.
fn reference_histories(world: &World) -> Reference {
    let entries = world.chain.logs(&Dataset::transfer_filter());
    let mut reference = Reference {
        histories: HashMap::new(),
        compliant: BTreeSet::new(),
        non_compliant: BTreeSet::new(),
        raw_transfer_events: entries.len(),
    };
    for entry in &entries {
        let contract = entry.log.address;
        let supports = world
            .chain
            .code_at(contract)
            .is_some_and(tokens::compliance::supports_erc721_interface);
        if supports {
            reference.compliant.insert(contract);
        } else {
            reference.non_compliant.insert(contract);
        }
    }
    for entry in &entries {
        let Some(decoded) = entry.log.decode_erc721_transfer() else {
            continue;
        };
        if !reference.compliant.contains(&decoded.contract) {
            continue;
        }
        let tx = world.chain.transaction(entry.tx_hash).expect("log has transaction");
        let price = if !tx.value.is_zero() {
            tx.value
        } else {
            let erc20_paid: u128 = tx
                .logs
                .iter()
                .filter_map(|log| log.decode_erc20_transfer())
                .filter(|t| t.from == decoded.to)
                .map(|t| t.amount)
                .sum();
            Wei::new(erc20_paid)
        };
        let marketplace = tx.to.filter(|to| world.directory.by_contract(*to).is_some());
        let nft = NftId::new(decoded.contract, decoded.token_id);
        reference.histories.entry(nft).or_default().push(NftTransfer {
            nft,
            from: decoded.from,
            to: decoded.to,
            tx_hash: entry.tx_hash,
            block: entry.block,
            timestamp: entry.timestamp,
            price,
            marketplace,
        });
    }
    reference
}

#[test]
fn ids_are_dense_and_round_trip_on_a_generated_world() {
    let world = world(21);
    let dataset = Dataset::build(&world.chain, &world.directory);
    let interner = &dataset.interner;
    assert!(interner.account_count() > 0 && interner.nft_count() > 0);
    for (index, &address) in interner.accounts().iter().enumerate() {
        let id = interner.account_id(address).expect("every table entry resolves");
        assert_eq!(id.index(), index, "account ids enumerate 0..count densely");
        assert_eq!(interner.address(id), address);
    }
    for (index, &nft) in interner.nfts().iter().enumerate() {
        let key = interner.nft_key(nft).expect("every table entry resolves");
        assert_eq!(key.index(), index, "nft keys enumerate 0..count densely");
        assert_eq!(interner.nft(key), nft);
    }
}

#[test]
fn epoch_by_epoch_interning_matches_one_shot_over_straddling_boundaries() {
    for seed in [3, 21, 77] {
        let world = world(seed);
        let batch = Dataset::build(&world.chain, &world.directory);

        // Ingest along the straddling plan: epoch boundaries cut through the
        // middle of planted activities, so ids for an activity's accounts
        // are assigned across different epochs.
        let plan = EpochPlan::straddling(&world, 5);
        let executor = Executor::new(1);
        let mut incremental = Dataset::default();
        let mut from = 0u64;
        for end in &plan.ends {
            let first = ethsim::BlockNumber(from);
            incremental.ingest_blocks(&world.chain, &world.directory, first, *end, &executor);
            from = end.0 + 1;
        }

        // Bit-for-bit: same columns, same id assignment, same verdicts.
        assert_eq!(incremental, batch, "seed {seed}: epoch-sliced dataset diverged");
        assert_eq!(
            incremental.interner.accounts(),
            batch.interner.accounts(),
            "seed {seed}: account id assignment is not stream-stable"
        );
        assert_eq!(incremental.interner.nfts(), batch.interner.nfts());
    }
}

#[test]
fn column_slices_equal_the_old_per_nft_vectors() {
    for (seed, threads) in [(5, 1), (9, 4)] {
        let world = world(seed);
        let dataset = Dataset::build_with(&world.chain, &world.directory, &Executor::new(threads));
        let reference = reference_histories(&world);

        assert!(!reference.compliant.is_empty() && !reference.non_compliant.is_empty());
        assert_eq!(
            dataset.compliant_contracts.iter().copied().collect::<BTreeSet<_>>(),
            reference.compliant,
            "seed {seed}: compliant verdicts diverged from the ERC-165 probe"
        );
        assert_eq!(
            dataset.non_compliant_contracts.iter().copied().collect::<BTreeSet<_>>(),
            reference.non_compliant,
            "seed {seed}: non-compliant verdicts diverged from the ERC-165 probe"
        );
        assert_eq!(dataset.raw_transfer_events, reference.raw_transfer_events, "seed {seed}");

        assert_eq!(dataset.nft_count(), reference.histories.len());
        let mut covered_rows = 0usize;
        for (&nft, expected) in &reference.histories {
            let resolved = dataset.transfers_of(nft);
            assert_eq!(&resolved, expected, "history of {nft} diverged from the reference");
            let key = dataset.interner.nft_key(nft).expect("nft interned");
            assert_eq!(dataset.columns.transfer_count_of(key), expected.len());
            covered_rows += expected.len();
        }
        // The per-NFT slices partition the store: every row belongs to
        // exactly one NFT's slice.
        assert_eq!(covered_rows, dataset.transfer_count());
        for key in 0..dataset.nft_count() as u32 {
            for &row in dataset.columns.rows_of(NftKey(key)) {
                assert_eq!(dataset.columns.nft[row as usize], NftKey(key));
            }
        }
    }
}

proptest::proptest! {
    #[test]
    fn interning_is_stream_stable_at_random_epoch_slicings(
        seed in 0u64..50,
        budgets in proptest::collection::vec(1u64..150, 1..5),
    ) {
        let world = World::generate(WorkloadConfig::small(seed)).expect("world");
        let batch = Dataset::build(&world.chain, &world.directory);

        let tip = world.chain.current_block_number().0;
        let executor = Executor::new(1);
        let mut incremental = Dataset::default();
        let mut from = 0u64;
        let mut cycle = budgets.iter().cycle();
        while from <= tip {
            let budget = *cycle.next().expect("non-empty budgets");
            let last = (from + budget - 1).min(tip);
            incremental.ingest_blocks(
                &world.chain,
                &world.directory,
                ethsim::BlockNumber(from),
                ethsim::BlockNumber(last),
                &executor,
            );
            from = last + 1;
        }
        proptest::prop_assert_eq!(&incremental, &batch);
    }
}
