//! The leverage index against the one-shot leverage pass it replaces.
//!
//! The reference below is the pass batch detection ran before the index: one
//! `HashSet` of every base-confirmed account set, then one walk confirming
//! each unconfirmed candidate whose set is in it. Random sequences of per-NFT
//! group replacements draw their account sets from a small shared pool, so
//! a replacement on one NFT flips the leverage verdicts of NFTs it never
//! touched. After every replacement, the incrementally maintained index must
//! agree with the reference over the current groups on every NFT's
//! confirmed group, on every counter and on which other NFTs flipped. An
//! index built in one shot over the final groups, and batch assembly over
//! them, must agree too.

use std::collections::{BTreeMap, HashSet};

use ethsim::{Address, Timestamp, Wei};
use ids::{AccountId, NftKey};
use washtrade::detect::{
    DenseActivity, DenseDetectionOutcome, Detector, FlowEvidence, FlowKind, LeverageIndex,
    MethodSet, VennCounts,
};
use washtrade::refine::DenseCandidate;

/// NFTs the replacements pick from.
const NFTS: u32 = 8;
/// Account sets the candidates pick from.
const SETS: usize = 5;

/// The account sets of the shared pool: distinct, sorted, some overlapping.
fn account_set(index: usize) -> Vec<AccountId> {
    let index = index as u32;
    vec![AccountId(index), AccountId(index + 1), AccountId(index + 7)]
}

/// Base evidence for a verdict code: half the codes confirm nothing, the
/// rest cover each base method and a few Venn combinations.
fn evidence(code: u8) -> MethodSet {
    let flow =
        FlowEvidence { account: Address::derived("flow"), kind: FlowKind::Internal, degree: 2 };
    match code {
        4 => MethodSet { zero_risk: true, ..MethodSet::default() },
        5 => MethodSet { self_trade: true, ..MethodSet::default() },
        6 => MethodSet { common_funder: Some(flow), ..MethodSet::default() },
        7 => MethodSet {
            zero_risk: true,
            common_funder: Some(flow),
            common_exit: Some(flow),
            ..MethodSet::default()
        },
        _ => MethodSet::default(),
    }
}

fn candidate(nft: NftKey, set: usize) -> DenseCandidate {
    DenseCandidate {
        nft,
        accounts: account_set(set),
        internal_edges: Vec::new(),
        first_trade: Timestamp::from_secs(0),
        last_trade: Timestamp::from_secs(0),
        volume: Wei::from_eth(1.0),
    }
}

type Groups = BTreeMap<NftKey, (Vec<DenseCandidate>, Vec<MethodSet>)>;

/// The one-shot `HashSet` leverage pass over every group, NFTs ascending:
/// each NFT's confirmed group (positions and final methods) and the
/// counters, with no confirmed activity attached.
fn reference(
    groups: &Groups,
) -> (BTreeMap<NftKey, Vec<(usize, MethodSet)>>, DenseDetectionOutcome) {
    let confirmed_sets: HashSet<&[AccountId]> = groups
        .values()
        .flat_map(|(candidates, evidence)| candidates.iter().zip(evidence))
        .filter(|(_, methods)| methods.confirmed())
        .map(|(candidate, _)| candidate.accounts.as_slice())
        .collect();
    let mut outcome = DenseDetectionOutcome::default();
    let mut confirmed = BTreeMap::new();
    for (&nft, (candidates, evidence)) in groups {
        let mut group = Vec::new();
        for (position, (candidate, methods)) in candidates.iter().zip(evidence).enumerate() {
            let mut methods = *methods;
            if !methods.confirmed() && confirmed_sets.contains(candidate.accounts.as_slice()) {
                methods.leveraged = true;
                outcome.leveraged_only += 1;
            }
            if !methods.confirmed() {
                outcome.rejected += 1;
                continue;
            }
            if methods.flow_method_count() > 0 {
                record(&mut outcome.venn, &methods);
            }
            if methods.self_trade {
                outcome.self_trades += 1;
            }
            group.push((position, methods));
        }
        confirmed.insert(nft, group);
    }
    (confirmed, outcome)
}

fn record(venn: &mut VennCounts, methods: &MethodSet) {
    let flags = (methods.zero_risk, methods.common_funder.is_some(), methods.common_exit.is_some());
    match flags {
        (true, false, false) => venn.zero_risk_only += 1,
        (false, true, false) => venn.funder_only += 1,
        (false, false, true) => venn.exit_only += 1,
        (true, true, false) => venn.zero_and_funder += 1,
        (true, false, true) => venn.zero_and_exit += 1,
        (false, true, true) => venn.funder_and_exit += 1,
        (true, true, true) => venn.all_three += 1,
        (false, false, false) => {}
    }
}

/// Every NFT's confirmed group as the index holds it.
fn groups_of(index: &LeverageIndex) -> BTreeMap<NftKey, Vec<(usize, MethodSet)>> {
    (0..NFTS).map(|nft| (NftKey(nft), index.confirmed(NftKey(nft)).to_vec())).collect()
}

proptest::proptest! {
    #[test]
    fn leverage_index_matches_the_one_shot_pass_under_replacement(
        replacements in proptest::collection::vec(
            (0u32..NFTS, proptest::collection::vec((0usize..SETS, 0u8..8), 0..4)),
            1..40,
        ),
    ) {
        let mut groups: Groups = (0..NFTS).map(|nft| (NftKey(nft), Default::default())).collect();
        let mut index = LeverageIndex::new();
        for (step, (nft, group)) in replacements.iter().enumerate() {
            let nft = NftKey(*nft);
            let (before, _) = reference(&groups);
            let candidates: Vec<DenseCandidate> =
                group.iter().map(|&(set, _)| candidate(nft, set)).collect();
            let methods: Vec<MethodSet> = group.iter().map(|&(_, code)| evidence(code)).collect();
            let flipped = index.replace(nft, &candidates, &methods);
            groups.insert(nft, (candidates, methods));

            let (after, counters) = reference(&groups);
            let context = format!("step {step}: NFT {nft:?} ← {group:?}");
            proptest::prop_assert_eq!(groups_of(&index), after.clone(), "groups, {}", context);
            proptest::prop_assert_eq!(index.outcome(Vec::new()), counters, "counters, {}", context);
            let expected: Vec<NftKey> = after
                .keys()
                .copied()
                .filter(|other| *other != nft && before[other] != after[other])
                .collect();
            proptest::prop_assert_eq!(flipped, expected, "flipped NFTs, {}", context);
        }

        // Building in one shot over the final groups gives the same index,
        // and batch assembly over the concatenated groups reads it in order.
        let built = LeverageIndex::build(
            groups.iter().map(|(nft, (candidates, methods))| (*nft, &candidates[..], &methods[..])),
        );
        proptest::prop_assert_eq!(groups_of(&built), groups_of(&index));
        proptest::prop_assert_eq!(built.outcome(Vec::new()), index.outcome(Vec::new()));
        let (verdicts, counters) = reference(&groups);
        let confirmed: Vec<DenseActivity> = verdicts
            .iter()
            .flat_map(|(nft, group)| {
                group.iter().map(|&(at, methods)| DenseActivity {
                    candidate: groups[nft].0[at].clone(),
                    methods,
                })
            })
            .collect();
        let (candidates, evidence): (Vec<DenseCandidate>, Vec<MethodSet>) = groups
            .values()
            .flat_map(|(candidates, methods)| {
                candidates.iter().cloned().zip(methods.iter().copied())
            })
            .unzip();
        proptest::prop_assert_eq!(
            Detector::assemble(&candidates, evidence),
            DenseDetectionOutcome { confirmed, ..counters }
        );
    }
}
