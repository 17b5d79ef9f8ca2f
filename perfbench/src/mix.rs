//! The seeded read-side traffic: point lookups drawn Zipf(s = 1) over every
//! suspect NFT and involved account of a converged snapshot, plus a tenth of
//! aggregate queries.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use washtrade_serve::{Query, Snapshot};

/// One in this many queries is an aggregate (`Stats`, `TopMovers`,
/// `TopCollections`, `Marketplaces`); the rest are point lookups.
const AGGREGATE_EVERY: usize = 10;

/// `len` queries drawn from `seed` over the keys of `snapshot`. Key
/// popularity follows Zipf(s = 1) over a seeded shuffle of the keys, so the
/// hot keys are a random mix of NFTs and accounts.
pub fn query_mix(snapshot: &Snapshot, seed: u64, len: usize) -> Vec<Query> {
    let mut keys: Vec<Query> = snapshot
        .suspects()
        .iter()
        .map(|summary| Query::Nft(summary.nft))
        .chain(snapshot.accounts().iter().map(|account| Query::Account(*account)))
        .collect();
    assert!(!keys.is_empty(), "the read mix needs a snapshot with suspects");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_5EED_5EED_5EED);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    let mut cumulative = Vec::with_capacity(keys.len());
    let mut total = 0.0;
    for rank in 1..=keys.len() {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    let aggregates =
        [Query::Stats, Query::TopMovers(10), Query::TopCollections(10), Query::Marketplaces];
    (0..len)
        .map(|_| {
            if rng.gen_range(0..AGGREGATE_EVERY) == 0 {
                aggregates[rng.gen_range(0..aggregates.len())].clone()
            } else {
                let target = rng.gen_range(0.0..total);
                let rank = cumulative.partition_point(|&c| c < target).min(keys.len() - 1);
                keys[rank].clone()
            }
        })
        .collect()
}
