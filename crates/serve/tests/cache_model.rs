//! The response cache against a reference model: the linear-scan shard the
//! hashed index replaced, kept here as a deliberately simple oracle. Both
//! are driven through the same random `get`/`insert` sequences on one
//! shard — current, newer and laggard epochs, re-inserts of live keys and
//! historical keys — and must agree on every `get` and on the
//! hit/miss/eviction counters after every operation. Last-use clocks are
//! unique within a shard, so the LRU victim is unambiguous on both sides.

use proptest::collection::vec;
use washtrade_serve::{CacheStats, Query, Response, ShardedLru};

/// One cached response of the model.
struct ModelEntry {
    epoch: u64,
    query: Query,
    response: Response,
    last_used: u64,
}

/// One shard as a vector scanned linearly, with an LRU clock.
struct Model {
    entries: Vec<ModelEntry>,
    clock: u64,
    capacity: usize,
    stats: CacheStats,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model { entries: Vec::new(), clock: 0, capacity, stats: CacheStats::default() }
    }

    fn get(&mut self, epoch: u64, query: &Query) -> Option<Response> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.iter_mut().find(|entry| entry.epoch == epoch && entry.query == *query) {
            Some(entry) => {
                entry.last_used = clock;
                self.stats.hits += 1;
                Some(entry.response.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Purge older non-historical epochs, refresh a live key in place, or
    /// evict the least recently used entry when full.
    fn insert(&mut self, epoch: u64, query: Query, response: Response) {
        self.clock += 1;
        let clock = self.clock;
        let before = self.entries.len();
        self.entries.retain(|entry| entry.epoch >= epoch || entry.query.is_historical());
        self.stats.evictions += (before - self.entries.len()) as u64;
        if let Some(entry) =
            self.entries.iter_mut().find(|entry| entry.epoch == epoch && entry.query == query)
        {
            entry.response = response;
            entry.last_used = clock;
            return;
        }
        if self.entries.len() >= self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&index| self.entries[index].last_used)
                .expect("a full shard holds an entry");
            self.entries.swap_remove(lru);
            self.stats.evictions += 1;
        }
        self.entries.push(ModelEntry { epoch, query, response, last_used: clock });
    }
}

/// Key `pick` at `epoch`: most keys are current-epoch queries, the last
/// two are historical and address `epoch` themselves.
fn key(pick: usize, epoch: u64) -> Query {
    match pick {
        0 => Query::Stats,
        1 => Query::Marketplaces,
        6 => Query::AsOf(epoch, Box::new(Query::TopMovers(3))),
        7 => Query::SuspectDiff { from: epoch.saturating_sub(1), to: epoch },
        n => Query::TopMovers(n),
    }
}

proptest::proptest! {
    #[test]
    fn one_shard_matches_the_linear_scan_model(
        capacity in 1usize..9,
        ops in vec(((0u8..2, 0usize..8), 0u8..10), 1..240),
    ) {
        let cache = ShardedLru::new(1, capacity);
        let mut model = Model::new(capacity);
        let mut current = 2u64;
        for (step, ((kind, pick), when)) in ops.into_iter().enumerate() {
            // Mostly the current epoch; sometimes a publish moves it on, and
            // sometimes a laggard reader works one or two epochs behind.
            let epoch = match when {
                0 => {
                    current += 1;
                    current
                }
                1 => current - 1,
                2 => current - 2,
                _ => current,
            };
            let query = key(pick, epoch);
            if kind == 0 {
                proptest::prop_assert_eq!(
                    cache.get(epoch, &query),
                    model.get(epoch, &query),
                    "step {}: get {:?} at epoch {}",
                    step,
                    query,
                    epoch
                );
            } else {
                // A distinct payload per insert, so a stale in-place refresh
                // would show in a later `get`.
                let requested = step as u64;
                let response = Response::NotRetained { requested, latest: epoch, retained: vec![] };
                cache.insert(epoch, query.clone(), response.clone());
                model.insert(epoch, query, response);
            }
            proptest::prop_assert_eq!(cache.stats(), model.stats, "step {}", step);
        }
    }
}
