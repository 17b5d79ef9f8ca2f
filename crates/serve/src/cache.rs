//! A sharded, epoch-invalidated LRU response cache.
//!
//! Entries are keyed by `(epoch, query)`: a cached response is served only
//! while the snapshot that produced it is still the published one, so
//! publishing a new epoch invalidates the entire cache *logically* at zero
//! cost — stale entries simply stop matching and are evicted lazily as
//! their slots are reused. Sharding (by query hash) keeps lock contention
//! off the hot read path; within a shard, eviction is least-recently-used
//! via a per-shard clock.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::query::{Query, Response};

/// Hit/miss/eviction counters of a cache (monotonic since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (including epoch-stale entries).
    pub misses: u64,
    /// Entries removed to make room: LRU victims plus epoch-stale entries
    /// purged when a newer epoch's insert lands in their shard.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Sum two stat sets (used when aggregating across caches).
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// One cached response.
struct CacheEntry {
    epoch: u64,
    query: Query,
    response: Response,
    last_used: u64,
}

/// One shard: a small open vector scanned linearly (capacities are small
/// enough that a scan beats a map), with an LRU clock.
#[derive(Default)]
struct Shard {
    entries: Vec<CacheEntry>,
    clock: u64,
}

/// The sharded LRU.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ShardedLru {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ShardedLru {
    /// A cache with `shards` shards of `capacity_per_shard` entries each.
    /// At least one shard is always allocated.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, query: &Query) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        query.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// The cached response for `query` at `epoch`, if present and fresh.
    pub fn get(&self, epoch: u64, query: &Query) -> Option<Response> {
        let mut shard = self.shard_of(query).lock().expect("cache shard poisoned");
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(entry) =
            shard.entries.iter_mut().find(|entry| entry.epoch == epoch && entry.query == *query)
        {
            entry.last_used = clock;
            let response = entry.response.clone();
            drop(shard);
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter!("serve.cache.hits");
            return Some(response);
        }
        drop(shard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter!("serve.cache.misses");
        None
    }

    /// Insert a computed response. Entries from *older* epochs are purged
    /// first (publication invalidation); newer entries are kept, so a
    /// laggard reader still finishing queries against a superseded snapshot
    /// cannot evict the fresh epoch's working set. Historical queries
    /// (`AsOf`, epoch diffs) are exempt from the purge — their answers
    /// address a fixed epoch and can never go stale, so they survive
    /// publishes and are reclaimed by LRU pressure only. If the shard is
    /// still full, the least-recently-used entry is evicted.
    pub fn insert(&self, epoch: u64, query: Query, response: Response) {
        let mut shard = self.shard_of(&query).lock().expect("cache shard poisoned");
        shard.clock += 1;
        let clock = shard.clock;
        let before = shard.entries.len();
        shard.entries.retain(|entry| entry.epoch >= epoch || entry.query.is_historical());
        let mut evicted = (before - shard.entries.len()) as u64;
        if let Some(entry) =
            shard.entries.iter_mut().find(|entry| entry.epoch == epoch && entry.query == query)
        {
            entry.response = response;
            entry.last_used = clock;
            drop(shard);
            self.note_evictions(evicted);
            return;
        }
        if shard.entries.len() >= self.capacity_per_shard {
            if let Some(lru) = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(index, _)| index)
            {
                shard.entries.swap_remove(lru);
                evicted += 1;
            }
        }
        shard.entries.push(CacheEntry { epoch, query, response, last_used: clock });
        drop(shard);
        self.note_evictions(evicted);
    }

    fn note_evictions(&self, evicted: u64) {
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            obs::counter!("serve.cache.evictions", evicted);
        }
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_query(n: usize) -> Query {
        Query::TopMovers(n)
    }

    fn response(n: usize) -> Response {
        Response::TopMovers(Vec::with_capacity(n))
    }

    #[test]
    fn hit_after_insert_and_miss_after_epoch_bump() {
        let cache = ShardedLru::new(4, 8);
        assert_eq!(cache.get(1, &stats_query(5)), None);
        cache.insert(1, stats_query(5), response(5));
        assert_eq!(cache.get(1, &stats_query(5)), Some(response(5)));
        // A new epoch invalidates the entry without any explicit flush.
        assert_eq!(cache.get(2, &stats_query(5)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        // One shard, capacity two: touch entry A, insert C → B (untouched)
        // must be the one evicted.
        let cache = ShardedLru::new(1, 2);
        cache.insert(7, stats_query(1), response(1));
        cache.insert(7, stats_query(2), response(2));
        assert!(cache.get(7, &stats_query(1)).is_some());
        cache.insert(7, stats_query(3), response(3));
        assert!(cache.get(7, &stats_query(1)).is_some(), "recently used survives");
        assert!(cache.get(7, &stats_query(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(7, &stats_query(3)).is_some());
    }

    #[test]
    fn eviction_counter_covers_lru_and_stale_purges() {
        let cache = ShardedLru::new(1, 2);
        cache.insert(1, stats_query(1), response(1));
        cache.insert(1, stats_query(2), response(2));
        assert_eq!(cache.stats().evictions, 0);
        // Capacity reached: the third same-epoch insert claims an LRU victim.
        cache.insert(1, stats_query(3), response(3));
        assert_eq!(cache.stats().evictions, 1);
        // A newer epoch's insert purges both remaining epoch-1 entries.
        cache.insert(2, stats_query(4), response(4));
        assert_eq!(cache.stats().evictions, 3);
        let merged = cache.stats().merge(&CacheStats { hits: 1, misses: 2, evictions: 4 });
        assert_eq!(merged, CacheStats { hits: 1, misses: 2, evictions: 7 });
    }

    #[test]
    fn stale_epochs_are_purged_on_insert() {
        let cache = ShardedLru::new(1, 4);
        cache.insert(1, stats_query(1), response(1));
        cache.insert(1, stats_query(2), response(2));
        // Publishing epoch 2: the first insert purges every epoch-1 entry.
        cache.insert(2, stats_query(3), response(3));
        assert!(cache.get(1, &stats_query(1)).is_none());
        assert!(cache.get(1, &stats_query(2)).is_none());
        assert!(cache.get(2, &stats_query(3)).is_some());
    }

    #[test]
    fn historical_entries_survive_epoch_invalidation() {
        // An `AsOf` answer addresses a fixed epoch: publishing newer epochs
        // must not purge it (it cannot go stale), only LRU pressure may.
        let cache = ShardedLru::new(1, 4);
        let historical = Query::AsOf(3, Box::new(Query::TopMovers(1)));
        cache.insert(3, historical.clone(), response(1));
        cache.insert(9, stats_query(2), response(2));
        assert!(cache.get(3, &historical).is_some(), "historical entry survives a newer epoch");
        assert!(cache.get(9, &stats_query(2)).is_some());
    }

    #[test]
    fn laggard_inserts_do_not_evict_the_fresh_epoch() {
        // A reader still working off a superseded snapshot inserts with the
        // old epoch; the fresh epoch's entries must survive, and the laggard
        // can even read its own entry back while it holds the old snapshot.
        let cache = ShardedLru::new(1, 4);
        cache.insert(2, stats_query(1), response(1));
        cache.insert(1, stats_query(2), response(2));
        assert!(cache.get(2, &stats_query(1)).is_some(), "fresh entry survives laggard insert");
        assert!(cache.get(1, &stats_query(2)).is_some(), "laggard entry is readable at its epoch");
        // The next fresh-epoch insert purges the laggard's leftovers.
        cache.insert(2, stats_query(3), response(3));
        assert!(cache.get(1, &stats_query(2)).is_none());
        assert!(cache.get(2, &stats_query(1)).is_some());
    }
}
