//! A sharded, epoch-invalidated LRU response cache.
//!
//! Entries are keyed by `(epoch, query)`: a cached response is served only
//! while the snapshot that produced it is still the published one, so
//! publishing a new epoch invalidates the entire cache *logically* at zero
//! cost — stale entries simply stop matching and are purged lazily, once
//! per shard per publish. Sharding keeps lock contention off the hot read
//! path; within a shard, eviction is least-recently-used via a per-shard
//! clock.
//!
//! Each key is hashed once with [`ethsim::FxHasher`]. The hash's high bits
//! pick the shard, and its middle bits the home cell of the shard's
//! open-addressed index (linear probing, at most half full), whose cells
//! point at entry slots. A lookup therefore compares one or two keys
//! however full the shard is. A linear scan compared up to 64 keys of
//! ~184-byte entries and walked the shard twice more per insert: on the
//! Large converged snapshot, with recording off, a cached `Stats` cost
//! 230–310 ns against 5–9 ns to recompute it, and a cached `Nft`
//! 259–332 ns against 117–145 ns. The last-use clocks sit in a column of
//! their own, so picking an LRU victim reads 8 bytes per entry. Each shard
//! remembers the oldest epoch among its entries that can go stale, so an
//! insert walks the shard to purge only when that epoch is older than its
//! own.

use std::hash::{Hash, Hasher};
use std::sync::{Mutex, MutexGuard};

use ethsim::FxHasher;

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

/// An index cell that points at no slot.
const EMPTY: u32 = u32::MAX;

/// Index cells a shard starts with (a power of two).
const MIN_CELLS: usize = 8;

/// One cached response and the hash of its key.
struct CacheEntry {
    hash: u64,
    epoch: u64,
    query: Query,
    response: Response,
}

/// One shard: entries in dense slots, an open-addressed index from key hash
/// to slot, the slots' last-use clocks, and the shard's counters, all under
/// the shard's lock.
struct Shard {
    /// Linear-probing table of slot numbers (`EMPTY` when free); a power of
    /// two at least twice the entry count, so every probe ends at a free
    /// cell.
    cells: Vec<u32>,
    entries: Vec<CacheEntry>,
    /// `last_used[slot]` is the clock reading of the slot's last touch;
    /// readings are unique within the shard, so the LRU victim is too.
    last_used: Vec<u64>,
    clock: u64,
    /// No non-historical entry is older than this epoch (`u64::MAX` when
    /// none is held). A lower bound: an LRU victim may have been the
    /// oldest, in which case the next purge finds less than it walks.
    oldest_live: u64,
    stats: CacheStats,
}

impl Shard {
    fn new() -> Self {
        Shard {
            cells: vec![EMPTY; MIN_CELLS],
            entries: Vec::new(),
            last_used: Vec::new(),
            clock: 0,
            oldest_live: u64::MAX,
            stats: CacheStats::default(),
        }
    }

    /// Forget every entry, keeping the counters.
    fn clear(&mut self) {
        self.cells.fill(EMPTY);
        self.entries.clear();
        self.last_used.clear();
        self.oldest_live = u64::MAX;
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The cell a key's probe sequence starts at: middle bits of its hash,
    /// independent of the high bits that chose the shard.
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.cells.len() - 1)
    }

    fn next(&self, cell: usize) -> usize {
        (cell + 1) & (self.cells.len() - 1)
    }

    /// The slot holding `(epoch, query)`, if any.
    fn find(&self, hash: u64, epoch: u64, query: &Query) -> Option<usize> {
        let mut cell = self.home(hash);
        loop {
            let slot = self.cells[cell];
            if slot == EMPTY {
                return None;
            }
            let entry = &self.entries[slot as usize];
            if entry.hash == hash && entry.epoch == epoch && entry.query == *query {
                return Some(slot as usize);
            }
            cell = self.next(cell);
        }
    }

    /// Point a free cell on `slot`'s probe sequence at it.
    fn link(&mut self, slot: usize) {
        let mut cell = self.home(self.entries[slot].hash);
        while self.cells[cell] != EMPTY {
            cell = self.next(cell);
        }
        self.cells[cell] = u32::try_from(slot).expect("a cache shard holds under 2^32 entries");
    }

    /// Free the cell pointing at `slot`, shifting later cells of its probe
    /// run back so that no probe sequence crosses a gap.
    fn unlink(&mut self, slot: usize) {
        let mut hole = self.home(self.entries[slot].hash);
        while self.cells[hole] as usize != slot {
            hole = self.next(hole);
        }
        let mask = self.cells.len() - 1;
        let mut cell = self.next(hole);
        while self.cells[cell] != EMPTY {
            let home = self.home(self.entries[self.cells[cell] as usize].hash);
            // The entry may move back into the hole only if the hole lies
            // between its home and where it sits now.
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.cells[hole] = self.cells[cell];
                hole = cell;
            }
            cell = self.next(cell);
        }
        self.cells[hole] = EMPTY;
    }

    /// Rebuild the index over the current slots, growing it to stay at
    /// most half full.
    fn reindex(&mut self) {
        let cells = self.cells.len().max((2 * self.entries.len()).next_power_of_two());
        self.cells.clear();
        self.cells.resize(cells, EMPTY);
        for slot in 0..self.entries.len() {
            self.link(slot);
        }
    }

    fn get(&mut self, hash: u64, epoch: u64, query: &Query) -> Option<Response> {
        let clock = self.tick();
        match self.find(hash, epoch, query) {
            Some(slot) => {
                self.last_used[slot] = clock;
                self.stats.hits += 1;
                Some(self.entries[slot].response.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Drop every non-historical entry older than `epoch`; returns how many
    /// went.
    fn purge_older_than(&mut self, epoch: u64) -> u64 {
        let before = self.entries.len();
        let mut slot = 0;
        while slot < self.entries.len() {
            let entry = &self.entries[slot];
            if entry.epoch < epoch && !entry.query.is_historical() {
                self.entries.swap_remove(slot);
                self.last_used.swap_remove(slot);
            } else {
                slot += 1;
            }
        }
        self.oldest_live = self
            .entries
            .iter()
            .filter(|entry| !entry.query.is_historical())
            .map(|entry| entry.epoch)
            .min()
            .unwrap_or(u64::MAX);
        self.reindex();
        (before - self.entries.len()) as u64
    }

    /// Insert or refresh `(epoch, query)`; returns how many entries were
    /// evicted to do so.
    fn insert(
        &mut self,
        hash: u64,
        epoch: u64,
        query: Query,
        response: Response,
        capacity: usize,
    ) -> u64 {
        let clock = self.tick();
        let mut evicted = 0;
        if self.oldest_live < epoch {
            evicted += self.purge_older_than(epoch);
        }
        if !query.is_historical() {
            self.oldest_live = self.oldest_live.min(epoch);
        }
        if let Some(slot) = self.find(hash, epoch, &query) {
            self.entries[slot].response = response;
            self.last_used[slot] = clock;
        } else if self.entries.len() >= capacity {
            let victim = (0..self.last_used.len())
                .min_by_key(|&slot| self.last_used[slot])
                .expect("a full shard holds at least one entry");
            self.unlink(victim);
            self.entries[victim] = CacheEntry { hash, epoch, query, response };
            self.last_used[victim] = clock;
            self.link(victim);
            evicted += 1;
        } else {
            self.entries.push(CacheEntry { hash, epoch, query, response });
            self.last_used.push(clock);
            if 2 * self.entries.len() > self.cells.len() {
                self.reindex();
            } else {
                self.link(self.entries.len() - 1);
            }
        }
        self.stats.evictions += evicted;
        evicted
    }
}

/// The sharded LRU.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
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

/// The hash of a cache key.
fn key_hash(epoch: u64, query: &Query) -> u64 {
    let mut hasher = FxHasher::default();
    epoch.hash(&mut hasher);
    query.hash(&mut hasher);
    hasher.finish()
}

/// Lock `shard`. A panic while it was held may have left it half-updated,
/// and a cache may always forget, so a poisoned shard is cleared and used
/// on; its counters survive.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        guard.clear();
        shard.clear_poison();
        guard
    })
}

impl ShardedLru {
    /// A cache with `shards` shards of `capacity_per_shard` entries each.
    /// At least one shard, holding at least one entry, is always allocated.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            capacity_per_shard: capacity_per_shard.max(1),
        }
    }

    /// The locked shard of a key hash, chosen by the hash's high bits.
    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        let index = (u128::from(hash) * self.shards.len() as u128) >> 64;
        lock(&self.shards[index as usize])
    }

    /// The cached response for `query` at `epoch`, if present and fresh.
    pub fn get(&self, epoch: u64, query: &Query) -> Option<Response> {
        let hash = key_hash(epoch, query);
        let response = self.shard(hash).get(hash, epoch, query);
        if response.is_some() {
            obs::counter!("serve.cache.hits");
        } else {
            obs::counter!("serve.cache.misses");
        }
        response
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
        let hash = key_hash(epoch, &query);
        let evicted =
            self.shard(hash).insert(hash, epoch, query, response, self.capacity_per_shard);
        if evicted > 0 {
            obs::counter!("serve.cache.evictions", evicted);
        }
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |total, shard| total.merge(&lock(shard).stats))
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

    #[test]
    fn a_poisoned_shard_is_cleared_not_fatal() {
        // One panic under a shard lock must not turn every later query on
        // that shard into a panic: the shard forgets and serves on.
        let cache = ShardedLru::new(1, 4);
        cache.insert(1, stats_query(1), response(1));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = cache.shards[0].lock();
            panic!("a reader panics while holding the shard lock");
        }));
        assert!(panicked.is_err() && cache.shards[0].is_poisoned());
        assert_eq!(cache.get(1, &stats_query(1)), None, "the poisoned shard was cleared");
        assert!(!cache.shards[0].is_poisoned());
        cache.insert(1, stats_query(2), response(2));
        assert_eq!(cache.get(1, &stats_query(2)), Some(response(2)));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }
}
