//! The publication seam between ingestion and the concurrent read path:
//! a single atomic slot holding the current [`Snapshot`], plus a bounded
//! history of recent epochs for time travel.
//!
//! Writers (the streaming analyzer, once per ingested epoch) swap a freshly
//! built snapshot in; readers grab a handle with [`SnapshotPublisher::load`]
//! and then work off that immutable snapshot for as long as they like —
//! publication never blocks on readers, readers never observe a snapshot
//! mid-swap, and a reader holding an old snapshot simply keeps the old
//! epoch's `Arc` alive until it drops the handle. That is the whole
//! isolation story: one `load` = one epoch, torn reads are impossible by
//! construction.
//!
//! # Retention
//!
//! Delta-encoded snapshots make history cheap: consecutive epochs share
//! their unchanged segments, so retaining the last `recent` epochs costs
//! roughly one epoch delta each, not one world each. The publisher keeps a
//! ring of the most recent epochs plus optional periodic **checkpoints**
//! (every `checkpoint_every` epochs, kept beyond the ring) under a
//! configurable [`RetentionPolicy`]; [`SnapshotPublisher::at_epoch`] answers
//! time-travel queries from either, and evicted epochs miss with `None` —
//! the query layer turns that into a typed response, never a panic.
//!
//! The lock is held only for the duration of an `Arc` clone or swap (no
//! index is ever built or read under it), so the read path scales with
//! reader threads.
//!
//! The publisher is also the runtime aggregation point for the read side's
//! operational state: query services register their response caches here
//! (weakly — a dropped service unregisters itself by expiring), so
//! [`SnapshotPublisher::cache_stats`] answers "how is the cache tier doing"
//! without touching any individual service, and
//! [`SnapshotPublisher::current_epoch`] reads the published epoch from a
//! single atomic instead of cloning the snapshot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

use crate::cache::{CacheStats, ShardedLru};
use crate::snapshot::Snapshot;

/// How many historical epochs a publisher keeps, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Size of the recent-epoch ring (the current snapshot included). `0`
    /// disables history entirely — only the current snapshot is served.
    pub recent: usize,
    /// Keep every `checkpoint_every`-th epoch beyond the ring as a full
    /// checkpoint (`0` disables checkpoints). Checkpoints are ordinary
    /// published snapshots — bit-identical to what was served at that epoch.
    pub checkpoint_every: u64,
}

impl RetentionPolicy {
    /// Keep nothing but the current snapshot (the pre-retention behaviour).
    pub fn none() -> Self {
        RetentionPolicy { recent: 0, checkpoint_every: 0 }
    }

    /// Whether `epoch` is a checkpoint under this policy.
    fn is_checkpoint(&self, epoch: u64) -> bool {
        self.checkpoint_every > 0 && epoch > 0 && epoch.is_multiple_of(self.checkpoint_every)
    }
}

impl Default for RetentionPolicy {
    /// Eight recent epochs, checkpoints every 32: enough for short-horizon
    /// diffs and trends while bounding memory to a handful of epoch deltas.
    fn default() -> Self {
        RetentionPolicy { recent: 8, checkpoint_every: 32 }
    }
}

/// The retained-epoch store guarded by one mutex: a ring of recent epochs
/// plus sparse checkpoints, both ascending by epoch.
#[derive(Debug, Default)]
struct History {
    recent: VecDeque<Snapshot>,
    checkpoints: Vec<Snapshot>,
}

/// The shared, cloneable publication slot. Clones address the same slot:
/// hand one to the ingestion side and as many as needed to readers.
#[derive(Debug, Clone, Default)]
pub struct SnapshotPublisher {
    slot: Arc<RwLock<Snapshot>>,
    /// Epoch of the snapshot in `slot`, mirrored into an atomic so epoch
    /// probes (lag measurement, monitoring) cost one relaxed load instead of
    /// a lock + `Arc` clone.
    epoch_cell: Arc<AtomicU64>,
    /// Retained historical epochs (see [`RetentionPolicy`]).
    history: Arc<Mutex<History>>,
    /// The retention policy; fixed at construction.
    policy: RetentionPolicy,
    /// Caches registered by the query services reading from this slot, held
    /// weakly: a dropped service's cache simply stops resolving and is
    /// pruned at registration and aggregation time.
    caches: Arc<Mutex<Vec<Weak<ShardedLru>>>>,
}

impl SnapshotPublisher {
    /// A fresh publisher holding the empty epoch-zero snapshot, retaining
    /// history under the default [`RetentionPolicy`].
    pub fn new() -> Self {
        SnapshotPublisher { policy: RetentionPolicy::default(), ..SnapshotPublisher::default() }
    }

    /// A fresh publisher with an explicit retention policy.
    pub fn with_retention(policy: RetentionPolicy) -> Self {
        SnapshotPublisher { policy, ..SnapshotPublisher::default() }
    }

    /// A publisher pre-loaded with `snapshot` (e.g. one rebuilt from a batch
    /// report, to serve while a stream catches up), default retention.
    pub fn with_initial(snapshot: Snapshot) -> Self {
        let publisher = SnapshotPublisher::new();
        publisher.publish(snapshot);
        publisher
    }

    /// The retention policy this publisher was built with.
    pub fn retention(&self) -> RetentionPolicy {
        self.policy
    }

    /// The current snapshot: a cheap `Arc` clone taken under the read lock.
    /// The returned handle stays valid (and unchanged) however many epochs
    /// are published afterwards.
    pub fn load(&self) -> Snapshot {
        self.slot.read().expect("publisher slot poisoned").clone()
    }

    /// Atomically replace the current snapshot and retain the previous ones
    /// per the retention policy. Readers that loaded before this call keep
    /// their old snapshot; every later `load` sees the new one.
    pub fn publish(&self, snapshot: Snapshot) {
        let epoch = snapshot.epoch();
        {
            let mut history = self.history.lock().expect("publisher history poisoned");
            if self.policy.recent > 0 {
                // Re-publishing an epoch (analyzer restart, batch preload)
                // supersedes any stale retained entry at or past it.
                while history.recent.back().is_some_and(|held| held.epoch() >= epoch) {
                    history.recent.pop_back();
                }
                history.recent.push_back(snapshot.clone());
                while history.recent.len() > self.policy.recent {
                    let evicted = history.recent.pop_front().expect("ring is non-empty");
                    if self.policy.is_checkpoint(evicted.epoch()) {
                        history.checkpoints.retain(|held| held.epoch() < evicted.epoch());
                        history.checkpoints.push(evicted);
                    }
                }
            }
            obs::gauge!(
                "serve.publisher.retained_epochs",
                (history.recent.len() + history.checkpoints.len()) as i64
            );
            obs::gauge!("serve.publisher.ring_occupancy", history.recent.len() as i64);
            obs::gauge!("serve.publisher.checkpoints", history.checkpoints.len() as i64);
        }
        if obs::recording() {
            // Provenance of the published build (delta-vs-full split and the
            // segment-reuse ratio that makes delta publishing sublinear) —
            // the `chunk_reuse` SLO's input. The build's latency is the
            // analyzer's `serve.publish` span (`serve.publish_ns`).
            let build = snapshot.build_stats();
            obs::gauge!("serve.publish.delta", i64::from(build.delta));
            if build.delta {
                obs::gauge!(
                    "serve.publish.reuse_ratio",
                    (build.chunk_reuse_ratio() * 10_000.0) as i64
                );
            }
        }
        *self.slot.write().expect("publisher slot poisoned") = snapshot;
        self.epoch_cell.store(epoch, Ordering::Relaxed);
        obs::counter!("serve.publisher.publishes");
        obs::gauge!("serve.publisher.epoch", epoch as i64);
    }

    /// The snapshot published at `epoch`, if retained: the current snapshot,
    /// a ring entry, or a checkpoint. `None` means the epoch was evicted (or
    /// never published) — callers surface that as a typed miss.
    pub fn at_epoch(&self, epoch: u64) -> Option<Snapshot> {
        let current = self.load();
        if current.epoch() == epoch {
            return Some(current);
        }
        let history = self.history.lock().expect("publisher history poisoned");
        history
            .recent
            .iter()
            .chain(history.checkpoints.iter())
            .find(|snapshot| snapshot.epoch() == epoch)
            .cloned()
    }

    /// Epochs answerable by [`SnapshotPublisher::at_epoch`], ascending and
    /// deduplicated (the current epoch included).
    pub fn retained_epochs(&self) -> Vec<u64> {
        let mut epochs: Vec<u64> = {
            let history = self.history.lock().expect("publisher history poisoned");
            history.recent.iter().chain(history.checkpoints.iter()).map(Snapshot::epoch).collect()
        };
        epochs.push(self.current_epoch());
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }

    /// Epoch of the currently published snapshot, from the mirrored atomic —
    /// no lock, no snapshot clone. May trail [`SnapshotPublisher::epoch`] by
    /// one publish for a concurrent reader (the mirror is updated after the
    /// swap), which is exactly the window epoch-lag metrics exist to see.
    /// The query path keys its cache lookups on it, so in that window a hit
    /// still serves the previous epoch's answer, stamped with that epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch_cell.load(Ordering::Relaxed)
    }

    /// Register a query service's response cache for runtime stats
    /// aggregation. Held weakly; dropping the cache unregisters it. Dead
    /// registrations from dropped services are pruned here too, so a
    /// long-lived publisher outliving many analyzer/service generations
    /// never accumulates stale entries even if nobody polls
    /// [`SnapshotPublisher::cache_stats`].
    pub fn register_cache(&self, cache: &Arc<ShardedLru>) {
        let mut caches = self.caches.lock().expect("publisher cache list poisoned");
        caches.retain(|weak| weak.strong_count() > 0);
        caches.push(Arc::downgrade(cache));
    }

    /// Number of live cache registrations (dead ones are not counted).
    pub fn registered_caches(&self) -> usize {
        self.caches
            .lock()
            .expect("publisher cache list poisoned")
            .iter()
            .filter(|weak| weak.strong_count() > 0)
            .count()
    }

    /// Aggregate hit/miss/eviction counters across every live registered
    /// cache (services whose caches were dropped are pruned here).
    pub fn cache_stats(&self) -> CacheStats {
        let mut caches = self.caches.lock().expect("publisher cache list poisoned");
        caches.retain(|weak| weak.strong_count() > 0);
        caches
            .iter()
            .filter_map(Weak::upgrade)
            .fold(CacheStats::default(), |acc, cache| acc.merge(&cache.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryService};
    use crate::snapshot::SnapshotMeta;
    use ethsim::BlockNumber;
    use std::collections::HashMap;

    /// An empty snapshot stamped with `epoch` (watermark = epoch, so the
    /// retained copies are distinguishable).
    fn stamped(epoch: u64) -> Snapshot {
        Snapshot::from_dense(
            SnapshotMeta { epoch, watermark: BlockNumber(epoch) },
            &[],
            |_| std::iter::empty(),
            &washtrade::dataset::Dataset::default(),
            &HashMap::new(),
            &washtrade::characterize::MarketplaceWash::default(),
        )
    }

    #[test]
    fn load_returns_a_stable_handle_across_publishes() {
        let publisher = SnapshotPublisher::new();
        assert_eq!(publisher.epoch(), 0);
        let before = publisher.load();

        let next = Snapshot::empty();
        publisher.publish(next.clone());
        // The old handle still reads epoch 0 state; the slot serves the new
        // snapshot (here also epoch 0 — identity is what matters).
        assert_eq!(before.epoch(), 0);
        assert_eq!(publisher.load(), next);

        // Clones of the publisher address the same slot.
        let clone = publisher.clone();
        clone.publish(Snapshot::empty());
        assert_eq!(publisher.load(), clone.load());
        assert_eq!(publisher.current_epoch(), publisher.epoch());
    }

    #[test]
    fn retention_ring_keeps_recent_epochs_and_evicts_old_ones() {
        let publisher =
            SnapshotPublisher::with_retention(RetentionPolicy { recent: 3, checkpoint_every: 0 });
        for epoch in 1..=6 {
            publisher.publish(stamped(epoch));
        }
        assert_eq!(publisher.retained_epochs(), vec![4, 5, 6]);
        assert_eq!(publisher.at_epoch(5).expect("retained").watermark(), BlockNumber(5));
        assert_eq!(publisher.at_epoch(2), None, "evicted epochs miss");
        assert_eq!(publisher.at_epoch(99), None, "future epochs miss");
    }

    #[test]
    fn checkpoints_survive_ring_eviction() {
        let publisher =
            SnapshotPublisher::with_retention(RetentionPolicy { recent: 2, checkpoint_every: 3 });
        for epoch in 1..=8 {
            publisher.publish(stamped(epoch));
        }
        // Ring holds 7..=8; epochs 3 and 6 were checkpointed on eviction.
        assert_eq!(publisher.retained_epochs(), vec![3, 6, 7, 8]);
        assert_eq!(publisher.at_epoch(3).expect("checkpoint").epoch(), 3);
        assert_eq!(publisher.at_epoch(4), None);
    }

    #[test]
    fn republishing_an_epoch_supersedes_the_retained_copy() {
        let publisher =
            SnapshotPublisher::with_retention(RetentionPolicy { recent: 4, checkpoint_every: 0 });
        publisher.publish(stamped(1));
        publisher.publish(stamped(2));
        // A restarted analyzer re-publishes epoch 2: no duplicate entry.
        publisher.publish(stamped(2));
        assert_eq!(publisher.retained_epochs(), vec![1, 2]);
    }

    #[test]
    fn retention_none_serves_only_the_current_epoch() {
        let publisher = SnapshotPublisher::with_retention(RetentionPolicy::none());
        publisher.publish(stamped(1));
        publisher.publish(stamped(2));
        assert_eq!(publisher.retained_epochs(), vec![2]);
        assert_eq!(publisher.at_epoch(2).expect("current").epoch(), 2);
        assert_eq!(publisher.at_epoch(1), None);
    }

    #[test]
    fn registered_caches_report_through_the_publisher() {
        let publisher = SnapshotPublisher::new();
        let service_a = QueryService::new(publisher.clone());
        let service_b = QueryService::new(publisher.clone());

        // One miss then one hit on A, one miss on B.
        service_a.query(&Query::Stats);
        service_a.query(&Query::Stats);
        service_b.query(&Query::Stats);
        let stats = publisher.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));

        // Dropping a service unregisters its cache: its counters vanish from
        // the aggregate.
        drop(service_b);
        let stats = publisher.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn a_publish_between_queries_misses_then_hits_the_new_epoch() {
        // A hit keys on the published epoch without loading the snapshot,
        // so after a publish the next query must miss, answer from the new
        // snapshot and cache that answer for the query after it.
        let publisher = SnapshotPublisher::new();
        publisher.publish(stamped(1));
        let service = QueryService::new(publisher.clone());
        service.query(&Query::Stats);
        assert!(service.query(&Query::Stats).cached, "epoch 1's answer is cached");
        let next = stamped(2);
        publisher.publish(next.clone());
        let expected = next.answer(&Query::Stats);
        let served = service.query(&Query::Stats);
        assert_eq!((served.epoch, served.cached), (2, false));
        assert_eq!(served.response, expected);
        let served = service.query(&Query::Stats);
        assert_eq!((served.epoch, served.cached), (2, true));
        assert_eq!(served.response, expected);
    }

    #[test]
    fn dead_registrations_are_pruned_at_registration_time() {
        // A long-lived publisher sees many short-lived service generations;
        // the registration list must not grow with them even if nobody ever
        // calls `cache_stats`.
        let publisher = SnapshotPublisher::new();
        for _ in 0..32 {
            let service = QueryService::new(publisher.clone());
            service.query(&Query::Stats);
            drop(service);
        }
        let survivor = QueryService::new(publisher.clone());
        assert_eq!(publisher.registered_caches(), 1);
        assert!(
            publisher.caches.lock().unwrap().len() <= 2,
            "stale Weak entries must be pruned as generations register"
        );
        drop(survivor);
        assert_eq!(publisher.registered_caches(), 0);
    }
}
