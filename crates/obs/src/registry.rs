//! The process-wide metric registry and its lock-free recording path.
//!
//! Layout: every counter and histogram is assigned a fixed *slot range* in a
//! flat cell array at registration time. Each thread owns a private `Shard`
//! (one `AtomicU64` per cell) reached through a `thread_local!`; records are
//! relaxed atomics on that private shard, so threads never contend. Snapshots
//! sum the live shards plus a `retired` shard that absorbs the cells of
//! exited threads (merged by the thread-local's `Drop`). Gauges are
//! last-write-wins and low-frequency, so they live in single shared cells
//! instead of shards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Total cells available per shard. 4096 cells ≈ 32 KiB per thread; a
/// histogram costs [`BUCKETS`]` + 2` cells, so this comfortably fits hundreds
/// of counters plus dozens of histograms. Registration panics on exhaustion
/// rather than silently dropping metrics.
pub const MAX_SLOTS: usize = 4096;

/// Number of log₂ buckets per histogram. Bucket 0 holds exact zeros, bucket
/// `b` holds values in `[2^(b-1), 2^b)`, and the top bucket saturates: with 44
/// buckets the top bucket opens at 2⁴² ns ≈ 73 minutes, far beyond any
/// latency this system records.
pub const BUCKETS: usize = 44;

/// Cells per histogram: bucket counts, then a sum cell, then a max cell.
pub(crate) const HIST_CELLS: usize = BUCKETS + 2;
pub(crate) const SUM_OFFSET: usize = BUCKETS;
pub(crate) const MAX_OFFSET: usize = BUCKETS + 1;

/// Bucket index for a recorded value.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Largest value the bucket holds (inclusive); the top bucket is unbounded.
pub(crate) fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket < BUCKETS - 1 {
        (1u64 << bucket) - 1
    } else {
        u64::MAX
    }
}

/// What a registered metric is; re-registering a name under a different kind
/// is a programming error and panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum of increments.
    Counter,
    /// Last-write-wins signed value.
    Gauge,
    /// Log₂-bucketed distribution with sum and max.
    Histogram,
}

/// How shard cells combine across threads when merged.
#[derive(Debug, Clone, Copy)]
enum CellKind {
    /// Sum across shards (counter values, bucket counts, histogram sums).
    Add,
    /// Take the maximum across shards (histogram max cells).
    Max,
}

pub(crate) struct Shard {
    pub(crate) cells: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Self {
        Shard { cells: (0..MAX_SLOTS).map(|_| AtomicU64::new(0)).collect() }
    }
}

pub(crate) struct Def {
    pub(crate) name: String,
    pub(crate) kind: MetricKind,
    /// First cell index for counters/histograms; index into `gauges` for
    /// gauges.
    pub(crate) slot: usize,
}

pub(crate) struct Inner {
    pub(crate) defs: Vec<Def>,
    by_name: HashMap<String, usize>,
    cell_kinds: Vec<CellKind>,
    pub(crate) gauges: Vec<Arc<AtomicI64>>,
    pub(crate) shards: Vec<Arc<Shard>>,
}

pub(crate) struct Registry {
    inner: Mutex<Inner>,
    /// Accumulates the cells of threads that have exited, plus any records
    /// that race with thread-local teardown.
    pub(crate) retired: Shard,
    pub(crate) version: AtomicU64,
}

impl Registry {
    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("obs registry poisoned")
    }

    fn new_shard(&self) -> Arc<Shard> {
        let shard = Arc::new(Shard::new());
        self.lock().shards.push(Arc::clone(&shard));
        shard
    }

    /// Unregister an exiting thread's shard and fold its cells into
    /// `retired`, preserving per-cell merge semantics.
    fn retire(&self, shard: &Arc<Shard>) {
        let mut inner = self.lock();
        inner.shards.retain(|live| !Arc::ptr_eq(live, shard));
        for (index, kind) in inner.cell_kinds.iter().enumerate() {
            let value = shard.cells[index].load(Relaxed);
            if value == 0 {
                continue;
            }
            match kind {
                CellKind::Add => self.retired.cells[index].fetch_add(value, Relaxed),
                CellKind::Max => self.retired.cells[index].fetch_max(value, Relaxed),
            };
        }
    }
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: Mutex::new(Inner {
            defs: Vec::new(),
            by_name: HashMap::new(),
            cell_kinds: Vec::new(),
            gauges: Vec::new(),
            shards: Vec::new(),
        }),
        retired: Shard::new(),
        version: AtomicU64::new(0),
    })
}

/// The thread's private shard; `Drop` runs at thread exit and folds the
/// shard's contents into the registry's retired shard so no samples are lost.
struct LocalShard {
    shard: Arc<Shard>,
}

impl Drop for LocalShard {
    fn drop(&mut self) {
        registry().retire(&self.shard);
    }
}

thread_local! {
    static LOCAL: LocalShard = LocalShard { shard: registry().new_shard() };
}

impl Inner {
    /// The slot of `name` (a cell index, or a `gauges` index for a gauge),
    /// claimed on first use, or why it cannot be.
    fn claim(&mut self, name: &str, kind: MetricKind, cells: usize) -> Result<usize, String> {
        if let Some(&index) = self.by_name.get(name) {
            let def = &self.defs[index];
            return if def.kind == kind {
                Ok(def.slot)
            } else {
                Err(format!(
                    "metric `{name}` already registered as {:?}, requested {kind:?}",
                    def.kind
                ))
            };
        }
        let slot = match kind {
            MetricKind::Gauge => {
                self.gauges.push(Arc::new(AtomicI64::new(0)));
                self.gauges.len() - 1
            }
            MetricKind::Counter | MetricKind::Histogram => {
                let slot = self.cell_kinds.len();
                if slot + cells > MAX_SLOTS {
                    return Err(format!(
                        "obs metric slot space exhausted registering `{name}` \
                         (MAX_SLOTS = {MAX_SLOTS})"
                    ));
                }
                self.cell_kinds.extend((0..cells).map(|cell| match kind {
                    MetricKind::Histogram if cell == MAX_OFFSET => CellKind::Max,
                    _ => CellKind::Add,
                }));
                slot
            }
        };
        self.by_name.insert(name.to_string(), self.defs.len());
        self.defs.push(Def { name: name.to_string(), kind, slot });
        Ok(slot)
    }
}

/// Claim `name`'s slot. The verdict is reached under the registry lock, but
/// a kind clash or slot exhaustion panics only after the lock is released,
/// so a caught registration panic cannot poison every later metric call.
fn register(name: &str, kind: MetricKind, cells: usize) -> usize {
    let claimed = registry().lock().claim(name, kind, cells);
    claimed.unwrap_or_else(|message| panic!("{message}"))
}

/// Register (or look up) a counter by name. Cheap after the first call for a
/// given name, but still a lock + hash lookup — prefer [`crate::counter!`]
/// (which caches the handle in a `static`) on hot paths.
pub fn counter(name: &str) -> Counter {
    if !crate::enabled() {
        return Counter { slot: usize::MAX };
    }
    Counter { slot: register(name, MetricKind::Counter, 1) }
}

/// Register (or look up) a gauge by name.
pub fn gauge(name: &str) -> Gauge {
    if !crate::enabled() {
        return Gauge { cell: Arc::new(AtomicI64::new(0)) };
    }
    let slot = register(name, MetricKind::Gauge, 0);
    Gauge { cell: Arc::clone(&registry().lock().gauges[slot]) }
}

/// Register (or look up) a histogram by name.
pub fn histogram(name: &str) -> Histogram {
    if !crate::enabled() {
        return Histogram { slot: usize::MAX };
    }
    Histogram { slot: register(name, MetricKind::Histogram, HIST_CELLS) }
}

/// Handle to a registered counter. Copyable; `add` is one relaxed `fetch_add`
/// on the calling thread's private shard.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    slot: usize,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::recording() || self.slot == usize::MAX {
            return;
        }
        let slot = self.slot;
        if LOCAL.try_with(|local| local.shard.cells[slot].fetch_add(n, Relaxed)).is_err() {
            // Thread-local storage is already torn down (thread exit path):
            // fold straight into the retired shard instead of losing the
            // sample.
            registry().retired.cells[slot].fetch_add(n, Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Handle to a registered gauge: a single shared cell, last write wins.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    #[inline]
    pub fn set(&self, value: i64) {
        if crate::recording() {
            self.cell.store(value, Relaxed);
        }
    }

    /// Adjust the gauge by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::recording() {
            self.cell.fetch_add(delta, Relaxed);
        }
    }
}

/// Handle to a registered histogram. `record` is three relaxed atomics
/// (bucket count, sum, max) on the calling thread's private shard.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    slot: usize,
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::recording() || self.slot == usize::MAX {
            return;
        }
        let slot = self.slot;
        let bucket = bucket_index(value);
        let write = |cells: &[AtomicU64]| {
            cells[slot + bucket].fetch_add(1, Relaxed);
            cells[slot + SUM_OFFSET].fetch_add(value, Relaxed);
            cells[slot + MAX_OFFSET].fetch_max(value, Relaxed);
        };
        if LOCAL.try_with(|local| write(&local.shard.cells)).is_err() {
            write(&registry().retired.cells);
        }
    }

    /// Record a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// A counter handle resolved lazily from a `static`; what [`crate::counter!`]
/// expands to. Registration happens once, on first use.
pub struct LazyCounter {
    name: &'static str,
    handle: OnceLock<Counter>,
}

impl LazyCounter {
    /// Const-construct around a static name.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter { name, handle: OnceLock::new() }
    }

    /// Resolve the underlying handle, registering on first call.
    #[inline]
    pub fn get(&self) -> Counter {
        *self.handle.get_or_init(|| counter(self.name))
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A gauge handle resolved lazily from a `static`; what [`crate::gauge!`]
/// expands to.
pub struct LazyGauge {
    name: &'static str,
    handle: OnceLock<Gauge>,
}

impl LazyGauge {
    /// Const-construct around a static name.
    pub const fn new(name: &'static str) -> Self {
        LazyGauge { name, handle: OnceLock::new() }
    }

    /// Resolve the underlying handle, registering on first call.
    #[inline]
    pub fn get(&self) -> &Gauge {
        self.handle.get_or_init(|| gauge(self.name))
    }

    /// Set the gauge to an absolute value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.get().set(value);
    }

    /// Adjust the gauge by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.get().add(delta);
    }
}

/// A histogram handle resolved lazily from a `static`; what
/// [`crate::histogram!`] expands to.
pub struct LazyHistogram {
    name: &'static str,
    handle: OnceLock<Histogram>,
}

impl LazyHistogram {
    /// Const-construct around a static name.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram { name, handle: OnceLock::new() }
    }

    /// Resolve the underlying handle, registering on first call.
    #[inline]
    pub fn get(&self) -> Histogram {
        *self.handle.get_or_init(|| histogram(self.name))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.get().record(value);
    }
}
