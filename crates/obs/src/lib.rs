//! Process-wide runtime observability: lock-free counters, gauges, and
//! log-bucketed latency histograms, plus one timing guard,
//! [`trace::span`], that feeds both the causal trace and the histograms.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path must cost a few nanoseconds.** Counter increments and
//!    histogram records touch one thread-local shard with relaxed atomics —
//!    no locks, no allocation, no shared cache-line contention. Registration
//!    (name → slot) happens once per call site through a `OnceLock`-backed
//!    lazy handle baked into the recording macros.
//! 2. **Telemetry must never perturb results.** Recording is purely
//!    observational; nothing in the analysis pipeline reads a metric back.
//!    The `noop` cargo feature compiles every record path to nothing and every
//!    snapshot to the empty snapshot, and `set_recording(false)` provides the
//!    same switch at runtime, so determinism gates run both ways.
//! 3. **Snapshots are deterministic.** [`snapshot`] merges all thread shards
//!    (including shards retired by exited threads) and emits metrics sorted
//!    by name, with a monotonically increasing version stamp.
//!
//! The recording surface is three macros — [`counter!`], [`gauge!`],
//! [`histogram!`] — plus same-named free functions for dynamically built
//! metric names, and the one timing guard: [`trace::span`] (or
//! [`trace::span_dynamic`]) reads the clock once when it opens, returns the
//! elapsed time from [`TraceSpan::finish`], and while recording writes both a
//! flight-ring [`SpanRecord`] and one sample into the `<name>_ns` histogram.
//!
//! On top of the flat metrics sit three attribution layers, all honoring the
//! same two escape hatches: [`trace`] (causal span trees with cross-thread
//! context propagation and Chrome trace-event export), [`flight`] (an
//! always-on bounded ring of completed spans, dumped on demand, on panic, or
//! when a health rule fires), and [`health`] (declarative SLOs judged from
//! the metrics snapshot into a [`HealthReport`] with burn counters).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod health;
mod registry;
mod snapshot;
pub mod trace;

pub use health::{HealthReport, SloRule, SloSpec, SloVerdict};
pub use registry::{
    counter, gauge, histogram, Counter, Gauge, Histogram, LazyCounter, LazyGauge, LazyHistogram,
    MetricKind, BUCKETS, MAX_SLOTS,
};
pub use snapshot::{snapshot, HistogramSummary, Metric, MetricValue, MetricsSnapshot};
pub use trace::{SpanId, SpanRecord, TraceContext, TraceId, TraceSpan};

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether this build was compiled with observability support at all.
///
/// `false` only under the `noop` cargo feature; a constant either way, so
/// `if !enabled() { ... }` folds away at compile time.
pub const fn enabled() -> bool {
    cfg!(not(feature = "noop"))
}

/// Runtime recording switch, on by default. Only consulted when [`enabled`];
/// lets one binary measure instrumented-vs-off overhead without a rebuild.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Turn recording on or off at runtime. Registration still works while off —
/// metrics reappear in snapshots (with their accumulated values) when
/// recording is re-enabled.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// True when a record call will actually write: the build is instrumented
/// *and* the runtime switch is on. Under the `noop` feature this is a
/// compile-time `false`.
#[inline(always)]
pub fn recording() -> bool {
    enabled() && RECORDING.load(Ordering::Relaxed)
}

/// Increment a statically named counter: `counter!("ingest.calls")` or
/// `counter!("ingest.raw_events", n)`. The handle is registered once per call
/// site and cached in a hidden `static`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1u64)
    };
    ($name:literal, $n:expr) => {{
        static __OBS_COUNTER: $crate::LazyCounter = $crate::LazyCounter::new($name);
        __OBS_COUNTER.add($n);
    }};
}

/// Set a statically named gauge to an absolute value:
/// `gauge!("stream.watermark", w as i64)`.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $v:expr) => {{
        static __OBS_GAUGE: $crate::LazyGauge = $crate::LazyGauge::new($name);
        __OBS_GAUGE.set($v);
    }};
}

/// Record one sample into a statically named histogram:
/// `histogram!("stream.dirty_nfts", dirty as u64)`. To time an interval,
/// open a [`trace::span`] instead.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $v:expr) => {{
        static __OBS_HISTOGRAM: $crate::LazyHistogram = $crate::LazyHistogram::new($name);
        __OBS_HISTOGRAM.record($v);
    }};
}
