//! Causal tracing: span trees with parent links, per-thread span stacks, and
//! cross-thread context propagation, exported as Chrome trace-event JSON.
//!
//! A trace span is the crate's one timing guard. It reads the clock once
//! when it opens, and [`TraceSpan::finish`] returns the elapsed time in every
//! build and recording state, so data fields (an epoch's wall time, a stage's
//! metrics) read the same guard that traces the interval. While recording is
//! on, closing the span writes two things from that one reading: an
//! *individual* [`SpanRecord`] into the [`crate::flight`] ring, and one
//! sample into the aggregate `<name>_ns` histogram. The record carries a
//! [`TraceId`] shared by every span of one logical operation (one ingested
//! epoch), its own [`SpanId`], a link to its parent span, wall-clock
//! start/duration, and a handful of cheap integer attributes;
//! [`export_chrome_json`] renders the ring as a Perfetto-loadable timeline.
//!
//! Parenting is implicit through a per-thread stack: the innermost open span
//! on the current thread is the parent of the next one opened. Fan-out
//! boundaries (thread pools) propagate context explicitly — capture
//! [`current`] before spawning and [`adopt`] it inside the worker, and spans
//! opened by the worker become children of the fan-out span.
//!
//! Both escape hatches hold: under the `noop` feature every function here
//! records nothing, and with [`crate::set_recording`] off, guards are
//! constructed without ids, stack entry or histogram, and their drop only
//! discards a timestamp.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::flight;
use crate::registry::Histogram;

/// Identifies one logical operation (e.g. one ingested epoch); shared by
/// every span in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within the process; never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The propagation unit: which trace we are in and which span is innermost.
/// `Copy`, so it crosses thread boundaries by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The operation this context belongs to.
    pub trace: TraceId,
    /// The innermost open span — parent of any span opened under this context.
    pub span: SpanId,
}

/// A completed span, as stored in the flight ring and exported to Chrome
/// trace JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Claim index in the flight ring; totally orders completions.
    pub seq: u64,
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span id, `None` for a root span.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `stream.epoch`.
    pub name: String,
    /// Dense per-process thread index (first trace-active thread is 0).
    pub thread: u64,
    /// Nanoseconds since the process trace epoch at span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Cheap structured attributes (epoch, dirty-set size, shard id, ...).
    pub attrs: Vec<(&'static str, u64)>,
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

impl TraceId {
    fn next() -> TraceId {
        TraceId(NEXT_TRACE.fetch_add(1, Relaxed))
    }
}

impl SpanId {
    fn next() -> SpanId {
        SpanId(NEXT_SPAN.fetch_add(1, Relaxed))
    }
}

/// The process-wide trace epoch (first use) that span start times count
/// from. A single shared origin keeps timestamps comparable across threads,
/// so parent/child containment holds in the exported timeline.
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Dense thread index for timeline lanes (stable for the thread's lifetime).
fn thread_index() -> u64 {
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
    }
    TID.try_with(|t| *t).unwrap_or(u64::MAX)
}

thread_local! {
    /// Innermost-last stack of open contexts on this thread.
    static STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

fn stack_push(ctx: TraceContext) {
    let _ = STACK.try_with(|stack| stack.borrow_mut().push(ctx));
}

/// Remove `span` from this thread's stack, searching from the top so
/// out-of-order guard drops degrade gracefully instead of corrupting the
/// stack.
fn stack_remove(span: SpanId) {
    let _ = STACK.try_with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|ctx| ctx.span == span) {
            stack.remove(pos);
        }
    });
}

/// The current trace context on this thread, if a span is open (or adopted).
/// Capture this before a fan-out and [`adopt`] it in each worker.
pub fn current() -> Option<TraceContext> {
    if !crate::recording() {
        return None;
    }
    STACK.try_with(|stack| stack.borrow().last().copied()).unwrap_or(None)
}

/// An open trace span: the one timing guard. Completes on drop or
/// [`TraceSpan::finish`], writing its flight record and its `<name>_ns`
/// histogram sample from one clock reading.
///
/// While recording is off at construction the guard holds only its start
/// time: no ids are allocated, nothing is pushed on the stack, no histogram
/// is registered, and closing it records nothing.
#[must_use = "a trace span completes on drop; binding it to `_` drops it immediately"]
pub struct TraceSpan {
    started: Instant,
    inner: Option<SpanInner>,
}

struct SpanInner {
    ctx: TraceContext,
    parent: Option<SpanId>,
    name: String,
    histogram: Histogram,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

impl TraceSpan {
    fn open(name: &str) -> TraceSpan {
        if !crate::recording() {
            return TraceSpan { started: Instant::now(), inner: None };
        }
        // Registered at open, not at close, so a name clash panics at the
        // call site rather than inside a drop.
        let histogram = crate::histogram(&format!("{name}_ns"));
        let parent = STACK.try_with(|stack| stack.borrow().last().copied()).unwrap_or(None);
        let trace = parent.map(|ctx| ctx.trace).unwrap_or_else(TraceId::next);
        let ctx = TraceContext { trace, span: SpanId::next() };
        stack_push(ctx);
        let epoch = trace_epoch();
        let started = Instant::now();
        TraceSpan {
            started,
            inner: Some(SpanInner {
                ctx,
                parent: parent.map(|ctx| ctx.span),
                name: name.to_string(),
                histogram,
                start_ns: nanos(started.saturating_duration_since(epoch)),
                attrs: Vec::new(),
            }),
        }
    }

    /// Attach a structured attribute. Cheap (`&'static str` key, integer
    /// value); a no-op on a guard opened while recording was off.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.attrs.push((key, value));
        }
    }

    /// This span's context, for explicit propagation into workers.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().map(|inner| inner.ctx)
    }

    /// Time since the span opened; the span stays open.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Close the span now and return how long it was open — the same
    /// reading its flight record and histogram sample carry. Returns the
    /// elapsed time in every build and recording state.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        self.complete(elapsed);
        elapsed
    }

    fn complete(&mut self, elapsed: Duration) {
        let Some(inner) = self.inner.take() else { return };
        stack_remove(inner.ctx.span);
        let duration_ns = nanos(elapsed);
        inner.histogram.record(duration_ns);
        flight::record(SpanRecord {
            seq: 0, // assigned by the flight ring
            trace: inner.ctx.trace,
            span: inner.ctx.span,
            parent: inner.parent,
            name: inner.name,
            thread: thread_index(),
            start_ns: inner.start_ns,
            duration_ns,
            attrs: inner.attrs,
        });
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.complete(self.started.elapsed());
        }
    }
}

/// Open a span with a static name: `let mut s = trace::span("stream.epoch");`.
/// A root span (empty stack) starts a fresh [`TraceId`]; otherwise the span
/// becomes a child of the innermost open span on this thread. While
/// recording, it samples the `<name>_ns` histogram (`stream.epoch_ns`).
pub fn span(name: &'static str) -> TraceSpan {
    TraceSpan::open(name)
}

/// Open a span with a dynamically built name, e.g.
/// `trace::span_dynamic(&format!("stage.{name}"))`.
pub fn span_dynamic(name: &str) -> TraceSpan {
    TraceSpan::open(name)
}

/// A guard that makes an inherited [`TraceContext`] current on this thread
/// for its lifetime — the worker half of cross-thread propagation.
#[must_use = "an adopted context is only current while the guard lives"]
pub struct ContextGuard {
    ctx: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            stack_remove(ctx.span);
        }
    }
}

/// Adopt a context captured (via [`current`]) on another thread: spans opened
/// while the guard lives become children of `ctx.span` and share its trace.
/// `None` (or recording off) yields an inert guard, so call sites don't
/// branch.
pub fn adopt(ctx: Option<TraceContext>) -> ContextGuard {
    if !crate::recording() {
        return ContextGuard { ctx: None };
    }
    if let Some(ctx) = ctx {
        stack_push(ctx);
        ContextGuard { ctx: Some(ctx) }
    } else {
        ContextGuard { ctx: None }
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Microseconds with nanosecond precision, formatted without going through
/// floating point so the output is deterministic.
fn push_micros(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

/// Render the flight ring as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` envelope with `ph:"X"` complete events), loadable
/// in Perfetto or `chrome://tracing`. Each event's `args` carries the trace,
/// span, and parent ids plus the span's attributes. Empty (but well-formed)
/// under `noop` or when nothing has been recorded.
pub fn export_chrome_json() -> String {
    let records = flight::dump();
    let mut out = String::with_capacity(records.len() * 192 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(&mut out, &record.name);
        out.push_str(",\"cat\":\"washtrade\",\"ph\":\"X\",\"ts\":");
        push_micros(&mut out, record.start_ns);
        out.push_str(",\"dur\":");
        push_micros(&mut out, record.duration_ns);
        out.push_str(&format!(",\"pid\":1,\"tid\":{}", record.thread));
        out.push_str(",\"args\":{");
        out.push_str(&format!(
            "\"trace\":{},\"span\":{},\"parent\":{},\"seq\":{}",
            record.trace.0,
            record.span.0,
            record.parent.map(|p| p.0).unwrap_or(0),
            record.seq,
        ));
        for (key, value) in &record.attrs {
            out.push(',');
            push_json_string(&mut out, key);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}
