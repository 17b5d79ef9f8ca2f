//! Flight recorder: an always-on bounded ring of completed trace spans — the
//! "what happened in the last few seconds" answer, dumped on demand, on
//! panic, or when a health rule fires.
//!
//! The ring generalizes the crate's event ring (`events`): writers claim a
//! monotonically increasing index with one atomic `fetch_add`, then store the
//! record into slot `index % capacity` behind a per-slot mutex (uncontended
//! except when two writers race a full lap apart). A slot only accepts a
//! record newer than the one it holds, so after writers quiesce the ring
//! contains exactly the last `capacity` completions in claim order.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

use crate::trace::SpanRecord;

/// Number of completed spans the ring retains.
pub const FLIGHT_CAP: usize = 4096;

struct Recorder {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    cursor: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        slots: (0..FLIGHT_CAP).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicU64::new(0),
    })
}

/// Append a completed span. Called from [`crate::trace`] guard drops.
pub(crate) fn record(mut record: SpanRecord) {
    if !crate::recording() {
        return;
    }
    let recorder = recorder();
    let seq = recorder.cursor.fetch_add(1, Relaxed);
    record.seq = seq;
    let mut slot =
        recorder.slots[(seq % FLIGHT_CAP as u64) as usize].lock().expect("flight slot poisoned");
    // A writer that stalled between claim and store must not clobber a record
    // from a later lap; newest claim wins.
    match slot.as_ref() {
        Some(existing) if existing.seq > seq => {}
        _ => *slot = Some(record),
    }
}

/// Total spans ever recorded (including ones the ring has since evicted).
pub fn recorded_total() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    recorder().cursor.load(Relaxed)
}

/// The retained spans, oldest first (by claim order). After writers quiesce
/// this is exactly the last [`FLIGHT_CAP`] completions.
pub fn dump() -> Vec<SpanRecord> {
    if !crate::enabled() {
        return Vec::new();
    }
    let recorder = recorder();
    let mut records: Vec<SpanRecord> = recorder
        .slots
        .iter()
        .filter_map(|slot| slot.lock().expect("flight slot poisoned").clone())
        .collect();
    records.sort_by_key(|record| record.seq);
    records
}

/// Drop every retained span (the claim cursor keeps counting, so sequence
/// numbers stay process-unique). Useful for scoping a dump to one run.
pub fn clear() {
    if !crate::enabled() {
        return;
    }
    for slot in &recorder().slots {
        *slot.lock().expect("flight slot poisoned") = None;
    }
}

/// A flight-ring capture taken when a health rule fired (or on explicit
/// request): the violation that tripped it plus the spans in flight.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Monotonic incident number (1-based).
    pub number: u64,
    /// Why the capture was taken, e.g. `slo epoch_latency violated`.
    pub reason: String,
    /// The flight ring at capture time, oldest span first.
    pub spans: Vec<SpanRecord>,
}

struct IncidentStore {
    last: Mutex<Option<Incident>>,
    count: AtomicU64,
}

fn incidents() -> &'static IncidentStore {
    static STORE: OnceLock<IncidentStore> = OnceLock::new();
    STORE.get_or_init(|| IncidentStore { last: Mutex::new(None), count: AtomicU64::new(0) })
}

/// Capture the flight ring as an [`Incident`]. Called by the health monitor
/// when a rule newly fires; callable directly for manual captures.
pub fn capture_incident(reason: &str) {
    if !crate::recording() {
        return;
    }
    let store = incidents();
    let number = store.count.fetch_add(1, Relaxed) + 1;
    let incident = Incident { number, reason: reason.to_string(), spans: dump() };
    *store.last.lock().expect("incident store poisoned") = Some(incident);
}

/// The most recent incident capture, if any.
pub fn last_incident() -> Option<Incident> {
    if !crate::enabled() {
        return None;
    }
    incidents().last.lock().expect("incident store poisoned").clone()
}

/// How many incidents have been captured since process start.
pub fn incident_count() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    incidents().count.load(Relaxed)
}

/// Install a panic hook (once; idempotent) that dumps the tail of the flight
/// ring to stderr before delegating to the previous hook, so a crashing run
/// leaves its last spans on the console.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    if !crate::enabled() {
        return;
    }
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let records = dump();
            let tail = records.len().saturating_sub(24);
            eprintln!("--- obs flight recorder: last {} span(s) ---", records.len() - tail);
            for record in &records[tail..] {
                eprintln!(
                    "  #{seq} {name} trace={trace} span={span} parent={parent} \
                     thread={thread} dur={dur}ns",
                    seq = record.seq,
                    name = record.name,
                    trace = record.trace.0,
                    span = record.span.0,
                    parent = record.parent.map(|p| p.0).unwrap_or(0),
                    thread = record.thread,
                    dur = record.duration_ns,
                );
            }
            previous(info);
        }));
    });
}
