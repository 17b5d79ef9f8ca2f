//! Health/SLO watchdog: declarative service-level objectives evaluated
//! against the current metrics snapshot, with burn counters and flight-ring
//! incident capture on the healthy→unhealthy edge.
//!
//! The monitor is deliberately dumb: each [`SloSpec`] names a metric (or a
//! counter pair) and a threshold; [`evaluate`] reads them from a
//! [`MetricsSnapshot`] and produces a [`HealthReport`]. It never reads
//! analysis state, so — like every other obs surface — it cannot perturb
//! results, and the whole module is inert under the `noop` feature or while
//! recording is off.

use std::sync::{Mutex, OnceLock};

use crate::snapshot::MetricsSnapshot;

/// How one objective is judged from a metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SloRule {
    /// A histogram quantile must not exceed a ceiling (e.g. epoch publish
    /// latency p99 below budget).
    HistogramQuantileAtMost {
        /// Histogram metric name, e.g. `stream.epoch_ns`.
        metric: String,
        /// Quantile in `[0, 1]`, e.g. `0.99`.
        quantile: f64,
        /// Inclusive ceiling on the quantile value.
        ceiling: i64,
    },
    /// A gauge must not exceed a ceiling (e.g. watermark lag).
    GaugeAtMost {
        /// Gauge metric name.
        metric: String,
        /// Inclusive ceiling.
        ceiling: i64,
    },
    /// A gauge must not fall below a floor (e.g. snapshot chunk-reuse ratio).
    GaugeAtLeast {
        /// Gauge metric name.
        metric: String,
        /// Inclusive floor.
        floor: i64,
    },
    /// `part / (part + rest)` (two counters) must stay at or above a floor,
    /// in basis points (e.g. cache hit rate).
    RatioAtLeast {
        /// Numerator counter, e.g. `serve.cache.hits`.
        part: String,
        /// The complement counter, e.g. `serve.cache.misses`.
        rest: String,
        /// Inclusive floor on the ratio, in basis points of the total.
        floor_bp: i64,
    },
}

/// One named objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable short name, e.g. `epoch_latency`.
    pub name: String,
    /// The rule that judges it.
    pub rule: SloRule,
}

/// The outcome of judging one objective at one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// The objective's name.
    pub slo: String,
    /// Whether the objective held at this evaluation. An objective whose
    /// metric is absent from the snapshot is healthy (no data is not a
    /// violation).
    pub healthy: bool,
    /// The observed value (quantile, gauge, or ratio in basis points); 0
    /// when the metric is absent.
    pub observed: i64,
    /// The configured ceiling or floor.
    pub threshold: i64,
    /// Consecutive unhealthy evaluations ending at this one (0 if healthy).
    pub burn: u64,
    /// Total unhealthy evaluations since the spec was installed.
    pub total_burn: u64,
}

/// A point-in-time health summary: every objective's verdict plus how often
/// the monitor has run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Monotonic report version (equals the evaluation count).
    pub version: u64,
    /// How many times [`evaluate`] has run against the current specs.
    pub evaluations: u64,
    /// Per-objective verdicts, in spec order.
    pub verdicts: Vec<SloVerdict>,
}

impl HealthReport {
    /// True when every objective held at the last evaluation (vacuously true
    /// for an empty report).
    pub fn healthy(&self) -> bool {
        self.verdicts.iter().all(|verdict| verdict.healthy)
    }

    /// Plain-text rendering for dashboards and consoles.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let ok = self.verdicts.iter().filter(|verdict| verdict.healthy).count();
        out.push_str(&format!(
            "health: {ok}/{total} objectives met after {evals} evaluation(s)\n",
            total = self.verdicts.len(),
            evals = self.evaluations,
        ));
        for verdict in &self.verdicts {
            out.push_str(&format!(
                "  [{state}] {slo:<24} observed {observed:>12}  threshold {threshold:>12}  \
                 burn {burn} (total {total_burn})\n",
                state = if verdict.healthy { " ok " } else { "FAIL" },
                slo = verdict.slo,
                observed = verdict.observed,
                threshold = verdict.threshold,
                burn = verdict.burn,
                total_burn = verdict.total_burn,
            ));
        }
        out
    }
}

struct SloState {
    spec: SloSpec,
    burn: u64,
    total_burn: u64,
}

#[derive(Default)]
struct Monitor {
    slos: Vec<SloState>,
    installed: bool,
    evaluations: u64,
    last: Vec<SloVerdict>,
}

fn monitor() -> &'static Mutex<Monitor> {
    static MONITOR: OnceLock<Mutex<Monitor>> = OnceLock::new();
    MONITOR.get_or_init(|| Mutex::new(Monitor::default()))
}

/// The default objective catalog for the live pipeline (`stream.epoch_ns`
/// is the `stream.epoch` span: the epoch through its snapshot publish):
///
/// | objective       | rule                                                  |
/// |-----------------|-------------------------------------------------------|
/// | `epoch_latency` | `stream.epoch_ns` p99 ≤ 250 ms                        |
/// | `watermark_lag` | `stream.watermark_lag` gauge ≤ 1024 blocks            |
/// | `cache_hit_rate`| `serve.cache.hits` ratio ≥ 25 % (2500 bp)             |
/// | `chunk_reuse`   | `serve.publish.reuse_ratio` gauge ≥ 2500 bp           |
pub fn standard_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "epoch_latency".to_string(),
            rule: SloRule::HistogramQuantileAtMost {
                metric: "stream.epoch_ns".to_string(),
                quantile: 0.99,
                ceiling: 250_000_000,
            },
        },
        SloSpec {
            name: "watermark_lag".to_string(),
            rule: SloRule::GaugeAtMost {
                metric: "stream.watermark_lag".to_string(),
                ceiling: 1024,
            },
        },
        SloSpec {
            name: "cache_hit_rate".to_string(),
            rule: SloRule::RatioAtLeast {
                part: "serve.cache.hits".to_string(),
                rest: "serve.cache.misses".to_string(),
                floor_bp: 2_500,
            },
        },
        SloSpec {
            name: "chunk_reuse".to_string(),
            rule: SloRule::GaugeAtLeast {
                metric: "serve.publish.reuse_ratio".to_string(),
                floor: 2_500,
            },
        },
    ]
}

/// Install (or replace) the objective set. Burn counters and the evaluation
/// count reset. An empty slice clears the monitor.
pub fn set_slos(specs: Vec<SloSpec>) {
    if !crate::enabled() {
        return;
    }
    let mut monitor = monitor().lock().expect("health monitor poisoned");
    monitor.slos =
        specs.into_iter().map(|spec| SloState { spec, burn: 0, total_burn: 0 }).collect();
    monitor.installed = true;
    monitor.evaluations = 0;
    monitor.last = Vec::new();
}

fn judge(rule: &SloRule, snapshot: &MetricsSnapshot) -> (bool, i64, i64) {
    match rule {
        SloRule::HistogramQuantileAtMost { metric, quantile, ceiling } => {
            match snapshot.histogram(metric) {
                Some(summary) => {
                    let observed = summary.quantile(*quantile) as i64;
                    (observed <= *ceiling, observed, *ceiling)
                }
                None => (true, 0, *ceiling),
            }
        }
        SloRule::GaugeAtMost { metric, ceiling } => match snapshot.gauge(metric) {
            Some(observed) => (observed <= *ceiling, observed, *ceiling),
            None => (true, 0, *ceiling),
        },
        SloRule::GaugeAtLeast { metric, floor } => match snapshot.gauge(metric) {
            Some(observed) => (observed >= *floor, observed, *floor),
            None => (true, 0, *floor),
        },
        SloRule::RatioAtLeast { part, rest, floor_bp } => {
            let hits = snapshot.counter(part).unwrap_or(0);
            let misses = snapshot.counter(rest).unwrap_or(0);
            let total = hits + misses;
            match hits.saturating_mul(10_000).checked_div(total) {
                // No traffic yet: nothing has violated the floor.
                None => (true, 0, *floor_bp),
                Some(observed) => (observed as i64 >= *floor_bp, observed as i64, *floor_bp),
            }
        }
    }
}

/// Judge every installed objective against `snapshot`, advancing burn
/// counters. On an objective's healthy→unhealthy edge the flight ring is
/// captured as an incident ([`crate::flight::last_incident`]). Installs
/// [`standard_slos`] on first use if [`set_slos`] was never called. Returns
/// the empty report (and mutates nothing) while recording is off.
pub fn evaluate(snapshot: &MetricsSnapshot) -> HealthReport {
    if !crate::recording() {
        return HealthReport::default();
    }
    let mut monitor = monitor().lock().expect("health monitor poisoned");
    if !monitor.installed {
        monitor.slos = standard_slos()
            .into_iter()
            .map(|spec| SloState { spec, burn: 0, total_burn: 0 })
            .collect();
        monitor.installed = true;
    }
    monitor.evaluations += 1;
    let evaluations = monitor.evaluations;
    let mut verdicts = Vec::with_capacity(monitor.slos.len());
    let mut newly_unhealthy: Vec<String> = Vec::new();
    for state in &mut monitor.slos {
        let (healthy, observed, threshold) = judge(&state.spec.rule, snapshot);
        if healthy {
            state.burn = 0;
        } else {
            if state.burn == 0 {
                newly_unhealthy.push(state.spec.name.clone());
            }
            state.burn += 1;
            state.total_burn += 1;
        }
        verdicts.push(SloVerdict {
            slo: state.spec.name.clone(),
            healthy,
            observed,
            threshold,
            burn: state.burn,
            total_burn: state.total_burn,
        });
    }
    monitor.last = verdicts.clone();
    drop(monitor);
    for slo in newly_unhealthy {
        crate::flight::capture_incident(&format!("slo {slo} violated"));
    }
    HealthReport { version: evaluations, evaluations, verdicts }
}

/// The verdicts from the most recent [`evaluate`] call, without mutating any
/// burn state — the read path behind `Query::Health`. Empty before the first
/// evaluation and while recording is off.
pub fn report() -> HealthReport {
    if !crate::recording() {
        return HealthReport::default();
    }
    let monitor = monitor().lock().expect("health monitor poisoned");
    HealthReport {
        version: monitor.evaluations,
        evaluations: monitor.evaluations,
        verdicts: monitor.last.clone(),
    }
}
