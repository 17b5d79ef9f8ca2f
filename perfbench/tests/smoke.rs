//! Smoke test of the benchmark itself: every workload runs once on the small
//! world, untraced and traced, emits every metric `BENCHMARK.json` declares
//! with its unit, and passes every output check.

use perfbench::{Config, MetricSpec, Outcome, Workload, END_TO_END, PER_LAYER};
use workload::WorldScale;

/// `(name, unit, better)` of every metric in one section of the repository's
/// `BENCHMARK.json`, which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let from = line.find(&tag).map(|at| at + tag.len()).expect("field present");
        line[from..from + line[from..].find('"').expect("string closes")].to_string()
    };
    body.lines()
        .filter(|line| line.contains("\"name\""))
        .map(|line| (field(line, "name"), field(line, "unit"), field(line, "better")))
        .collect()
}

fn catalog(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|spec| (spec.name.to_string(), spec.unit.to_string(), spec.better.to_string()))
        .collect()
}

fn run(workload: Workload, trace: bool) -> Outcome {
    let outcome =
        perfbench::run(Config { workload, seed: 7, seconds: 0.3, trace, scale: WorldScale::Small });
    assert!(
        outcome.correct(),
        "{} (trace {trace}) failed its checks: {:?}",
        workload.name(),
        outcome.failures
    );
    let result = outcome.result_json();
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome.metric(name).unwrap_or_else(|| panic!("{name} missing")).value
}

#[test]
fn the_catalog_matches_benchmark_json() {
    assert_eq!(catalog(END_TO_END), declared("end_to_end"));
    assert_eq!(catalog(PER_LAYER), declared("per_layer"));
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())), "{workload:?}");
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    // One test, run in sequence: the traced runs switch process-wide
    // recording on and off.
    for workload in Workload::ALL {
        let outcome = run(workload, false);
        let result = outcome.result_json();
        for spec in END_TO_END {
            let measured = outcome.metric(spec.name).expect("every end-to-end metric");
            assert!(measured.value > 0.0, "{} {} is not positive", workload.name(), spec.name);
            assert!(measured.samples > 0, "{} {} has no samples", workload.name(), spec.name);
            assert!(
                result.contains(&format!("\"{}\": {{\"value\": ", spec.name))
                    && result.contains(&format!("\"unit\": \"{}\"}}", spec.unit)),
                "{} missing from {result}",
                spec.name
            );
        }

        let traced = run(workload, true);
        for spec in PER_LAYER {
            assert!(traced.metric(spec.name).is_some(), "{} missing", spec.name);
        }
        let exercised: &[&str] = match workload {
            Workload::BatchLarge => &[
                "ingest.decode_ms",
                "core.build_graphs_ms",
                "core.refine_ms",
                "core.characterize_ms",
                "core.confirmed",
            ],
            Workload::StreamTail => &[
                "stream.epoch_ms",
                "stream.ingest_ms",
                "stream.leaf_facts_ms",
                "stream.reassemble_ms",
                "serve.publish_ms",
                "executor.tail_2t_over_1t",
            ],
            Workload::ServeMixed => &[
                "serve.publish_ms",
                "serve.hit_rate",
                "serve.hit_ns_p50",
                "serve.miss_ns_p50",
                "serve.writer_slowdown",
            ],
        };
        for name in exercised {
            assert!(value(&traced, name) > 0.0, "{} {name} is not positive", workload.name());
        }
        if workload == Workload::StreamTail {
            assert_parts_sum_to_the_epoch(&traced);
        }
    }
}

/// The traced tail epoch splits into its measured parts plus the
/// unattributed remainder.
fn assert_parts_sum_to_the_epoch(traced: &Outcome) {
    let parts: f64 = [
        "stream.ingest_ms",
        "stream.graph_sync_ms",
        "stream.leaf_facts_ms",
        "stream.reassemble_ms",
        "serve.publish_ms",
        "obs.health_eval_ms",
        "stream.unattributed_ms",
    ]
    .iter()
    .map(|name| value(traced, name))
    .sum();
    let epoch = value(traced, "stream.epoch_ms");
    assert!((parts - epoch).abs() <= 1e-9 * epoch, "parts {parts} vs epoch {epoch}");
    // The remainder is defined by the sum above, so the split is only
    // meaningful if the measured parts leave a sane remainder.
    let unattributed = value(traced, "stream.unattributed_ms");
    assert!(
        (0.0..=0.5 * epoch).contains(&unattributed),
        "unattributed {unattributed} ms of a {epoch} ms epoch"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
