//! Golden-report equivalence gate: the full `AnalysisReport` of a fixed
//! world, rendered deterministically, must stay byte-identical to the
//! committed snapshot. Any bit of drift in a float sum, a candidate ordering
//! or a Venn bucket shows up as a text diff here.
//!
//! The snapshot was captured from the address-keyed pipeline before the
//! columnar core landed, and re-captured once since, when Table I changed
//! its fold order from NFT-id order to chain (row) order so the stream can
//! extend it with each epoch's rows. Three lines moved, each by at most two
//! ULPs, and no count changed: LooksRare's Table I `volume_eth` (1 ULP),
//! OpenSea's Table I `volume_usd` (2 ULPs), and OpenSea's Table II
//! `share_of_marketplace_volume`, which divides by that `volume_usd`
//! (2 ULPs). The spec oracle (`tests/spec/`) holds every Table I count to
//! the paper's definition exactly and every volume to a compensated
//! reference sum within the f64 summation bound, in either order.
//!
//! Regenerate the snapshot (after an *intentional* output change only) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_report
//! ```

use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions};
use washtrade::report::render_deterministic as render;
use workload::{WorkloadConfig, World};

const GOLDEN_PATH: &str = "tests/golden/analysis_report_small_2024.txt";

#[test]
fn report_matches_golden_snapshot() {
    let world = World::generate(WorkloadConfig::small(2024)).expect("world");
    let input = AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    };
    let rendered = render(&analyze_with(input, AnalysisOptions::default()));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("golden snapshot rewritten: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    diff_against_golden(&rendered, &golden);
}

/// The same golden gate with the thread budget pinned to 8: the sharded
/// decode with its ordered commit and the per-NFT fan-outs must reproduce
/// the snapshot byte for byte when they actually fan out. CI runs this as
/// its own named step so a parallelism-only regression is labelled
/// unambiguously.
#[test]
fn report_matches_golden_snapshot_at_eight_threads() {
    let world = World::generate(WorkloadConfig::small(2024)).expect("world");
    let input = AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    };
    let rendered =
        render(&analyze_with(input, AnalysisOptions { threads: 8, collect_metrics: false }));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()));
    diff_against_golden(&rendered, &golden);
}

fn diff_against_golden(rendered: &str, golden: &str) {
    if rendered != golden {
        // Point at the first diverging line instead of dumping two reports.
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()) + 1);
        panic!(
            "report diverged from the golden snapshot at line {line}:\n  now:    {}\n  golden: {}",
            rendered.lines().nth(line - 1).unwrap_or("<eof>"),
            golden.lines().nth(line - 1).unwrap_or("<eof>"),
        );
    }
}
