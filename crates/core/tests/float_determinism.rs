//! Regression tests for floating-point accumulation order: every f64 in the
//! report must be a bitwise-stable function of the chain, not of map
//! iteration order, ingest slicing or thread count.
//!
//! The fragile spots are the `volume_eth`/`volume_usd` sums in Table I
//! (`Dataset::marketplace_volumes`) and the §V characterization: a sum taken
//! in `HashMap` iteration order (or in first-seen interning order) would
//! drift in the last ulp between runs and between the batch and streaming
//! pipelines. Both paths accumulate in sorted-identity order instead; these
//! tests pin that down with exact bit comparisons.

use washtrade::dataset::Dataset;
use washtrade::parallel::Executor;
use washtrade::pipeline::{analyze_with, AnalysisInput, AnalysisOptions};
use workload::{WorkloadConfig, World};

fn input_of(world: &World) -> AnalysisInput<'_> {
    AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    }
}

/// Exact f64 equality (same bits), with a readable failure message.
fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:?} != {b:?}");
}

#[test]
fn marketplace_volumes_are_bitwise_stable_across_ingest_slicings() {
    let world = World::generate(WorkloadConfig::small(11)).expect("world");
    let batch = Dataset::build(&world.chain, &world.directory);

    // The same chain ingested in many small epochs: interning order is
    // unchanged, but accumulation must not depend on it either way.
    let tip = world.chain.current_block_number().0;
    let executor = Executor::new(1);
    let mut incremental = Dataset::default();
    let mut from = 0u64;
    while from <= tip {
        let last = (from + 17).min(tip);
        incremental.ingest_blocks(
            &world.chain,
            &world.directory,
            ethsim::BlockNumber(from),
            ethsim::BlockNumber(last),
            &executor,
        );
        from = last + 1;
    }

    let batch_rows = batch.marketplace_volumes(&world.directory, &world.oracle);
    let incremental_rows = incremental.marketplace_volumes(&world.directory, &world.oracle);
    assert_eq!(batch_rows.len(), incremental_rows.len());
    for (a, b) in batch_rows.iter().zip(&incremental_rows) {
        assert_eq!(a.name, b.name);
        assert_eq!((a.nfts, a.transactions), (b.nfts, b.transactions));
        assert_bits_eq(a.volume_eth, b.volume_eth, &format!("{} volume_eth", a.name));
        assert_bits_eq(a.volume_usd, b.volume_usd, &format!("{} volume_usd", a.name));
    }
    // Re-running on the same dataset is trivially stable too (guards against
    // any accidental map-order iteration inside the accumulation).
    let again = batch.marketplace_volumes(&world.directory, &world.oracle);
    for (a, b) in batch_rows.iter().zip(&again) {
        assert_bits_eq(a.volume_usd, b.volume_usd, &format!("{} volume_usd rerun", a.name));
    }
}

#[test]
fn characterization_floats_are_bitwise_identical_across_thread_counts() {
    let world = World::generate(WorkloadConfig::small(2024)).expect("world");
    let input = input_of(&world);
    let baseline = analyze_with(input, AnalysisOptions::single_threaded());
    assert!(baseline.characterization.total_volume_usd > 0.0);

    for threads in [2, 5, 0] {
        let report = analyze_with(input, AnalysisOptions { threads, ..AnalysisOptions::default() });
        let (a, b) = (&baseline.characterization, &report.characterization);
        assert_bits_eq(a.total_volume_usd, b.total_volume_usd, "total_volume_usd");
        assert_bits_eq(a.total_volume_eth, b.total_volume_eth, "total_volume_eth");
        assert_eq!(a.per_marketplace.len(), b.per_marketplace.len());
        for (row_a, row_b) in a.per_marketplace.iter().zip(&b.per_marketplace) {
            assert_eq!(row_a.name, row_b.name, "row order diverged at threads={threads}");
            assert_bits_eq(
                row_a.volume_usd,
                row_b.volume_usd,
                &format!("{} wash volume_usd", row_a.name),
            );
            assert_bits_eq(
                row_a.volume_eth,
                row_b.volume_eth,
                &format!("{} wash volume_eth", row_a.name),
            );
        }
        // Table I rides on the same sorted-identity accumulation.
        for (row_a, row_b) in baseline.table1.iter().zip(&report.table1) {
            assert_bits_eq(
                row_a.volume_usd,
                row_b.volume_usd,
                &format!("table1 {} volume_usd", row_a.name),
            );
        }
        // The full characterization (CDFs included) must compare equal.
        assert_eq!(a, b, "characterization diverged at threads={threads}");
    }
}
