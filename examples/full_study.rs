//! The full study: generate a paper-scaled world (a few percent of the
//! paper's 12,413 activities, with every proportion preserved), run the whole
//! pipeline, and print every table and figure of the evaluation.
//!
//! ```text
//! cargo run --release --example full_study -- [scale] [seed]
//! ```
//!
//! `scale` defaults to 0.02 and `seed` to 1. Invalid arguments print a usage
//! line and exit with code 2.

use std::process::ExitCode;

use washtrade::pipeline::{analyze, AnalysisInput};
use washtrade::report;
use workload::{WorkloadConfig, World};

const USAGE: &str = "usage: full_study [scale > 0] [seed]";

/// `(scale, seed)` from the positional arguments, each defaulted when absent.
fn parse(args: &[String]) -> Result<(f64, u64), String> {
    let mut args = args.iter();
    let scale = match args.next() {
        Some(value) => value
            .parse()
            .ok()
            .filter(|scale: &f64| *scale > 0.0 && scale.is_finite())
            .ok_or_else(|| format!("invalid scale {value:?}"))?,
        None => 0.02,
    };
    let seed = match args.next() {
        Some(value) => value.parse().map_err(|_| format!("invalid seed {value:?}"))?,
        None => 1,
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok((scale, seed))
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, seed) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("full_study: {error}\n{USAGE}");
            return Ok(ExitCode::from(2));
        }
    };

    eprintln!("generating world (scale {scale}, seed {seed})…");
    let world = World::generate(WorkloadConfig::paper_scaled(seed, scale))?;
    eprintln!(
        "chain ready: {} transactions, {} planted activities",
        world.chain.stats().transactions,
        world.truth.len()
    );

    eprintln!("running analysis…");
    let analysis = analyze(AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    });

    println!("{}", report::render_table1(&analysis.table1));
    println!("{}", report::render_refinement(&analysis.refinement));
    println!("{}", report::render_fig2(&analysis.detection.venn));
    println!("{}", report::render_table2(&analysis.characterization));
    println!("{}", report::render_fig4(&analysis.characterization));
    println!("{}", report::render_fig5(&analysis.characterization));
    println!("{}", report::render_fig6_fig7(&analysis.characterization));
    println!("{}", report::render_serials(&analysis.characterization));
    println!("{}", report::render_table3(&analysis.rewards));
    println!("{}", report::render_resales(&analysis.resales));

    // Per-stage instrumentation: the perf trajectory of the pipeline, visible
    // from the command line on every run (threads = all cores by default).
    println!("{}", report::render_stage_metrics(&analysis.stage_metrics));

    // Ground-truth comparison, which the paper's authors could not do — one
    // benefit of reproducing the pipeline on a synthetic world.
    let planted: std::collections::HashSet<_> = world.truth.iter().map(|t| t.nft).collect();
    let detected: std::collections::HashSet<_> =
        analysis.detection.confirmed.iter().map(|a| a.nft()).collect();
    let recalled = planted.intersection(&detected).count();
    println!(
        "ground truth: {} planted, {} detected, recall {:.1}%, {} detections outside the planted set",
        planted.len(),
        detected.len(),
        recalled as f64 / planted.len().max(1) as f64 * 100.0,
        detected.difference(&planted).count()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn arguments_default_and_parse() {
        assert_eq!(parse(&args(&[])), Ok((0.02, 1)));
        assert_eq!(parse(&args(&["0.05", "9"])), Ok((0.05, 9)));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["abc"][..],
            &["0"],
            &["-0.5"],
            &["inf"],
            &["NaN"],
            &["0.01", "x"],
            &["0.01", "1", "extra"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
