//! The experiment harness: regenerates every table and figure of the paper's
//! evaluation from a calibrated synthetic world and prints measured values
//! side by side with the paper's reported values.
//!
//! ```text
//! cargo run --release --example experiments -- [scale] [seed] [experiment]
//! ```
//!
//! `scale` (default 0.02) is the fraction of the paper's 12,413 activities to
//! generate, `seed` defaults to 7, and `experiment` is one of `table1`,
//! `table2`, `table3`, `fig2`, `fig3`, `fig4`, `fig5`, `fig6`, `fig7`,
//! `serial`, `resale`, or `all` (default). Invalid arguments print a usage
//! line and exit with code 2.

use std::process::ExitCode;

use washtrade::pipeline::{analyze, AnalysisInput, AnalysisReport};
use washtrade::report;
use workload::{WorkloadConfig, World};

const EXPERIMENTS: [&str; 12] = [
    "table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "serial",
    "resale", "all",
];

/// `(scale, seed, experiment)` from the positional arguments, each
/// defaulted when absent.
fn parse(args: &[String]) -> Result<(f64, u64, String), String> {
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
        None => 7,
    };
    let which = match args.next() {
        Some(value) if EXPERIMENTS.contains(&value.as_str()) => value.clone(),
        Some(value) => return Err(format!("unknown experiment {value:?}")),
        None => "all".to_string(),
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    Ok((scale, seed, which))
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, seed, which) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            let names = EXPERIMENTS.join("|");
            eprintln!("experiments: {error}\nusage: experiments [scale > 0] [seed] [{names}]");
            return Ok(ExitCode::from(2));
        }
    };

    eprintln!("== generating world: scale {scale}, seed {seed} ==");
    let world = World::generate(WorkloadConfig::paper_scaled(seed, scale))?;
    eprintln!(
        "chain: {} transactions, {} planted wash activities",
        world.chain.stats().transactions,
        world.truth.len()
    );
    eprintln!("== running analysis ==");
    let analysis = analyze(AnalysisInput {
        chain: &world.chain,
        labels: &world.labels,
        directory: &world.directory,
        oracle: &world.oracle,
    });

    let run = |name: &str| which == "all" || which == name;
    if run("table1") {
        table1(&analysis);
    }
    if run("fig2") {
        fig2(&analysis);
    }
    if run("table2") {
        table2(&analysis);
    }
    if run("fig3") {
        fig3(&analysis);
    }
    if run("fig4") {
        fig4(&analysis);
    }
    if run("fig5") {
        fig5(&analysis);
    }
    if run("fig6") || run("fig7") {
        fig6_fig7(&analysis);
    }
    if run("serial") {
        serial(&analysis);
    }
    if run("table3") {
        table3(&analysis);
    }
    if run("resale") {
        resale(&analysis);
    }
    if which == "all" {
        ground_truth(&world, &analysis);
    }
    Ok(ExitCode::SUCCESS)
}

/// The paper's reference values, printed beside the measured ones.
mod paper {
    /// Table II: share of each marketplace's volume that is wash trading.
    pub const WASH_SHARE_LOOKSRARE: f64 = 0.8479;
    /// Table II: OpenSea wash share of its total volume.
    pub const WASH_SHARE_OPENSEA: f64 = 0.0049;
    /// Fraction of all wash-trading volume generated on LooksRare.
    pub const LOOKSRARE_SHARE_OF_WASH_VOLUME: f64 = 0.9741;
    /// Fig. 2: total activities confirmed by at least one flow method.
    pub const VENN_TOTAL: usize = 11_454;
    /// Fig. 2 buckets: (zero-risk only, funder only, exit only, z∩f, z∩e, f∩e, all).
    pub const VENN_BUCKETS: [usize; 7] = [256, 536, 2_777, 253, 582, 5_020, 2_030];
    /// Fraction of activities detected by at least two approaches.
    pub const AT_LEAST_TWO_METHODS: f64 = 0.68;
    /// Fig. 4: fraction of activities lasting at most one day.
    pub const LIFETIME_ONE_DAY: f64 = 0.33;
    /// Fig. 4: fraction of activities lasting less than ten days.
    pub const LIFETIME_TEN_DAYS: f64 = 0.5167;
    /// Fig. 6: fraction of activities performed by exactly two accounts.
    pub const TWO_ACCOUNT_FRACTION: f64 = 0.5986;
    /// Fig. 7: occurrences per pattern id.
    pub const PATTERN_OCCURRENCES: [(usize, usize); 12] = [
        (0, 942),
        (1, 7_431),
        (2, 1_592),
        (3, 786),
        (4, 17),
        (5, 450),
        (6, 146),
        (7, 134),
        (8, 9),
        (9, 4),
        (10, 115),
        (11, 22),
    ];
    /// §V-D: fraction of involved accounts that are serial wash traders.
    pub const SERIAL_ACCOUNT_FRACTION: f64 = 0.2716;
    /// §V-D: fraction of activities involving serial wash traders.
    pub const SERIAL_ACTIVITY_FRACTION: f64 = 0.7293;
    /// Table III: success rate of claimed reward-farming activities on
    /// LooksRare (365 of 457).
    pub const LOOKSRARE_REWARD_SUCCESS: f64 = 0.80;
    /// Table III: success rate on Rarible (107 of 113).
    pub const RARIBLE_REWARD_SUCCESS: f64 = 0.93;
    /// §VI-B: fraction of resale-venue activities not followed by a sale.
    pub const NOT_RESOLD_FRACTION: f64 = 0.647;
    /// §VI-B: fraction of resold activities that profit once fees are counted.
    pub const RESALE_PROFIT_FRACTION: f64 = 0.504;
    /// §V-B: fraction of NFTs bought the same day the manipulation started.
    pub const ACQUIRED_SAME_DAY: f64 = 0.39;
}

/// Format a measured-vs-paper comparison line.
fn compare(label: &str, measured: f64, paper: f64, unit: &str) -> String {
    format!("  {label:<52} measured: {measured:>10.3}{unit}   paper: {paper:>10.3}{unit}")
}

fn table1(analysis: &AnalysisReport) {
    println!("\n================ Experiment: Table I ================");
    println!("{}", report::render_table1(&analysis.table1));
    println!("Paper shape check: OpenSea carries the overwhelming majority of marketplace");
    println!("transactions; LooksRare has few transactions but a disproportionate volume.");
    let opensea_txs =
        analysis.table1.iter().find(|r| r.name == "OpenSea").map(|r| r.transactions).unwrap_or(0);
    let total_txs: usize = analysis.table1.iter().map(|r| r.transactions).sum();
    println!(
        "{}",
        compare(
            "OpenSea share of marketplace transactions",
            opensea_txs as f64 / total_txs.max(1) as f64,
            6_979_112.0 / 7_263_525.0,
            ""
        )
    );
}

fn fig2(analysis: &AnalysisReport) {
    println!("\n================ Experiment: Fig. 2 ================");
    println!("{}", report::render_fig2(&analysis.detection.venn));
    let venn = &analysis.detection.venn;
    let total = venn.total().max(1) as f64;
    let measured = [
        venn.zero_risk_only,
        venn.funder_only,
        venn.exit_only,
        venn.zero_and_funder,
        venn.zero_and_exit,
        venn.funder_and_exit,
        venn.all_three,
    ];
    let labels = [
        "zero-risk only",
        "funder only",
        "exit only",
        "zero-risk ∩ funder",
        "zero-risk ∩ exit",
        "funder ∩ exit",
        "all three",
    ];
    println!("Share of flow-confirmed activities per Venn region (measured vs paper):");
    for ((label, measured), paper_count) in labels.iter().zip(measured).zip(paper::VENN_BUCKETS) {
        println!(
            "{}",
            compare(
                label,
                measured as f64 / total,
                paper_count as f64 / paper::VENN_TOTAL as f64,
                ""
            )
        );
    }
    println!(
        "{}",
        compare(
            "confirmed by ≥2 methods",
            venn.at_least_two() as f64 / total,
            paper::AT_LEAST_TWO_METHODS,
            ""
        )
    );
}

fn table2(analysis: &AnalysisReport) {
    println!("\n================ Experiment: Table II ================");
    println!("{}", report::render_table2(&analysis.characterization));
    let row =
        |name: &str| analysis.characterization.per_marketplace.iter().find(|r| r.name == name);
    if let Some(looksrare) = row("LooksRare") {
        println!(
            "{}",
            compare(
                "LooksRare wash share of its own volume",
                looksrare.share_of_marketplace_volume.unwrap_or(0.0),
                paper::WASH_SHARE_LOOKSRARE,
                ""
            )
        );
        let marketplace_wash: f64 = analysis
            .characterization
            .per_marketplace
            .iter()
            .filter(|r| r.name != "Off-market")
            .map(|r| r.volume_usd)
            .sum();
        println!(
            "{}",
            compare(
                "LooksRare share of all marketplace wash volume",
                looksrare.volume_usd / marketplace_wash.max(1.0),
                paper::LOOKSRARE_SHARE_OF_WASH_VOLUME,
                ""
            )
        );
    }
    if let Some(opensea) = row("OpenSea") {
        println!(
            "{}",
            compare(
                "OpenSea wash share of its own volume",
                opensea.share_of_marketplace_volume.unwrap_or(0.0),
                paper::WASH_SHARE_OPENSEA,
                ""
            )
        );
    }
    if let Some(foundation) = row("Foundation") {
        println!(
            "  NOTE: Foundation shows {} wash activities (paper: none).",
            foundation.activities
        );
    } else {
        println!("  Foundation: no wash-trading activity detected — matches the paper.");
    }
}

fn fig3(analysis: &AnalysisReport) {
    println!("\n================ Experiment: Fig. 3 ================");
    println!("CDF of per-activity wash volume (USD) vs unaffected trading volume.");
    let mut names: Vec<&String> = analysis.characterization.volume_cdfs.keys().collect();
    names.sort();
    for name in names {
        let cdf = &analysis.characterization.volume_cdfs[name];
        if cdf.is_empty() {
            continue;
        }
        println!(
            "  {:<28} n={:<6} median=${:<12.0} p90=${:<12.0} max=${:<14.0}",
            name,
            cdf.len(),
            cdf.quantile(0.5).unwrap_or(0.0),
            cdf.quantile(0.9).unwrap_or(0.0),
            cdf.max().unwrap_or(0.0)
        );
    }
    println!("Paper shape check: legit trades generate much smaller volumes than wash");
    println!("trading, and LooksRare wash volumes dwarf every other marketplace.");
}

fn fig4(analysis: &AnalysisReport) {
    println!("\n================ Experiment: Fig. 4 ================");
    println!("{}", report::render_fig4(&analysis.characterization));
    println!(
        "{}",
        compare(
            "activities lasting ≤ 1 day",
            analysis.characterization.lifetimes.within_one_day,
            paper::LIFETIME_ONE_DAY,
            ""
        )
    );
    println!(
        "{}",
        compare(
            "activities lasting < 10 days",
            analysis.characterization.lifetimes.within_ten_days,
            paper::LIFETIME_TEN_DAYS,
            ""
        )
    );
    println!(
        "{}",
        compare(
            "NFT acquired the same day manipulation started",
            analysis.characterization.acquired_same_day_fraction,
            paper::ACQUIRED_SAME_DAY,
            ""
        )
    );
}

fn fig5(analysis: &AnalysisReport) {
    println!("\n================ Experiment: Fig. 5 ================");
    println!("{}", report::render_fig5(&analysis.characterization));
    println!("Paper shape check: the bulk of each collection's wash activity clusters");
    println!("shortly after the collection's creation.");
}

fn fig6_fig7(analysis: &AnalysisReport) {
    println!("\n============ Experiment: Fig. 6 and Fig. 7 ============");
    println!("{}", report::render_fig6_fig7(&analysis.characterization));
    println!(
        "{}",
        compare(
            "two-account round-trip share",
            analysis.characterization.patterns.two_account_fraction,
            paper::TWO_ACCOUNT_FRACTION,
            ""
        )
    );
    let measured_total: usize =
        analysis.characterization.patterns.pattern_occurrences.values().sum::<usize>()
            + analysis.characterization.patterns.uncatalogued;
    let paper_total: usize = 12_413;
    println!("Pattern mix (share of all activities, measured vs paper):");
    for (id, occurrences) in paper::PATTERN_OCCURRENCES {
        let measured =
            analysis.characterization.patterns.pattern_occurrences.get(&id).copied().unwrap_or(0)
                as f64
                / measured_total.max(1) as f64;
        println!(
            "{}",
            compare(
                &format!("pattern {id}"),
                measured,
                occurrences as f64 / paper_total as f64,
                ""
            )
        );
    }
}

fn serial(analysis: &AnalysisReport) {
    println!("\n================ Experiment: §V-D serial traders ================");
    println!("{}", report::render_serials(&analysis.characterization));
    let serial = &analysis.characterization.serial_traders;
    println!(
        "{}",
        compare(
            "serial accounts / involved accounts",
            serial.serial_accounts as f64 / serial.total_accounts.max(1) as f64,
            paper::SERIAL_ACCOUNT_FRACTION,
            ""
        )
    );
    println!(
        "{}",
        compare(
            "activities involving serial traders",
            serial.activities_with_serials as f64 / serial.total_activities.max(1) as f64,
            paper::SERIAL_ACTIVITY_FRACTION,
            ""
        )
    );
}

fn table3(analysis: &AnalysisReport) {
    println!("\n================ Experiment: Table III ================");
    println!("{}", report::render_table3(&analysis.rewards));
    for market in &analysis.rewards.markets {
        let total = market.successful.events + market.failed.events;
        if total == 0 {
            continue;
        }
        let paper_rate = if market.marketplace == "LooksRare" {
            paper::LOOKSRARE_REWARD_SUCCESS
        } else {
            paper::RARIBLE_REWARD_SUCCESS
        };
        println!(
            "{}",
            compare(
                &format!("{} reward-farming success rate", market.marketplace),
                market.successful.events as f64 / total as f64,
                paper_rate,
                ""
            )
        );
        println!(
            "{}",
            compare(
                &format!("{} gain/loss asymmetry (total gain / total |loss|)", market.marketplace),
                market.successful.total_balance_usd
                    / market.failed.total_balance_usd.abs().max(1.0),
                416_963_449.0 / 310_544.0,
                "x"
            )
        );
    }
}

fn resale(analysis: &AnalysisReport) {
    println!("\n================ Experiment: §VI-B resale ================");
    println!("{}", report::render_resales(&analysis.resales));
    println!(
        "{}",
        compare(
            "activities not followed by a sale",
            analysis.resales.not_resold as f64 / analysis.resales.total.max(1) as f64,
            paper::NOT_RESOLD_FRACTION,
            ""
        )
    );
    println!(
        "{}",
        compare(
            "resold activities profitable after fees",
            analysis.resales.net.gain_fraction(),
            paper::RESALE_PROFIT_FRACTION,
            ""
        )
    );
}

fn ground_truth(world: &World, analysis: &AnalysisReport) {
    println!("\n================ Ground-truth evaluation ================");
    let planted: std::collections::HashSet<_> = world.truth.iter().map(|t| t.nft).collect();
    let detected: std::collections::HashSet<_> =
        analysis.detection.confirmed.iter().map(|a| a.nft()).collect();
    let recalled = planted.intersection(&detected).count();
    println!(
        "  planted activities: {}   detected: {}   recall: {:.1}%   extra detections: {}",
        planted.len(),
        detected.len(),
        recalled as f64 / planted.len().max(1) as f64 * 100.0,
        detected.difference(&planted).count()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn paper_venn_buckets_sum_to_total() {
        assert_eq!(paper::VENN_BUCKETS.iter().sum::<usize>(), paper::VENN_TOTAL);
    }

    #[test]
    fn arguments_default_and_parse() {
        assert_eq!(parse(&args(&[])), Ok((0.02, 7, "all".to_string())));
        assert_eq!(parse(&args(&["0.01", "3", "fig7"])), Ok((0.01, 3, "fig7".to_string())));
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
            &["0.01", "-1"],
            &["0.01", "7", "nosuch"],
            &["0.01", "7", "all", "extra"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
