//! Plain-text rendering of the paper's tables and figures from an
//! [`AnalysisReport`], used by the
//! `experiments` binary and the examples.

use std::fmt::Write as _;

use crate::characterize::Characterization;
use crate::dataset::MarketplaceVolume;
use crate::detect::VennCounts;
use crate::pipeline::{AnalysisReport, StageMetrics};
use crate::profit::{ResaleReport, RewardReport};
use crate::refine::RefinementReport;

/// Render every deterministic field of a report into one canonical string —
/// the comparison form behind the golden-snapshot gate and the
/// parallel-ingest determinism proptest, so a new report field only ever
/// needs to be added here.
///
/// `Debug` for `HashMap` fields would iterate in per-process random order,
/// so map-valued fields (volume CDFs, pattern occurrences) are emitted as
/// key-sorted vectors; `stage_metrics` is timing-dependent and excluded.
pub fn render_deterministic(report: &AnalysisReport) -> String {
    let mut out = String::new();
    let c = &report.characterization;
    writeln!(out, "table1: {:#?}", report.table1).unwrap();
    writeln!(
        out,
        "dataset: nfts={} transfers={} raw={} compliant={} non_compliant={}",
        report.dataset_nfts,
        report.dataset_transfers,
        report.raw_transfer_events,
        report.compliant_contracts,
        report.non_compliant_contracts
    )
    .unwrap();
    writeln!(out, "refinement: {:#?}", report.refinement).unwrap();
    writeln!(out, "detection: {:#?}", report.detection).unwrap();
    writeln!(
        out,
        "characterization: total_activities={} total_volume_usd={:?} total_volume_eth={:?}",
        c.total_activities, c.total_volume_usd, c.total_volume_eth
    )
    .unwrap();
    writeln!(out, "per_marketplace: {:#?}", c.per_marketplace).unwrap();
    let mut cdfs: Vec<_> = c.volume_cdfs.iter().collect();
    cdfs.sort_by_key(|(name, _)| name.as_str());
    writeln!(out, "volume_cdfs: {cdfs:#?}").unwrap();
    writeln!(out, "lifetimes: {:#?}", c.lifetimes).unwrap();
    writeln!(out, "collection_timelines: {:#?}", c.collection_timelines).unwrap();
    writeln!(out, "accounts_histogram: {:?}", c.patterns.accounts_histogram).unwrap();
    let mut occurrences: Vec<_> = c.patterns.pattern_occurrences.iter().collect();
    occurrences.sort();
    writeln!(out, "pattern_occurrences: {occurrences:?}").unwrap();
    writeln!(
        out,
        "patterns: uncatalogued={} two_account={:?} self_trade={:?}",
        c.patterns.uncatalogued, c.patterns.two_account_fraction, c.patterns.self_trade_fraction
    )
    .unwrap();
    writeln!(out, "serial_traders: {:#?}", c.serial_traders).unwrap();
    writeln!(
        out,
        "acquired: same_day={:?} within_two_weeks={:?}",
        c.acquired_same_day_fraction, c.acquired_within_two_weeks_fraction
    )
    .unwrap();
    writeln!(out, "rewards: {:#?}", report.rewards).unwrap();
    writeln!(out, "resales: {:#?}", report.resales).unwrap();
    out
}

/// Render the per-stage instrumentation table: wall time, item counts and
/// thread usage for each pipeline stage, plus the end-to-end total.
pub fn render_stage_metrics(metrics: &[StageMetrics]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Pipeline stages — wall time and throughput");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12} {:>9}",
        "stage", "wall time", "items in", "items out", "threads"
    );
    let mut total_ns = 0u64;
    for stage in metrics {
        total_ns = total_ns.saturating_add(stage.wall_time_ns);
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>12} {:>9}",
            stage.stage,
            format_ns(stage.wall_time_ns),
            stage.items_in,
            stage.items_out,
            stage.threads
        );
    }
    let _ = writeln!(out, "{:<16} {:>12}", "total", format_ns(total_ns));
    out
}

fn format_ns(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.1} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Render Table I: dataset totals per marketplace.
pub fn render_table1(rows: &[MarketplaceVolume]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I — Data collected about NFTMs");
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>14} {:>18} {:>18}",
        "NFTM", "NFTs", "Transactions", "Volume (ETH)", "Volume ($)"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>14} {:>18.2} {:>18.0}",
            row.name, row.nfts, row.transactions, row.volume_eth, row.volume_usd
        );
    }
    out
}

/// Render Table II: wash trading per marketplace.
pub fn render_table2(characterization: &Characterization) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table II — Wash trading on NFTMs");
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>12} {:>16} {:>18} {:>12}",
        "NFTM", "#NFT", "#activities", "Volume (ETH)", "Volume ($)", "% of total"
    );
    for row in &characterization.per_marketplace {
        let share = row
            .share_of_marketplace_volume
            .map(|s| format!("{:.2}%", s * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>16.2} {:>18.0} {:>12}",
            row.name, row.nfts, row.activities, row.volume_eth, row.volume_usd, share
        );
    }
    let _ = writeln!(
        out,
        "Total: {} activities, {:.2} ETH, ${:.0}",
        characterization.total_activities,
        characterization.total_volume_eth,
        characterization.total_volume_usd
    );
    out
}

/// Render the Fig. 2 Venn counts (method overlap).
pub fn render_fig2(venn: &VennCounts) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 2 — Wash trading activities detected by each approach");
    let _ = writeln!(out, "  zero-risk only:            {}", venn.zero_risk_only);
    let _ = writeln!(out, "  common funder only:        {}", venn.funder_only);
    let _ = writeln!(out, "  common exit only:          {}", venn.exit_only);
    let _ = writeln!(out, "  zero-risk ∩ funder:        {}", venn.zero_and_funder);
    let _ = writeln!(out, "  zero-risk ∩ exit:          {}", venn.zero_and_exit);
    let _ = writeln!(out, "  funder ∩ exit:             {}", venn.funder_and_exit);
    let _ = writeln!(out, "  all three:                 {}", venn.all_three);
    let _ = writeln!(out, "  total (≥1 flow method):    {}", venn.total());
    let at_least_two = venn.at_least_two() as f64 / venn.total().max(1) as f64;
    let _ = writeln!(out, "  confirmed by ≥2 methods:   {:.1}%", at_least_two * 100.0);
    out
}

/// Render the refinement funnel (§IV-A/B counts).
pub fn render_refinement(report: &RefinementReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Refinement funnel (NFTs / accounts / components)");
    let stage = |name: &str, s: &crate::refine::StageCount| {
        format!("  {:<28} {:>8} {:>10} {:>12}", name, s.nfts, s.accounts, s.components)
    };
    let _ =
        writeln!(out, "  {:<28} {:>8} {:>10} {:>12}", "stage", "NFTs", "accounts", "components");
    let _ = writeln!(out, "{}", stage("initial SCC search", &report.initial));
    let _ = writeln!(out, "{}", stage("after service removal", &report.after_service_removal));
    let _ = writeln!(out, "{}", stage("after contract removal", &report.after_contract_removal));
    let _ = writeln!(out, "{}", stage("after zero-volume removal", &report.after_zero_volume));
    out
}

/// Render Fig. 4: lifetimes.
pub fn render_fig4(characterization: &Characterization) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 4 — Lifetime of wash trading activities");
    let _ = writeln!(
        out,
        "  ≤ 1 day:  {:.2}%   < 10 days: {:.2}%",
        characterization.lifetimes.within_one_day * 100.0,
        characterization.lifetimes.within_ten_days * 100.0
    );
    for (value, fraction) in characterization.lifetimes.cdf_days.curve(10) {
        let _ = writeln!(out, "  {:>6.0} days: {:>5.1}%", value, fraction * 100.0);
    }
    out
}

/// Render Fig. 5: activity timing vs collection creation.
pub fn render_fig5(characterization: &Characterization) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 5 — Top collections: creation vs wash-trading occurrences");
    for timeline in &characterization.collection_timelines {
        let mean_lag_days = if timeline.activity_times.is_empty() {
            0.0
        } else {
            timeline
                .activity_times
                .iter()
                .map(|t| t.days_since(timeline.created_at) as f64)
                .sum::<f64>()
                / timeline.activity_times.len() as f64
        };
        let _ = writeln!(
            out,
            "  {:<46} affected NFTs: {:>4}  activities: {:>4}  mean days after creation: {:>6.1}",
            timeline.collection.to_hex(),
            timeline.affected_nfts,
            timeline.activity_times.len(),
            mean_lag_days
        );
    }
    out
}

/// Render Fig. 6 and Fig. 7: participation histogram and pattern occurrences.
pub fn render_fig6_fig7(characterization: &Characterization) -> String {
    let mut out = String::new();
    let patterns = &characterization.patterns;
    let _ = writeln!(out, "Fig. 6 — Accounts involved in wash trading activities");
    let total: usize = patterns.accounts_histogram.iter().sum();
    for (index, count) in patterns.accounts_histogram.iter().enumerate() {
        let label = if index == 5 { "6+".to_string() } else { (index + 1).to_string() };
        let _ = writeln!(
            out,
            "  {:>3} accounts: {:>6} ({:.2}%)",
            label,
            count,
            *count as f64 / total.max(1) as f64 * 100.0
        );
    }
    let _ = writeln!(out, "Fig. 7 — Pattern occurrences");
    let mut ids: Vec<usize> = patterns.pattern_occurrences.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let _ = writeln!(out, "  Pattern {:>2}: {:>6}", id, patterns.pattern_occurrences[&id]);
    }
    let _ = writeln!(out, "  uncatalogued: {:>4}", patterns.uncatalogued);
    let _ = writeln!(
        out,
        "  two-account round trips: {:.2}%  self-trades: {:.2}%",
        patterns.two_account_fraction * 100.0,
        patterns.self_trade_fraction * 100.0
    );
    out
}

/// Render §V-D: serial wash traders.
pub fn render_serials(characterization: &Characterization) -> String {
    let serial = &characterization.serial_traders;
    let mut out = String::new();
    let _ = writeln!(out, "§V-D — Serial wash traders");
    let _ = writeln!(
        out,
        "  accounts: {} total, {} serial ({:.2}%)",
        serial.total_accounts,
        serial.serial_accounts,
        serial.serial_accounts as f64 / serial.total_accounts.max(1) as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "  activities involving serials: {} of {} ({:.2}%)",
        serial.activities_with_serials,
        serial.total_activities,
        serial.activities_with_serials as f64 / serial.total_activities.max(1) as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "  mean activities per serial: {:.2}   max per account: {}",
        serial.mean_activities_per_serial, serial.max_activities_per_account
    );
    let _ = writeln!(
        out,
        "  serials hitting one collection repeatedly: {:.2}%   collaborating only with serials: {:.2}%",
        serial.same_collection_fraction * 100.0,
        serial.exclusive_collaboration_fraction * 100.0
    );
    out
}

/// Render Table III: reward-system profitability.
pub fn render_table3(report: &RewardReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table III — Token reward and wash trading");
    for market in &report.markets {
        let _ = writeln!(out, "  {}:", market.marketplace);
        let _ = writeln!(out, "    {:<22} {:>14} {:>14}", "", "Successful", "Failed");
        let row = |label: &str, s: f64, f: f64| format!("    {label:<22} {s:>14.2} {f:>14.2}");
        let _ = writeln!(
            out,
            "    {:<22} {:>14} {:>14}",
            "# events", market.successful.events, market.failed.events
        );
        let _ = writeln!(
            out,
            "{}",
            row("min vol. (ETH)", market.successful.min_volume_eth, market.failed.min_volume_eth)
        );
        let _ = writeln!(
            out,
            "{}",
            row("max vol. (ETH)", market.successful.max_volume_eth, market.failed.max_volume_eth)
        );
        let _ = writeln!(
            out,
            "{}",
            row(
                "mean vol. (ETH)",
                market.successful.mean_volume_eth,
                market.failed.mean_volume_eth
            )
        );
        let _ = writeln!(
            out,
            "{}",
            row(
                "max gain/loss ($)",
                market.successful.max_balance_usd,
                market.failed.max_balance_usd
            )
        );
        let _ = writeln!(
            out,
            "{}",
            row(
                "mean gain/loss ($)",
                market.successful.mean_balance_usd,
                market.failed.mean_balance_usd
            )
        );
        let _ = writeln!(
            out,
            "{}",
            row(
                "total gain/loss ($)",
                market.successful.total_balance_usd,
                market.failed.total_balance_usd
            )
        );
        let _ = writeln!(out, "    did not claim: {}", market.did_not_claim);
    }
    let _ = writeln!(out, "  overall success rate: {:.1}%", report.success_rate() * 100.0);
    out
}

/// Render §VI-B: resale profitability.
pub fn render_resales(report: &ResaleReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§VI-B — NFT resale after wash trading");
    let _ = writeln!(
        out,
        "  activities: {}   resold: {} ({:.1}%)   not resold: {} ({:.1}%)",
        report.total,
        report.resold,
        report.resold as f64 / report.total.max(1) as f64 * 100.0,
        report.not_resold,
        report.not_resold as f64 / report.total.max(1) as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "  sold same day: {}   sold within a month: {}",
        report.sold_same_day, report.sold_within_month
    );
    let split = |name: &str, s: &crate::profit::ProfitSplit| {
        format!(
            "  {name:<26} gains: {:>5} ({:.1}%)  mean gain: {:>8.2}  losses: {:>5}  mean loss: {:>8.2}",
            s.gains,
            s.gain_fraction() * 100.0,
            s.mean_gain,
            s.losses,
            s.mean_loss
        )
    };
    let _ = writeln!(out, "{}", split("ignoring fees (ETH)", &report.gross));
    let _ = writeln!(out, "{}", split("including fees (ETH)", &report.net));
    let _ = writeln!(out, "{}", split("including fees (USD)", &report.net_usd));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{LifetimeStats, PatternStats, SerialTraderStats};
    use crate::stats::Cdf;

    fn characterization() -> Characterization {
        Characterization {
            total_activities: 2,
            total_volume_usd: 1000.0,
            total_volume_eth: 0.5,
            per_marketplace: vec![crate::characterize::MarketplaceWashRow {
                name: "OpenSea".to_string(),
                nfts: 2,
                activities: 2,
                volume_eth: 0.5,
                volume_usd: 1000.0,
                share_of_marketplace_volume: Some(0.01),
            }],
            volume_cdfs: Default::default(),
            lifetimes: LifetimeStats {
                cdf_days: Cdf::new([0.0, 3.0]),
                within_one_day: 0.5,
                within_ten_days: 1.0,
            },
            collection_timelines: vec![],
            patterns: PatternStats {
                accounts_histogram: [0, 2, 0, 0, 0, 0],
                pattern_occurrences: [(1usize, 2usize)].into_iter().collect(),
                uncatalogued: 0,
                two_account_fraction: 1.0,
                self_trade_fraction: 0.0,
            },
            serial_traders: SerialTraderStats::default(),
            acquired_same_day_fraction: 0.5,
            acquired_within_two_weeks_fraction: 1.0,
        }
    }

    #[test]
    fn renderers_produce_non_empty_text_with_key_numbers() {
        let characterization = characterization();
        let table2 = render_table2(&characterization);
        assert!(table2.contains("OpenSea"));
        assert!(table2.contains("1.00%"));
        let fig4 = render_fig4(&characterization);
        assert!(fig4.contains("50.00%"));
        let fig67 = render_fig6_fig7(&characterization);
        assert!(fig67.contains("Pattern  1"));
        let serials = render_serials(&characterization);
        assert!(serials.contains("Serial wash traders"));

        let venn = VennCounts { all_three: 3, exit_only: 1, ..VennCounts::default() };
        let fig2 = render_fig2(&venn);
        assert!(fig2.contains("all three:                 3"));
        assert!(fig2.contains("total (≥1 flow method):    4"));

        let table1 = render_table1(&[MarketplaceVolume {
            name: "LooksRare".to_string(),
            nfts: 1,
            transactions: 2,
            volume_eth: 3.0,
            volume_usd: 9_000.0,
        }]);
        assert!(table1.contains("LooksRare"));

        let table3 = render_table3(&RewardReport::default());
        assert!(table3.contains("Table III"));
        let resales = render_resales(&ResaleReport::default());
        assert!(resales.contains("resale"));
        let refinement = render_refinement(&RefinementReport::default());
        assert!(refinement.contains("initial SCC search"));
    }
}
