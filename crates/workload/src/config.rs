//! Workload configuration: how much of everything to generate.

use ethsim::Timestamp;
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic world.
///
/// The defaults are calibrated so that the *proportions* (marketplace shares,
/// pattern mix, evidence mix, lifetime distribution) follow the paper, while
/// the absolute counts are scaled down to run quickly. Use
/// [`WorkloadConfig::paper_scaled`] to pick a different scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// RNG seed; the same seed reproduces the exact same chain.
    pub seed: u64,
    /// Chain genesis timestamp.
    pub start: Timestamp,
    /// Length of the simulated period in days.
    pub duration_days: u64,
    /// Number of ERC-165-compliant ERC-721 collections.
    pub collections: usize,
    /// Number of contracts that emit ERC-721-shaped logs but are not
    /// ERC-165 compliant (filtered out by the compliance step).
    pub non_compliant_collections: usize,
    /// Number of ERC-1155 contracts (noise for signature filtering).
    pub erc1155_collections: usize,
    /// Number of DEX-position NFTs minted by a UniswapV3-like contract
    /// (high-volume noise the paper explicitly sets aside).
    pub dex_position_nfts: usize,
    /// Number of ordinary trader accounts.
    pub legit_traders: usize,
    /// Number of ordinary marketplace sales.
    pub legit_sales: usize,
    /// Number of zero-volume transfer cliques (related accounts shuffling an
    /// NFT with no payment; removed by the zero-volume refinement step).
    pub zero_volume_shuffles: usize,
    /// Number of wash-trading activities to generate.
    pub wash_activities: usize,
    /// Fraction of wash accounts reused across activities (serial traders).
    pub serial_trader_fraction: f64,
    /// Gas price used throughout, in gwei.
    pub gas_price_gwei: u64,
}

impl WorkloadConfig {
    /// A small world suitable for unit/integration tests (a few hundred
    /// transactions, builds in well under a second).
    pub fn small(seed: u64) -> Self {
        WorkloadConfig {
            seed,
            start: Timestamp::from_secs(1_609_459_200), // 2021-01-01
            duration_days: 200,
            collections: 8,
            non_compliant_collections: 2,
            erc1155_collections: 1,
            dex_position_nfts: 5,
            legit_traders: 40,
            legit_sales: 120,
            zero_volume_shuffles: 6,
            wash_activities: 40,
            serial_trader_fraction: 0.27,
            gas_price_gwei: 40,
        }
    }

    /// A world whose absolute counts are `scale` times the paper's dataset
    /// (clamped to at least a handful of each ingredient). `scale = 1.0`
    /// would reproduce the full 12,413-activity study; the experiments use a
    /// few percent, which preserves every reported proportion.
    pub fn paper_scaled(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let activities = ((12_413.0 * scale).round() as usize).max(60);
        WorkloadConfig {
            seed,
            start: Timestamp::from_secs(1_609_459_200),
            duration_days: 380,
            collections: ((25_878.0 * scale).round() as usize).clamp(12, 400),
            non_compliant_collections: ((859.0 * scale).round() as usize).clamp(2, 40),
            erc1155_collections: 3,
            dex_position_nfts: ((200.0 * scale).round() as usize).clamp(5, 100),
            legit_traders: (activities * 4).clamp(100, 4_000),
            // The real chain has orders of magnitude more ordinary sales than
            // wash trades; 20× per activity keeps generation fast while still
            // making wash volume a small share of OpenSea's total (Table II's
            // shape). EXPERIMENTS.md discusses the remaining gap.
            legit_sales: activities * 20,
            zero_volume_shuffles: ((292_158.0 * scale * 0.002).round() as usize).clamp(5, 200),
            wash_activities: activities,
            serial_trader_fraction: 0.27,
            gas_price_gwei: 40,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::small(42)
    }
}

/// The benchmark's world sizes: named points on the
/// [`WorkloadConfig::paper_scaled`] axis. `perfbench` defines its workloads
/// on `Large` and smoke-tests them on `Small`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorldScale {
    /// ~1% of the paper's dataset — a few thousand transfers, builds in
    /// milliseconds; the quick-check size.
    Small,
    /// ~12% of the paper's dataset — tens of thousands of transfers; the
    /// size where stage-level parallelism is worth measuring.
    Large,
}

impl WorldScale {
    /// The fraction of the paper's 12,413 activities this scale generates.
    pub fn fraction(self) -> f64 {
        match self {
            WorldScale::Small => 0.01,
            WorldScale::Large => 0.12,
        }
    }

    /// The scale's name, as printed in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            WorldScale::Small => "small",
            WorldScale::Large => "large",
        }
    }

    /// The workload configuration of this scale with the given seed.
    pub fn config(self, seed: u64) -> WorkloadConfig {
        WorkloadConfig::paper_scaled(seed, self.fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_modest() {
        let config = WorkloadConfig::small(1);
        assert!(config.wash_activities <= 100);
        assert!(config.legit_sales <= 500);
    }

    #[test]
    fn paper_scaled_preserves_activity_count() {
        let config = WorkloadConfig::paper_scaled(1, 0.05);
        assert!((config.wash_activities as f64 - 12_413.0 * 0.05).abs() < 2.0);
        assert!(config.collections >= 12);
    }

    #[test]
    #[should_panic]
    fn zero_scale_is_rejected() {
        let _ = WorkloadConfig::paper_scaled(1, 0.0);
    }

    #[test]
    fn world_scales_ascend_and_name_themselves() {
        assert!(WorldScale::Small.fraction() < WorldScale::Large.fraction());
        for scale in [WorldScale::Small, WorldScale::Large] {
            assert_eq!(scale.config(9), WorkloadConfig::paper_scaled(9, scale.fraction()));
        }
        assert_eq!(WorldScale::Small.label(), "small");
        assert_eq!(WorldScale::Large.label(), "large");
    }
}
