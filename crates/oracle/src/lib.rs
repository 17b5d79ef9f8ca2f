//! # oracle — deterministic USD price series
//!
//! The paper converts ETH amounts and reward tokens (LOOKS, RARI) into USD
//! "on the day tokens were claimed or spent", using historical market prices.
//! This reproduction has no access to (and no need for) the historical feed;
//! instead the [`PriceOracle`] serves deterministic, seeded daily price
//! series whose magnitudes are anchored to the paper's period (ETH around
//! $3,000–4,000 in late 2021 / early 2022, LOOKS a few dollars, RARI in the
//! tens). The profitability analysis (§VI) only depends on prices being
//! *consistent* across the pipeline, which the oracle guarantees.
//!
//! # Example
//!
//! ```
//! use ethsim::{Timestamp, Wei};
//! use oracle::PriceOracle;
//!
//! let genesis = Timestamp::from_secs(1_609_459_200); // 2021-01-01
//! let oracle = PriceOracle::paper_presets(genesis, 500, 42);
//! let usd = oracle.wei_to_usd(Wei::from_eth(2.0), genesis.plus_days(30)).unwrap();
//! assert!(usd > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use ethsim::{Timestamp, Wei};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Symbol of the native currency series.
pub const ETH: &str = "ETH";
/// Symbol of the LooksRare reward token.
pub const LOOKS: &str = "LOOKS";
/// Symbol of the Rarible reward token.
pub const RARI: &str = "RARI";
/// Symbol of the USD stablecoin series (constant 1.0).
pub const USDC: &str = "USDC";

/// A daily USD price series starting at a fixed day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceSeries {
    /// Day index (days since the unix epoch) of the first sample.
    pub start_day: u64,
    /// One USD price per day, starting at `start_day`.
    pub daily_prices: Vec<f64>,
}

impl PriceSeries {
    /// A constant price for `days` days.
    pub fn constant(start: Timestamp, days: usize, price: f64) -> Self {
        PriceSeries { start_day: start.day(), daily_prices: vec![price; days.max(1)] }
    }

    /// A seeded geometric-Brownian-like path: each day the log-price moves by
    /// `drift + volatility * z` where `z` is a standard normal sample
    /// (Box–Muller over the seeded ChaCha stream).
    ///
    /// # Panics
    ///
    /// Panics if `start_price` is not strictly positive or `days` is zero.
    pub fn geometric(
        seed: u64,
        start: Timestamp,
        days: usize,
        start_price: f64,
        drift: f64,
        volatility: f64,
    ) -> Self {
        assert!(start_price > 0.0, "start price must be positive");
        assert!(days > 0, "series must cover at least one day");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut prices = Vec::with_capacity(days);
        let mut price = start_price;
        for _ in 0..days {
            prices.push(price);
            // Box–Muller transform for a standard normal sample.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            price *= (drift + volatility * z).exp();
            // Keep the series bounded away from zero so conversions stay sane.
            price = price.max(start_price * 1e-3);
        }
        PriceSeries { start_day: start.day(), daily_prices: prices }
    }

    /// The price on a given day index. Days before the series start or after
    /// its end are clamped to the first/last sample, so late claims still get
    /// a well-defined price (mirroring how a real feed would be extended).
    pub fn price_on_day(&self, day: u64) -> f64 {
        if self.daily_prices.is_empty() {
            return 0.0;
        }
        let offset = day.saturating_sub(self.start_day) as usize;
        let index = offset.min(self.daily_prices.len() - 1);
        self.daily_prices[index]
    }

    /// The price at a timestamp (bucketed by day, as the paper does).
    pub fn price_at(&self, at: Timestamp) -> f64 {
        self.price_on_day(at.day())
    }

    /// Number of days covered.
    pub fn len(&self) -> usize {
        self.daily_prices.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.daily_prices.is_empty()
    }
}

/// A collection of price series keyed by symbol. The ETH series, which
/// prices every transfer, sits in its own field, so [`PriceOracle::wei_to_usd`]
/// reaches it without a string-keyed lookup; every other symbol lives in the
/// map. Each series is stored once.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PriceOracle {
    eth: Option<PriceSeries>,
    series: HashMap<String, PriceSeries>,
}

impl PriceOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        PriceOracle::default()
    }

    /// An oracle with ETH, LOOKS, RARI and USDC series whose magnitudes match
    /// the paper's study period, deterministically derived from `seed`.
    pub fn paper_presets(start: Timestamp, days: usize, seed: u64) -> Self {
        let mut oracle = PriceOracle::new();
        oracle.add_series(
            ETH,
            PriceSeries::geometric(seed ^ 0x01, start, days, 3_373.0, 0.0005, 0.03),
        );
        oracle.add_series(
            LOOKS,
            PriceSeries::geometric(seed ^ 0x02, start, days, 3.84, -0.001, 0.06),
        );
        oracle.add_series(
            RARI,
            PriceSeries::geometric(seed ^ 0x03, start, days, 14.2, -0.0005, 0.05),
        );
        oracle.add_series(USDC, PriceSeries::constant(start, days, 1.0));
        oracle
    }

    /// Register (or replace) a series for a symbol.
    pub fn add_series(&mut self, symbol: impl Into<String>, series: PriceSeries) {
        let symbol = symbol.into();
        if symbol == ETH {
            self.eth = Some(series);
        } else {
            self.series.insert(symbol, series);
        }
    }

    /// The series for a symbol, if registered.
    pub fn series(&self, symbol: &str) -> Option<&PriceSeries> {
        if symbol == ETH {
            self.eth.as_ref()
        } else {
            self.series.get(symbol)
        }
    }

    /// The USD price of one unit of `symbol` at `at`.
    pub fn usd_price(&self, symbol: &str, at: Timestamp) -> Option<f64> {
        self.series(symbol).map(|s| s.price_at(at))
    }

    /// Convert an ETH amount (in wei) to USD at `at`.
    pub fn wei_to_usd(&self, amount: Wei, at: Timestamp) -> Option<f64> {
        self.eth.as_ref().map(|series| amount.to_eth() * series.price_at(at))
    }

    /// Convert a token amount expressed in base units with `decimals` decimal
    /// places into USD at `at`.
    pub fn token_to_usd(
        &self,
        symbol: &str,
        base_units: u128,
        decimals: u32,
        at: Timestamp,
    ) -> Option<f64> {
        let scale = 10f64.powi(decimals as i32);
        self.usd_price(symbol, at).map(|price| base_units as f64 / scale * price)
    }

    /// Registered symbols, sorted.
    pub fn symbols(&self) -> Vec<&str> {
        let eth = self.eth.as_ref().map(|_| ETH);
        let mut symbols: Vec<&str> = self.series.keys().map(|s| s.as_str()).chain(eth).collect();
        symbols.sort_unstable();
        symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> Timestamp {
        Timestamp::from_secs(1_609_459_200)
    }

    #[test]
    fn constant_series_is_flat_and_clamped() {
        let series = PriceSeries::constant(start(), 10, 1.0);
        assert_eq!(series.price_at(start()), 1.0);
        assert_eq!(series.price_at(start().plus_days(9)), 1.0);
        // Clamped outside the covered range.
        assert_eq!(series.price_at(start().plus_days(100)), 1.0);
        assert_eq!(series.price_on_day(0), 1.0);
        assert_eq!(series.len(), 10);
        assert!(!series.is_empty());
    }

    #[test]
    fn geometric_series_is_deterministic_per_seed() {
        let a = PriceSeries::geometric(7, start(), 100, 3000.0, 0.0, 0.02);
        let b = PriceSeries::geometric(7, start(), 100, 3000.0, 0.0, 0.02);
        let c = PriceSeries::geometric(8, start(), 100, 3000.0, 0.0, 0.02);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.daily_prices.iter().all(|p| *p > 0.0));
    }

    #[test]
    #[should_panic]
    fn geometric_series_rejects_non_positive_start() {
        let _ = PriceSeries::geometric(1, start(), 10, 0.0, 0.0, 0.01);
    }

    #[test]
    fn oracle_conversions() {
        let oracle = PriceOracle::paper_presets(start(), 400, 42);
        let t = start().plus_days(100);
        let eth_price = oracle.usd_price(ETH, t).unwrap();
        assert!(eth_price > 100.0, "ETH price should stay in a plausible range");
        let usd = oracle.wei_to_usd(Wei::from_eth(2.0), t).unwrap();
        assert!((usd - 2.0 * eth_price).abs() < 1e-6);
        // 18-decimal LOOKS token conversion.
        let looks_price = oracle.usd_price(LOOKS, t).unwrap();
        let usd_tokens = oracle.token_to_usd(LOOKS, 5 * 10u128.pow(18), 18, t).unwrap();
        assert!((usd_tokens - 5.0 * looks_price).abs() < 1e-6);
        assert_eq!(oracle.usd_price(USDC, t), Some(1.0));
        assert_eq!(oracle.usd_price("UNKNOWN", t), None);
        assert_eq!(oracle.symbols(), vec![ETH, LOOKS, RARI, USDC]);
    }

    #[test]
    fn unknown_symbol_conversions_return_none() {
        let oracle = PriceOracle::new();
        assert_eq!(oracle.wei_to_usd(Wei::from_eth(1.0), start()), None);
        assert_eq!(oracle.token_to_usd("LOOKS", 1, 18, start()), None);
        assert!(oracle.symbols().is_empty());
    }

    #[test]
    fn re_adding_eth_replaces_the_pricing_series() {
        let mut oracle = PriceOracle::new();
        oracle.add_series(ETH, PriceSeries::constant(start(), 10, 2_000.0));
        oracle.add_series(USDC, PriceSeries::constant(start(), 10, 1.0));
        let second = PriceSeries::constant(start(), 10, 3_000.0);
        oracle.add_series(ETH.to_string(), second.clone());
        assert_eq!(oracle.wei_to_usd(Wei::from_eth(2.0), start()), Some(6_000.0));
        assert_eq!(oracle.series(ETH), Some(&second));
        assert_eq!(oracle.usd_price(ETH, start()), Some(3_000.0));
        assert_eq!(oracle.series(USDC).map(|s| s.price_at(start())), Some(1.0));
        assert_eq!(oracle.symbols(), vec![ETH, USDC]);
    }

    #[test]
    fn an_oracle_without_eth_prices_no_wei() {
        let mut oracle = PriceOracle::new();
        oracle.add_series(LOOKS, PriceSeries::constant(start(), 10, 4.0));
        assert_eq!(oracle.wei_to_usd(Wei::from_eth(1.0), start()), None);
        assert_eq!(oracle.series(ETH), None);
        assert_eq!(oracle.symbols(), vec![LOOKS]);
        assert_eq!(oracle.usd_price(LOOKS, start()), Some(4.0));
    }

    proptest::proptest! {
        #[test]
        fn price_lookup_never_panics_and_is_positive(
            seed in 0u64..1000,
            day_offset in 0u64..2000,
        ) {
            let series = PriceSeries::geometric(seed, start(), 365, 3000.0, 0.0, 0.05);
            let price = series.price_at(start().plus_days(day_offset));
            proptest::prop_assert!(price > 0.0);
        }
    }
}
