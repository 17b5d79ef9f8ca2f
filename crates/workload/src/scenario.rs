//! Wash-trading scenario specifications and the paper-calibrated sampler.
//!
//! A [`WashScenarioSpec`] fully describes one wash-trading activity before it
//! is executed on the chain: which marketplace (if any), which pattern shape,
//! how the colluding accounts are funded and where the proceeds exit, whether
//! the NFT is acquired from an external party, how long the activity lasts,
//! and what the operators are after (token rewards or a later resale).
//! [`ScenarioSampler`] draws specs from distributions calibrated to the
//! paper's reported numbers (Tables II–III, Figs. 2, 4, 6, 7).

use graphlib::PatternId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Where a wash-trading activity takes place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Venue {
    /// Sales through the OpenSea contract.
    OpenSea,
    /// Sales through the LooksRare contract (reward token: LOOKS).
    LooksRare,
    /// Sales through the Rarible contract (reward token: RARI).
    Rarible,
    /// Sales through the SuperRare contract.
    SuperRare,
    /// Sales through the Decentraland marketplace contract.
    Decentraland,
    /// Sales through the Foundation contract.
    Foundation,
    /// Direct transfers outside any marketplace.
    OffMarket,
}

impl Venue {
    /// The marketplace name, or `None` for off-market activity.
    pub fn marketplace_name(&self) -> Option<&'static str> {
        match self {
            Venue::OpenSea => Some("OpenSea"),
            Venue::LooksRare => Some("LooksRare"),
            Venue::Rarible => Some("Rarible"),
            Venue::SuperRare => Some("SuperRare"),
            Venue::Decentraland => Some("Decentraland"),
            Venue::Foundation => Some("Foundation"),
            Venue::OffMarket => None,
        }
    }

    /// Whether this venue runs a volume-based token reward system.
    pub fn has_reward_system(&self) -> bool {
        matches!(self, Venue::LooksRare | Venue::Rarible)
    }
}

/// How the colluding accounts are funded before the activity (§IV-C ii).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FundingEvidence {
    /// No funding transactions exist (accounts already held ETH).
    None,
    /// One colluding account funds the others before the first trade.
    Internal,
    /// A dedicated external account funds at least two colluders.
    External,
    /// An exchange-labelled account funds the colluders (the paper finds 737
    /// such cases; the common-funder heuristic must *not* count these).
    Exchange,
}

/// Where the proceeds go after the activity (§IV-C iii).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitEvidence {
    /// No exit transfers.
    None,
    /// Funds are swept to one of the colluding accounts.
    Internal,
    /// Funds are swept to an external account.
    External,
}

/// What the wash traders are trying to achieve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WashGoal {
    /// Exploit the marketplace's token reward system (§VI-A). `claims`
    /// mirrors the paper's observation that some operators never claim.
    RewardExploit {
        /// Whether the operators actually claim the reward tokens.
        claims: bool,
    },
    /// Inflate the price and resell to an outsider (§VI-B). `resale_price_eth`
    /// is the external sale price; `None` means the NFT is never resold.
    Resale {
        /// Final external sale price in ETH, if a sale happens.
        resale_price_eth: Option<f64>,
    },
    /// Pure volume inflation with no measured monetization.
    VolumeOnly,
}

/// The shape of the colluding component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioPattern {
    /// One of the 12 catalogued Fig. 7 patterns.
    Catalogued(PatternId),
    /// A larger simple cycle with the given number of accounts (the paper's
    /// uncatalogued ~6% tail).
    LargeCycle(usize),
}

impl ScenarioPattern {
    /// Number of colluding accounts in the pattern.
    pub fn participants(&self) -> usize {
        match self {
            ScenarioPattern::Catalogued(id) => match id.0 {
                0 => 1,
                1 => 2,
                2..=4 => 3,
                5..=9 => 4,
                10 | 11 => 5,
                _ => 2,
            },
            ScenarioPattern::LargeCycle(n) => *n,
        }
    }

    /// The trade walk: the sequence of account positions the NFT visits, such
    /// that consecutive positions are the seller and buyer of one trade and
    /// every distinct edge of the pattern is traded at least once.
    pub fn walk(&self) -> Vec<usize> {
        match self {
            ScenarioPattern::Catalogued(id) => match id.0 {
                // Self-trade.
                0 => vec![0, 0],
                // Round trip.
                1 => vec![0, 1, 0],
                // 3-cycle.
                2 => vec![0, 1, 2, 0],
                // Round-trip chain on 3 accounts: edges 0⇄1, 1⇄2.
                3 => vec![0, 1, 2, 1, 0],
                // Bidirectional triangle: all six directed edges.
                4 => vec![0, 1, 2, 0, 2, 1, 0],
                // 4-cycle.
                5 => vec![0, 1, 2, 3, 0],
                // Round-trip chain on 4 accounts.
                6 => vec![0, 1, 2, 3, 2, 1, 0],
                // Round-trip star with hub 0 and spokes 1..3.
                7 => vec![0, 1, 0, 2, 0, 3, 0],
                // Bidirectional 4-cycle: forward then backward.
                8 => vec![0, 1, 2, 3, 0, 3, 2, 1, 0],
                // 4-cycle with the extra chord 2→0.
                9 => vec![0, 1, 2, 0, 1, 2, 3, 0],
                // 5-cycle.
                10 => vec![0, 1, 2, 3, 4, 0],
                // Round-trip star with hub 0 and spokes 1..4.
                11 => vec![0, 1, 0, 2, 0, 3, 0, 4, 0],
                _ => vec![0, 1, 0],
            },
            ScenarioPattern::LargeCycle(n) => {
                let mut walk: Vec<usize> = (0..*n).collect();
                walk.push(0);
                walk
            }
        }
    }

    /// The distinct directed edges of the pattern (derived from the walk).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let walk = self.walk();
        let mut edges: Vec<(usize, usize)> =
            walk.windows(2).map(|pair| (pair[0], pair[1])).collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// A fully specified wash-trading activity, ready to be executed by the
/// world builder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WashScenarioSpec {
    /// Stable identifier within the generated world.
    pub id: usize,
    /// Where the trades happen.
    pub venue: Venue,
    /// Which collection (index into the world's compliant collections) the
    /// target NFT belongs to.
    pub collection_index: usize,
    /// The component shape.
    pub pattern: ScenarioPattern,
    /// Seeds of the colluding accounts (stable names enable serial traders).
    pub account_seeds: Vec<String>,
    /// Funding evidence to plant.
    pub funder: FundingEvidence,
    /// Exit evidence to plant.
    pub exit: ExitEvidence,
    /// Whether the NFT is bought from an external holder right before the
    /// activity (true for most activities per §V-B; breaks the zero-risk
    /// evidence) rather than minted straight to a colluder.
    pub acquire_externally: bool,
    /// Day offset (from chain genesis) of the first wash trade.
    pub start_day: u64,
    /// Days between the first and last wash trade.
    pub lifetime_days: u64,
    /// Number of wash trades; at least the length of the pattern walk.
    pub trades: usize,
    /// Price of the first wash trade, in ETH.
    pub base_price_eth: f64,
    /// Whether successive trades escalate the price (typical for resale
    /// manipulation) or keep it flat (typical for reward farming).
    pub escalate_prices: bool,
    /// What the operators are after.
    pub goal: WashGoal,
}

impl WashScenarioSpec {
    /// Number of colluding accounts.
    pub fn participants(&self) -> usize {
        self.pattern.participants()
    }

    /// Whether this activity should carry zero-risk evidence: the component's
    /// ETH position nets to zero because the NFT was never bought from or
    /// sold to an outsider for value.
    pub fn is_zero_risk(&self) -> bool {
        !self.acquire_externally
            && !matches!(self.goal, WashGoal::Resale { resale_price_eth: Some(_) })
    }
}

/// Calibration constants lifted from the paper.
pub mod calibration {
    /// Venue mix of wash-trading activities, by number of affected NFTs
    /// (Table II, with the remainder attributed to off-market transfers).
    pub const VENUE_MIX: [(super::Venue, f64); 7] = [
        (super::Venue::OpenSea, 0.7578),
        (super::Venue::LooksRare, 0.0430),
        (super::Venue::Rarible, 0.0152),
        (super::Venue::SuperRare, 0.0024),
        (super::Venue::Decentraland, 0.0016),
        (super::Venue::Foundation, 0.0),
        (super::Venue::OffMarket, 0.18),
    ];

    /// Pattern occurrence mix (Fig. 7) plus the uncatalogued tail.
    pub const PATTERN_MIX: [(usize, f64); 13] = [
        (0, 0.0759), // self-trade
        (1, 0.5986), // round trip
        (2, 0.1283), // 3-cycle
        (3, 0.0633),
        (4, 0.0014),
        (5, 0.0363),
        (6, 0.0118),
        (7, 0.0108),
        (8, 0.0007),
        (9, 0.0003),
        (10, 0.0093),
        (11, 0.0018),
        (usize::MAX, 0.0615), // larger, uncatalogued components
    ];

    /// Evidence-combination mix over non-self-trade activities (Fig. 2 Venn).
    /// Order: (zero-risk, funder, exit) → weight.
    pub const EVIDENCE_MIX: [((bool, bool, bool), f64); 7] = [
        ((true, false, false), 0.02235), // 256 / 11,454
        ((false, true, false), 0.04680), // 536
        ((false, false, true), 0.24245), // 2,777
        ((true, true, false), 0.02209),  // 253
        ((true, false, true), 0.05081),  // 582
        ((false, true, true), 0.43827),  // 5,020
        ((true, true, true), 0.17723),   // 2,030
    ];

    /// Fraction of common funders that are external (1,579 / 7,839).
    pub const EXTERNAL_FUNDER_FRACTION: f64 = 0.2014;
    /// Fraction of common exits that are external (3,025 / 10,409).
    pub const EXTERNAL_EXIT_FRACTION: f64 = 0.2906;
    /// Fraction of exit-only activities funded through an exchange (737 / 2,777).
    pub const EXCHANGE_FUNDED_FRACTION: f64 = 0.2654;
    /// Lifetime distribution (Fig. 4): (max extra days, cumulative fraction).
    pub const LIFETIME_BUCKETS: [(u64, f64); 4] = [
        (0, 0.3349), // same day
        (9, 0.5917), // < 10 days
        (60, 0.85),
        (300, 1.0),
    ];
    /// Fraction of reward-venue activities whose operators claim the tokens
    /// (457/534 on LooksRare, 113/189 on Rarible ⇒ pooled ≈ 0.79).
    pub const REWARD_CLAIM_FRACTION: f64 = 0.79;
    /// Fraction of resale-venue activities followed by an external sale
    /// (4,126 / 11,690).
    pub const RESALE_FRACTION: f64 = 0.353;
    /// Fraction of resold NFTs sold above the total cost basis (≈ 50.4%).
    pub const RESALE_PROFIT_FRACTION: f64 = 0.504;
}

/// Draws paper-calibrated scenario specs.
#[derive(Debug)]
pub struct ScenarioSampler {
    /// Number of compliant collections available.
    pub collections: usize,
    /// Total number of wash-trader account seeds to draw from; a fraction of
    /// them is reused across activities (serial traders).
    pub trader_pool: usize,
    /// Fraction of the pool designated as serial traders.
    pub serial_fraction: f64,
    /// Simulation length in days.
    pub duration_days: u64,
}

fn weighted_choice<'a, T, R: Rng>(rng: &mut R, items: &'a [(T, f64)]) -> &'a T {
    let total: f64 = items.iter().map(|(_, w)| *w).sum();
    let mut draw = rng.gen_range(0.0..total);
    for (item, weight) in items {
        if draw < *weight {
            return item;
        }
        draw -= weight;
    }
    &items[items.len() - 1].0
}

impl ScenarioSampler {
    /// Sample one scenario spec.
    pub fn sample<R: Rng>(&self, rng: &mut R, id: usize) -> WashScenarioSpec {
        let venue = *weighted_choice(rng, &calibration::VENUE_MIX);
        let pattern_key = *weighted_choice(rng, &calibration::PATTERN_MIX);
        let pattern = if pattern_key == usize::MAX {
            ScenarioPattern::LargeCycle(rng.gen_range(6..=9))
        } else {
            ScenarioPattern::Catalogued(PatternId(pattern_key))
        };

        // Evidence channels. Self-trades are verified de facto and do not need
        // planted evidence; everything else follows the Venn mix.
        let (zero_risk, wants_funder, wants_exit) =
            if matches!(pattern, ScenarioPattern::Catalogued(PatternId(0))) {
                (rng.gen_bool(0.5), false, false)
            } else {
                *weighted_choice(rng, &calibration::EVIDENCE_MIX)
            };
        let funder = if wants_funder {
            if rng.gen_bool(calibration::EXTERNAL_FUNDER_FRACTION) {
                FundingEvidence::External
            } else {
                FundingEvidence::Internal
            }
        } else if wants_exit && !zero_risk && rng.gen_bool(calibration::EXCHANGE_FUNDED_FRACTION) {
            FundingEvidence::Exchange
        } else {
            FundingEvidence::None
        };
        let exit = if wants_exit {
            if rng.gen_bool(calibration::EXTERNAL_EXIT_FRACTION) {
                ExitEvidence::External
            } else {
                ExitEvidence::Internal
            }
        } else {
            ExitEvidence::None
        };

        // Goal and volume.
        let goal = if venue.has_reward_system() {
            WashGoal::RewardExploit { claims: rng.gen_bool(calibration::REWARD_CLAIM_FRACTION) }
        } else if matches!(venue, Venue::OffMarket) {
            WashGoal::VolumeOnly
        } else if rng.gen_bool(calibration::RESALE_FRACTION) {
            WashGoal::Resale {
                resale_price_eth: Some(0.0), // placeholder, fixed below
            }
        } else {
            WashGoal::Resale { resale_price_eth: None }
        };

        let base_price_eth = match venue {
            Venue::LooksRare => {
                // Log-spread around the paper's mean per-activity volume.
                let magnitude = rng.gen_range(1.0f64..3.6);
                10f64.powf(magnitude) / 4.0
            }
            Venue::Rarible => rng.gen_range(0.2..4.0),
            Venue::OffMarket => rng.gen_range(0.05..1.0),
            _ => rng.gen_range(0.2..3.0),
        };

        // Resale outcome: pick the external sale price so that roughly half of
        // resold activities end above the cost basis once fees are counted.
        // The wash traders acquire the NFT at about 30% of the wash-trade
        // price (see the world builder), so profitable resales land well above
        // that and unprofitable ones below it.
        let goal = match goal {
            WashGoal::Resale { resale_price_eth: Some(_) } => {
                let profitable = rng.gen_bool(calibration::RESALE_PROFIT_FRACTION);
                let multiplier =
                    if profitable { rng.gen_range(1.6..6.0) } else { rng.gen_range(0.10..0.28) };
                WashGoal::Resale { resale_price_eth: Some(base_price_eth * multiplier) }
            }
            other => other,
        };

        // Zero-risk requires the NFT to enter the colluding set for free.
        let acquire_externally = if zero_risk {
            false
        } else {
            // §V-B: most wash traders buy the NFT shortly before the activity.
            rng.gen_bool(0.75)
        };

        // Lifetime.
        let lifetime_days = {
            let draw: f64 = rng.gen_range(0.0..1.0);
            let mut previous_cap = 0u64;
            let mut chosen = 0u64;
            for (cap, cumulative) in calibration::LIFETIME_BUCKETS {
                if draw <= cumulative {
                    chosen = if cap == 0 { 0 } else { rng.gen_range(previous_cap + 1..=cap) };
                    break;
                }
                previous_cap = cap;
            }
            chosen
        };
        let latest_start = self.duration_days.saturating_sub(lifetime_days + 30).max(10);
        let start_day = rng.gen_range(5..=latest_start.max(6));

        // Colluding accounts: draw from the trader pool, with serial traders
        // concentrated in a small prefix of the pool.
        let participants = pattern.participants();
        let serial_pool = ((self.trader_pool as f64) * self.serial_fraction).max(2.0) as usize;
        let account_seeds: Vec<String> = (0..participants)
            .map(|position| {
                let serial = rng.gen_bool(0.6);
                let index = if serial {
                    rng.gen_range(0..serial_pool)
                } else {
                    rng.gen_range(serial_pool..self.trader_pool.max(serial_pool + 1))
                };
                // The position suffix keeps the accounts of one activity
                // distinct even when indices collide.
                format!("wash-trader-{index}-{position}")
            })
            .collect();

        let walk_len = pattern.walk().len() - 1;
        let trades = walk_len + if rng.gen_bool(0.4) { walk_len } else { 0 };

        WashScenarioSpec {
            id,
            venue,
            collection_index: rng.gen_range(0..self.collections.max(1)),
            pattern,
            account_seeds,
            funder,
            exit,
            acquire_externally,
            start_day,
            lifetime_days,
            trades,
            base_price_eth,
            escalate_prices: matches!(goal, WashGoal::Resale { resale_price_eth: Some(_) }),
            goal,
        }
    }

    /// Sample `count` scenario specs.
    pub fn sample_many<R: Rng>(&self, rng: &mut R, count: usize) -> Vec<WashScenarioSpec> {
        (0..count).map(|id| self.sample(rng, id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::PatternCatalogue;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn walks_cover_their_pattern_edges_and_are_connected() {
        let catalogue = PatternCatalogue::paper();
        for spec in catalogue.specs() {
            let pattern = ScenarioPattern::Catalogued(spec.id);
            let walk = pattern.walk();
            assert!(walk.len() >= 2, "pattern {} walk too short", spec.id);
            // Every consecutive pair is an edge of the catalogued shape.
            let mut catalogue_edges = spec.edges.clone();
            catalogue_edges.sort_unstable();
            for pair in walk.windows(2) {
                assert!(
                    catalogue_edges.binary_search(&(pair[0], pair[1])).is_ok(),
                    "pattern {}: walk step {:?} is not a catalogued edge",
                    spec.id,
                    pair
                );
            }
            // Every catalogued edge is walked at least once, so the traded
            // shape classifies back to the same pattern id.
            assert_eq!(pattern.edges(), catalogue_edges, "pattern {}", spec.id);
            assert_eq!(
                catalogue.classify(spec.participants, &pattern.edges()),
                Some(spec.id),
                "walk of pattern {} must classify back to it",
                spec.id
            );
            assert_eq!(pattern.participants(), spec.participants);
        }
    }

    #[test]
    fn large_cycle_walk_is_a_cycle() {
        let pattern = ScenarioPattern::LargeCycle(7);
        assert_eq!(pattern.participants(), 7);
        let walk = pattern.walk();
        assert_eq!(walk.len(), 8);
        assert_eq!(walk[0], *walk.last().unwrap());
    }

    #[test]
    fn sampler_respects_broad_calibration() {
        let sampler = ScenarioSampler {
            collections: 10,
            trader_pool: 200,
            serial_fraction: 0.27,
            duration_days: 365,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let specs = sampler.sample_many(&mut rng, 2_000);

        let round_trips =
            specs.iter().filter(|s| s.pattern == ScenarioPattern::Catalogued(PatternId(1))).count()
                as f64
                / specs.len() as f64;
        assert!((round_trips - 0.5986).abs() < 0.05, "round-trip share {round_trips}");

        let opensea =
            specs.iter().filter(|s| s.venue == Venue::OpenSea).count() as f64 / specs.len() as f64;
        assert!((opensea - 0.7578).abs() < 0.05, "OpenSea share {opensea}");

        let same_day =
            specs.iter().filter(|s| s.lifetime_days == 0).count() as f64 / specs.len() as f64;
        assert!((same_day - 0.3349).abs() < 0.06, "same-day share {same_day}");

        let foundation = specs.iter().filter(|s| s.venue == Venue::Foundation).count();
        assert_eq!(foundation, 0, "the paper finds no wash trading on Foundation");

        // Reward venues always get reward goals; others never do.
        for spec in &specs {
            match spec.goal {
                WashGoal::RewardExploit { .. } => assert!(spec.venue.has_reward_system()),
                WashGoal::Resale { .. } => {
                    assert!(!spec.venue.has_reward_system() && spec.venue != Venue::OffMarket)
                }
                WashGoal::VolumeOnly => {}
            }
            assert!(spec.trades + 1 >= spec.pattern.walk().len());
            assert_eq!(spec.account_seeds.len(), spec.participants());
            assert!(spec.base_price_eth > 0.0);
        }

        // Zero-risk flag is consistent with its definition.
        for spec in &specs {
            if spec.is_zero_risk() {
                assert!(!spec.acquire_externally);
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let sampler = ScenarioSampler {
            collections: 5,
            trader_pool: 50,
            serial_fraction: 0.27,
            duration_days: 200,
        };
        let a = sampler.sample_many(&mut ChaCha8Rng::seed_from_u64(3), 50);
        let b = sampler.sample_many(&mut ChaCha8Rng::seed_from_u64(3), 50);
        let c = sampler.sample_many(&mut ChaCha8Rng::seed_from_u64(4), 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
