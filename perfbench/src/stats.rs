//! Order statistics over measured samples.

use std::time::Duration;

/// Nanoseconds in a [`Duration`], saturating.
pub fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Milliseconds in a [`Duration`].
pub fn millis(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Exact latency quantiles for millions of samples without storing them:
/// one counter per nanosecond up to [`LatencyHistogram::EXACT_NS`], and the
/// rare slower samples kept verbatim.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u32>,
    slow: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { counts: vec![0; Self::EXACT_NS as usize], slow: Vec::new(), total: 0 }
    }
}

impl LatencyHistogram {
    /// Latencies below this many nanoseconds are counted per nanosecond.
    pub const EXACT_NS: u64 = 1 << 16;

    /// Record one latency.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => self.slow.push(ns),
        }
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.slow.extend_from_slice(&other.slow);
        self.total += other.total;
    }

    /// Nearest-rank quantile of the recorded whole numbers; 0 when empty.
    pub fn rank_quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (value, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return value as f64;
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[(rank - seen - 1) as usize] as f64
    }

    /// Quantile in nanoseconds; 0 when empty. Clock readings are whole
    /// nanoseconds, so the samples in one nanosecond bucket are taken as
    /// spread evenly across it: the quantile interpolates by rank within its
    /// bucket instead of snapping to the integer every run would share.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(1.0, self.total as f64);
        let mut seen = 0u64;
        for (ns, &count) in self.counts.iter().enumerate() {
            let next = seen + u64::from(count);
            if next as f64 >= rank {
                let within = (rank - seen as f64) / f64::from(count);
                return ns as f64 - 0.5 + within;
            }
            seen = next;
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[(rank.ceil() as u64 - seen - 1) as usize] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.9), 5.0);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_matches_sorting_within_a_nanosecond() {
        let mut histogram = LatencyHistogram::default();
        let samples: Vec<u64> = (0..1000).map(|i| (i * 7919) % 100_000).collect();
        for &ns in &samples {
            histogram.record(ns);
        }
        let as_f64: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let exact = quantile(&as_f64, q);
            assert!((histogram.quantile(q) - exact).abs() <= 0.5, "q = {q}");
        }
        let mut ties = LatencyHistogram::default();
        for _ in 0..4 {
            ties.record(100);
        }
        assert_eq!(ties.quantile(0.5), 100.0);
        let mut merged = LatencyHistogram::default();
        merged.merge(&histogram);
        assert_eq!(merged.len(), 1000);
        assert_eq!(merged.quantile(0.5), histogram.quantile(0.5));
    }
}
