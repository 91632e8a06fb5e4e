//! Scheduling-latency statistics.
//!
//! The paper's motivation is “significantly reduces scheduling latency
//! for tasks with restrictive node-affinity constraints”; this module
//! computes the per-group latency distributions the Fig. 3 experiment
//! reports.

use serde::{Deserialize, Serialize};

/// Summary statistics of a latency sample (µs, as reports carry them).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Mean latency (µs).
    pub mean: f64,
    /// Median (µs).
    pub p50: u64,
    /// 95th percentile (µs).
    pub p95: u64,
    /// 99th percentile (µs).
    pub p99: u64,
    /// Maximum (µs).
    pub max: u64,
}

impl LatencyStats {
    /// Computes the summary; returns `None` for an empty sample.
    #[cfg(test)]
    fn from_samples(samples: &[u64]) -> Option<Self> {
        Self::from_vec(samples.to_vec())
    }

    /// Computes the summary from an owned sample, sorting it in place;
    /// returns `None` for an empty sample.
    pub fn from_vec(mut s: Vec<u64>) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        s.sort_unstable();
        let pct = |p: f64| -> u64 {
            let idx = ((s.len() as f64 - 1.0) * p).round() as usize;
            s[idx]
        };
        Some(Self {
            count: s.len(),
            mean: s.iter().map(|&v| v as f64).sum::<f64>() / s.len() as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *s.last().expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_none() {
        assert!(LatencyStats::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = LatencyStats::from_samples(&[42]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.p50, 42);
        assert_eq!(s.p99, 42);
        assert_eq!(s.max, 42);
    }

    #[test]
    fn percentiles_ordered() {
        let samples: Vec<u64> = (1..=1000).collect();
        let s = LatencyStats::from_samples(&samples).unwrap();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        // Nearest-rank on 1000 samples: index round(999 × .5) = 500 → 501.
        assert_eq!(s.p50, 501);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = LatencyStats::from_samples(&[30, 10, 20]).unwrap();
        assert_eq!(s.p50, 20);
        assert_eq!(s.max, 30);
    }
}
