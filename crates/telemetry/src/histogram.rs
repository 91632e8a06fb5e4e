//! Fixed log₂-bucket histogram: preallocated, allocation-free to record,
//! deterministic to export.

use serde::{Deserialize, Error, Serialize, Value};

/// Number of buckets. Bucket 0 holds the value 0; bucket `i ≥ 1` holds
/// values with exactly `i` significant bits, i.e. `[2^(i-1), 2^i - 1]`.
/// 40 buckets cover values up to `2^39 - 1` (~5.5e11 — beyond any queue
/// depth, event count, or µs latency the simulator produces); larger
/// values clamp into the last bucket.
pub const BUCKETS: usize = 40;

/// A fixed log₂-bucket histogram of `u64` samples.
///
/// Storage is a flat `[u64; BUCKETS]` — recording never allocates, so
/// histograms can sit inside the zero-allocation scheduling pass. Export
/// ([`Serialize`]) lists only non-empty buckets as `{le, count}` pairs
/// (inclusive upper bound), plus total `count` and `sum`, in bucket
/// order — a deterministic function of the recorded samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index a value lands in: 0 for 0, otherwise the value's
    /// significant-bit count, clamped to the last bucket.
    fn bucket_index(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// The inclusive upper bound of a bucket (`u64::MAX` for the last,
    /// clamping bucket).
    ///
    /// # Panics
    /// Panics when `bucket >= BUCKETS`.
    fn bucket_bound(bucket: usize) -> u64 {
        assert!(bucket < BUCKETS, "bucket {bucket} out of range");
        if bucket == BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Records one sample. Never allocates.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw per-bucket counts.
    #[cfg(test)]
    fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another histogram into this one (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Estimated `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the recorded samples.
    ///
    /// Estimator: find the bucket where the cumulative count first
    /// reaches `ceil(q · count)`, then interpolate linearly between the
    /// bucket's inclusive bounds by the target rank's position within
    /// the bucket, taking the floor. The result depends only on the
    /// bucket counts — not on `sum` or the original samples — so a
    /// histogram reconstructed from its JSON export yields identical
    /// quantiles, and the export is byte-deterministic. Error is bounded
    /// by the log₂ bucket width (< 2× the true value).
    ///
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                if i == 0 {
                    return 0;
                }
                let lo = 1u64 << (i - 1);
                // The open-ended last bucket interpolates over its
                // nominal [2^38, 2^39 - 1] width.
                let hi = if i == BUCKETS - 1 {
                    (1u64 << (BUCKETS - 1)) - 1
                } else {
                    Self::bucket_bound(i)
                };
                let within = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * within).floor() as u64;
            }
            seen += c;
        }
        Self::bucket_bound(BUCKETS - 1)
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        let buckets = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                // The open-ended last bucket exports its lower bound as
                // `le` rather than u64::MAX (which f64 JSON cannot carry
                // exactly); it is distinguishable by being bucket 39's
                // bound, and in practice sim values never reach it.
                let le = if i == BUCKETS - 1 {
                    (1u64 << (BUCKETS - 1)) - 1
                } else {
                    Self::bucket_bound(i)
                };
                Value::Object(vec![
                    ("le".to_string(), Value::Num(le as f64)),
                    ("count".to_string(), Value::Num(*c as f64)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::Num(self.count as f64)),
            ("sum".to_string(), Value::Num(self.sum as f64)),
            (
                "quantiles".to_string(),
                Value::Object(
                    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]
                        .iter()
                        .map(|&(name, q)| (name.to_string(), Value::Num(self.quantile(q) as f64)))
                        .collect(),
                ),
            ),
            ("buckets".to_string(), Value::Array(buckets)),
        ])
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut h = Histogram::new();
        h.count =
            u64::from_value(v.get_field("count")).map_err(|e| e.context("Histogram.count"))?;
        h.sum = u64::from_value(v.get_field("sum")).map_err(|e| e.context("Histogram.sum"))?;
        match v.get_field("buckets") {
            Value::Array(items) => {
                for item in items {
                    let le = u64::from_value(item.get_field("le"))
                        .map_err(|e| e.context("Histogram.buckets.le"))?;
                    let count = u64::from_value(item.get_field("count"))
                        .map_err(|e| e.context("Histogram.buckets.count"))?;
                    h.counts[Self::bucket_index(le)] = count;
                }
                Ok(h)
            }
            other => Err(Error::msg(format!(
                "Histogram.buckets: expected array, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0: the value 0 only.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i (i >= 1): [2^(i-1), 2^i - 1].
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        for i in 1..BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "upper edge of bucket {i}");
            assert_eq!(Histogram::bucket_bound(i), hi);
        }
    }

    #[test]
    fn oversized_values_clamp_into_the_last_bucket() {
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1u64 << 39), BUCKETS - 1);
        assert_eq!(Histogram::bucket_index((1u64 << 39) - 1), BUCKETS - 1);
        // The largest value that does NOT clamp.
        assert_eq!(Histogram::bucket_index((1u64 << 38) - 1), BUCKETS - 2);
        assert_eq!(Histogram::bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_accumulates_count_and_sum() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert_eq!(h.bucket_counts()[0], 1); // 0
        assert_eq!(h.bucket_counts()[1], 1); // 1
        assert_eq!(h.bucket_counts()[3], 2); // 5 twice
        assert_eq!(h.bucket_counts()[10], 1); // 1000 ∈ [512, 1023]
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(3);
        b.record(3);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 106);
        assert_eq!(a.bucket_counts()[2], 2);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(100); // bucket 7: [64, 127]
        }
        // All mass in one bucket: p50 lands mid-bucket, p99 near the top.
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((64..=127).contains(&p50), "p50 = {p50}");
        assert!((64..=127).contains(&p99), "p99 = {p99}");
        assert!(p50 < p99);
        // Quantiles are monotone in q and bounded by the bucket.
        assert!(h.quantile(0.0) <= h.quantile(1.0));
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn quantiles_survive_serialization_roundtrip() {
        let mut h = Histogram::new();
        for v in [1u64, 3, 3, 80, 80, 80, 5_000, 1 << 20] {
            h.record(v);
        }
        let back = Histogram::from_value(&h.to_value()).unwrap();
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(h.quantile(q), back.quantile(q));
        }
    }

    #[test]
    fn export_carries_p50_p95_p99() {
        let mut h = Histogram::new();
        h.record(10);
        let v = h.to_value();
        for name in ["p50", "p95", "p99"] {
            assert!(
                u64::from_value(v.get_field("quantiles").get_field(name)).is_ok(),
                "missing quantile {name}"
            );
        }
    }

    #[test]
    fn serialization_roundtrips_nonempty_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(6);
        h.record(6);
        let back = Histogram::from_value(&h.to_value()).unwrap();
        assert_eq!(h, back);
    }
}
