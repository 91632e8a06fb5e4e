//! Heavy-tailed samplers.
//!
//! “Task resource consumption exhibited heavy-tailed Pareto distributions,
//! with the top 1 % of tasks consuming over 99 % of total resources” (§V,
//! citing Borg: the Next Generation). We implement a bounded Pareto for
//! resource requests and a Zipf sampler for attribute-value popularity
//! on top of `rand` alone, to keep the dependency set to the approved
//! list.

use rand::Rng;

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
///
/// Inverse-CDF sampling of the truncated Pareto; small `alpha` (≤ 1) gives
/// the extreme heavy tail the Borg paper describes.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        Self::try_new(lo, hi, alpha).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the distribution, or names the rule the parameters break
    /// (where [`BoundedPareto::new`] would panic).
    pub fn try_new(lo: f64, hi: f64, alpha: f64) -> Result<Self, &'static str> {
        if !(lo > 0.0 && hi > lo) {
            Err("require 0 < lo < hi")
        } else if alpha > 0.0 {
            Ok(Self { lo, hi, alpha })
        } else {
            Err("require alpha > 0")
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        // Inverse CDF of the bounded Pareto.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha);
        x.clamp(self.lo, self.hi)
    }
}

/// Exponential distribution with the given mean — the memoryless
/// inter-arrival process (Poisson arrivals). Used by the experiment
/// harness's synthetic workloads alongside [`BoundedPareto`].
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates the distribution.
    ///
    /// # Panics
    /// Panics unless `mean > 0`.
    pub fn new(mean: f64) -> Self {
        Self::try_new(mean).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the distribution, or names the rule `mean` breaks (where
    /// [`Exponential::new`] would panic).
    pub fn try_new(mean: f64) -> Result<Self, &'static str> {
        if mean > 0.0 {
            Ok(Self { mean })
        } else {
            Err("require mean > 0")
        }
    }

    /// Draws one sample via inverse-CDF; always strictly positive.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let u: f64 = rng.gen_range(1e-12..1.0);
        -u.ln() * self.mean
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Used for attribute-value popularity: a few platform/kernel values
/// dominate the cell while a long tail of rare values exists — which is
/// what makes Group 0 (single-suitable-node) tasks possible.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution for `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there are no ranks (never; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pareto_samples_stay_in_bounds() {
        let d = BoundedPareto::new(0.001, 1.0, 0.7);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((0.001..=1.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // With alpha 0.6 the top 1% of samples should hold a large share of
        // the total mass — the Borg-paper property the trace must exhibit.
        let d = BoundedPareto::new(0.0001, 1.0, 0.6);
        let mut rng = StdRng::seed_from_u64(2);
        let mut xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = xs.iter().sum();
        let top1: f64 = xs[..xs.len() / 100].iter().sum();
        assert!(
            top1 / total > 0.5,
            "top 1% held only {:.1}%",
            100.0 * top1 / total
        );
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::new(250.0);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 250.0).abs() < 10.0, "sample mean {mean}");
    }

    #[test]
    #[should_panic(expected = "mean > 0")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[49] * 5);
    }

    #[test]
    fn zipf_covers_all_ranks_eventually() {
        let z = Zipf::new(5, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..10_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_zero_ranks() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "0 < lo < hi")]
    fn pareto_rejects_bad_bounds() {
        let _ = BoundedPareto::new(1.0, 0.5, 1.0);
    }
}
