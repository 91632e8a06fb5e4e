//! Provisioning-delay distributions.
//!
//! Real fleets do not grow instantly: a scale-up order goes through
//! image pull, boot and registration before the machine can take work.
//! The autoscaler samples that delay from one of the deterministic
//! seeded distributions here (the same sampler family `ctlm-trace` uses
//! for request sizes), so elastic runs stay bit-reproducible.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use ctlm_sim::SimDuration;
use ctlm_trace::pareto::Exponential;

/// How long a freshly ordered machine takes to come online.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ProvisionDelay {
    /// Every machine takes exactly this long (µs).
    Fixed(u64),
    /// Exponentially distributed boot times with the given mean (µs).
    Exponential {
        /// Mean delay (µs).
        mean: u64,
    },
}

impl Default for ProvisionDelay {
    /// 30 simulated seconds — a cloud-VM-ish boot time.
    fn default() -> Self {
        ProvisionDelay::Fixed(30_000_000)
    }
}

impl ProvisionDelay {
    /// Draws one delay (always at least 1 µs).
    pub fn sample(&self, rng: &mut StdRng) -> SimDuration {
        let us = match *self {
            ProvisionDelay::Fixed(d) => SimDuration::from_micros(d),
            // A zero-mean spec degenerates to the fastest possible boot
            // rather than panicking the sampler.
            ProvisionDelay::Exponential { mean: 0 } => SimDuration::MICRO,
            ProvisionDelay::Exponential { mean } => {
                SimDuration::from_micros_f64(Exponential::new(mean as f64).sample(rng))
            }
        };
        us.max(SimDuration::MICRO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_are_positive_and_deterministic() {
        for delay in [
            ProvisionDelay::Fixed(0),
            ProvisionDelay::Fixed(5_000_000),
            ProvisionDelay::Exponential { mean: 2_000_000 },
            ProvisionDelay::Exponential { mean: 0 },
        ] {
            let mut a = StdRng::seed_from_u64(7);
            let mut b = StdRng::seed_from_u64(7);
            for _ in 0..64 {
                let x = delay.sample(&mut a);
                assert!(x >= SimDuration::MICRO);
                assert_eq!(x, delay.sample(&mut b), "same seed, same delays");
            }
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let d = ProvisionDelay::Exponential { mean: 9_000_000 };
        let json = serde_json::to_string(&d).unwrap();
        let back: ProvisionDelay = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
