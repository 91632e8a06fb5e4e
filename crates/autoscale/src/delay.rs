//! Provisioning-delay distributions.
//!
//! Real fleets do not grow instantly: a scale-up order goes through
//! image pull, boot and registration before the machine can take work.
//! The autoscaler samples that delay from one of the deterministic
//! seeded distributions here (the same sampler family `ctlm-trace` uses
//! for request sizes), so elastic runs stay bit-reproducible.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use ctlm_trace::pareto::Exponential;
use ctlm_trace::Micros;

/// How long a freshly ordered machine takes to come online.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ProvisionDelay {
    /// Every machine takes exactly this long (µs).
    Fixed(Micros),
    /// Exponentially distributed boot times with the given mean (µs).
    Exponential {
        /// Mean delay (µs).
        mean: Micros,
    },
}

impl Default for ProvisionDelay {
    /// 30 simulated seconds — a cloud-VM-ish boot time.
    fn default() -> Self {
        ProvisionDelay::Fixed(30_000_000)
    }
}

impl ProvisionDelay {
    /// Draws one delay (µs, always ≥ 1).
    pub fn sample(&self, rng: &mut StdRng) -> Micros {
        match self {
            ProvisionDelay::Fixed(d) => (*d).max(1),
            ProvisionDelay::Exponential { mean } => {
                // A zero-mean spec degenerates to the fastest possible
                // boot rather than panicking the sampler.
                if *mean == 0 {
                    1
                } else {
                    (Exponential::new(*mean as f64).sample(rng) as Micros).max(1)
                }
            }
        }
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
                assert!(x >= 1);
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
