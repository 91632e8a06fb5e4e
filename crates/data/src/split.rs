//! Stratified train/test splitting.
//!
//! The paper: “Stratified training and testing datasets were created where
//! possible (at least two samples per class were required) … Stratified
//! randomized folds were used to preserve class proportions, ensuring
//! balanced representation despite the computational cost.”
//!
//! This module reproduces scikit-learn's `train_test_split(stratify=y)`
//! behaviour: per-class proportional allocation with at least one sample
//! on each side for every class that has ≥ 2 samples; classes with a
//! single sample fall back to the training side (and the split degrades
//! to unstratified only when *no* class is splittable).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Split parameters.
#[derive(Clone, Copy, Debug)]
pub struct SplitConfig {
    /// Fraction of samples assigned to the test side (0, 1).
    pub test_fraction: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SplitConfig {
    fn default() -> Self {
        Self {
            test_fraction: 0.25,
            seed: 0,
        }
    }
}

/// Returns `(train_indices, test_indices)` for labels `y`, stratified by
/// class where possible.
///
/// # Panics
/// Panics if `test_fraction` is outside (0, 1) or `y` is empty.
pub fn stratified_split(y: &[u8], config: SplitConfig) -> (Vec<usize>, Vec<usize>) {
    assert!(!y.is_empty(), "cannot split an empty dataset");
    assert!(
        config.test_fraction > 0.0 && config.test_fraction < 1.0,
        "test_fraction must be in (0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5711_F01D);

    // Bucket indices per class.
    let n_classes = y.iter().copied().max().unwrap() as usize + 1;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &label) in y.iter().enumerate() {
        buckets[label as usize].push(i);
    }

    let mut train = Vec::new();
    let mut test = Vec::new();
    for bucket in buckets.iter_mut() {
        if bucket.is_empty() {
            continue;
        }
        bucket.shuffle(&mut rng);
        if bucket.len() < 2 {
            // The paper requires ≥ 2 samples per class to stratify; a
            // singleton class cannot appear on both sides, so it trains.
            train.extend_from_slice(bucket);
            continue;
        }
        // Proportional allocation with both sides non-empty.
        let n_test = ((bucket.len() as f64 * config.test_fraction).round() as usize)
            .clamp(1, bucket.len() - 1);
        test.extend_from_slice(&bucket[..n_test]);
        train.extend_from_slice(&bucket[n_test..]);
    }
    // Shuffle the final order so downstream mini-batches aren't
    // class-sorted.
    train.shuffle(&mut rng);
    test.shuffle(&mut rng);
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(spec: &[(u8, usize)]) -> Vec<u8> {
        let mut y = Vec::new();
        for &(class, count) in spec {
            y.extend(std::iter::repeat_n(class, count));
        }
        y
    }

    #[test]
    fn split_is_a_partition() {
        let y = labels(&[(0, 10), (1, 40), (2, 3)]);
        let (train, test) = stratified_split(
            &y,
            SplitConfig {
                test_fraction: 0.25,
                seed: 1,
            },
        );
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..y.len()).collect::<Vec<_>>());
    }

    #[test]
    fn class_proportions_preserved() {
        let y = labels(&[(0, 100), (1, 400)]);
        let (_, test) = stratified_split(
            &y,
            SplitConfig {
                test_fraction: 0.2,
                seed: 2,
            },
        );
        let test_c0 = test.iter().filter(|&&i| y[i] == 0).count();
        let test_c1 = test.iter().filter(|&&i| y[i] == 1).count();
        assert_eq!(test_c0, 20);
        assert_eq!(test_c1, 80);
    }

    #[test]
    fn every_splittable_class_appears_on_both_sides() {
        let y = labels(&[(0, 2), (1, 2), (5, 30)]);
        let (train, test) = stratified_split(
            &y,
            SplitConfig {
                test_fraction: 0.3,
                seed: 3,
            },
        );
        for class in [0u8, 1, 5] {
            assert!(
                train.iter().any(|&i| y[i] == class),
                "class {class} missing in train"
            );
            assert!(
                test.iter().any(|&i| y[i] == class),
                "class {class} missing in test"
            );
        }
    }

    #[test]
    fn singleton_classes_go_to_train() {
        let y = labels(&[(0, 1), (1, 20)]);
        let (train, test) = stratified_split(
            &y,
            SplitConfig {
                test_fraction: 0.25,
                seed: 4,
            },
        );
        assert!(train.iter().any(|&i| y[i] == 0));
        assert!(!test.iter().any(|&i| y[i] == 0));
    }

    #[test]
    fn deterministic_given_seed() {
        let y = labels(&[(0, 13), (3, 29)]);
        let a = stratified_split(
            &y,
            SplitConfig {
                test_fraction: 0.25,
                seed: 9,
            },
        );
        let b = stratified_split(
            &y,
            SplitConfig {
                test_fraction: 0.25,
                seed: 9,
            },
        );
        assert_eq!(a, b);
        let c = stratified_split(
            &y,
            SplitConfig {
                test_fraction: 0.25,
                seed: 10,
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_labels() {
        let _ = stratified_split(&[], SplitConfig::default());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn partition_property(
                counts in prop::collection::vec(1usize..30, 1..8),
                seed in 0u64..100,
            ) {
                let y: Vec<u8> = counts
                    .iter()
                    .enumerate()
                    .flat_map(|(c, &n)| std::iter::repeat_n(c as u8, n))
                    .collect();
                let (train, test) =
                    stratified_split(&y, SplitConfig { test_fraction: 0.25, seed });
                let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
                all.sort_unstable();
                prop_assert_eq!(all, (0..y.len()).collect::<Vec<_>>());
                // Any class with ≥2 samples must be represented in train.
                for (c, &n) in counts.iter().enumerate() {
                    if n >= 2 {
                        prop_assert!(train.iter().any(|&i| y[i] == c as u8));
                        prop_assert!(test.iter().any(|&i| y[i] == c as u8));
                    }
                }
            }
        }
    }
}
