//! Order statistics, computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them (the acceptance
//! rule this benchmark is checked by), so `compare` and the run summary
//! agree with it to the last digit.

/// The three quartiles of a sample of at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let len = data.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Lower decile by nearest rank: the smallest value of fewer than ten,
/// the second smallest of ten to nineteen, and so on.
pub fn p10(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    data[data.len() / 10]
}

/// Median; a single value is its own median.
pub fn median(values: &[f64]) -> f64 {
    match values {
        [one] => *one,
        _ => quartiles(values)[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4)
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            [2.0, 8.0, 32.0]
        );
        // statistics.quantiles([3, 1, 2, 10], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0]), [1.25, 2.5, 8.25]);
        // statistics.quantiles([5, 7], n=4)
        assert_eq!(quartiles(&[5.0, 7.0]), [4.5, 6.0, 7.5]);
    }
}
