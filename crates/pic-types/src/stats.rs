//! Small statistics utilities used by model validation and workload metrics.
//!
//! The paper's headline accuracy metric is the **Mean Absolute Percentage
//! Error (MAPE)**; load-balance analysis additionally uses means, maxima,
//! percentiles, and an imbalance factor (max / mean).

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum of a slice; `NEG_INFINITY` for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum of a slice; `INFINITY` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Mean Absolute Percentage Error (in percent) between predictions and
/// ground-truth values.
///
/// Pairs whose actual value is zero are skipped (percentage error is
/// undefined there), mirroring standard practice. Returns `0.0` when no
/// valid pairs remain.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mape(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "mape: length mismatch");
    let mut total = 0.0;
    let mut n = 0usize;
    for (&p, &a) in predicted.iter().zip(actual) {
        if a != 0.0 {
            total += ((p - a) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        100.0 * total / n as f64
    }
}

/// Linear-interpolated percentile (`q` in `[0, 100]`) of a slice.
///
/// Returns `0.0` for an empty slice. The input need not be sorted.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 100.0) / 100.0;
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Load-imbalance factor `max / mean` of a per-rank workload snapshot.
///
/// `1.0` means perfectly balanced; returns `0.0` when the mean is zero
/// (no workload anywhere).
pub fn imbalance_factor(per_rank: &[f64]) -> f64 {
    let m = mean(per_rank);
    if m == 0.0 {
        0.0
    } else {
        max(per_rank) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn mape_exact_and_skip_zero() {
        assert_eq!(mape(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        // 10% error on each of two points
        let m = mape(&[1.1, 2.2], &[1.0, 2.0]);
        assert!((m - 10.0).abs() < 1e-9);
        // zero actuals are skipped, not divided by
        let m = mape(&[5.0, 1.1], &[0.0, 1.0]);
        assert!((m - 10.0).abs() < 1e-9);
        assert_eq!(mape(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    #[should_panic]
    fn mape_length_mismatch_panics() {
        mape(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 30.0), 7.0);
    }

    #[test]
    fn imbalance_factor_cases() {
        assert_eq!(imbalance_factor(&[2.0, 2.0, 2.0]), 1.0);
        assert_eq!(imbalance_factor(&[0.0, 0.0]), 0.0);
        assert_eq!(imbalance_factor(&[0.0, 4.0]), 2.0);
    }
}
