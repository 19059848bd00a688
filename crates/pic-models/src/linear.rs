//! Linear regression (the paper's single-parameter models).

use crate::dataset::Dataset;
use crate::linalg::least_squares;
use pic_types::{PicError, Result};
use serde::{Deserialize, Serialize};

/// A multivariate linear model `y = intercept + Σ coef_i · x_i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Feature names, parallel to `coefficients`.
    pub feature_names: Vec<String>,
    /// Constant term.
    pub intercept: f64,
    /// One coefficient per feature.
    pub coefficients: Vec<f64>,
}

impl LinearModel {
    /// Fit by ordinary least squares with an intercept.
    pub fn fit(data: &Dataset) -> Result<LinearModel> {
        if data.is_empty() {
            return Err(PicError::model("cannot fit a linear model to no data"));
        }
        let rows = data.len();
        let cols = data.arity() + 1; // + intercept
        let mut x = Vec::with_capacity(rows * cols);
        for row in &data.rows {
            x.push(1.0);
            x.extend_from_slice(row);
        }
        let beta = least_squares(&x, &data.targets, rows, cols)?;
        Ok(LinearModel {
            feature_names: data.feature_names.clone(),
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
        })
    }

    /// Fit by *relative* least squares: minimize `Σ ((ŷ − y) / y)²`.
    ///
    /// Kernel timing noise is multiplicative (system jitter scales with the
    /// measured time), so plain OLS over-weights large workloads and leaves
    /// large percentage errors on small ones — exactly what MAPE punishes.
    /// Dividing each observation's row and target by `y` turns the problem
    /// into homoscedastic OLS on relative errors. Rows with `y == 0` carry
    /// no relative information and are skipped.
    pub fn fit_relative(data: &Dataset) -> Result<LinearModel> {
        let kept: Vec<usize> = (0..data.len())
            .filter(|&i| data.targets[i] != 0.0)
            .collect();
        if kept.is_empty() {
            // All-zero targets: the zero model is exact.
            return Ok(LinearModel {
                feature_names: data.feature_names.clone(),
                intercept: 0.0,
                coefficients: vec![0.0; data.arity()],
            });
        }
        let rows = kept.len();
        let cols = data.arity() + 1;
        if rows < cols {
            // Too few informative rows for the weighted problem; fall back
            // to plain OLS over everything.
            return LinearModel::fit(data);
        }
        let mut x = Vec::with_capacity(rows * cols);
        let mut y = Vec::with_capacity(rows);
        for &i in &kept {
            let inv = 1.0 / data.targets[i];
            x.push(inv);
            for &v in &data.rows[i] {
                x.push(v * inv);
            }
            y.push(1.0);
        }
        let beta = least_squares(&x, &y, rows, cols)?;
        Ok(LinearModel {
            feature_names: data.feature_names.clone(),
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
        })
    }

    /// Predict the target for one feature row.
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.coefficients.len());
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(features)
                .map(|(c, x)| c * x)
                .sum::<f64>()
    }

    /// [`FittedModel::predict_batch`](crate::FittedModel::predict_batch)
    /// over the columns.
    pub(crate) fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        // `predict`'s operand order per row: the products accumulate from
        // the identity `sum::<f64>()` starts from (whichever zero that is),
        // and the intercept is added to the finished sum, on the left.
        out.fill(std::iter::empty::<f64>().sum());
        for (c, col) in self.coefficients.iter().zip(cols) {
            for (o, x) in out.iter_mut().zip(*col) {
                *o += c * x;
            }
        }
        for o in out.iter_mut() {
            let products = *o;
            *o = self.intercept + products;
        }
    }

    /// Human-readable formula.
    pub(crate) fn describe(&self) -> String {
        let mut s = format!("{:.4e}", self.intercept);
        for (c, name) in self.coefficients.iter().zip(&self.feature_names) {
            s.push_str(&format!(" + {c:.4e}*{name}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FittedModel;
    use pic_types::rng::SplitMix64;

    fn linear_data(noise: f64, seed: u64) -> Dataset {
        // y = 0.5 + 3a - 2b
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for _ in 0..200 {
            let a = rng.next_range(0.0, 10.0);
            let b = rng.next_range(0.0, 5.0);
            let y = 0.5 + 3.0 * a - 2.0 * b + noise * rng.next_gaussian();
            d.push(vec![a, b], y);
        }
        d
    }

    #[test]
    fn linear_fit_recovers_exact_coefficients() {
        let d = linear_data(0.0, 1);
        let m = LinearModel::fit(&d).unwrap();
        assert!((m.intercept - 0.5).abs() < 1e-6, "{}", m.intercept);
        assert!((m.coefficients[0] - 3.0).abs() < 1e-6);
        assert!((m.coefficients[1] + 2.0).abs() < 1e-6);
        assert!(FittedModel::Linear(m).mape(&d) < 1e-6);
    }

    #[test]
    fn linear_fit_tolerates_noise() {
        let d = linear_data(0.3, 2);
        let m = LinearModel::fit(&d).unwrap();
        assert!((m.coefficients[0] - 3.0).abs() < 0.1);
        assert!((m.coefficients[1] + 2.0).abs() < 0.1);
        assert!((m.intercept - 0.5).abs() < 0.2, "{}", m.intercept);
    }

    #[test]
    fn linear_fit_empty_is_error() {
        assert!(LinearModel::fit(&Dataset::new(vec!["a".into()])).is_err());
    }

    #[test]
    fn linear_describe_mentions_features() {
        let d = linear_data(0.0, 3);
        let m = LinearModel::fit(&d).unwrap();
        let s = m.describe();
        assert!(s.contains("*a") && s.contains("*b"), "{s}");
    }

    #[test]
    fn batch_forms_keep_the_scalar_bits() {
        // signed zeros, cancellation and a row that sums to -0.0: the
        // cases an accumulator started from the wrong zero, or an
        // intercept added on the wrong side, would get wrong
        let cols: [&[f64]; 2] = [
            &[0.0, -0.0, 1.0, 1e-300, 3.5, -2.0, 1e17],
            &[0.0, -0.0, -1.0, 7.0, 0.1, -0.0, -1e17],
        ];
        let rows = cols[0].len();
        let models = [
            LinearModel {
                feature_names: vec!["a".into(), "b".into()],
                intercept: -0.0,
                coefficients: vec![0.3, 0.3],
            },
            LinearModel {
                feature_names: vec!["a".into(), "b".into()],
                intercept: 1e-3,
                coefficients: vec![-1.1, 2.7e-9],
            },
        ];
        for m in &models {
            let mut out = vec![f64::NAN; rows];
            m.predict_batch(&cols, &mut out);
            for (r, got) in out.iter().enumerate() {
                let want = m.predict(&[cols[0][r], cols[1][r]]);
                assert_eq!(got.to_bits(), want.to_bits(), "{} row {r}", m.describe());
            }
        }
        // no rows, and a model with no coefficients at all
        models[0].predict_batch(&cols, &mut []);
        let bare = LinearModel {
            feature_names: vec![],
            intercept: -0.0,
            coefficients: vec![],
        };
        let mut out = [f64::NAN; 2];
        bare.predict_batch(&[], &mut out);
        assert_eq!(out.map(f64::to_bits), [bare.predict(&[]).to_bits(); 2]);
    }
}
