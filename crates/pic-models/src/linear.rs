//! Linear and polynomial regression (the paper's single-parameter models).

use crate::dataset::Dataset;
use crate::linalg::least_squares;
use crate::model::PerfModel;
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
}

impl PerfModel for LinearModel {
    fn predict(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.coefficients.len());
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(features)
                .map(|(c, x)| c * x)
                .sum::<f64>()
    }

    fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
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

    fn describe(&self) -> String {
        let mut s = format!("{:.4e}", self.intercept);
        for (c, name) in self.coefficients.iter().zip(&self.feature_names) {
            s.push_str(&format!(" + {c:.4e}*{name}"));
        }
        s
    }
}

/// A single-variable polynomial model `y = Σ_k c_k · x^k`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolynomialModel {
    /// The feature name.
    pub feature_name: String,
    /// Which column of the feature vector the variable lives in.
    pub feature_index: usize,
    /// Coefficients `c_0 .. c_d`, lowest degree first.
    pub coefficients: Vec<f64>,
}

impl PolynomialModel {
    /// Fit a degree-`degree` polynomial in feature column `feature_index`.
    pub fn fit(data: &Dataset, feature_index: usize, degree: usize) -> Result<PolynomialModel> {
        if data.is_empty() {
            return Err(PicError::model("cannot fit a polynomial to no data"));
        }
        if feature_index >= data.arity() {
            return Err(PicError::model("feature index out of range"));
        }
        let rows = data.len();
        let cols = degree + 1;
        let mut x = Vec::with_capacity(rows * cols);
        for row in &data.rows {
            let v = row[feature_index];
            let mut p = 1.0;
            for _ in 0..cols {
                x.push(p);
                p *= v;
            }
        }
        let beta = least_squares(&x, &data.targets, rows, cols)?;
        Ok(PolynomialModel {
            feature_name: data.feature_names[feature_index].clone(),
            feature_index,
            coefficients: beta,
        })
    }
}

impl PerfModel for PolynomialModel {
    fn predict(&self, features: &[f64]) -> f64 {
        let v = features[self.feature_index];
        // Horner evaluation.
        self.coefficients
            .iter()
            .rev()
            .fold(0.0, |acc, &c| acc * v + c)
    }

    fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        // Horner evaluation, one coefficient across the block at a time.
        out.fill(0.0);
        for &c in self.coefficients.iter().rev() {
            for (o, &v) in out.iter_mut().zip(cols[self.feature_index]) {
                *o = *o * v + c;
            }
        }
    }

    fn describe(&self) -> String {
        let terms: Vec<String> = self
            .coefficients
            .iter()
            .enumerate()
            .map(|(k, c)| match k {
                0 => format!("{c:.4e}"),
                1 => format!("{c:.4e}*{}", self.feature_name),
                _ => format!("{c:.4e}*{}^{k}", self.feature_name),
            })
            .collect();
        terms.join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(m.mape(&d) < 1e-6);
    }

    #[test]
    fn linear_fit_tolerates_noise() {
        let d = linear_data(0.3, 2);
        let m = LinearModel::fit(&d).unwrap();
        assert!((m.coefficients[0] - 3.0).abs() < 0.1);
        assert!(m.r_squared(&d) > 0.95);
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
    fn polynomial_fit_recovers_quadratic() {
        // y = 1 + 2x + 0.5x² with a second (ignored) feature column.
        let mut d = Dataset::new(vec!["x".into(), "junk".into()]);
        for i in 0..50 {
            let x = i as f64 * 0.2;
            d.push(vec![x, 7.0], 1.0 + 2.0 * x + 0.5 * x * x);
        }
        let m = PolynomialModel::fit(&d, 0, 2).unwrap();
        assert!((m.coefficients[0] - 1.0).abs() < 1e-5);
        assert!((m.coefficients[1] - 2.0).abs() < 1e-5);
        assert!((m.coefficients[2] - 0.5).abs() < 1e-5);
        // MAPE is in percent; the tiny ridge term leaves ~1e-5 % bias.
        assert!(m.mape(&d) < 1e-3);
        assert!(m.describe().contains("x^2"));
    }

    #[test]
    fn polynomial_horner_matches_direct() {
        let m = PolynomialModel {
            feature_name: "x".into(),
            feature_index: 1,
            coefficients: vec![1.0, -2.0, 3.0],
        };
        // uses column 1
        let y = m.predict(&[99.0, 2.0]);
        assert_eq!(y, 1.0 - 4.0 + 12.0);
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
        let models: Vec<Box<dyn PerfModel>> = vec![
            Box::new(LinearModel {
                feature_names: vec!["a".into(), "b".into()],
                intercept: -0.0,
                coefficients: vec![0.3, 0.3],
            }),
            Box::new(LinearModel {
                feature_names: vec!["a".into(), "b".into()],
                intercept: 1e-3,
                coefficients: vec![-1.1, 2.7e-9],
            }),
            Box::new(PolynomialModel {
                feature_name: "b".into(),
                feature_index: 1,
                coefficients: vec![-0.0, 1.5, -0.25, 1e-3],
            }),
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

    #[test]
    fn polynomial_bad_index_is_error() {
        let d = linear_data(0.0, 4);
        assert!(PolynomialModel::fit(&d, 5, 2).is_err());
    }

    #[test]
    fn cubic_shape_like_interpolation_kernel() {
        // The interpolation kernel is ∝ N³ at fixed particles; a cubic fit
        // must capture it.
        let mut d = Dataset::new(vec!["n".into()]);
        for n in 2..12 {
            let nf = n as f64;
            d.push(vec![nf], 25e-9 * 1000.0 * nf * nf * nf);
        }
        let m = PolynomialModel::fit(&d, 0, 3).unwrap();
        assert!(m.mape(&d) < 1e-3, "mape {}", m.mape(&d));
    }
}
