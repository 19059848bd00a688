//! The [`PerfModel`] abstraction and model evaluation metrics.

use crate::dataset::Dataset;
use pic_types::stats;
use serde::{Deserialize, Serialize};

/// A fitted performance model: predicts execution seconds from a workload
/// feature vector.
pub trait PerfModel {
    /// Predict the target for one feature row.
    fn predict(&self, features: &[f64]) -> f64;

    /// Human-readable formula.
    fn describe(&self) -> String;

    /// Predict `out.len()` rows given column-wise (`cols[c][r]` is feature
    /// `c` of row `r`), each result bit-identical to
    /// [`predict`](PerfModel::predict) on that row. The default gathers
    /// rows; the closed-form families stream over the columns instead.
    fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        let mut row = vec![0.0; cols.len()];
        for (r, o) in out.iter_mut().enumerate() {
            for (x, col) in row.iter_mut().zip(cols) {
                *x = col[r];
            }
            *o = self.predict(&row);
        }
    }

    /// Predictions for every row of a dataset.
    fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        data.rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Mean Absolute Percentage Error on a dataset (the paper's metric).
    fn mape(&self, data: &Dataset) -> f64 {
        stats::mape(&self.predict_all(data), &data.targets)
    }

    /// Root-mean-square error on a dataset.
    fn rmse(&self, data: &Dataset) -> f64 {
        stats::rmse(&self.predict_all(data), &data.targets)
    }

    /// Coefficient of determination on a dataset.
    fn r_squared(&self, data: &Dataset) -> f64 {
        stats::r_squared(&self.predict_all(data), &data.targets)
    }
}

/// A serializable fitted model of any supported family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "family")]
pub enum FittedModel {
    /// Multi-variate linear model.
    Linear(crate::linear::LinearModel),
    /// Single-variable polynomial model.
    Polynomial(crate::linear::PolynomialModel),
    /// GP-discovered symbolic expression.
    Symbolic(crate::gp::SymbolicModel),
}

impl PerfModel for FittedModel {
    fn predict(&self, features: &[f64]) -> f64 {
        match self {
            FittedModel::Linear(m) => m.predict(features),
            FittedModel::Polynomial(m) => m.predict(features),
            FittedModel::Symbolic(m) => m.predict(features),
        }
    }

    fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        match self {
            FittedModel::Linear(m) => m.predict_batch(cols, out),
            FittedModel::Polynomial(m) => m.predict_batch(cols, out),
            FittedModel::Symbolic(m) => m.predict_batch(cols, out),
        }
    }

    fn describe(&self) -> String {
        match self {
            FittedModel::Linear(m) => m.describe(),
            FittedModel::Polynomial(m) => m.describe(),
            FittedModel::Symbolic(m) => m.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearModel;

    #[test]
    fn default_metrics_flow_through_predict() {
        // model: y = 2*x + 1
        let m = LinearModel {
            feature_names: vec!["x".into()],
            intercept: 1.0,
            coefficients: vec![2.0],
        };
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![1.0], 3.0);
        d.push(vec![2.0], 5.0);
        assert_eq!(m.mape(&d), 0.0);
        assert_eq!(m.rmse(&d), 0.0);
        assert!((m.r_squared(&d) - 1.0).abs() < 1e-12);
        assert_eq!(m.predict_all(&d), vec![3.0, 5.0]);
    }

    #[test]
    fn fitted_model_dispatch_and_serde() {
        let m = FittedModel::Linear(LinearModel {
            feature_names: vec!["np".into()],
            intercept: 0.0,
            coefficients: vec![4.0],
        });
        assert_eq!(m.predict(&[2.0]), 8.0);
        assert!(m.describe().contains("np"));
        let json = serde_json::to_string(&m).unwrap();
        let back: FittedModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
