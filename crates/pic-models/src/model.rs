//! [`FittedModel`]: every model family a fit produces, and the one
//! dispatch over them.

use crate::dataset::Dataset;
use pic_types::stats;
use serde::{Deserialize, Serialize};

/// A serializable fitted model of any supported family: predicts
/// execution seconds from a workload feature vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "family")]
pub enum FittedModel {
    /// Multi-variate linear model.
    Linear(crate::linear::LinearModel),
    /// GP-discovered symbolic expression.
    Symbolic(crate::gp::SymbolicModel),
}

impl FittedModel {
    /// Predict the target for one feature row.
    pub fn predict(&self, features: &[f64]) -> f64 {
        match self {
            FittedModel::Linear(m) => m.predict(features),
            FittedModel::Symbolic(m) => m.predict(features),
        }
    }

    /// Predict `out.len()` rows given column-wise (`cols[c][r]` is feature
    /// `c` of row `r`), each result bit-identical to
    /// [`predict`](FittedModel::predict) on that row. A linear model
    /// streams over the columns; a symbolic one gathers rows.
    pub fn predict_batch(&self, cols: &[&[f64]], out: &mut [f64]) {
        match self {
            FittedModel::Linear(m) => m.predict_batch(cols, out),
            FittedModel::Symbolic(m) => {
                let mut row = vec![0.0; cols.len()];
                for (r, o) in out.iter_mut().enumerate() {
                    for (x, col) in row.iter_mut().zip(cols) {
                        *x = col[r];
                    }
                    *o = m.predict(&row);
                }
            }
        }
    }

    /// Human-readable formula.
    pub fn describe(&self) -> String {
        match self {
            FittedModel::Linear(m) => m.describe(),
            FittedModel::Symbolic(m) => m.describe(),
        }
    }

    /// Mean Absolute Percentage Error on a dataset (the paper's metric).
    pub fn mape(&self, data: &Dataset) -> f64 {
        let predicted: Vec<f64> = data.rows.iter().map(|r| self.predict(r)).collect();
        stats::mape(&predicted, &data.targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearModel;

    #[test]
    fn default_metrics_flow_through_predict() {
        // model: y = 2*x + 1
        let m = FittedModel::Linear(LinearModel {
            feature_names: vec!["x".into()],
            intercept: 1.0,
            coefficients: vec![2.0],
        });
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![1.0], 3.0);
        d.push(vec![2.0], 5.0);
        assert_eq!(m.mape(&d), 0.0);
        let mut out = [0.0; 2];
        m.predict_batch(&[&[1.0, 2.0]], &mut out);
        assert_eq!(out, [3.0, 5.0]);
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
