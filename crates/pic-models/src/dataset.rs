//! Training datasets: feature matrix + target vector.

use pic_types::rng::SplitMix64;
use pic_types::{PicError, Result};
use serde::{Deserialize, Serialize};

/// A regression dataset: rows of features with a scalar target (seconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Names of the feature columns.
    pub feature_names: Vec<String>,
    /// Feature rows, each of length `feature_names.len()`.
    pub rows: Vec<Vec<f64>>,
    /// Target value per row.
    pub targets: Vec<f64>,
}

impl Dataset {
    /// An empty dataset with the given feature names.
    pub fn new(feature_names: Vec<String>) -> Dataset {
        Dataset {
            feature_names,
            rows: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Append one observation.
    ///
    /// # Panics
    /// Panics if `features.len()` differs from the declared column count.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        assert_eq!(
            features.len(),
            self.feature_names.len(),
            "feature arity mismatch"
        );
        self.rows.push(features);
        self.targets.push(target);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the dataset has no observations.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of feature columns.
    pub fn arity(&self) -> usize {
        self.feature_names.len()
    }

    /// Split into `(train, test)` with `train_fraction` of rows in train,
    /// shuffled deterministically by `seed`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> Result<(Dataset, Dataset)> {
        if self.is_empty() {
            return Err(PicError::model("cannot split an empty dataset"));
        }
        if !(0.0..=1.0).contains(&train_fraction) {
            return Err(PicError::model("train fraction must be in [0, 1]"));
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = SplitMix64::new(seed);
        // Fisher–Yates
        for i in (1..order.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let n_train = ((self.len() as f64) * train_fraction).round() as usize;
        let mut train = Dataset::new(self.feature_names.clone());
        let mut test = Dataset::new(self.feature_names.clone());
        for (k, &i) in order.iter().enumerate() {
            let dst = if k < n_train { &mut train } else { &mut test };
            dst.push(self.rows[i].clone(), self.targets[i]);
        }
        Ok((train, test))
    }

    /// Keep only the given feature columns (by index), in the given order.
    pub fn select_features(&self, columns: &[usize]) -> Dataset {
        let names = columns
            .iter()
            .map(|&c| self.feature_names[c].clone())
            .collect();
        let mut out = Dataset::new(names);
        for (row, &t) in self.rows.iter().zip(&self.targets) {
            out.push(columns.iter().map(|&c| row[c]).collect(), t);
        }
        out
    }

    /// Column-major copy of the feature matrix (`columns()[c][r]` is
    /// feature `c` of row `r`): each feature's values are contiguous, so
    /// the compiled-tape batch evaluator streams over whole columns
    /// instead of striding through the rows. Built once per fit.
    pub fn columns(&self) -> Vec<Vec<f64>> {
        (0..self.arity())
            .map(|c| self.rows.iter().map(|row| row[c]).collect())
            .collect()
    }

    /// Which columns actually vary (more than one distinct value up to a
    /// small tolerance)? Constant columns carry no information and are
    /// dropped before fitting.
    pub fn varying_features(&self) -> Vec<usize> {
        (0..self.arity())
            .filter(|&c| {
                let first = self.rows.first().map(|r| r[c]);
                match first {
                    None => false,
                    Some(f) => self.rows.iter().any(|r| (r[c] - f).abs() > 1e-12),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(vec![i as f64, 1.0], 2.0 * i as f64);
        }
        d
    }

    #[test]
    fn push_and_accessors() {
        let d = ds();
        assert_eq!(d.len(), 10);
        assert_eq!(d.arity(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut d = ds();
        d.push(vec![1.0], 0.0);
    }

    #[test]
    fn split_partitions_all_rows() {
        let d = ds();
        let (train, test) = d.split(0.7, 1).unwrap();
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        // all targets preserved
        let mut all: Vec<f64> = train.targets.iter().chain(&test.targets).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expect: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, expect);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = ds();
        let (a, _) = d.split(0.5, 7).unwrap();
        let (b, _) = d.split(0.5, 7).unwrap();
        assert_eq!(a, b);
        let (c, _) = d.split(0.5, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn split_rejects_bad_inputs() {
        let d = Dataset::new(vec!["a".into()]);
        assert!(d.split(0.5, 1).is_err());
        assert!(ds().split(1.5, 1).is_err());
    }

    #[test]
    fn select_features_reorders() {
        let d = ds();
        let s = d.select_features(&[1, 0]);
        assert_eq!(s.feature_names, vec!["b", "a"]);
        assert_eq!(s.rows[3], vec![1.0, 3.0]);
    }

    #[test]
    fn columns_transpose_rows() {
        let d = ds();
        let c = d.columns();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].len(), 10);
        assert_eq!(c[0][3], 3.0);
        assert!(c[1].iter().all(|&v| v == 1.0));
        let empty = Dataset::new(vec!["a".into()]).columns();
        assert_eq!(empty, vec![Vec::<f64>::new()]);
    }

    #[test]
    fn varying_features_drops_constants() {
        let d = ds();
        assert_eq!(d.varying_features(), vec![0]); // column b is constant
        let empty = Dataset::new(vec!["a".into()]);
        assert!(empty.varying_features().is_empty());
    }
}
