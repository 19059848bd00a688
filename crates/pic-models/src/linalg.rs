//! Minimal dense linear algebra: the normal-equations solve behind OLS.

use pic_types::{PicError, Result};

/// Solve the linear system `A x = b` for square `A` (row-major, `n × n`)
/// by Gaussian elimination with partial pivoting.
///
/// Returns an error when the matrix is numerically singular.
fn solve(a: &[f64], b: &[f64], n: usize) -> Result<Vec<f64>> {
    assert_eq!(a.len(), n * n, "matrix shape");
    assert_eq!(b.len(), n, "rhs shape");
    let mut m = a.to_vec();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = m[col * n + col].abs();
        for row in (col + 1)..n {
            let v = m[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best < 1e-12 {
            return Err(PicError::model("singular system in OLS solve"));
        }
        if pivot != col {
            for k in 0..n {
                m.swap(col * n + k, pivot * n + k);
            }
            rhs.swap(col, pivot);
        }
        // Eliminate below.
        let diag = m[col * n + col];
        for row in (col + 1)..n {
            let factor = m[row * n + col] / diag;
            if factor != 0.0 {
                for k in col..n {
                    m[row * n + k] -= factor * m[col * n + k];
                }
                rhs[row] -= factor * rhs[col];
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut v = rhs[col];
        for k in (col + 1)..n {
            v -= m[col * n + k] * x[k];
        }
        x[col] = v / m[col * n + col];
    }
    Ok(x)
}

/// Ordinary least squares: find `beta` minimizing `‖X beta − y‖²` via the
/// normal equations with a small ridge term for conditioning.
///
/// `x` is row-major `rows × cols`.
pub fn least_squares(x: &[f64], y: &[f64], rows: usize, cols: usize) -> Result<Vec<f64>> {
    assert_eq!(x.len(), rows * cols, "design matrix shape");
    assert_eq!(y.len(), rows, "target shape");
    if rows < cols {
        return Err(PicError::model(format!(
            "under-determined system: {rows} rows < {cols} unknowns"
        )));
    }
    // Normal equations: (XᵀX + λI) beta = Xᵀy.
    let mut xtx = vec![0.0; cols * cols];
    let mut xty = vec![0.0; cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        for i in 0..cols {
            xty[i] += row[i] * y[r];
            for j in i..cols {
                xtx[i * cols + j] += row[i] * row[j];
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..cols {
        for j in 0..i {
            xtx[i * cols + j] = xtx[j * cols + i];
        }
    }
    // Ridge scaled to the diagonal magnitude keeps near-collinear kernels'
    // training data solvable without visibly biasing well-posed fits.
    let trace: f64 = (0..cols).map(|i| xtx[i * cols + i]).sum();
    let lambda = 1e-10 * (trace / cols as f64).max(1e-30);
    for i in 0..cols {
        xtx[i * cols + i] += lambda;
    }
    solve(&xtx, &xty, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [3.0, 4.0];
        assert_eq!(solve(&a, &b, 2).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x - y = 1  → x = 2, y = 1
        let a = [2.0, 1.0, 1.0, -1.0];
        let b = [5.0, 1.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // zero on the first diagonal entry
        let a = [0.0, 1.0, 1.0, 0.0];
        let b = [2.0, 3.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_is_error() {
        let a = [1.0, 2.0, 2.0, 4.0];
        let b = [1.0, 2.0];
        assert!(solve(&a, &b, 2).is_err());
    }

    #[test]
    fn least_squares_exact_fit() {
        // y = 3a + 2b, no noise, 4 observations.
        let x = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 1.0];
        let y = [3.0, 2.0, 5.0, 8.0];
        let beta = least_squares(&x, &y, 4, 2).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-6);
        assert!((beta[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn least_squares_overdetermined_noise() {
        // y = 5x with symmetric noise; slope recovered.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..100 {
            let v = i as f64;
            xs.push(v);
            ys.push(5.0 * v + if i % 2 == 0 { 0.5 } else { -0.5 });
        }
        let beta = least_squares(&xs, &ys, 100, 1).unwrap();
        assert!((beta[0] - 5.0).abs() < 0.01, "{}", beta[0]);
    }

    #[test]
    fn least_squares_underdetermined_is_error() {
        let x = [1.0, 2.0];
        let y = [1.0];
        assert!(least_squares(&x, &y, 1, 2).is_err());
    }
}
