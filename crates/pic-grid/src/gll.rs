//! Gauss–Lobatto–Legendre (GLL) nodes and quadrature weights.
//!
//! Spectral-element methods (Nek5000, CMT-nek) place an `N × N × N` tensor
//! grid of GLL points inside every element. The interpolation and projection
//! kernels of the mini-app ([`pic_sim`](https://docs.rs/pic-sim)) evaluate
//! Lagrange basis polynomials at these nodes, so their cost scales as `N³`
//! per particle — the scaling the paper's performance models must capture.
//!
//! Nodes are the roots of `(1 - x²) P'_{N-1}(x)` on `[-1, 1]`, computed by
//! Newton iteration from Chebyshev initial guesses; weights follow the
//! classical formula `w_i = 2 / (N (N-1) P_{N-1}(x_i)²)`.

/// Legendre polynomial `P_n(x)` and its derivative, via the three-term
/// recurrence. Returns `(P_n(x), P'_n(x))`.
fn legendre(n: usize, x: f64) -> (f64, f64) {
    match n {
        0 => (1.0, 0.0),
        1 => (x, 1.0),
        _ => {
            let mut p_prev = 1.0; // P_0
            let mut p = x; // P_1
            for k in 2..=n {
                let kf = k as f64;
                let p_next = ((2.0 * kf - 1.0) * x * p - (kf - 1.0) * p_prev) / kf;
                p_prev = p;
                p = p_next;
            }
            // P'_n(x) = n (x P_n - P_{n-1}) / (x² - 1), except at |x| = 1.
            let dp = if (x * x - 1.0).abs() < 1e-14 {
                // Limit: P'_n(±1) = ±1^{n-1} * n(n+1)/2
                let sign = if x > 0.0 {
                    1.0
                } else {
                    (-1.0f64).powi(n as i32 - 1)
                };
                sign * (n * (n + 1)) as f64 / 2.0
            } else {
                n as f64 * (x * p - p_prev) / (x * x - 1.0)
            };
            (p, dp)
        }
    }
}

/// GLL nodes and quadrature weights for `n ≥ 2` points on `[-1, 1]`.
///
/// The returned nodes are sorted ascending and include both endpoints.
///
/// # Panics
/// Panics if `n < 2`.
pub fn gll_nodes_weights(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 2, "GLL rule needs at least 2 points");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    nodes[0] = -1.0;
    nodes[n - 1] = 1.0;
    let m = n - 1; // interior nodes are roots of P'_m
    #[allow(clippy::needless_range_loop)] // i is the node slot being solved for
    for i in 1..m {
        // Chebyshev–Gauss–Lobatto initial guess, then Newton on P'_m.
        let mut x = -(std::f64::consts::PI * i as f64 / m as f64).cos();
        for _ in 0..100 {
            // f(x) = P'_m(x). Newton using f' from Legendre ODE:
            // (1-x²) P''_m = 2x P'_m - m(m+1) P_m.
            let (p, dp) = legendre(m, x);
            let ddp = (2.0 * x * dp - (m * (m + 1)) as f64 * p) / (1.0 - x * x);
            let step = dp / ddp;
            x -= step;
            if step.abs() < 1e-15 {
                break;
            }
        }
        nodes[i] = x;
    }
    nodes.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let norm = 2.0 / (m * n) as f64;
    for i in 0..n {
        let (p, _) = legendre(m, nodes[i]);
        weights[i] = norm / (p * p);
    }
    (nodes, weights)
}

/// Evaluate the `i`-th Lagrange basis polynomial over `nodes` at `x`.
///
/// O(n) per evaluation; the mini-app interpolation kernel calls this `3 n`
/// times per particle (tensor-product structure).
pub fn lagrange_basis(nodes: &[f64], i: usize, x: f64) -> f64 {
    let xi = nodes[i];
    let mut v = 1.0;
    for (j, &xj) in nodes.iter().enumerate() {
        if j != i {
            v *= (x - xj) / (xi - xj);
        }
    }
    v
}

/// Precomputed 1-D GLL rule reused across the tensor-product kernels.
#[derive(Debug, Clone)]
pub struct GllRule {
    /// Nodes on `[-1, 1]`, ascending.
    pub nodes: Vec<f64>,
    /// Quadrature weights.
    pub weights: Vec<f64>,
}

impl GllRule {
    /// Build a rule with `n` points.
    pub fn new(n: usize) -> GllRule {
        let (nodes, weights) = gll_nodes_weights(n);
        GllRule { nodes, weights }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the rule is empty (never, by construction — kept for clippy's
    /// `len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Evaluate all `n` Lagrange basis functions at reference coordinate `x`,
    /// appending into `out` (cleared first).
    pub fn basis_at(&self, x: f64, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(lagrange_basis(&self.nodes, i, x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legendre_known_values() {
        // P_2(x) = (3x² - 1)/2
        let (p, dp) = legendre(2, 0.5);
        assert!((p - (-0.125)).abs() < 1e-14);
        assert!((dp - 1.5).abs() < 1e-14);
        // P_n(1) = 1 for all n
        for n in 0..8 {
            assert!((legendre(n, 1.0).0 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gll_small_rules_match_literature() {
        // n=2: nodes ±1, weights 1
        let (x, w) = gll_nodes_weights(2);
        assert_eq!(x, vec![-1.0, 1.0]);
        assert!((w[0] - 1.0).abs() < 1e-14 && (w[1] - 1.0).abs() < 1e-14);
        // n=3: nodes -1, 0, 1; weights 1/3, 4/3, 1/3
        let (x, w) = gll_nodes_weights(3);
        assert!(x[1].abs() < 1e-14);
        assert!((w[0] - 1.0 / 3.0).abs() < 1e-13);
        assert!((w[1] - 4.0 / 3.0).abs() < 1e-13);
        // n=4: interior nodes ±1/sqrt(5)
        let (x, w) = gll_nodes_weights(4);
        assert!((x[1] + (0.2f64).sqrt()).abs() < 1e-12);
        assert!((x[2] - (0.2f64).sqrt()).abs() < 1e-12);
        assert!((w[1] - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn weights_sum_to_interval_length() {
        for n in 2..12 {
            let (_, w) = gll_nodes_weights(n);
            let s: f64 = w.iter().sum();
            assert!((s - 2.0).abs() < 1e-11, "n={n} sum={s}");
        }
    }

    #[test]
    fn quadrature_is_exact_for_low_degree() {
        // GLL with n points integrates polynomials up to degree 2n-3 exactly.
        let (x, w) = gll_nodes_weights(5);
        // ∫_{-1}^{1} t^6 dt = 2/7, degree 6 <= 2*5-3 = 7
        let approx: f64 = x.iter().zip(&w).map(|(&t, &wi)| wi * t.powi(6)).sum();
        assert!((approx - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn lagrange_basis_is_cardinal() {
        let (x, _) = gll_nodes_weights(6);
        for i in 0..6 {
            for j in 0..6 {
                let v = lagrange_basis(&x, i, x[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10, "l_{i}(x_{j}) = {v}");
            }
        }
    }

    #[test]
    fn lagrange_basis_partition_of_unity() {
        let (x, _) = gll_nodes_weights(7);
        for &t in &[-0.9, -0.3, 0.0, 0.42, 0.99] {
            let s: f64 = (0..7).map(|i| lagrange_basis(&x, i, t)).sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn rule_basis_at_matches_direct() {
        let rule = GllRule::new(5);
        assert_eq!(rule.len(), 5);
        assert!(!rule.is_empty());
        let mut out = Vec::new();
        rule.basis_at(0.3, &mut out);
        #[allow(clippy::needless_range_loop)]
        for i in 0..5 {
            assert_eq!(out[i], lagrange_basis(&rule.nodes, i, 0.3));
        }
    }

    #[test]
    #[should_panic]
    fn rule_of_one_point_panics() {
        gll_nodes_weights(1);
    }
}
