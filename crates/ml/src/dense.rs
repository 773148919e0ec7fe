//! Tiny dense SPD solver for the linear-model normal equations.
//!
//! Ridge-regularized normal equations are small (features × features), so a
//! plain Cholesky factorization is the right tool. Factor and solve are
//! separate so that one factor serves many right-hand sides: LinearR
//! factors its Gram matrix once per corpus and solves once per output.

/// The lower Cholesky factor `L` of a symmetric positive definite `A = LLᵀ`,
/// row-major full storage.
#[derive(Debug, Clone)]
pub(crate) struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Factors the `n × n` row-major SPD matrix `a`. Returns `None` if `a`
    /// is not positive definite (a non-positive or non-finite pivot).
    pub(crate) fn factor(a: &[f64], n: usize) -> Option<Cholesky> {
        debug_assert_eq!(a.len(), n * n);
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Some(Cholesky { n, l })
    }

    /// Order of the factored matrix.
    pub(crate) fn order(&self) -> usize {
        self.n
    }

    /// Solves `A x = b`: forward substitution with `L`, then back
    /// substitution with `Lᵀ`.
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        let (n, l) = (self.n, &self.l);
        debug_assert_eq!(b.len(), n);
        let mut y = vec![0.0f64; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
        let a = [4.0, 1.0, 1.0, 3.0];
        let chol = Cholesky::factor(&a, 2).unwrap();
        let x = chol.solve(&[1.0, 2.0]);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
        // The same factor serves another right-hand side: b = [5, 4] -> [1, 1].
        let x = chol.solve(&[5.0, 4.0]);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite_and_nan() {
        assert!(Cholesky::factor(&[1.0, 0.0, 0.0, -1.0], 2).is_none());
        assert!(Cholesky::factor(&[1.0, f64::NAN, f64::NAN, 1.0], 2).is_none());
    }
}
