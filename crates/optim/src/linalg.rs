//! Small dense linear algebra: LU factorization with partial pivoting.
//!
//! The SQP subproblems of the HPD oracle produce KKT systems of dimension
//! `n + m` (= 3 for the paper's two-variable, one-constraint problem), so a
//! straightforward `O(k³)` LU with partial pivoting is both simplest and
//! fastest at this scale.

use crate::{OptimError, Result};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the square system `A x = b` via LU with partial pivoting.
///
/// Returns [`OptimError::SingularMatrix`] when a pivot falls below
/// `1e-13 * max|A|` (numerical singularity at this problem scale).
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows;
    if a.cols != n {
        return Err(OptimError::DimensionMismatch {
            expected: n,
            got: a.cols,
        });
    }
    if b.len() != n {
        return Err(OptimError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    let mut lu = a.data.clone();
    let mut x = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    let scale = lu.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let tiny = 1e-13 * scale.max(1.0);

    for k in 0..n {
        // Partial pivot: largest magnitude in column k at/below the diagonal.
        let mut p = k;
        let mut maxval = lu[perm[k] * n + k].abs();
        for (idx, &pr) in perm.iter().enumerate().skip(k + 1) {
            let v = lu[pr * n + k].abs();
            if v > maxval {
                maxval = v;
                p = idx;
            }
        }
        if maxval < tiny {
            return Err(OptimError::SingularMatrix);
        }
        perm.swap(k, p);
        let pk = perm[k];
        let pivot = lu[pk * n + k];
        for &pi in &perm[k + 1..] {
            let factor = lu[pi * n + k] / pivot;
            lu[pi * n + k] = factor;
            for j in k + 1..n {
                lu[pi * n + j] -= factor * lu[pk * n + j];
            }
        }
    }

    // Forward substitution on the permuted right-hand side.
    let mut y = vec![0.0; n];
    for k in 0..n {
        let pk = perm[k];
        let mut s = x[pk];
        for (j, yj) in y.iter().enumerate().take(k) {
            s -= lu[pk * n + j] * yj;
        }
        y[k] = s;
    }
    // Back substitution.
    for k in (0..n).rev() {
        let pk = perm[k];
        let mut s = y[k];
        for j in k + 1..n {
            s -= lu[pk * n + j] * x[j];
        }
        x[k] = s / lu[pk * n + k];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = solve(&a, &b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn known_3x3_system() {
        // A = [[2,1,1],[1,3,2],[1,0,0]], b = [4,5,6] → x = [6,15,-23].
        let a = Matrix::from_rows(3, 3, &[2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.0]);
        let x = solve(&a, &[4.0, 5.0, 6.0]).unwrap();
        assert!((x[0] - 6.0).abs() < 1e-12);
        assert!((x[1] - 15.0).abs() < 1e-12);
        assert!((x[2] + 23.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(solve(&a, &[1.0, 2.0]), Err(OptimError::SingularMatrix));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(OptimError::DimensionMismatch { .. })
        ));
        let a = Matrix::identity(2);
        assert!(matches!(
            solve(&a, &[1.0, 2.0, 3.0]),
            Err(OptimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn random_roundtrip() {
        // Pseudo-random well-conditioned systems: verify A x ≈ b.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in 1..=8 {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += 3.0; // diagonal dominance → well conditioned
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = solve(&a, &b).unwrap();
            let back = a.matvec(&x);
            for (bb, orig) in back.iter().zip(&b) {
                assert!((bb - orig).abs() < 1e-10, "n = {n}");
            }
        }
    }

    #[test]
    fn matvec_basics() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = a.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![6.0, 15.0]);
    }
}
