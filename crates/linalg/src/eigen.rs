//! Cyclic Jacobi eigensolver for symmetric matrices (algorithm step 6).
//!
//! Step 6 of the paper computes the eigenvectors of the covariance matrix and
//! sorts them by descending eigenvalue so the high-variance spectral content
//! is packed into the leading principal components.  The paper notes this
//! step is `O(n^3)` in the number of bands and is executed sequentially by
//! the manager because its cost depends on the band count (≤ 210), not the
//! image size.
//!
//! The cyclic Jacobi method is used here because it is simple, dependency
//! free, numerically robust for symmetric matrices, and produces orthogonal
//! eigenvectors to machine precision — properties the property-based tests in
//! this module assert directly.
//!
//! # Storage layout
//!
//! `A` is one flat row-major `n × n` slice.  Each rotation `A ← Jᵀ A J`
//! is applied as two passes: the column pass walks the rows with
//! `chunks_exact_mut(n)` and rotates entries `p` and `q` of each, then the
//! row pass rotates the two contiguous rows `p` and `q`, taken together with
//! `split_at_mut`.  The solver accumulates `Vᵀ` rather than `V`: the update
//! `V ← V J` rotates columns `p` and `q` of `V`, which are rows `p` and `q`
//! of `Vᵀ`, so it is the same contiguous two-row rotation as the row pass
//! (`rotate_rows`).  `Vᵀ` is transposed in place once at the end.  Only
//! `A` and `Vᵀ` are held, so memory stays at two `n × n` matrices.
//!
//! The result is bit-identical to an index-based `a[(k, p)]` formulation
//! (the test suite keeps a frozen copy of one and compares `to_bits`):
//! the sweep order, the rotation formulas, the skip test and the
//! convergence test are unchanged, every entry is computed by the same
//! floating-point expression from the same operands, and the only sums —
//! the off-diagonal norm — run in the same `(i, j)` order.  Within one
//! pass each entry is read and written by exactly one step, so the order
//! in which the rows of a pass are visited cannot change a value.

use crate::matrix::Matrix;
use crate::sym::SymMatrix;
use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// Options controlling the Jacobi iteration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JacobiOptions {
    /// Maximum number of full sweeps over all off-diagonal entries.
    pub max_sweeps: usize,
    /// Convergence threshold on the off-diagonal Frobenius norm relative to
    /// the matrix Frobenius norm.
    pub tolerance: f64,
}

impl Default for JacobiOptions {
    fn default() -> Self {
        Self {
            max_sweeps: 64,
            tolerance: 1e-12,
        }
    }
}

/// Result of an eigen-decomposition: `A = V diag(lambda) V^T`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EigenDecomposition {
    /// Eigenvalues, in the order produced by the solver (see
    /// [`sorted_eigenpairs`] for the descending order the PCT needs).
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors stored as *columns* of this matrix, in the same order as
    /// `eigenvalues`.
    pub eigenvectors: Matrix,
    /// Number of sweeps the solver performed.
    pub sweeps: usize,
}

impl EigenDecomposition {
    /// Returns eigenvector `k` as a row vector.
    pub fn eigenvector(&self, k: usize) -> crate::Vector {
        self.eigenvectors.column(k)
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }
}

/// Frobenius norm of the off-diagonal part of the row-major `n × n` slice
/// `a`, summed row by row, left to right.
fn off_diagonal_norm(a: &[f64], n: usize) -> f64 {
    let mut acc = 0.0;
    for (i, row) in a.chunks_exact(n).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            if i != j {
                acc += x * x;
            }
        }
    }
    acc.sqrt()
}

/// Rows `p < q` of the row-major `n`-column slice `m`, both mutable.
fn row_pair(m: &mut [f64], n: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = m.split_at_mut(q * n);
    (&mut head[p * n..(p + 1) * n], &mut tail[..n])
}

/// Plane rotation of two rows: `(x, y) ← (c·x − s·y, s·x + c·y)` entrywise.
fn rotate_rows(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    for (xk, yk) in x.iter_mut().zip(y.iter_mut()) {
        let (xv, yv) = (*xk, *yk);
        *xk = c * xv - s * yv;
        *yk = s * xv + c * yv;
    }
}

/// Computes the eigen-decomposition of a symmetric matrix with the cyclic
/// Jacobi method.
pub fn jacobi_eigen(matrix: &SymMatrix, options: JacobiOptions) -> Result<EigenDecomposition> {
    let n = matrix.dim();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: Vec::new(),
            eigenvectors: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }
    let mut dense = matrix.to_dense();
    let scale = dense.frobenius_norm().max(f64::MIN_POSITIVE);
    let a = dense.as_mut_slice();
    // Row k of `vt` is eigenvector k (column k of V).
    let mut vt = Matrix::identity(n);

    let mut sweeps = 0;
    while sweeps < options.max_sweeps {
        let off = off_diagonal_norm(a, n);
        if off <= options.tolerance * scale {
            break;
        }
        sweeps += 1;
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = a[p * n + q];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                // Rotation angle that annihilates a[p][q].
                let theta = 0.5 * (aqq - app) / apq;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation to A from both sides: A <- J^T A J,
                // columns p and q first, then rows p and q.
                for row in a.chunks_exact_mut(n) {
                    let (akp, akq) = (row[p], row[q]);
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                let (ap, aq) = row_pair(a, n, p, q);
                rotate_rows(ap, aq, c, s);
                // Accumulate the eigenvectors: V <- V J, i.e. rows p and q
                // of V^T.
                let (vp, vq) = row_pair(vt.as_mut_slice(), n, p, q);
                rotate_rows(vp, vq, c, s);
            }
        }
    }

    let off = off_diagonal_norm(a, n);
    if off > options.tolerance * scale * 1e3 && sweeps >= options.max_sweeps {
        return Err(LinalgError::NotConverged {
            sweeps,
            off_norm_bits: off.to_bits(),
        });
    }

    let eigenvalues = (0..n).map(|i| a[i * n + i]).collect();
    let v = vt.as_mut_slice();
    for i in 0..n {
        for j in i + 1..n {
            v.swap(i * n + j, j * n + i);
        }
    }
    Ok(EigenDecomposition {
        eigenvalues,
        eigenvectors: vt,
        sweeps,
    })
}

/// Computes the eigen-decomposition and returns the eigenpairs sorted by
/// descending eigenvalue, as step 6 of the paper requires ("sorted according
/// to their corresponding eigenvalues which provide a measure of their
/// variances").
///
/// The returned matrix has the sorted eigenvectors as *rows*, i.e. it is the
/// transformation matrix `A` applied to centred pixel vectors in step 7.
pub fn sorted_eigenpairs(matrix: &SymMatrix, options: JacobiOptions) -> Result<(Vec<f64>, Matrix)> {
    let decomp = jacobi_eigen(matrix, options)?;
    let n = decomp.dim();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        decomp.eigenvalues[b]
            .partial_cmp(&decomp.eigenvalues[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let eigenvalues: Vec<f64> = order.iter().map(|&i| decomp.eigenvalues[i]).collect();
    let mut transform = Matrix::zeros(n, n);
    for (row, &src) in order.iter().enumerate() {
        for k in 0..n {
            transform[(row, k)] = decomp.eigenvectors[(k, src)];
        }
        // Canonicalise the sign: eigenvectors are only defined up to sign,
        // and different (but equivalent) inputs — e.g. covariance matrices
        // built from slightly different unique sets in the sequential versus
        // distributed pipelines — could otherwise flip a component and
        // invert a colour channel.  Make the largest-magnitude entry
        // positive so every implementation agrees.
        let mut max_idx = 0;
        let mut max_abs = 0.0_f64;
        for k in 0..n {
            if transform[(row, k)].abs() > max_abs {
                max_abs = transform[(row, k)].abs();
                max_idx = k;
            }
        }
        if transform[(row, max_idx)] < 0.0 {
            for k in 0..n {
                transform[(row, k)] = -transform[(row, k)];
            }
        }
    }
    Ok((eigenvalues, transform))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    fn sym_from_rows(rows: &[Vec<f64>]) -> SymMatrix {
        SymMatrix::from_dense(&Matrix::from_rows(rows).unwrap()).unwrap()
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_the_diagonal() {
        let m = sym_from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let (vals, _) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 2.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_by_two_known_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = sym_from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, _) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_sum_to_trace() {
        let m = sym_from_rows(&[
            vec![4.0, 1.0, -2.0],
            vec![1.0, 2.0, 0.5],
            vec![-2.0, 0.5, 3.0],
        ]);
        let (vals, _) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        let sum: f64 = vals.iter().sum();
        assert!((sum - m.trace()).abs() < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal_rows() {
        let m = sym_from_rows(&[
            vec![5.0, 2.0, 1.0, 0.0],
            vec![2.0, 4.0, 0.5, 1.0],
            vec![1.0, 0.5, 3.0, 0.2],
            vec![0.0, 1.0, 0.2, 2.0],
        ]);
        let (_, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let ri = Vector::from(t.row(i));
                let rj = Vector::from(t.row(j));
                let dot = ri.dot(&rj).unwrap();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9, "rows {i},{j} dot = {dot}");
            }
        }
    }

    #[test]
    fn reconstruction_matches_original() {
        // A = V^T diag(lambda) V where V rows are eigenvectors.
        let m = sym_from_rows(&[
            vec![6.0, 2.0, 0.0],
            vec![2.0, 5.0, 1.0],
            vec![0.0, 1.0, 4.0],
        ]);
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        let mut diag = Matrix::zeros(3, 3);
        for i in 0..3 {
            diag[(i, i)] = vals[i];
        }
        let reconstructed = t
            .transpose()
            .mul_matrix(&diag)
            .unwrap()
            .mul_matrix(&t)
            .unwrap();
        let dense = m.to_dense();
        assert!(reconstructed.max_abs_diff(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn transform_of_eigenvector_scales_by_eigenvalue() {
        let m = sym_from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let decomp = jacobi_eigen(&m, JacobiOptions::default()).unwrap();
        let dense = m.to_dense();
        for k in 0..2 {
            let v = decomp.eigenvector(k);
            let av = dense.mul_vector(&v).unwrap();
            let lv = v.scale(decomp.eigenvalues[k]);
            for (a, b) in av.iter().zip(lv.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_matrix_decomposes_trivially() {
        let m = SymMatrix::zeros(0);
        let d = jacobi_eigen(&m, JacobiOptions::default()).unwrap();
        assert!(d.eigenvalues.is_empty());
    }

    #[test]
    fn one_by_one_matrix() {
        let mut m = SymMatrix::zeros(1);
        m.set(0, 0, 42.0);
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        assert_eq!(vals, vec![42.0]);
        assert!((t[(0, 0)].abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_correlated_data_puts_variance_in_first_component() {
        // Strongly correlated two-band data: nearly all variance along (1,1).
        let pixels: Vec<Vector> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.1;
                Vector::from_vec(vec![
                    t + 0.01 * (i as f64).sin(),
                    t - 0.01 * (i as f64).cos(),
                ])
            })
            .collect();
        let cov = crate::covariance::covariance_matrix(&pixels).unwrap();
        let (vals, t) = sorted_eigenpairs(&cov, JacobiOptions::default()).unwrap();
        assert!(vals[0] > 100.0 * vals[1]);
        // First eigenvector should be close to (1,1)/sqrt(2) up to sign.
        let e0 = t.row(0);
        assert!((e0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
        assert!((e0[1].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
    }

    #[test]
    fn larger_random_like_matrix_converges() {
        // Deterministic pseudo-random symmetric matrix, 30x30.
        let n = 30;
        let mut m = SymMatrix::zeros(n);
        let mut state = 0x12345678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in i..n {
                m.set(i, j, next());
            }
        }
        let (vals, t) = sorted_eigenpairs(&m, JacobiOptions::default()).unwrap();
        // Eigenvalues sorted descending.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Rows orthonormal.
        for i in 0..n {
            let ri = Vector::from(t.row(i));
            assert!((ri.norm() - 1.0).abs() < 1e-8);
        }
        // Trace preserved.
        let sum: f64 = vals.iter().sum();
        assert!((sum - m.trace()).abs() < 1e-7);
    }
}
