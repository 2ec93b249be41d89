//! The Jacobi eigensolver must stay bit-identical to the index-based
//! formulation it replaced: same eigenvalues, eigenvectors and sweep count,
//! compared with `to_bits`, and the same `NotConverged` error.
//!
//! `frozen_jacobi` below is that formulation, kept verbatim as the oracle.
//! The inputs cover the covariance matrices the pipeline really solves (a
//! 105-band paper scene and the rank-deficient 210-band covariance of a
//! handful of unique pixels) plus random, diagonal, block-diagonal and
//! sweep-limited cases.

use hsi::{CubeDims, SceneConfig, SceneGenerator};
use linalg::covariance::{mean_vector, CovarianceAccumulator};
use linalg::eigen::{jacobi_eigen, EigenDecomposition, JacobiOptions};
use linalg::{LinalgError, Matrix, SymMatrix};
use pct::screening::screen_pixels;
use pct::PctConfig;

fn frozen_off_diagonal_norm(a: &Matrix) -> f64 {
    let n = a.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc += a[(i, j)] * a[(i, j)];
            }
        }
    }
    acc.sqrt()
}

/// The cyclic Jacobi solver as it was written over `Matrix` indexing,
/// accumulating `V` column by column.  Do not edit: it is the reference.
fn frozen_jacobi(matrix: &SymMatrix, options: JacobiOptions) -> linalg::Result<EigenDecomposition> {
    let n = matrix.dim();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: Vec::new(),
            eigenvectors: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }
    let mut a = matrix.to_dense();
    let mut v = Matrix::identity(n);
    let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);

    let mut sweeps = 0;
    while sweeps < options.max_sweeps {
        let off = frozen_off_diagonal_norm(&a);
        if off <= options.tolerance * scale {
            break;
        }
        sweeps += 1;
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = a[(p, q)];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = 0.5 * (aqq - app) / apq;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let off = frozen_off_diagonal_norm(&a);
    if off > options.tolerance * scale * 1e3 && sweeps >= options.max_sweeps {
        return Err(LinalgError::NotConverged {
            sweeps,
            off_norm_bits: off.to_bits(),
        });
    }
    let eigenvalues = (0..n).map(|i| a[(i, i)]).collect();
    Ok(EigenDecomposition {
        eigenvalues,
        eigenvectors: v,
        sweeps,
    })
}

type Bits = (Vec<u64>, Vec<u64>, usize);

fn bits(result: linalg::Result<EigenDecomposition>) -> Result<Bits, LinalgError> {
    result.map(|d| {
        (
            d.eigenvalues.iter().map(|x| x.to_bits()).collect(),
            d.eigenvectors
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
            d.sweeps,
        )
    })
}

/// Solves `m` both ways, asserts bit-identity, and returns the result.
fn assert_bit_identical(m: &SymMatrix, options: JacobiOptions) -> Result<Bits, LinalgError> {
    let new = bits(jacobi_eigen(m, options));
    let frozen = bits(frozen_jacobi(m, options));
    assert_eq!(new, frozen, "n = {}", m.dim());
    new
}

fn random_symmetric(n: usize, seed: u64) -> SymMatrix {
    let mut m = SymMatrix::zeros(n);
    let mut state = seed;
    for i in 0..n {
        for j in i..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            m.set(i, j, ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
        }
    }
    m
}

/// Covariance of the screened unique set, as the derive step builds it.
fn unique_set_covariance(config: SceneConfig) -> (usize, SymMatrix) {
    let cube = SceneGenerator::new(config).unwrap().generate();
    let unique = screen_pixels(
        &cube.pixel_vectors(),
        PctConfig::paper().screening_angle_rad,
    );
    let mut acc = CovarianceAccumulator::new(mean_vector(&unique).unwrap());
    acc.push_all(&unique).unwrap();
    (unique.len(), acc.finalize().unwrap())
}

/// The benchmark's scene settings: targets scaled to a `side`-pixel cube.
fn scene(seed: u64, side: usize, bands: usize, noise: f64) -> SceneConfig {
    let mut config = SceneConfig::paper_eval(seed);
    config.dims = CubeDims::new(side, side, bands);
    config.noise_sigma = noise;
    config.targets = vec![
        hsi::synthetic::Target {
            x: side / 8,
            y: side - side / 6,
            half_size: (side / 40).max(1),
            camouflaged: true,
        },
        hsi::synthetic::Target {
            x: side / 2,
            y: side / 3,
            half_size: (side / 32).max(1),
            camouflaged: false,
        },
    ];
    config
}

#[test]
fn paper_scene_covariance_at_105_bands() {
    let (unique, cov) = unique_set_covariance(scene(1, 32, 105, 0.01));
    assert!(unique > 1);
    let (_, _, sweeps) = assert_bit_identical(&cov, JacobiOptions::default()).unwrap();
    assert!(sweeps > 0);
}

#[test]
fn rank_deficient_covariance_at_210_bands() {
    // The remote-ingest input: a low-noise 64×64×210 scene screens down
    // to six unique pixels, so the 210×210 covariance has rank 5.
    let (unique, cov) = unique_set_covariance(scene(1, 64, 210, 0.001));
    assert!(unique > 1 && unique < 210, "{unique} unique pixels");
    let (_, _, sweeps) = assert_bit_identical(&cov, JacobiOptions::default()).unwrap();
    assert!(sweeps > 0);
}

#[test]
fn random_symmetric_matrices() {
    for (seed, n) in [1usize, 2, 3, 7, 30].into_iter().enumerate() {
        let m = random_symmetric(n, 0x1234_5678 + seed as u64);
        assert_bit_identical(&m, JacobiOptions::default()).unwrap();
    }
}

#[test]
fn diagonal_matrix_takes_no_sweep() {
    let mut m = SymMatrix::zeros(6);
    for i in 0..6 {
        m.set(i, i, 1.5 * i as f64 - 2.0);
    }
    let (_, _, sweeps) = assert_bit_identical(&m, JacobiOptions::default()).unwrap();
    assert_eq!(sweeps, 0);
}

#[test]
fn exact_zero_off_diagonals_take_the_skip_branch() {
    // Two uncoupled blocks: rotations inside one block leave every entry
    // coupling it to the other exactly zero, so those pairs are skipped in
    // every sweep.
    let dense = random_symmetric(8, 99).to_dense();
    let mut m = SymMatrix::zeros(8);
    for i in 0..8 {
        for j in i..8 {
            if (i < 4) == (j < 4) {
                m.set(i, j, dense[(i, j)]);
            }
        }
    }
    let (_, _, sweeps) = assert_bit_identical(&m, JacobiOptions::default()).unwrap();
    assert!(sweeps > 0);
}

#[test]
fn sweep_limit_reports_the_same_not_converged_error() {
    let m = random_symmetric(30, 7);
    let options = JacobiOptions {
        max_sweeps: 1,
        ..JacobiOptions::default()
    };
    let err = assert_bit_identical(&m, options).unwrap_err();
    assert!(matches!(err, LinalgError::NotConverged { sweeps: 1, .. }));
}
