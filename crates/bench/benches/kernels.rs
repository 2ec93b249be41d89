//! Criterion micro-benchmarks of the eight algorithm steps' kernels:
//! spectral-angle screening, covariance accumulation, the Jacobi eigensolver,
//! the per-pixel PCT transform and the human-centred colour mapping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hsi::{CubeDims, SceneConfig, SceneGenerator};
use linalg::covariance::covariance_matrix;
use linalg::eigen::{sorted_eigenpairs, JacobiOptions};
use linalg::sym::SymMatrix;
use pct::colormap::{map_cube, ComponentScale};
use pct::pipeline::{derive_transform, transform_cube};
use pct::screening::screen_pixels;
use pct::PctConfig;

fn scene(width: usize, height: usize, bands: usize) -> hsi::HyperCube {
    let mut config = SceneConfig::small(99);
    config.dims = CubeDims::new(width, height, bands);
    SceneGenerator::new(config).unwrap().generate()
}

fn bench_screening(c: &mut Criterion) {
    let mut group = c.benchmark_group("step1_spectral_screening");
    group.sample_size(10);
    // The last case is the paper-size scene, where the O(unique × pixels)
    // cost shows.
    for &(size, bands) in &[(16usize, 24usize), (32, 24), (96, 105)] {
        let cube = scene(size, size, bands);
        let pixels = cube.pixel_vectors();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{size}x{size}x{bands}")),
            &pixels,
            |b, px| b.iter(|| screen_pixels(px, PctConfig::paper().screening_angle_rad)),
        );
    }
    group.finish();
}

fn bench_covariance(c: &mut Criterion) {
    let mut group = c.benchmark_group("step4_covariance");
    group.sample_size(10);
    for &bands in &[24usize, 48] {
        let cube = scene(24, 24, bands);
        let pixels = cube.pixel_vectors();
        group.bench_with_input(BenchmarkId::from_parameter(bands), &pixels, |b, px| {
            b.iter(|| covariance_matrix(px).unwrap())
        });
    }
    group.finish();
}

/// The step-4 inner kernel on its own: the rank-one update at the paper's
/// 210 bands, over a batch of pixel vectors.
fn bench_rank_one_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("step4_rank_one_update_210");
    group.sample_size(10);
    let cube = scene(16, 16, 210);
    let pixels = cube.pixel_vectors();
    group.bench_function("256_updates", |b| {
        b.iter(|| {
            let mut m = SymMatrix::zeros(210);
            for x in &pixels {
                m.rank_one_update(x).unwrap();
            }
            m
        })
    });
    group.finish();
}

fn bench_eigen(c: &mut Criterion) {
    let mut group = c.benchmark_group("step6_jacobi_eigen");
    group.sample_size(10);
    for &bands in &[24usize, 48, 105] {
        let cube = scene(16, 16, bands);
        let cov = covariance_matrix(&cube.pixel_vectors()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(bands), &cov, |b, cov| {
            b.iter(|| sorted_eigenpairs(cov, JacobiOptions::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_transform_and_colormap(c: &mut Criterion) {
    let mut group = c.benchmark_group("steps7_8_transform_colormap");
    group.sample_size(10);
    let cube = scene(32, 32, 24);
    let unique = screen_pixels(
        &cube.pixel_vectors(),
        PctConfig::paper().screening_angle_rad,
    );
    let spec = derive_transform(&unique, &PctConfig::paper()).unwrap();
    group.bench_function("transform_32x32x24", |b| {
        b.iter(|| transform_cube(&spec, &cube).unwrap())
    });
    let transformed = transform_cube(&spec, &cube).unwrap();
    let scales = ComponentScale::from_eigenvalues(&spec.eigenvalues, 3);
    group.bench_function("colormap_32x32", |b| {
        b.iter(|| map_cube(&transformed, &scales))
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_screening,
    bench_covariance,
    bench_rank_one_update,
    bench_eigen,
    bench_transform_and_colormap
);
criterion_main!(kernels);
