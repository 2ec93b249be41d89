//! Offline shim of `criterion`.
//!
//! Implements the API surface the `bench` crate's harness-false benches use
//! (`Criterion::benchmark_group`, `sample_size`, `bench_function`,
//! `bench_with_input`, `Bencher::iter`, `BenchmarkId`, `criterion_group!`,
//! `criterion_main!`) as a plain wall-clock harness: every sample times the
//! closure once and the per-iteration mean/min are printed.  No statistics,
//! HTML reports or CLI filtering — enough to compile the benches, record a
//! perf trajectory and keep `cargo bench` runnable offline.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier for one benchmark case within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(value: &str) -> Self {
        Self {
            id: value.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(value: String) -> Self {
        Self { id: value }
    }
}

/// Per-iteration timer handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    timings: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, once per sample.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // One untimed warm-up to populate caches / lazy state.  Results go
        // through `black_box`, as in the real criterion, so a pure routine
        // is not optimised away.
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.timings.push(start.elapsed());
        }
    }
}

fn run_case(group: Option<&str>, id: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
    let mut bencher = Bencher {
        samples,
        timings: Vec::new(),
    };
    f(&mut bencher);
    let label = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_string(),
    };
    if bencher.timings.is_empty() {
        println!("bench {label:<48} (no samples)");
        return;
    }
    let total: Duration = bencher.timings.iter().sum();
    let mean = total / bencher.timings.len() as u32;
    let min = bencher.timings.iter().min().copied().unwrap_or_default();
    println!(
        "bench {label:<48} mean {:>12.3?}  min {:>12.3?}  ({} samples)",
        mean,
        min,
        bencher.timings.len()
    );
}

/// A named collection of related benchmark cases.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each case records.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Benchmarks `routine` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut routine = routine;
        run_case(Some(&self.name), &id.to_string(), self.samples, |b| {
            routine(b)
        });
        self
    }

    /// Benchmarks `routine` with a borrowed input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, routine: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut routine = routine;
        run_case(Some(&self.name), &id.to_string(), self.samples, |b| {
            routine(b, input)
        });
        self
    }

    /// Ends the group (printing already happened per case).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Accepts and ignores CLI arguments (compatibility with the real
    /// criterion's generated `main`).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Opens a named group of benchmark cases.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup {
            name,
            samples: 10,
            _criterion: self,
        }
    }

    /// Benchmarks `routine` outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut routine = routine;
        run_case(None, &id.to_string(), 10, |b| routine(b));
        self
    }

    /// No-op summary hook (compatibility).
    pub fn final_summary(&mut self) {}
}

/// An opaque value barrier preventing the optimiser from deleting a
/// benchmarked computation.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_samples() {
        let mut b = Bencher {
            samples: 5,
            timings: Vec::new(),
        };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(b.timings.len(), 5);
        assert_eq!(calls, 6, "5 timed samples plus 1 warm-up");
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("screen", 64).to_string(), "screen/64");
        assert_eq!(BenchmarkId::from_parameter(8).to_string(), "8");
    }

    criterion_group!(smoke_group, smoke_case);

    fn smoke_case(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::from_parameter(3), &3u32, |b, &n| {
            b.iter(|| (0..n).sum::<u32>())
        });
        group.bench_function("plain", |b| b.iter(|| black_box(1 + 1)));
        group.finish();
    }

    #[test]
    fn group_macro_expansion_runs() {
        smoke_group();
    }
}
