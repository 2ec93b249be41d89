//! Shared plumbing: the metric catalogue, the result line, seeded inputs,
//! order statistics, set-up timing and peak memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed with tracing off.  Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run.  A layer a workload does
/// not exercise reports 0: the "idle in" half of each layer's prediction.
pub const PER_LAYER: &[(&str, &str)] = &[
    // pct screening and the input it works on.
    ("pct.screen_ms_per_job", "ms"),
    ("pct.unique_per_job", "count"),
    ("hsi.pixels_per_job", "count"),
    ("hsi.payload_mb_per_job", "MB"),
    // linalg: steps 3-6 and the kernel ledger.
    ("linalg.bands", "count"),
    ("linalg.covariance_ms_per_job", "ms"),
    ("linalg.eigen_ms_per_job", "ms"),
    ("linalg.eigen_spread_pct", "%"),
    ("linalg.rank_one_update_ms", "ms"),
    ("linalg.rank_one_update_spread_pct", "%"),
    ("linalg.rank_one_update_reference_ms", "ms"),
    ("linalg.rank_one_update_reference_spread_pct", "%"),
    // pct transform and colour mapping.
    ("pct.transform_ms_per_job", "ms"),
    ("pct.colormap_ms_per_job", "ms"),
    // service: admission, phases, and what is left once kernels are out.
    ("service.queue_wait_ms_p50", "ms"),
    ("service.screen_phase_ms_per_job", "ms"),
    ("service.derive_phase_ms_per_job", "ms"),
    ("service.transform_phase_ms_per_job", "ms"),
    ("service.inline_phase_ms_per_job", "ms"),
    ("service.kernel_ms_per_job", "ms"),
    ("service.overhead_ms_per_job", "ms"),
    ("service.tasks_per_job", "count"),
    ("service.heartbeats_per_s", "1/s"),
    ("service.retransmits", "count"),
    ("service.route_standard_jobs", "count"),
    ("service.route_resilient_jobs", "count"),
    ("service.route_shared_memory_jobs", "count"),
    ("service.route_remote_jobs", "count"),
    ("service.tenant_t1_admitted", "count"),
    ("service.tenant_t1_downgraded", "count"),
    ("service.tenant_t1_shed", "count"),
    ("service.tenant_t1_rejected", "count"),
    ("service.tenant_t2_admitted", "count"),
    ("service.tenant_t2_downgraded", "count"),
    ("service.tenant_t2_shed", "count"),
    ("service.tenant_t2_rejected", "count"),
    // wire: the remote lane's codec and transport.
    ("wire.encode_ms_per_job", "ms"),
    ("wire.decode_ms_per_job", "ms"),
    ("wire.frames_per_job", "count"),
    ("wire.bytes_per_job", "bytes"),
    ("wire.transport_ms_per_job", "ms"),
    // ingest: decode, content hashing, the store.
    ("ingest.decode_ms_per_cube", "ms"),
    ("ingest.hash_ms_per_cube", "ms"),
    ("ingest.store_hits", "count"),
    ("ingest.store_misses", "count"),
    ("ingest.shed", "count"),
    // sim + netsim + resilience.
    ("sim.scenario_ms_p50", "ms"),
    ("sim.detection_latency_p50_virtual_ms", "ms"),
    ("sim.detection_latency_p99_virtual_ms", "ms"),
    ("sim.detections", "count"),
    ("sim.false_positives", "count"),
    ("sim.regenerations", "count"),
    ("sim.retransmits", "count"),
    // telemetry: traced minus untraced, filled in by run.py.
    ("telemetry.overhead_pct", "%"),
    // The benchmark's own bookkeeping; the traced run's own end-to-end
    // figures are what run.py compares with the untraced run's.
    ("bench.traced_latency_p50_ms", "ms"),
    ("bench.traced_jobs_per_s", "jobs/s"),
    ("bench.jobs_traced", "count"),
    ("bench.layer_residual_ms_p50", "ms"),
    ("bench.layer_residual_ms_max", "ms"),
    ("bench.generator_late_ms_max", "ms"),
    ("bench.generator_late_ms_mean", "ms"),
];

/// What one run measured, before it is printed.
pub struct Outcome {
    /// Every output was checked and matched, and every self-check held.
    pub correct: bool,
    /// Jobs (or scenarios) attempted in the measured window.
    pub attempted: u64,
    /// Of those: failed, rejected, shed, timed out, or output mismatched.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why `correct` is false, or other facts worth a line on stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome whose per-layer metrics all start at 0 (layer idle).
    pub fn new(trace: bool) -> Self {
        let mut metrics = BTreeMap::new();
        if trace {
            for (name, _) in PER_LAYER {
                metrics.insert(*name, 0.0);
            }
        }
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics,
            notes: Vec::new(),
        }
    }

    /// Sets a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not in the catalogue");
        self.metrics.insert(name, value);
    }

    /// Marks the run incorrect with a reason.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(why);
    }

    /// Prints the notes to stderr and the result line to stdout.  The
    /// metric set printed is exactly the catalogue for the run's mode.
    pub fn emit(&self, trace: bool) {
        for note in &self.notes {
            eprintln!("perfbench: {note}");
        }
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    let text = format!("{value:?}");
    if text.contains('e') || text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input and every arrival time.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (numpy's default); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile range as a percentage of the median.
pub fn spread_pct(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (quantile(values, 0.75) - quantile(values, 0.25)) / mid * 100.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times, keeping the last product, and
/// returns it with the median wall time in seconds.  Earlier products are
/// dropped (a service is shut down) before the next repetition starts.
pub fn timed_setup<T>(setup: impl FnMut() -> T, teardown: impl FnMut(T)) -> (T, f64) {
    let (product, times) = timed_setups(setup, teardown);
    (product, median(&times))
}

/// [`timed_setup`], returning every repetition's wall time in seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut product = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = product.take() {
            teardown(previous);
        }
        let started = Instant::now();
        product = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (product.expect("SETUP_REPS > 0"), times)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One job: when it started, in seconds into the window, and its latency
/// in milliseconds.
pub type Sample = (f64, f64);

/// The time slices a window of `samples` jobs is cut into: as many as
/// leave each slice [`SLICE_SAMPLES`] jobs, at most [`MAX_SLICES`].  A
/// statistic taken per slice and then as the median over the slices moves
/// far less with a few seconds of interference from elsewhere on the host
/// than with a change that slows every slice.
pub fn slice_count(samples: usize) -> usize {
    (samples / SLICE_SAMPLES).clamp(1, MAX_SLICES)
}

/// Jobs per slice: enough that a slice's 90th percentile has ten jobs
/// beyond it.
const SLICE_SAMPLES: usize = 100;
const MAX_SLICES: usize = 32;

/// `stat` of the samples in each of `slices` equal slices of the window
/// (a job past the window's end counts in the last), and the median over
/// the slices that hold any.
fn sliced(
    samples: &[Sample],
    window: Duration,
    slices: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut buckets = vec![Vec::new(); slices];
    for &(at, value) in samples {
        let slice = (at / window.as_secs_f64() * slices as f64) as usize;
        buckets[slice.min(slices - 1)].push(value);
    }
    let stats: Vec<f64> = buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| stat(b))
        .collect();
    median(&stats)
}

/// Sets the end-to-end metrics other than peak memory, with the latency
/// percentiles taken per time slice (see [`slice_count`]).
pub fn set_end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    latencies: &[Sample],
    jobs_per_s: f64,
    window: Duration,
) {
    let slices = slice_count(latencies.len());
    out.set("setup_s", setup_s);
    out.set(
        "job_latency_p50_ms",
        sliced(latencies, window, slices, median),
    );
    out.set(
        "job_latency_p90_ms",
        sliced(latencies, window, slices, |v| quantile(v, 0.9)),
    );
    out.set("jobs_per_s", jobs_per_s);
    out.notes.push(format!(
        "{} latency samples in {slices} slice(s) of a {:.2} s window",
        latencies.len(),
        window.as_secs_f64()
    ));
}

/// The `SequentialPct` reference image of every distinct input, computed
/// once per input outside the measured window and outside set-up.
pub struct Oracle {
    images: Vec<Vec<u8>>,
}

impl Oracle {
    /// Computes the references on two threads, so the time a run spends
    /// outside its window stays short.
    pub fn compute(inputs: &[std::sync::Arc<hsi::HyperCube>], config: pct::PctConfig) -> Self {
        let reference = |cube: &hsi::HyperCube| {
            pct::SequentialPct::new(config)
                .run(cube)
                .expect("the reference pipeline accepts every generated input")
                .image
                .raw()
                .to_vec()
        };
        let (first, second) = inputs.split_at(inputs.len().div_ceil(2));
        let images = std::thread::scope(|scope| {
            let first = scope.spawn(|| first.iter().map(|c| reference(c)).collect::<Vec<_>>());
            let second: Vec<_> = second.iter().map(|c| reference(c)).collect();
            let mut images = first.join().expect("a reference computation panicked");
            images.extend(second);
            images
        });
        Self { images }
    }

    /// Whether `output` is byte-identical to the reference for `input`.
    pub fn matches(&self, input: usize, output: &pct::FusionOutput) -> bool {
        output.image.raw() == self.image(input)
    }

    /// The reference image bytes of `input`.
    pub fn image(&self, input: usize) -> &[u8] {
        &self.images[input]
    }
}

/// Scene generator settings shared by the workloads: the paper's noise
/// level, targets scaled to the cube, and a seed per input.
pub fn scene(seed: u64, side: usize, bands: usize, noise: f64) -> hsi::SceneConfig {
    let mut config = hsi::SceneConfig::paper_eval(seed);
    config.dims = hsi::CubeDims::new(side, side, bands);
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

pub fn generate(config: hsi::SceneConfig) -> std::sync::Arc<hsi::HyperCube> {
    std::sync::Arc::new(
        hsi::SceneGenerator::new(config)
            .expect("scene settings are valid")
            .generate(),
    )
}
