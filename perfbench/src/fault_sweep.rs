//! `fault_sweep`: the deterministic cluster simulator running the real
//! fusion protocol under kill, partition, loss, reorder and straggler
//! scenarios — the only workload that exercises `sim`, `netsim` and the
//! `resilience` detection and regeneration paths.
//!
//! Set-up enumerates the seeded sweep's scenarios and generates their
//! cubes; the reference images are computed once per distinct cube; the
//! window then runs the scenarios through `SimHarness` in two streams side
//! by side, one per core, each scenario a simulated fusion job, and checks
//! every fused image byte for byte and every virtual makespan against its
//! bound.
//!
//! Two streams rather than one: a sweep is embarrassingly parallel, and on
//! a shared host one core's speed drifts by a fifth over tens of seconds,
//! at times in the opposite direction from the other core's, so a run over
//! both reads less noisy than a run on one.
//!
//! Set-up takes about ten milliseconds and, on a shared host, flips between
//! two speeds a factor of two apart in streaks of up to several seconds.
//! Beyond the usual three repetitions before the window, stream 0 repeats
//! it once a second through the window (about 0.5% of that stream's time),
//! so `setup_s` is the median over the same host conditions as the window's
//! figures rather than over the moment before it.

use crate::common::{
    median, ms, quantile, set_end_to_end, slice_count, timed_setups, Oracle, Outcome, Sample,
};
use crate::Args;
use hsi::HyperCube;
use sim::{ScenarioReport, SimHarness, Sweep};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scenarios enumerated per run.  The window cycles through them if it
/// outlasts them, so set-up cost does not depend on simulator speed.
const SCENARIOS: usize = 20_000;
/// The per-layer fault counters cover this prefix of the sweep, which
/// every run completes, so they repeat exactly for a given seed.
const COUNTED: usize = 1_000;
/// Scenario streams run side by side: one per core of the 2-core host the
/// load generator is limited to.  Stream `k` runs scenarios `k`,
/// `k + STREAMS`, … of the sweep, wrapping around.
const STREAMS: usize = 2;
/// How often stream 0 repeats the set-up during the window.
const SETUP_EVERY: Duration = Duration::from_secs(1);

type CubeKey = (usize, usize, usize, u64);

/// Scenarios per second: in each time slice of the window, the scenarios
/// that started in it over the time from its first start to the next
/// slice's first start (or the window's end); the median over slices.
fn sliced_rate(samples: &[Sample], window: Duration, end_s: f64) -> f64 {
    let slices = slice_count(samples.len());
    let slice_s = window.as_secs_f64() / slices as f64;
    let first_in = |k: usize| samples.partition_point(|&(at, _)| at < k as f64 * slice_s);
    let rates: Vec<f64> = (0..slices)
        .filter_map(|k| {
            let (lo, hi) = (first_in(k), first_in(k + 1));
            let until = samples.get(hi).map_or(end_s, |&(at, _)| at);
            (hi > lo).then(|| (hi - lo) as f64 / (until - samples[lo].0))
        })
        .collect();
    median(&rates)
}

/// The sweep's scenarios, each one's cube index, and the distinct cubes.
type Inputs = (Vec<sim::Scenario>, Vec<usize>, Vec<Arc<HyperCube>>);

/// Set-up: enumerates the seeded sweep and generates its distinct cubes.
fn set_up(seed: u64) -> Inputs {
    let scenarios = Sweep::new(seed, SCENARIOS).scenarios();
    let mut index: BTreeMap<CubeKey, usize> = BTreeMap::new();
    let mut cubes: Vec<Arc<HyperCube>> = Vec::new();
    let keys: Vec<usize> = scenarios
        .iter()
        .map(|sc| {
            *index.entry(sc.cube.key()).or_insert_with(|| {
                cubes.push(Arc::new(sc.cube.generate()));
                cubes.len() - 1
            })
        })
        .collect();
    (scenarios, keys, cubes)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);

    let ((scenarios, keys, cubes), mut setup_times) = timed_setups(|| set_up(args.seed), drop);
    let config = scenarios[0].config;
    assert!(
        scenarios.iter().all(|sc| sc.config == config),
        "a sweep fuses every scenario with one pipeline configuration"
    );
    let oracle = Oracle::compute(&cubes, config);

    let started = Instant::now();
    let sweep = SweepInputs {
        scenarios: &scenarios,
        keys: &keys,
        cubes: &cubes,
        oracle: &oracle,
        started,
        window: args.window,
        trace: args.trace,
        seed: args.seed,
    };
    let streams: Vec<Stream> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..STREAMS)
            .map(|k| scope.spawn(move || sweep.stream(k)))
            .collect();
        let mut streams = vec![sweep.stream(0)];
        streams.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("a scenario stream panicked")),
        );
        streams
    });
    let mut latencies: Vec<Sample> = Vec::new();
    let mut counted: Vec<ScenarioReport> = Vec::new();
    for stream in streams {
        out.attempted += stream.attempted;
        out.failed += stream.failed;
        for why in stream.failures {
            out.fail(why);
        }
        latencies.extend(stream.latencies);
        counted.extend(stream.counted);
        setup_times.extend(stream.setup_times);
    }
    latencies.sort_by(|a, b| a.0.total_cmp(&b.0));

    let jobs_per_s = sliced_rate(&latencies, args.window, started.elapsed().as_secs_f64());
    set_end_to_end(
        &mut out,
        median(&setup_times),
        &latencies,
        jobs_per_s,
        args.window,
    );
    if args.trace {
        if counted.len() < COUNTED {
            out.fail(format!(
                "only {} scenarios ran; the fault counters need the first {COUNTED}",
                counted.len()
            ));
        }
        let detection_ms: Vec<f64> = counted
            .iter()
            .flat_map(|r| r.detection_latency_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        let total = |f: fn(&ScenarioReport) -> u32| -> f64 {
            counted.iter().map(|r| f64::from(f(r))).sum()
        };
        out.set(
            "sim.scenario_ms_p50",
            median(&latencies.iter().map(|&(_, ms)| ms).collect::<Vec<_>>()),
        );
        out.set(
            "sim.detection_latency_p50_virtual_ms",
            quantile(&detection_ms, 0.5),
        );
        out.set(
            "sim.detection_latency_p99_virtual_ms",
            quantile(&detection_ms, 0.99),
        );
        out.set("sim.detections", total(|r| r.detections));
        out.set("sim.false_positives", total(|r| r.false_positives));
        out.set("sim.regenerations", total(|r| r.regenerations));
        out.set("sim.retransmits", total(|r| r.retransmits));
        out.set("bench.jobs_traced", latencies.len() as f64);
    }
    out
}

/// What every stream reads: the sweep, its inputs and references, and the
/// window.
#[derive(Clone, Copy)]
struct SweepInputs<'a> {
    scenarios: &'a [sim::Scenario],
    keys: &'a [usize],
    cubes: &'a [Arc<HyperCube>],
    oracle: &'a Oracle,
    started: Instant,
    window: Duration,
    trace: bool,
    seed: u64,
}

/// What one stream ran and found.
struct Stream {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    latencies: Vec<Sample>,
    /// Reports of the stream's share of the sweep's first [`COUNTED`]
    /// scenarios.
    counted: Vec<ScenarioReport>,
    /// Wall times in seconds of the set-ups repeated in the window.
    setup_times: Vec<f64>,
}

impl SweepInputs<'_> {
    /// Runs stream `k` until the window is spent.
    fn stream(&self, k: usize) -> Stream {
        let mut stream = Stream {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            latencies: Vec::new(),
            counted: Vec::new(),
            setup_times: Vec::new(),
        };
        let mut n = k;
        let mut next_setup = SETUP_EVERY;
        while self.started.elapsed() < self.window {
            if k == 0 && self.started.elapsed() >= next_setup {
                next_setup += SETUP_EVERY;
                let begun = Instant::now();
                drop(set_up(self.seed));
                stream.setup_times.push(begun.elapsed().as_secs_f64());
            }
            let i = n % self.scenarios.len();
            let sc = &self.scenarios[i];
            stream.attempted += 1;
            let begun = Instant::now();
            let result = SimHarness::new(sc.clone()).run_on(Arc::clone(&self.cubes[self.keys[i]]));
            let took = begun.elapsed();
            match result {
                Ok(report) => {
                    let identical = report.image.raw() == self.oracle.image(self.keys[i]);
                    if identical && report.within_bound {
                        let at = begun.duration_since(self.started).as_secs_f64();
                        stream.latencies.push((at, ms(took)));
                    } else {
                        stream.failed += 1;
                        stream.failures.push(format!(
                            "{}: byte-identical {identical}, within bound {}",
                            sc.name, report.within_bound
                        ));
                    }
                    if n < COUNTED && self.trace {
                        stream.counted.push(report);
                    }
                }
                Err(failure) => {
                    stream.failed += 1;
                    stream
                        .failures
                        .push(format!("{}: {}", failure.scenario, failure.message));
                }
            }
            n += STREAMS;
        }
        stream
    }
}
