//! `small_jobs`: many independent submitters — an open loop of small cubes
//! at a fixed mean rate below the service's knee.  Half the jobs are pinned
//! to the standard lane, a quarter to the resilient lane, and a quarter use
//! `Route::Auto` (which sends cubes this small to the shared-memory lane),
//! over two tenants weighted 3:1.  Admission, fair-share dequeue, per-task
//! dispatch and mailboxes dominate the latency here, not the kernels.
//!
//! One thread submits on schedule with `try_submit`; a second thread
//! listens for `Terminal` events and collects outputs, so a slow job never
//! delays the timing of the next.  Each job is timed from its due time.

use crate::common::{generate, ms, scene, set_end_to_end, timed_setup, Oracle, Outcome, Rng};
use crate::layers::{self, JobSample, Plan};
use crate::Args;
use pct::PctConfig;
use service::{
    BackendKind, CubeSource, FusionService, JobHandle, JobId, JobSpec, Route, ServiceConfig,
    ServiceEvent, TenantId, TenantQuota,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use telemetry::Telemetry;

/// Distinct cubes per run; arrivals pick among them at random.
const INPUTS: usize = 64;
const SIDE: usize = 32;
const BANDS: usize = 32;
const NOISE: f64 = 0.01;
const SHARDS: usize = 4;
/// Mean arrival rate (jobs/s): about a third of the knee (190-200 jobs/s
/// on a quiet 2-core host).  Closer to the knee the latency follows the
/// host's background load: identical runs at 100 jobs/s read a median of
/// 14-17 ms and a p90 of 25-47 ms.
const RATE: f64 = 70.0;
const STANDARD_WORKERS: usize = 2;

/// One planned arrival.
struct Arrival {
    due: Duration,
    input: usize,
    route: Route,
    /// Workers its lane fans transform tasks over.
    parallelism: usize,
    tenant: TenantId,
}

/// The arrival schedule of one window: `RATE x window` arrivals with
/// exponential gaps, scaled to end exactly at the window's end so the
/// offered load does not vary with the seed; a random input, a 2:1:1 lane
/// mix and a 3:1 tenant mix.
fn schedule(rng: &mut Rng, window: Duration) -> Vec<Arrival> {
    let count = (RATE * window.as_secs_f64()).round().max(1.0) as usize;
    let gaps: Vec<f64> = (0..count).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let scale = window.as_secs_f64() / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    gaps.iter()
        .map(|gap| {
            at += gap * scale;
            let (route, parallelism) = match rng.below(4) {
                0 | 1 => (Route::Pinned(BackendKind::Standard), STANDARD_WORKERS),
                2 => (Route::Pinned(BackendKind::Resilient), 1),
                _ => (Route::Auto, 1),
            };
            Arrival {
                due: Duration::from_secs_f64(at),
                input: rng.below(INPUTS as u64) as usize,
                route,
                parallelism,
                tenant: if rng.below(4) == 3 {
                    TenantId(2)
                } else {
                    TenantId(1)
                },
            }
        })
        .collect()
}

/// A submitted job on its way to the collector.
struct Submitted {
    handle: JobHandle,
    arrival: usize,
    due: Instant,
    submitted: Instant,
}

/// What the collector learned about one job.
struct Finished {
    id: JobId,
    arrival: usize,
    from_due: Duration,
    from_submit: Duration,
    outcome: Result<pct::FusionOutput, String>,
}

/// Collects terminal outcomes until the generator hangs up and every job
/// it submitted has finished.
fn collect(
    events: service::EventSubscriber,
    submitted: mpsc::Receiver<Submitted>,
) -> Vec<Finished> {
    let mut pending: HashMap<JobId, Submitted> = HashMap::new();
    let mut early: HashMap<JobId, Instant> = HashMap::new();
    let mut finished = Vec::new();
    let mut generator_done = false;
    let resolve = |job: Submitted, at: Instant, finished: &mut Vec<Finished>| {
        let id = job.handle.id();
        let mut handle = job.handle;
        let outcome = handle
            .wait()
            .and_then(|outcome| outcome.into_result())
            .map_err(|e| e.to_string());
        finished.push(Finished {
            id,
            arrival: job.arrival,
            from_due: at.saturating_duration_since(job.due),
            from_submit: at.saturating_duration_since(job.submitted),
            outcome,
        });
    };
    loop {
        loop {
            match submitted.try_recv() {
                Ok(job) => {
                    let id = job.handle.id();
                    match early.remove(&id) {
                        Some(at) => resolve(job, at, &mut finished),
                        None => {
                            pending.insert(id, job);
                        }
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        if generator_done && pending.is_empty() {
            return finished;
        }
        if let Some(ServiceEvent::Terminal { job, .. }) =
            events.next_timeout(Duration::from_millis(1))
        {
            let at = Instant::now();
            match pending.remove(&job) {
                Some(submitted) => resolve(submitted, at, &mut finished),
                None => {
                    early.insert(job, at);
                }
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let mut rng = Rng::new(args.seed);
    let seeds: Vec<u64> = (0..INPUTS).map(|_| rng.next_u64()).collect();
    let arrivals = schedule(&mut rng, args.window);
    let telemetry = if args.trace {
        layers::traced_telemetry()
    } else {
        Telemetry::disabled()
    };
    let config = PctConfig::paper();

    let ((inputs, service), setup_s) = timed_setup(
        || {
            let inputs: Vec<_> = seeds
                .iter()
                .map(|&s| generate(scene(s, SIDE, BANDS, NOISE)))
                .collect();
            let service = FusionService::start(
                ServiceConfig::builder()
                    .standard_workers(STANDARD_WORKERS)
                    .replica_groups(1)
                    .replication_level(2)
                    .shared_memory_executors(1)
                    .queue_capacity(256)
                    .max_in_flight(16)
                    .tenant_quota(TenantId(1), TenantQuota::weighted(3))
                    .tenant_quota(TenantId(2), TenantQuota::weighted(1))
                    .telemetry(telemetry.clone())
                    .build()
                    .expect("config validates"),
            )
            .expect("service starts");
            (inputs, service)
        },
        |(_, service)| {
            service.shutdown();
        },
    );
    let oracle = Oracle::compute(&inputs, config);

    let (tx, rx) = mpsc::channel();
    let events = service.subscribe();
    let started = Instant::now();
    let mut late_max = Duration::ZERO;
    let mut late_total = Duration::ZERO;
    let mut refused = 0u64;
    let finished = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(events, rx));
        for (i, arrival) in arrivals.iter().enumerate() {
            let due = started + arrival.due;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let submitted = Instant::now();
            let late = submitted.saturating_duration_since(due);
            late_max = late_max.max(late);
            late_total += late;
            let spec = JobSpec::builder(CubeSource::InMemory(inputs[arrival.input].clone()))
                .route(arrival.route)
                .tenant(arrival.tenant)
                .shards(SHARDS)
                .config(config)
                .build()
                .expect("valid spec");
            match service.try_submit(spec) {
                Ok(handle) => tx
                    .send(Submitted {
                        handle,
                        arrival: i,
                        due,
                        submitted,
                    })
                    .expect("collector outlives the generator"),
                Err(e) => {
                    refused += 1;
                    if refused <= 3 {
                        out.notes.push(format!("submission refused: {e}"));
                    }
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let window = started.elapsed();
    let report = service.shutdown();

    out.attempted = arrivals.len() as u64;
    out.failed = refused;
    let mut latencies = Vec::new();
    let mut samples = Vec::new();
    for job in &finished {
        let input = arrivals[job.arrival].input;
        match &job.outcome {
            Ok(output) if oracle.matches(input, output) => {
                latencies.push((arrivals[job.arrival].due.as_secs_f64(), ms(job.from_due)));
                samples.push(JobSample {
                    id: job.id,
                    input,
                    parallelism: arrivals[job.arrival].parallelism,
                    latency: job.from_submit,
                    from_admission: false,
                });
            }
            Ok(_) => {
                out.failed += 1;
                out.fail(format!("job {}: output differs from SequentialPct", job.id));
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("job {}: {e}", job.id));
            }
        }
    }
    // Open-loop honesty.  By Little's law the generator's mean lateness
    // times the arrival rate is the mean number of jobs it owed the
    // schedule, so it fell behind by more than one mean interarrival when
    // its mean lateness exceeds one.  A lone stall of the host is charged
    // to the jobs it delayed (they are timed from their due times) and
    // shows in the maximum lateness.
    let late_mean = ms(late_total) / arrivals.len().max(1) as f64;
    if late_mean > 1e3 / RATE {
        out.fail(format!(
            "generator fell behind: mean lateness {late_mean:.3} ms exceeds one mean interarrival ({:.3} ms)",
            1e3 / RATE
        ));
    }
    // The schedule fixes the offered load, so throughput is taken over the
    // whole window.
    let jobs_per_s = samples.len() as f64 / window.as_secs_f64();
    set_end_to_end(&mut out, setup_s, &latencies, jobs_per_s, window);
    out.notes.push(format!(
        "generator lateness: mean {late_mean:.3} ms, max {:.3} ms",
        ms(late_max)
    ));
    if args.trace {
        out.set("bench.generator_late_ms_max", ms(late_max));
        out.set("bench.generator_late_ms_mean", late_mean);
        let plan = Plan {
            inputs: &inputs,
            config,
            shards: SHARDS,
            on_wire: false,
        };
        layers::analyse(&mut out, &telemetry, &report, &plan, &samples, window);
    }
    out
}
