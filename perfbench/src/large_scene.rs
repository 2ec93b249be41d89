//! `large_scene`: one analyst waiting on one big scene at a time — a
//! closed loop with one client.  Each job is a paper-band scene pinned to
//! the standard lane, where the serial seeded screening chain dominates.

use crate::common::{generate, ms, scene, set_end_to_end, timed_setup, Oracle, Outcome, Rng};
use crate::layers::{self, JobSample, Plan};
use crate::Args;
use pct::PctConfig;
use service::{BackendKind, CubeSource, FusionService, JobSpec, ServiceConfig, TenantId};
use std::time::Instant;
use telemetry::Telemetry;

/// Distinct scenes per run, cycled through by the client.
const INPUTS: usize = 6;
const SIDE: usize = 96;
const BANDS: usize = 105;
const NOISE: f64 = 0.01;
const SHARDS: usize = 4;
const WORKERS: usize = 2;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let mut rng = Rng::new(args.seed);
    let seeds: Vec<u64> = (0..INPUTS).map(|_| rng.next_u64()).collect();
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
                    .standard_workers(WORKERS)
                    .replica_groups(0)
                    .shared_memory_executors(0)
                    .queue_capacity(4)
                    .max_in_flight(1)
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

    let mut latencies = Vec::new();
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut job = 0usize;
    while started.elapsed() < args.window {
        let input = job % INPUTS;
        job += 1;
        out.attempted += 1;
        let spec = JobSpec::builder(CubeSource::InMemory(inputs[input].clone()))
            .pinned(BackendKind::Standard)
            .tenant(TenantId(1))
            .shards(SHARDS)
            .config(config)
            .build()
            .expect("valid spec");
        let submitted = Instant::now();
        let result = service.submit(spec).and_then(|mut handle| {
            let id = handle.id();
            handle.wait().map(|outcome| (id, outcome))
        });
        let latency = submitted.elapsed();
        match result {
            Ok((id, outcome)) => match outcome.output() {
                Some(output) if oracle.matches(input, output) => {
                    latencies.push((submitted.duration_since(started).as_secs_f64(), ms(latency)));
                    samples.push(JobSample {
                        id,
                        input,
                        parallelism: WORKERS,
                        latency,
                        from_admission: false,
                    });
                }
                Some(_) => {
                    out.failed += 1;
                    out.fail(format!("job {id}: output differs from SequentialPct"));
                }
                None => out.failed += 1,
            },
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("job failed: {e}"));
            }
        }
    }
    let window = started.elapsed();
    let report = service.shutdown();
    let jobs_per_s = samples.len() as f64 / window.as_secs_f64();
    set_end_to_end(&mut out, setup_s, &latencies, jobs_per_s, window);
    if args.trace {
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
