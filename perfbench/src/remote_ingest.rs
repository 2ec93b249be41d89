//! `remote_ingest`: the front door of a multi-process deployment.  A
//! directory of 210-band cube files in rotating BSQ/BIL/BIP layouts, where
//! every fourth file repeats an earlier scene re-exported in another
//! interleave, is replayed through `IngestPump` into a pinned remote lane
//! of two workers speaking the wire protocol over loopback TCP.  Wire
//! framing and transport plus the 210-band eigensolver dominate here;
//! screening is minor, so this is the control for screening changes.
//!
//! The directory is replayed pass after pass until the window is spent.
//! A second thread timestamps each job's `Admitted` and `Terminal` events,
//! giving its latency from admission to fused output.

use crate::common::{
    generate, mean, median, ms, scene, set_end_to_end, timed_setup, Oracle, Outcome, Rng,
};
use crate::layers::{self, JobSample, Plan};
use crate::Args;
use hsi::io::{write_cube_as, Interleave};
use ingest::store::content_hash;
use ingest::{DirectorySource, IngestConfig, IngestPump, SheddingPolicy};
use pct::PctConfig;
use service::{
    BackendKind, EventSubscriber, FusionService, JobId, RemoteWorkerSpec, Route, ServiceConfig,
    ServiceEvent, TenantId,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use telemetry::Telemetry;

const SIDE: usize = 64;
const BANDS: usize = 210;
/// Low but non-zero: with no noise every seed yields the same cube and the
/// store would fold the whole directory into one entry.
const NOISE: f64 = 0.001;
/// Files per pass; every fourth is a duplicate of an earlier scene.
const FILES: usize = 8;
const DUPLICATES: usize = FILES / 4;
const DISTINCT: usize = FILES - DUPLICATES;
const SHARDS: usize = 4;
const REMOTE_WORKERS: usize = 2;

/// One file of the directory: which distinct scene it holds, and how.
struct FileSpec {
    name: String,
    input: usize,
    interleave: Interleave,
}

/// The directory plan: distinct scenes rotate through the three layouts;
/// each duplicate repeats a random earlier scene in a different layout.
fn plan_files(rng: &mut Rng) -> Vec<FileSpec> {
    let mut files: Vec<FileSpec> = Vec::with_capacity(FILES);
    let mut next_input = 0;
    for i in 0..FILES {
        let (input, interleave) = if i % 4 == 3 {
            let original = &files[rng.below(i as u64) as usize];
            let layout = Interleave::ALL
                .iter()
                .position(|l| *l == original.interleave)
                .expect("every layout is in ALL");
            (original.input, Interleave::ALL[(layout + 1) % 3])
        } else {
            next_input += 1;
            (next_input - 1, Interleave::ALL[(next_input - 1) % 3])
        };
        files.push(FileSpec {
            name: format!("{i:02}_scene{input}_{}.hsif", interleave.label()),
            input,
            interleave,
        });
    }
    files
}

/// Admission and terminal receipt times per job, stamped by a listener.
type EventTimes = BTreeMap<JobId, (Option<Instant>, Option<Instant>)>;

/// Stamps `Admitted`/`Terminal` events until told to stop and every
/// admitted job has reached a terminal state (or a grace period ends).
fn listen(events: EventSubscriber, stop: mpsc::Receiver<()>) -> EventTimes {
    let mut times = EventTimes::new();
    let mut stopping: Option<Instant> = None;
    loop {
        if stopping.is_none() && stop.try_recv().is_ok() {
            stopping = Some(Instant::now());
        }
        if let Some(since) = stopping {
            let settled = times.values().all(|(_, t)| t.is_some());
            if settled || since.elapsed() > Duration::from_secs(5) {
                return times;
            }
        }
        match events.next_timeout(Duration::from_millis(1)) {
            Some(ServiceEvent::Admitted { job, .. }) => {
                times.entry(job).or_default().0 = Some(Instant::now());
            }
            Some(ServiceEvent::Terminal { job, .. }) => {
                times.entry(job).or_default().1 = Some(Instant::now());
            }
            _ => {}
        }
    }
}

fn write_directory(dir: &Path, files: &[FileSpec], inputs: &[std::sync::Arc<hsi::HyperCube>]) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("stale data directory removable");
    }
    std::fs::create_dir_all(dir).expect("data directory creatable");
    for file in files {
        write_cube_as(&inputs[file.input], file.interleave, dir.join(&file.name))
            .expect("cube file written");
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let mut rng = Rng::new(args.seed);
    let seeds: Vec<u64> = (0..DISTINCT).map(|_| rng.next_u64()).collect();
    let files = plan_files(&mut rng);
    let dir: PathBuf = args
        .data_dir
        .join(format!("remote_ingest-{}", std::process::id()));
    let telemetry = if args.trace {
        layers::traced_telemetry()
    } else {
        Telemetry::disabled()
    };
    let config = PctConfig::paper();
    let ingest = IngestConfig {
        shedding: SheddingPolicy::unbounded(),
        route: Route::Pinned(BackendKind::Remote),
        shards: SHARDS,
        tenant: TenantId(1),
        pct: config,
        ..IngestConfig::default()
    };

    let ((inputs, service), setup_s) = timed_setup(
        || {
            let inputs: Vec<_> = seeds
                .iter()
                .map(|&s| generate(scene(s, SIDE, BANDS, NOISE)))
                .collect();
            write_directory(&dir, &files, &inputs);
            let service = FusionService::start(
                ServiceConfig::builder()
                    .standard_workers(0)
                    .replica_groups(0)
                    .shared_memory_executors(0)
                    .remote_workers(vec![RemoteWorkerSpec::Thread; REMOTE_WORKERS])
                    .queue_capacity(4 * FILES)
                    .max_in_flight(REMOTE_WORKERS)
                    .telemetry(telemetry.clone())
                    .build()
                    .expect("config validates"),
            )
            .expect("service starts with its remote workers connected");
            (inputs, service)
        },
        |(_, service)| {
            service.shutdown();
        },
    );
    let oracle = Oracle::compute(&inputs, config);

    let (stop, stopped) = mpsc::channel();
    let events = service.subscribe();
    let mut pass_inputs: Vec<usize> = Vec::new();
    let (mut hits, mut misses, mut shed) = (0u64, 0u64, 0u64);
    // Jobs completed per second of each pass: the directory is the unit of
    // work, so throughput is the median over passes.
    let mut pass_rates = Vec::new();
    let started = Instant::now();
    let times = std::thread::scope(|scope| {
        let listener = scope.spawn(move || listen(events, stopped));
        while started.elapsed() < args.window {
            let pass_started = Instant::now();
            let run = IngestPump::new(&service, ingest.clone())
                .run(vec![Box::new(DirectorySource::new(&dir))])
                .expect("the pump replays the directory");
            let totals = run.report.totals();
            pass_rates
                .push(run.report.jobs_completed as f64 / pass_started.elapsed().as_secs_f64());
            hits += totals.store_hits;
            misses += totals.store_misses;
            shed += totals.cubes_shed();
            out.attempted += totals.cubes_seen;
            out.failed += totals.cubes_shed() + totals.decode_errors;
            if (totals.store_hits, totals.store_misses) != (DUPLICATES as u64, DISTINCT as u64) {
                out.fail(format!(
                    "store saw {} hits and {} misses; the directory holds {DUPLICATES} duplicates of {DISTINCT} scenes",
                    totals.store_hits, totals.store_misses
                ));
            }
            for job in &run.jobs {
                let file = files
                    .iter()
                    .find(|f| job.tag.ends_with(&f.name))
                    .expect("every job comes from a planned file");
                pass_inputs.push(file.input);
                match job.outcome.output() {
                    Some(output) if oracle.matches(file.input, output) => {}
                    Some(_) => {
                        out.failed += 1;
                        out.fail(format!("{}: output differs from SequentialPct", file.name));
                    }
                    None => {
                        out.failed += 1;
                        out.notes.push(format!(
                            "{}: job ended {:?}",
                            file.name,
                            job.outcome.status()
                        ));
                    }
                }
            }
        }
        stop.send(()).expect("listener is running");
        listener.join().expect("listener thread panicked")
    });
    let window = started.elapsed();
    let report = service.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // The pump submits in file order from one thread, so job ids ascend in
    // the order its runs list their jobs.
    if times.len() != pass_inputs.len() {
        out.fail(format!(
            "{} jobs admitted but the pump reported {}",
            times.len(),
            pass_inputs.len()
        ));
    }
    let mut latencies = Vec::new();
    let mut samples = Vec::new();
    for ((&id, &(admitted, terminal)), &input) in times.iter().zip(&pass_inputs) {
        let (Some(admitted), Some(terminal)) = (admitted, terminal) else {
            out.fail(format!("job {id}: no admission or terminal event seen"));
            continue;
        };
        let latency = terminal.saturating_duration_since(admitted);
        latencies.push((
            admitted.saturating_duration_since(started).as_secs_f64(),
            ms(latency),
        ));
        samples.push(JobSample {
            id,
            input,
            parallelism: REMOTE_WORKERS,
            latency,
            from_admission: true,
        });
    }
    let jobs_per_s = median(&pass_rates);
    set_end_to_end(&mut out, setup_s, &latencies, jobs_per_s, window);
    if args.trace {
        out.set("ingest.store_hits", hits as f64);
        out.set("ingest.store_misses", misses as f64);
        out.set("ingest.shed", shed as f64);
        if let Some(decode) = telemetry.histogram("ingest_decode_seconds", &[]) {
            out.set(
                "ingest.decode_ms_per_cube",
                ms(decode.sum()) / decode.count().max(1) as f64,
            );
        }
        let hash_ms: Vec<f64> = inputs
            .iter()
            .map(|cube| {
                (0..3)
                    .map(|_| {
                        let started = Instant::now();
                        std::hint::black_box(content_hash(cube));
                        ms(started.elapsed())
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        out.set("ingest.hash_ms_per_cube", mean(&hash_ms));
        let plan = Plan {
            inputs: &inputs,
            config,
            shards: SHARDS,
            on_wire: true,
        };
        layers::analyse(&mut out, &telemetry, &report, &plan, &samples, window);
    }
    out
}
