//! The traced run's per-layer ledger.
//!
//! Two sources, both outside the program:
//!
//! * the spans the service already records (`job` → `queued` → `screen` /
//!   `derive` / `transform`, or `inline` on the shared-memory lane), read
//!   back from a [`Telemetry`] handle after the measured window, and
//! * a replay of each job's kernels through the crates' public functions —
//!   the same task messages the scheduler builds (`partition_rows` shards,
//!   a seeded screening chain, one derive task, one transform task per
//!   shard) run through `pct::distributed::handle_task`, the function every
//!   worker runs, plus the linalg, transform and colour-map kernels one by
//!   one, and the wire codec on the same messages for remote-lane jobs.
//!
//! The ledger then checks that the layers add up: per job, queue wait plus
//! the phase spans must equal the latency the client saw, and summed over
//! the window each phase's kernels must fit inside its spans.

use crate::common::{mean, median, ms, quantile, spread_pct, Outcome};
use hsi::partition::partition_rows;
use hsi::{CubeView, HyperCube};
use linalg::covariance::{mean_vector, CovarianceAccumulator};
use linalg::{sorted_eigenpairs, JacobiOptions, SymMatrix, Vector};
use pct::colormap::{map_cube, ComponentScale};
use pct::distributed::handle_task;
use pct::messages::PctMessage;
use pct::pipeline::{transform_view, TransformSpec};
use pct::{PctConfig, SequentialPct};
use service::{BackendKind, JobId, ServiceReport, TenantId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{MonotonicClock, Telemetry};
use wire::{decode_body, encode_message, FrameReader, WireMessage};

/// Flight-recorder capacity of a traced run: large enough that no span of
/// the measured window is evicted (the ledger fails if one is).
const RECORDER_CAPACITY: usize = 1 << 19;

/// Layers-add-up tolerance: `|latency - (queue wait + phases)|` may be at
/// most this many milliseconds plus [`RESIDUAL_TOL_FRAC`] of the latency.
/// The slack covers the hand-off from the scheduler to the waiting client
/// thread, which no span covers.
const RESIDUAL_TOL_MS: f64 = 3.0;
const RESIDUAL_TOL_FRAC: f64 = 0.05;
/// The share of jobs whose hand-off may exceed that tolerance — the host
/// descheduling the client thread, which on a busy 2-core host happened to
/// 0.5-1.4% of `small_jobs` jobs — before the ledger counts as broken.
const RESIDUAL_MISS_LIMIT: f64 = 0.05;

/// Kernel-fits-phase tolerance: summed over the window's jobs, a phase's
/// replayed kernels may exceed its spans by at most this fraction, to
/// absorb timing noise on a shared host.
const KERNEL_TOL_FRAC: f64 = 0.25;

/// Repetitions of each kernel-ledger timing (rank-one update, Jacobi).
const LEDGER_REPS: usize = 5;

/// Replayed kernels report the fastest of this many runs, unless the runs
/// already add up to [`KERNEL_REPS_BUDGET_MS`]: a task long enough to
/// reach it (a `large_scene` screening task) varies little between runs,
/// and repeating it would stretch the traced run by tens of seconds.
const KERNEL_REPS: usize = 3;
const KERNEL_REPS_BUDGET_MS: f64 = 300.0;

/// Rank-one updates per kernel-ledger timing: the first this many centred
/// pixel vectors of the job's own cube, at the workload's band count.
const LEDGER_VECTORS: usize = 1024;

/// A telemetry handle for a traced run.
pub fn traced_telemetry() -> Telemetry {
    Telemetry::with_clock(Arc::new(MonotonicClock::new()), RECORDER_CAPACITY)
}

/// One completed job as the client saw it.
pub struct JobSample {
    pub id: JobId,
    /// Index of the job's input among the workload's distinct inputs.
    pub input: usize,
    /// Workers of its lane that transform tasks fan out over.
    pub parallelism: usize,
    /// Client-observed latency.
    pub latency: Duration,
    /// Whether `latency` starts at admission (so the queue wait is not
    /// part of it) rather than at submission.
    pub from_admission: bool,
}

/// Span totals of one job, by name.
#[derive(Default)]
struct JobSpans {
    queued: f64,
    screen: f64,
    derive: f64,
    transform: f64,
    inline: f64,
}

impl JobSpans {
    fn phases(&self) -> f64 {
        self.screen + self.derive + self.transform + self.inline
    }
}

/// Kernel timings of one input, replayed through the public kernels.
struct Kernels {
    pixels: usize,
    payload_mb: f64,
    bands: usize,
    unique: usize,
    /// `handle_task` time of each screening task of the chain (serial).
    screen_ms: f64,
    /// `handle_task` time of the derive task.
    derive_ms: f64,
    /// `handle_task` time of each transform task (fanned out).
    transform_task_ms: Vec<f64>,
    /// `SequentialPct::run` time: the shared-memory lane's whole job (0 for
    /// the message lanes).
    sequential_ms: f64,
    covariance_ms: f64,
    eigen_ms: Vec<f64>,
    rank_one_ms: Vec<f64>,
    rank_one_reference_ms: Vec<f64>,
    transform_ms: f64,
    colormap_ms: f64,
    /// Codec cost of every task message and reply, when on the wire.
    wire: Option<WireCost>,
}

#[derive(Default, Clone, Copy)]
struct WireCost {
    encode_ms: f64,
    decode_ms: f64,
    frames: usize,
    bytes: usize,
}

impl WireCost {
    /// Encodes `msg` to a frame, then reassembles and decodes it the way
    /// the receiving side does, timing both halves.
    fn add(&mut self, msg: &PctMessage) {
        let wire = WireMessage::Pct(msg.clone());
        let started = Instant::now();
        let frame = encode_message(&wire);
        self.encode_ms += ms(started.elapsed());
        let started = Instant::now();
        let mut reader = FrameReader::new();
        reader.push(&frame);
        let body = reader
            .next_frame()
            .expect("a frame we just encoded is well-formed")
            .expect("the frame is complete");
        let decoded = decode_body(&body).expect("a body we just encoded decodes");
        self.decode_ms += ms(started.elapsed());
        std::hint::black_box(decoded);
        self.frames += 1;
        self.bytes += frame.len();
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, ms(started.elapsed()))
}

/// Runs `f` once on a fresh thread and times it.  Kernel cost depends on
/// where the allocator puts its buffers (a 210-band Jacobi solve varies by
/// about 20% between heap layouts); a fresh thread samples a new layout
/// each time instead of repeating one, as reruns on one thread do.
fn timed_fresh<T: Send>(f: &mut (impl FnMut() -> T + Send)) -> (T, f64) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| timed(f))
            .join()
            .expect("kernel replay panicked")
    })
}

/// The fastest of up to [`KERNEL_REPS`] fresh-thread runs of `f` — its
/// cost in the kindest heap layout and with the least interference —
/// stopping early once the runs add up to [`KERNEL_REPS_BUDGET_MS`].
fn fastest<T: Send>(mut f: impl FnMut() -> T + Send) -> (T, f64) {
    let (mut value, mut best) = timed_fresh(&mut f);
    let mut spent = best;
    for _ in 1..KERNEL_REPS {
        if spent >= KERNEL_REPS_BUDGET_MS {
            break;
        }
        let (v, t) = timed_fresh(&mut f);
        spent += t;
        if t < best {
            value = v;
            best = t;
        }
    }
    (value, best)
}

/// Replays one input's kernels as the scheduler would split them into
/// tasks, adding the codec cost of every message on the wire.  A job of
/// the shared-memory lane runs `SequentialPct` whole, which screens the
/// cube in one pass, so its parts are replayed as a single shard.
fn replay(cube: &Arc<HyperCube>, plan: &Plan, inline: bool) -> Kernels {
    let config = plan.config;
    let shards = if inline { 1 } else { plan.shards };
    let specs = partition_rows(cube.dims(), shards).expect("the service accepted this split");
    let views: Vec<CubeView> = specs
        .iter()
        .map(|s| s.view(cube).expect("shard lies inside the cube"))
        .collect();
    let mut wire = (plan.on_wire && !inline).then(WireCost::default);
    let mut send = |msg: &PctMessage| {
        if let Some(w) = wire.as_mut() {
            w.add(msg);
        }
    };

    // Screening: the seeded chain, one task per shard in shard order.
    let mut unique: Vec<Vector> = Vec::new();
    let mut screen_ms = 0.0;
    for (task, view) in views.iter().enumerate() {
        let msg = PctMessage::ScreenSeededTask {
            task,
            view: view.clone(),
            seed: unique.clone(),
            threshold_rad: config.screening_angle_rad,
        };
        send(&msg);
        let (reply, t) = fastest(|| handle_task(msg.clone()));
        screen_ms += t;
        let reply = reply.expect("screening tasks reply");
        send(&reply);
        match reply {
            PctMessage::SeededUnique { accepted, .. } => unique.extend(accepted),
            other => panic!("screening replied {}", other.kind()),
        }
    }

    // Derive: one task over the merged unique set.
    let msg = PctMessage::DeriveTask {
        task: views.len(),
        unique: unique.clone(),
        config,
    };
    send(&msg);
    let (reply, derive_ms) = fastest(|| handle_task(msg.clone()));
    let reply = reply.expect("derive tasks reply");
    send(&reply);
    let PctMessage::DerivedTransform {
        mean: centre,
        transform,
        eigenvalues,
        ..
    } = reply
    else {
        panic!("derive replied {}", reply.kind());
    };

    // The derive task's parts, one kernel at a time.
    let (covariance, covariance_ms) = fastest(|| {
        let centre = mean_vector(&unique).expect("non-empty unique set");
        let mut acc = CovarianceAccumulator::new(centre);
        acc.push_all(&unique).expect("uniform band count");
        acc.finalize().expect("non-empty unique set")
    });
    let bands = cube.bands();
    let centred: Vec<Vector> = cube
        .pixel_vectors()
        .into_iter()
        .take(LEDGER_VECTORS)
        .map(|p| p.sub_vec(&centre).expect("uniform band count"))
        .collect();
    let mut eigen_ms = Vec::new();
    let mut rank_one_ms = Vec::new();
    let mut rank_one_reference_ms = Vec::new();
    for _ in 0..LEDGER_REPS {
        let (pairs, t) =
            timed_fresh(&mut || sorted_eigenpairs(&covariance, JacobiOptions::default()));
        eigen_ms.push(t);
        std::hint::black_box(pairs.expect("covariance is symmetric"));
        let (blocked, t) = timed_fresh(&mut || {
            let mut sum = SymMatrix::zeros(bands);
            for x in &centred {
                sum.rank_one_update(std::hint::black_box(x))
                    .expect("bands match");
            }
            sum
        });
        rank_one_ms.push(t);
        let (reference, t) = timed_fresh(&mut || {
            let mut sum = SymMatrix::zeros(bands);
            for x in &centred {
                sum.rank_one_update_reference(std::hint::black_box(x))
                    .expect("bands match");
            }
            sum
        });
        rank_one_reference_ms.push(t);
        assert_eq!(
            blocked.packed(),
            reference.packed(),
            "blocked rank-one update drifted from the reference walk"
        );
    }

    // Transform: one task per shard, then the same work split into the
    // projection and the colour map.
    let scale_structs = ComponentScale::from_eigenvalues(&eigenvalues, 3);
    let scales: Vec<(f64, f64)> = scale_structs.iter().map(|s| (s.min, s.max)).collect();
    let spec = TransformSpec {
        mean: centre.clone(),
        transform: transform.clone(),
        eigenvalues,
    };
    let mut transform_task_ms = Vec::new();
    let mut transform_ms = 0.0;
    let mut colormap_ms = 0.0;
    for (i, view) in views.iter().enumerate() {
        let msg = PctMessage::TransformTask {
            task: views.len() + 1 + i,
            view: view.clone(),
            mean: centre.clone(),
            transform: transform.clone(),
            scales: scales.clone(),
        };
        send(&msg);
        let (reply, t) = fastest(|| handle_task(msg.clone()));
        transform_task_ms.push(t);
        send(&reply.expect("transform tasks reply"));
        let (projected, t) = fastest(|| transform_view(&spec, view).expect("bands match"));
        transform_ms += t;
        let (image, t) = fastest(|| map_cube(&projected, &scale_structs));
        colormap_ms += t;
        std::hint::black_box(image);
    }

    let sequential_ms = if inline {
        fastest(|| SequentialPct::new(config).run(cube)).1
    } else {
        0.0
    };

    Kernels {
        pixels: cube.pixels(),
        payload_mb: cube.byte_size() as f64 / (1024.0 * 1024.0),
        bands,
        unique: unique.len(),
        screen_ms,
        derive_ms,
        transform_task_ms,
        sequential_ms,
        covariance_ms,
        eigen_ms,
        rank_one_ms,
        rank_one_reference_ms,
        transform_ms,
        colormap_ms,
        wire,
    }
}

/// How a workload's jobs ran: enough for the ledger to rebuild their
/// kernels.
pub struct Plan<'a> {
    /// The workload's distinct inputs.
    pub inputs: &'a [Arc<HyperCube>],
    pub config: PctConfig,
    /// Shards per job on the message lanes.
    pub shards: usize,
    /// Whether message-lane jobs cross the wire (the remote lane).
    pub on_wire: bool,
}

/// Analyses a traced window: span accounting per job, kernel replay per
/// input, the add-up checks, and every service/pct/linalg/wire metric.
pub fn analyse(
    out: &mut Outcome,
    telemetry: &Telemetry,
    report: &ServiceReport,
    plan: &Plan,
    jobs: &[JobSample],
    window: Duration,
) {
    if telemetry.dropped_records() > 0 {
        out.fail(format!(
            "flight recorder evicted {} records; the ledger would be incomplete",
            telemetry.dropped_records()
        ));
    }
    let mut spans: HashMap<JobId, JobSpans> = HashMap::new();
    for span in telemetry.spans() {
        let Some(job) = span.job else { continue };
        let d = span.duration_nanos() as f64 / 1e6;
        let entry = spans.entry(job).or_default();
        match span.name {
            "queued" => entry.queued += d,
            "screen" => entry.screen += d,
            "derive" => entry.derive += d,
            "transform" => entry.transform += d,
            "inline" => entry.inline += d,
            _ => {}
        }
    }

    // Replay each (input, lane kind) once; jobs sharing an input share it.
    let mut replays: BTreeMap<(usize, bool), Kernels> = BTreeMap::new();
    for job in jobs {
        let inline = spans.get(&job.id).is_some_and(|s| s.inline > 0.0);
        replays
            .entry((job.input, inline))
            .or_insert_with(|| replay(&plan.inputs[job.input], plan, inline));
    }

    let mut residuals = Vec::new();
    let mut queue_waits = Vec::new();
    let mut per_job: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |name: &'static str, v: f64| per_job.entry(name).or_default().push(v);
    let mut wire_jobs: Vec<(WireCost, f64)> = Vec::new();
    let mut misses = 0usize;
    // Per phase: replayed kernel time and span time, summed over jobs.
    let mut fits: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    let mut fit = |phase: &'static str, kernel: f64, span: f64| {
        let entry = fits.entry(phase).or_default();
        entry.0 += kernel;
        entry.1 += span;
    };
    for job in jobs {
        let Some(s) = spans.get(&job.id) else {
            out.fail(format!("job {} left no spans", job.id));
            continue;
        };
        let inline = s.inline > 0.0;
        let k = &replays[&(job.input, inline)];

        // Layers add up: queue wait + phases = what the client saw.
        let accounted = if job.from_admission {
            s.phases()
        } else {
            s.queued + s.phases()
        };
        let latency = ms(job.latency);
        let residual = latency - accounted;
        residuals.push(residual.abs());
        if residual.abs() > RESIDUAL_TOL_MS + RESIDUAL_TOL_FRAC * latency {
            misses += 1;
            if misses <= 5 {
                out.notes.push(format!(
                    "job {}: latency {latency:.3} ms but queue {:.3} + phases {:.3} ms",
                    job.id,
                    s.queued,
                    s.phases()
                ));
            }
        }
        queue_waits.push(s.queued);

        // Kernels fit inside their phases.  Transform tasks fan out over
        // the lane, so that phase's floor is the longer of its longest task
        // and its total work spread over the lane's workers.
        let transform_floor = k
            .transform_task_ms
            .iter()
            .copied()
            .fold(0.0, f64::max)
            .max(k.transform_task_ms.iter().sum::<f64>() / job.parallelism.max(1) as f64);
        let kernel = if inline {
            fit("inline", k.sequential_ms, s.inline);
            k.sequential_ms
        } else {
            fit("screen", k.screen_ms, s.screen);
            fit("derive", k.derive_ms, s.derive);
            fit("transform", transform_floor, s.transform);
            k.screen_ms + k.derive_ms + transform_floor
        };

        push("pct.screen_ms_per_job", k.screen_ms);
        push("pct.unique_per_job", k.unique as f64);
        push("hsi.pixels_per_job", k.pixels as f64);
        push("hsi.payload_mb_per_job", k.payload_mb);
        push("linalg.bands", k.bands as f64);
        push("linalg.covariance_ms_per_job", k.covariance_ms);
        push("linalg.eigen_ms_per_job", median(&k.eigen_ms));
        push("pct.transform_ms_per_job", k.transform_ms);
        push("pct.colormap_ms_per_job", k.colormap_ms);
        // Each phase is averaged over the jobs that ran it.
        for (name, span) in [
            ("service.screen_phase_ms_per_job", s.screen),
            ("service.derive_phase_ms_per_job", s.derive),
            ("service.transform_phase_ms_per_job", s.transform),
            ("service.inline_phase_ms_per_job", s.inline),
        ] {
            if span > 0.0 {
                push(name, span);
            }
        }
        push("service.kernel_ms_per_job", kernel);
        push("service.overhead_ms_per_job", s.phases() - kernel);
        if let Some(w) = k.wire {
            wire_jobs.push((w, s.phases() - kernel - w.encode_ms - w.decode_ms));
        }
    }
    if misses as f64 > RESIDUAL_MISS_LIMIT * jobs.len() as f64 {
        out.fail(format!(
            "layers do not add up for {misses} of {} jobs (tolerance {RESIDUAL_TOL_MS} ms + {}% of latency)",
            jobs.len(),
            RESIDUAL_TOL_FRAC * 100.0
        ));
    }
    for (phase, (kernel, span)) in fits {
        if kernel > span * (1.0 + KERNEL_TOL_FRAC) {
            out.fail(format!(
                "{phase} kernels took {kernel:.3} ms in replay but their phase spans only {span:.3} ms"
            ));
        }
    }
    for (name, values) in &per_job {
        out.set(name, mean(values));
    }

    // The kernel ledger: each kernel's median per input, and its spread
    // over the repetitions.
    let ledger = |pick: fn(&Kernels) -> &Vec<f64>| -> (f64, f64) {
        let medians: Vec<f64> = replays.values().map(|k| median(pick(k))).collect();
        let spreads: Vec<f64> = replays.values().map(|k| spread_pct(pick(k))).collect();
        (median(&medians), median(&spreads))
    };
    out.set("linalg.eigen_spread_pct", ledger(|k| &k.eigen_ms).1);
    let (t, spread) = ledger(|k| &k.rank_one_ms);
    out.set("linalg.rank_one_update_ms", t);
    out.set("linalg.rank_one_update_spread_pct", spread);
    let (t, spread) = ledger(|k| &k.rank_one_reference_ms);
    out.set("linalg.rank_one_update_reference_ms", t);
    out.set("linalg.rank_one_update_reference_spread_pct", spread);

    if !wire_jobs.is_empty() {
        let pick = |f: fn(&(WireCost, f64)) -> f64| -> f64 {
            mean(&wire_jobs.iter().map(f).collect::<Vec<_>>())
        };
        out.set("wire.encode_ms_per_job", pick(|(w, _)| w.encode_ms));
        out.set("wire.decode_ms_per_job", pick(|(w, _)| w.decode_ms));
        out.set("wire.frames_per_job", pick(|(w, _)| w.frames as f64));
        out.set("wire.bytes_per_job", pick(|(w, _)| w.bytes as f64));
        out.set("wire.transport_ms_per_job", pick(|(_, t)| *t));
    }

    out.set("service.queue_wait_ms_p50", median(&queue_waits));
    out.set("bench.jobs_traced", jobs.len() as f64);
    out.set("bench.layer_residual_ms_p50", median(&residuals));
    out.set("bench.layer_residual_ms_max", quantile(&residuals, 1.0));
    service_counters(out, report, window);
}

/// The service's own counters for the window.
pub fn service_counters(out: &mut Outcome, report: &ServiceReport, window: Duration) {
    out.set(
        "service.tasks_per_job",
        report.tasks_dispatched as f64 / report.jobs_completed.max(1) as f64,
    );
    out.set(
        "service.heartbeats_per_s",
        report.heartbeats as f64 / window.as_secs_f64(),
    );
    out.set("service.retransmits", report.tasks_retransmitted as f64);
    for (kind, name) in [
        (BackendKind::Standard, "service.route_standard_jobs"),
        (BackendKind::Resilient, "service.route_resilient_jobs"),
        (
            BackendKind::SharedMemory,
            "service.route_shared_memory_jobs",
        ),
        (BackendKind::Remote, "service.route_remote_jobs"),
    ] {
        out.set(name, report.route(kind).jobs_routed as f64);
    }
    for (tenant, names) in [
        (
            TenantId(1),
            [
                "service.tenant_t1_admitted",
                "service.tenant_t1_downgraded",
                "service.tenant_t1_shed",
                "service.tenant_t1_rejected",
            ],
        ),
        (
            TenantId(2),
            [
                "service.tenant_t2_admitted",
                "service.tenant_t2_downgraded",
                "service.tenant_t2_shed",
                "service.tenant_t2_rejected",
            ],
        ),
    ] {
        let stats = report.tenant(tenant);
        out.set(names[0], stats.jobs_admitted as f64);
        out.set(names[1], stats.jobs_downgraded as f64);
        out.set(names[2], stats.jobs_shed as f64);
        out.set(names[3], stats.jobs_rejected as f64);
    }
}
