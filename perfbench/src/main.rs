//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <large_scene|small_jobs|remote_ingest|fault_sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//! ```
//!
//! Each workload generates its inputs from the seed, sets up the system
//! (timed, several times, median reported as `setup_s`), computes the
//! `SequentialPct` reference of every distinct input, then drives the
//! system through its public API for `--seconds` and checks every output
//! byte for byte against that reference.  The last line of standard output
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1` (see `layers.rs`).  `run.py` builds
//! this binary and is the command to run.

mod common;
mod fault_sweep;
mod large_scene;
mod layers;
mod remote_ingest;
mod small_jobs;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The parsed command line.
pub struct Args {
    pub seed: u64,
    /// Where workloads that need files write them (removed afterwards).
    pub data_dir: PathBuf,
    pub window: Duration,
    pub trace: bool,
}

fn parse() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Args {
            seed: seed.ok_or("--seed is required")?,
            window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
            data_dir: data_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-data")),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match workload.as_str() {
        "large_scene" => large_scene::run(&args),
        "small_jobs" => small_jobs::run(&args),
        "remote_ingest" => remote_ingest::run(&args),
        "fault_sweep" => fault_sweep::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let traced = |name| outcome.metrics.get(name).copied().unwrap_or(0.0);
        let (latency, rate) = (traced("job_latency_p50_ms"), traced("jobs_per_s"));
        outcome.set("bench.traced_latency_p50_ms", latency);
        outcome.set("bench.traced_jobs_per_s", rate);
    } else {
        outcome.set("peak_rss_mb", common::peak_rss_mb());
    }
    outcome.emit(args.trace);
    ExitCode::SUCCESS
}
