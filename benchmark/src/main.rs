//! The repository benchmark: four seeded workloads driven through the public
//! entry points of the program, with absolute end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! ```text
//! themis-e2e-bench --workload <campaign|training-stream|serve|sweep>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! See README.md for the workloads, the metrics and what each should move.

mod inproc;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use themis::core::json::Json;

/// End-to-end metrics (untraced run), with their units. Tail latency is
/// printed by every run but is not among them: its quartile spread across
/// seeds was 11-21 % on a shared 2-core machine, against at most 8 % for
/// these, so a bound on it would reject changes for noise.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("warm_cells_per_s", "cells/s"),
    ("latency_ms", "ms"),
    ("max_rps", "req/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run), with their units. A layer a workload does
/// not run reports 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("json.parse_ns", "ns"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.encode_ns", "ns"),
    ("serve.handle_ns", "ns"),
    ("serve.self_ns", "ns"),
    ("serve.io_ns", "ns"),
    ("serve.queue_ms", "ms"),
    ("serve.cell_hit_ratio", "ratio"),
    ("serve.late_ms", "ms"),
    ("schedule.ns", "ns"),
    ("schedule.runs", "count"),
    ("schedule.file_load_ns", "ns"),
    ("schedule.file_publish_ns", "ns"),
    ("cost.ns", "ns"),
    ("cost.builds", "count"),
    ("pipeline.ns_per_op", "ns"),
    ("pipeline.ops", "count"),
    ("stream.ns_per_op", "ns"),
    ("stream.ops", "count"),
    ("runner.self_ns", "ns"),
    ("shard.plan_ns", "ns"),
    ("shard.decode_ns", "ns"),
    ("shard.merge_ns", "ns"),
    ("worker.ns", "ns"),
    ("orchestrator.self_ns", "ns"),
    ("orchestrator.retries", "count"),
    ("telemetry.overhead_pct", "%"),
    ("unattributed_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// How a workload run is configured, and where it may write.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// A fresh scratch directory for this run, removed when it ends.
    pub work: PathBuf,
    /// Directory of the `themis-serve` and `shard-worker` binaries.
    pub bin_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    /// When the process started; the first set-up is timed from here.
    pub started: Instant,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` expects a value"))?;
        let bad = |what: &str| format!("invalid {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("--seconds"))?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad("--trace"))? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("themis-e2e-bench: {message}");
            return ExitCode::from(2);
        }
    };
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(err) = std::fs::create_dir_all(&work) {
        eprintln!("themis-e2e-bench: cannot create {}: {err}", work.display());
        return ExitCode::FAILURE;
    }
    let _scratch = ScratchDir(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work,
        bin_dir,
        trace_file: PathBuf::from(".bench_out").join(format!("{}.trace.tsv", args.workload)),
        started,
    };
    let result = match (args.workload.as_str(), args.trace) {
        ("campaign", false) => inproc::campaign(&ctx),
        ("campaign", true) => inproc::campaign_traced(&ctx),
        ("training-stream", false) => inproc::training_stream(&ctx),
        ("training-stream", true) => inproc::training_stream_traced(&ctx),
        ("serve", false) => serve::run(&ctx),
        ("serve", true) => serve::run_traced(&ctx),
        ("sweep", false) => sweep::run(&ctx),
        ("sweep", true) => sweep::run_traced(&ctx),
        (other, _) => Err(format!(
            "unknown workload `{other}` (campaign, training-stream, serve, sweep)"
        )),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("themis-e2e-bench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = outcome
            .metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            // A missing end-to-end figure means the run measured nothing.
            _ if !args.trace => {
                correct = false;
                0.0
            }
            _ => 0.0,
        };
        println!("{name:<26} {value:>16.4} {unit}");
        metrics.push((
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// Peak resident memory (VmHWM) of this process, in MiB.
pub fn own_peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
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
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `struct rusage` of Linux: two `timeval`s, then fourteen `long`s of which
/// the first is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident memory of the largest child process reaped so far, in MiB.
pub fn children_peak_rss_mib() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, which is all `getrusage` writes to.
    let status = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if status == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

extern "C" {
    fn kill(pid: i32, signal: i32) -> i32;
}

/// Sends SIGKILL to a child process this benchmark spawned.
pub fn kill_process(pid: u32) {
    const SIGKILL: i32 = 9;
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: `kill` takes plain integers and touches no memory of ours.
        unsafe {
            kill(pid, SIGKILL);
        }
    }
}
