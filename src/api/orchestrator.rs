//! Multi-process sweep orchestration: spawn `shard-worker` processes, watch
//! their heartbeats, retry failures with bounded backoff, and merge the
//! partial reports bit-identically to an unsharded run.
//!
//! The sharding layer ([`crate::api::shard`]) gives every worker process a
//! self-contained [`ShardSpec`]; this module is the driver that used to live
//! in shell scripts. An [`Orchestrator`]:
//!
//! 1. plans shards over the expanded cell matrix ([`ShardStrategy`]),
//! 2. writes one spec file per shard and spawns one `shard-worker run`
//!    process per shard (`--progress` heartbeat file, `--out` partial
//!    report, optionally `--cache` pointed at a shared schedule-cache file),
//! 3. supervises the children, checking every 1 ms whether a worker has
//!    exited and every 25 ms whether its heartbeat has moved: a non-zero
//!    exit (the worker signals per-shard execution failures with exit code
//!    3) or a heartbeat that stops changing for
//!    [`OrchestratorOptions::stall_timeout`] fails the attempt, and the last
//!    line of the worker's stderr file joins the failure reason,
//! 4. retries failed attempts with bounded exponential backoff up to
//!    [`OrchestratorOptions::max_attempts`] per shard,
//! 5. merges the partial reports ([`crate::api::shard::merge_reports`]) into
//!    a [`MergedReport`] whose campaign/stream report is **bit-identical** to
//!    [`crate::api::Runner::execute`] / `execute_streams` on the same cells.
//!
//! Failure injection for tests and CI rides the worker's deterministic
//! `--fail-after N` hook via [`OrchestratorOptions::fail_first_attempt`].

use crate::api::runner::RunSpec;
use crate::api::shard::{merge_reports, MergedReport, ShardReport, ShardSpec, ShardStrategy};
use crate::api::stream::StreamSpec;
use crate::error::ThemisError;
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use themis_core::durable::{self, VerifiedRead};
use themis_core::json::Json;
use themis_core::telemetry::{log_event, LogLevel};

/// Distinguishes successive sweeps of one process so their scratch
/// directories never collide.
static SWEEP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How often the supervisor checks whether a worker has exited.
const EXIT_CHECK: Duration = Duration::from_millis(1);

/// How often the supervisor reads heartbeats (and so checks stall timeouts).
const HEARTBEAT_CHECK: Duration = Duration::from_millis(25);

/// Bytes kept of a worker's last non-empty stderr line, the part of a
/// failure reason that comes from the worker itself.
const STDERR_TAIL_BYTES: usize = 512;

/// Configuration of an [`Orchestrator`].
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestratorOptions {
    /// Path of the `shard-worker` binary to spawn.
    pub worker: PathBuf,
    /// Number of worker processes (= shards) per sweep.
    pub shards: usize,
    /// How cells are distributed over shards.
    pub strategy: ShardStrategy,
    /// Total attempts allowed per shard (first run + retries). At least 1.
    pub max_attempts: u32,
    /// An attempt whose heartbeat file stops changing for this long is
    /// killed and counted as a failure.
    pub stall_timeout: Duration,
    /// First retry delay; doubled per retry up to [`Self::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound of the exponential retry backoff.
    pub backoff_cap: Duration,
    /// Directory for per-sweep scratch files (spec, partial report, and
    /// heartbeat per shard). Each sweep uses a fresh subdirectory, removed
    /// on success unless [`Self::keep_files`] is set.
    pub work_dir: PathBuf,
    /// Schedule-cache file handed to every worker (`--cache`): workers
    /// warm-start from it and merge-publish back into it when they hold
    /// schedules the file lacks, so schedules survive across processes and
    /// sweeps. A sweep whose workers all find every schedule in the file
    /// leaves it untouched.
    pub cache_file: Option<PathBuf>,
    /// Deterministic failure injection: `(shard_index, after_cells)` pairs.
    /// The **first** attempt of each listed shard runs with
    /// `--fail-after after_cells`, so it aborts (exit code 3) after that many
    /// cells and exercises the retry path; retries run clean.
    pub fail_first_attempt: Vec<(usize, usize)>,
    /// Keep the sweep's scratch directory after a successful merge.
    pub keep_files: bool,
    /// Stable sweep identity for crash-resumable sweeps. When set, the
    /// scratch directory is the deterministic `work_dir/sweep-<id>` instead
    /// of a per-process unique path, and before launching any worker the
    /// orchestrator checks each shard's partial-report path: a readable
    /// report whose shard index, shard count, cell kind and global cell
    /// indices all match the spec is adopted as-is (marked done with
    /// zero attempts), so a sweep killed mid-run resumes without
    /// re-simulating completed shards. IDs may contain only ASCII
    /// alphanumerics, `-`, `_` and `.`.
    pub sweep_id: Option<String>,
}

impl OrchestratorOptions {
    /// Defaults: 2 shards, cost-balanced planning, 3 attempts per shard,
    /// 120 s stall timeout (heartbeats are checked every 25 ms, exits every
    /// 1 ms), 50 ms → 2 s exponential backoff, scratch under
    /// `serve-work/`, no shared cache file, no failure injection.
    pub fn new(worker: impl Into<PathBuf>) -> Self {
        OrchestratorOptions {
            worker: worker.into(),
            shards: 2,
            strategy: ShardStrategy::CostBalanced,
            max_attempts: 3,
            stall_timeout: Duration::from_secs(120),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            work_dir: PathBuf::from("serve-work"),
            cache_file: None,
            fail_first_attempt: Vec::new(),
            keep_files: false,
            sweep_id: None,
        }
    }

    /// Sets a stable sweep identity (see [`Self::sweep_id`]).
    #[must_use]
    pub fn with_sweep_id(mut self, id: impl Into<String>) -> Self {
        self.sweep_id = Some(id.into());
        self
    }
}

/// The outcome of an orchestrated sweep: the merged report plus the
/// supervision history.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The merged report, bit-identical to the unsharded execution.
    pub merged: MergedReport,
    /// Attempts launched per shard, in shard order (1 = first try worked).
    pub attempts: Vec<u32>,
    /// Per-shard throughput parsed from each worker's final heartbeat, in
    /// shard order. `None` for shards whose heartbeat file was missing or
    /// predates the telemetry-carrying format.
    pub shard_perf: Vec<Option<ShardPerf>>,
    /// Shards adopted from valid on-disk partial reports instead of being
    /// re-simulated (ascending). Non-empty only for sweeps resumed under a
    /// stable [`OrchestratorOptions::sweep_id`].
    pub resumed_shards: Vec<usize>,
    /// Every failed attempt observed during supervision, grouped by shard
    /// in shard order (detection order within a shard). Successful sweeps
    /// list the attempts that were retried along the way.
    pub failures: Vec<AttemptFailure>,
}

impl SweepOutcome {
    /// Total number of retried (i.e. failed) attempts across all shards.
    pub fn retries(&self) -> u32 {
        self.attempts.iter().sum::<u32>()
            - self
                .attempts
                .iter()
                .filter(|&&attempts| attempts > 0)
                .count() as u32
    }
}

/// Classification of one failed worker attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The worker never wrote a first heartbeat within the stall timeout —
    /// it hung (or died silently) before reaching its main loop.
    SpawnTimeout,
    /// The worker heartbeated at least once, then its heartbeat stopped
    /// changing for the stall timeout.
    Stall,
    /// The worker exited with a non-zero status or was killed by a signal.
    WorkerExit,
    /// The worker exited cleanly but left a missing or unreadable report,
    /// or the supervisor could not poll it.
    BadReport,
}

impl FailureKind {
    /// The stable string used in structured log events and JSONL responses.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::SpawnTimeout => "spawn-timeout",
            FailureKind::Stall => "stall",
            FailureKind::WorkerExit => "worker-exit",
            FailureKind::BadReport => "bad-report",
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One failed attempt in a sweep's supervision history.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptFailure {
    /// The shard whose attempt failed.
    pub shard: usize,
    /// The 1-based attempt number that failed.
    pub attempt: u32,
    /// What went wrong, coarsely.
    pub kind: FailureKind,
    /// Human-readable failure detail.
    pub reason: String,
}

/// One worker's throughput, as reported by its final heartbeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPerf {
    /// Cells the worker completed.
    pub cells: usize,
    /// Wall-clock milliseconds from the worker's start to its last heartbeat.
    pub elapsed_ms: u64,
}

impl ShardPerf {
    /// The worker's throughput in campaign cells per second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return self.cells as f64 * 1000.0;
        }
        self.cells as f64 * 1000.0 / self.elapsed_ms as f64
    }

    /// Renders the per-shard summary block of the sweep response.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cells", Json::Num(self.cells as f64)),
            ("elapsed_ms", Json::Num(self.elapsed_ms as f64)),
            ("cells_per_sec", Json::Num(self.cells_per_sec())),
        ])
    }

    /// Parses a worker's JSON heartbeat line (`{"done":..,"total":..,
    /// "elapsed_ms":..}`); returns `None` for the legacy `done/total` text
    /// format or unreadable content.
    pub fn from_heartbeat(text: &str) -> Option<ShardPerf> {
        let json = Json::parse(text.trim()).ok()?;
        Some(ShardPerf {
            cells: json.get("done")?.as_usize().ok()?,
            elapsed_ms: json.get("elapsed_ms")?.as_f64().ok()? as u64,
        })
    }
}

/// Supervises one multi-process sweep; see the [module docs](self).
///
/// ```no_run
/// use themis::api::orchestrator::{Orchestrator, OrchestratorOptions};
/// use themis::prelude::*;
///
/// # fn main() -> Result<(), ThemisError> {
/// let mut options = OrchestratorOptions::new("target/release/shard-worker");
/// options.shards = 4;
/// let specs = vec![RunSpec::new(
///     Platform::preset(PresetTopology::Sw2d),
///     Job::all_reduce_mib(64.0).chunks(8).scheduler(SchedulerKind::ThemisScf),
/// )];
/// let outcome = Orchestrator::new(options).run_campaign(&specs)?;
/// assert_eq!(outcome.merged.campaign().unwrap().results().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Orchestrator {
    options: OrchestratorOptions,
}

/// One supervised shard.
struct Task {
    index: usize,
    spec_path: PathBuf,
    out_path: PathBuf,
    progress_path: PathBuf,
    /// The current attempt's stderr, kept for its last line.
    stderr_path: PathBuf,
    /// Attempts launched so far (0 for shards resumed from disk).
    attempts: u32,
    /// Throughput parsed from the final heartbeat of the successful attempt.
    perf: Option<ShardPerf>,
    /// `true` if the shard's report was adopted from a valid on-disk partial
    /// instead of being executed by this sweep.
    resumed: bool,
    /// Failed attempts of this shard, in detection order.
    failures: Vec<AttemptFailure>,
    state: TaskState,
}

/// Kill-on-drop wrapper around a spawned worker process. Whenever a
/// `Running` state is dropped — orchestrator error return, caller panic
/// unwinding through [`Orchestrator::run_shards`], or a plain retry
/// replacing the state — the child is killed and reaped instead of being
/// leaked as an orphan. Killing an already-exited child is a no-op.
struct WorkerGuard(Child);

impl WorkerGuard {
    fn try_wait(&mut self) -> std::io::Result<Option<ExitStatus>> {
        self.0.try_wait()
    }

    fn kill_and_wait(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }

    #[cfg(test)]
    fn id(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// Supervision state of one shard.
enum TaskState {
    /// Not running; launch once `until` passes (backoff between retries).
    Waiting {
        /// Earliest launch instant.
        until: Instant,
    },
    /// A worker process is executing the shard.
    Running {
        /// The spawned worker, reaped on drop.
        child: WorkerGuard,
        /// Last observed heartbeat-file content.
        last_progress: String,
        /// When the heartbeat last changed (or the process launched).
        last_change: Instant,
        /// `true` once any heartbeat content has been observed this attempt;
        /// separates spawn timeouts from mid-run stalls.
        saw_heartbeat: bool,
    },
    /// The shard's partial report has been collected.
    Done(Box<ShardReport>),
}

/// Outcome of polling one task, applied after the state borrow ends.
enum Step {
    /// Nothing to do this tick.
    Idle,
    /// A waiting task's backoff has elapsed.
    Launch,
    /// The worker exited cleanly and its report parsed.
    Finish(Box<ShardReport>),
    /// The attempt failed (classified exit, timeout, or unreadable report).
    Retry(FailureKind, String),
}

impl Orchestrator {
    /// Creates an orchestrator.
    pub fn new(options: OrchestratorOptions) -> Self {
        Orchestrator { options }
    }

    /// The orchestrator's configuration.
    pub fn options(&self) -> &OrchestratorOptions {
        &self.options
    }

    /// Plans shards over a collective-campaign matrix and runs the sweep.
    /// The merged campaign report is bit-identical to
    /// [`crate::api::Runner::execute`] on `specs`.
    ///
    /// # Errors
    ///
    /// See [`Orchestrator::run_shards`].
    pub fn run_campaign(&self, specs: &[RunSpec]) -> Result<SweepOutcome, ThemisError> {
        let plan = self.options.strategy.plan(specs, self.options.shards);
        self.run_shards(&ShardSpec::campaign_shards(specs, &plan)?)
    }

    /// Plans shards over a stream-campaign matrix and runs the sweep. The
    /// merged stream report is bit-identical to
    /// [`crate::api::Runner::execute_streams`] on `specs`.
    ///
    /// # Errors
    ///
    /// See [`Orchestrator::run_shards`].
    pub fn run_streams(&self, specs: &[StreamSpec]) -> Result<SweepOutcome, ThemisError> {
        let plan = self.options.strategy.plan(specs, self.options.shards);
        self.run_shards(&ShardSpec::stream_shards(specs, &plan)?)
    }

    /// Runs pre-planned shards, one worker process per shard, and merges
    /// their reports.
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Serve`] when the worker binary cannot be
    /// spawned, when any shard exhausts [`OrchestratorOptions::max_attempts`],
    /// or on scratch-file I/O failures. A shard that exhausts its attempts
    /// fails the sweep once the workers still running have finished, so
    /// their partial reports survive for a resume
    /// ([`OrchestratorOptions::sweep_id`]); on any other error they are
    /// killed before it propagates.
    pub fn run_shards(&self, shards: &[ShardSpec]) -> Result<SweepOutcome, ThemisError> {
        if shards.is_empty() {
            return Err(ThemisError::Serve {
                reason: "cannot orchestrate an empty shard list".to_string(),
            });
        }
        let run_dir = self.options.work_dir.join(match &self.options.sweep_id {
            Some(id) => {
                if id.is_empty()
                    || !id
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                {
                    return Err(ThemisError::Serve {
                        reason: format!(
                            "invalid sweep id `{id}`: use ASCII alphanumerics, `-`, `_`, `.`"
                        ),
                    });
                }
                format!("sweep-{id}")
            }
            None => format!(
                "sweep-{}-{}",
                std::process::id(),
                SWEEP_COUNTER.fetch_add(1, Ordering::Relaxed)
            ),
        });
        fs::create_dir_all(&run_dir).map_err(|err| ThemisError::Serve {
            reason: format!(
                "could not create sweep directory {}: {err}",
                run_dir.display()
            ),
        })?;
        let mut tasks = Vec::with_capacity(shards.len());
        for spec in shards {
            let index = spec.shard_index();
            let spec_path = run_dir.join(format!("shard-{index}.spec.json"));
            fs::write(&spec_path, spec.to_json()).map_err(|err| ThemisError::Serve {
                reason: format!("could not write {}: {err}", spec_path.display()),
            })?;
            let out_path = run_dir.join(format!("shard-{index}.partial.json"));
            // Crash resume: a valid partial report left behind by an earlier
            // run of the same sweep id stands in for executing the shard.
            let resumed_report = resumable_report(&out_path, spec);
            if let Some(report) = &resumed_report {
                log_event(
                    LogLevel::Info,
                    "orchestrator.resume",
                    &[
                        ("shard", Json::Num(index as f64)),
                        ("cells", Json::Num(report.len() as f64)),
                        ("report", Json::Str(out_path.display().to_string())),
                    ],
                );
            }
            tasks.push(Task {
                index,
                spec_path,
                out_path,
                progress_path: run_dir.join(format!("shard-{index}.progress")),
                stderr_path: run_dir.join(format!("shard-{index}.stderr")),
                attempts: 0,
                perf: None,
                resumed: resumed_report.is_some(),
                failures: Vec::new(),
                state: match resumed_report {
                    Some(report) => TaskState::Done(Box::new(report)),
                    None => TaskState::Waiting {
                        until: Instant::now(),
                    },
                },
            });
        }
        // On error, dropping `tasks` reaps any still-running workers through
        // each `WorkerGuard`; the same holds if the caller unwinds.
        self.supervise(&mut tasks)?;
        let attempts: Vec<u32> = tasks.iter().map(|task| task.attempts).collect();
        let shard_perf: Vec<Option<ShardPerf>> = tasks.iter().map(|task| task.perf).collect();
        let resumed_shards: Vec<usize> = tasks
            .iter()
            .filter(|task| task.resumed)
            .map(|task| task.index)
            .collect();
        let failures: Vec<AttemptFailure> = tasks
            .iter_mut()
            .flat_map(|task| std::mem::take(&mut task.failures))
            .collect();
        let reports: Vec<ShardReport> = tasks
            .into_iter()
            .map(|task| match task.state {
                TaskState::Done(report) => *report,
                _ => unreachable!("supervise returns Ok only once every task is done"),
            })
            .collect();
        let merged = merge_reports(&reports)?;
        log_event(
            LogLevel::Info,
            "orchestrator.merge",
            &[
                ("shards", Json::Num(shards.len() as f64)),
                ("cells", Json::Num(merged.len() as f64)),
                ("retries", Json::Num(failures.len() as f64)),
                ("resumed", Json::Num(resumed_shards.len() as f64)),
            ],
        );
        if !self.options.keep_files {
            let _ = fs::remove_dir_all(&run_dir);
        }
        Ok(SweepOutcome {
            merged,
            attempts,
            shard_perf,
            resumed_shards,
            failures,
        })
    }

    /// The supervision loop: launch due tasks, poll running ones, schedule
    /// retries, until every task is done or one exhausts its attempts. Once
    /// a shard has exhausted them no attempt starts, but the workers still
    /// running finish, so each leaves its partial report for a resume.
    fn supervise(&self, tasks: &mut [Task]) -> Result<(), ThemisError> {
        let mut failed = None;
        let mut heartbeat_due = Instant::now();
        loop {
            let check_heartbeats = Instant::now() >= heartbeat_due;
            if check_heartbeats {
                heartbeat_due = Instant::now() + HEARTBEAT_CHECK;
            }
            let mut pending = false;
            for task in tasks.iter_mut() {
                match self.poll(task, check_heartbeats) {
                    Step::Idle => {}
                    Step::Launch if failed.is_some() => {}
                    Step::Launch => self.launch(task)?,
                    Step::Finish(report) => task.state = TaskState::Done(report),
                    Step::Retry(kind, reason) => {
                        if let Err(err) = self.end_attempt(task, kind, &reason, failed.is_none()) {
                            failed.get_or_insert(err);
                        }
                    }
                }
                pending |= match task.state {
                    TaskState::Done(_) => false,
                    TaskState::Waiting { .. } => failed.is_none(),
                    TaskState::Running { .. } => true,
                };
            }
            if !pending {
                return failed.map_or(Ok(()), Err);
            }
            std::thread::sleep(EXIT_CHECK);
        }
    }

    /// Inspects one task without mutating anything outside its state. A
    /// running worker's heartbeat is read only when `check_heartbeats`.
    fn poll(&self, task: &mut Task, check_heartbeats: bool) -> Step {
        match &mut task.state {
            TaskState::Done(_) => Step::Idle,
            TaskState::Waiting { until } => {
                if Instant::now() >= *until {
                    Step::Launch
                } else {
                    Step::Idle
                }
            }
            TaskState::Running {
                child,
                last_progress,
                last_change,
                saw_heartbeat,
            } => match child.try_wait() {
                Err(err) => Step::Retry(
                    FailureKind::BadReport,
                    format!("could not poll worker: {err}"),
                ),
                Ok(Some(status)) if status.success() => match read_shard_report(&task.out_path) {
                    Some(report) => {
                        task.perf = fs::read_to_string(&task.progress_path)
                            .ok()
                            .and_then(|text| ShardPerf::from_heartbeat(&text));
                        let mut fields = vec![
                            ("shard", Json::Num(task.index as f64)),
                            ("cells", Json::Num(report.len() as f64)),
                            ("attempt", Json::Num(task.attempts as f64)),
                        ];
                        if let Some(perf) = task.perf {
                            fields.push(("cells_per_sec", Json::Num(perf.cells_per_sec())));
                        }
                        log_event(LogLevel::Info, "orchestrator.shard_done", &fields);
                        Step::Finish(Box::new(report))
                    }
                    None => Step::Retry(
                        FailureKind::BadReport,
                        with_stderr(
                            "worker exited cleanly but left no verifiable shard report".to_string(),
                            &task.stderr_path,
                        ),
                    ),
                },
                Ok(Some(status)) => Step::Retry(
                    FailureKind::WorkerExit,
                    with_stderr(
                        match status.code() {
                            Some(code) => format!("worker exited with code {code}"),
                            None => "worker was killed by a signal".to_string(),
                        },
                        &task.stderr_path,
                    ),
                ),
                Ok(None) if !check_heartbeats => Step::Idle,
                Ok(None) => {
                    let progress = fs::read_to_string(&task.progress_path).unwrap_or_default();
                    if progress != *last_progress {
                        log_event(
                            LogLevel::Debug,
                            "orchestrator.heartbeat",
                            &[
                                ("shard", Json::Num(task.index as f64)),
                                ("heartbeat", Json::Str(progress.trim().to_string())),
                            ],
                        );
                        *last_progress = progress;
                        *last_change = Instant::now();
                        *saw_heartbeat = true;
                        Step::Idle
                    } else if last_change.elapsed() > self.options.stall_timeout {
                        child.kill_and_wait();
                        // A worker that never heartbeated hung before its
                        // main loop (spawn timeout); one that heartbeated and
                        // stopped stalled mid-run. The two point at different
                        // problems, so they are logged and recorded apart.
                        let kind = if *saw_heartbeat {
                            FailureKind::Stall
                        } else {
                            FailureKind::SpawnTimeout
                        };
                        let event = match kind {
                            FailureKind::Stall => "orchestrator.stall",
                            _ => "orchestrator.spawn_timeout",
                        };
                        log_event(
                            LogLevel::Warn,
                            event,
                            &[
                                ("shard", Json::Num(task.index as f64)),
                                (
                                    "timeout_ms",
                                    Json::Num(self.options.stall_timeout.as_millis() as f64),
                                ),
                            ],
                        );
                        let detail = match kind {
                            FailureKind::Stall => "worker heartbeat stalled for more than",
                            _ => "worker wrote no first heartbeat within",
                        };
                        Step::Retry(kind, format!("{detail} {:?}", self.options.stall_timeout))
                    } else {
                        Step::Idle
                    }
                }
            },
        }
    }

    /// Spawns the worker process for a task's next attempt, its stderr going
    /// to the shard's stderr file.
    fn launch(&self, task: &mut Task) -> Result<(), ThemisError> {
        // Drop any artifacts of a killed earlier attempt so a fresh exit
        // status is never paired with a stale report, heartbeat or stderr.
        // The stderr file is a new one, too: an orphan of a killed attempt
        // may still hold the old one open.
        let _ = fs::remove_file(&task.out_path);
        let _ = fs::remove_file(&task.progress_path);
        let _ = fs::remove_file(&task.stderr_path);
        let stderr = fs::File::create(&task.stderr_path).map_err(|err| ThemisError::Serve {
            reason: format!("could not create {}: {err}", task.stderr_path.display()),
        })?;
        let mut cmd = Command::new(&self.options.worker);
        cmd.arg("run")
            .arg(&task.spec_path)
            .arg("--out")
            .arg(&task.out_path)
            .arg("--progress")
            .arg(&task.progress_path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        if let Some(cache) = &self.options.cache_file {
            cmd.arg("--cache").arg(cache);
        }
        if task.attempts == 0 {
            if let Some((_, after_cells)) = self
                .options
                .fail_first_attempt
                .iter()
                .find(|(shard, _)| *shard == task.index)
            {
                cmd.arg("--fail-after").arg(after_cells.to_string());
            }
        }
        let child = cmd.spawn().map_err(|err| ThemisError::Serve {
            reason: format!(
                "could not spawn shard worker `{}`: {err}",
                self.options.worker.display()
            ),
        })?;
        task.attempts += 1;
        log_event(
            LogLevel::Info,
            "orchestrator.spawn",
            &[
                ("shard", Json::Num(task.index as f64)),
                ("attempt", Json::Num(task.attempts as f64)),
                (
                    "worker",
                    Json::Str(self.options.worker.display().to_string()),
                ),
            ],
        );
        task.state = TaskState::Running {
            child: WorkerGuard(child),
            last_progress: String::new(),
            last_change: Instant::now(),
            saw_heartbeat: false,
        };
        Ok(())
    }

    /// Ends a failed attempt: records it in the shard's supervision history
    /// and, if `retry`, schedules the next attempt after a backoff. Returns
    /// the sweep's error once the shard has exhausted its attempts.
    fn end_attempt(
        &self,
        task: &mut Task,
        kind: FailureKind,
        reason: &str,
        retry: bool,
    ) -> Result<(), ThemisError> {
        task.failures.push(AttemptFailure {
            shard: task.index,
            attempt: task.attempts,
            kind,
            reason: reason.to_string(),
        });
        // The attempt is over, whether or not another one follows.
        task.state = TaskState::Waiting {
            until: Instant::now(),
        };
        if task.attempts >= self.options.max_attempts {
            return Err(ThemisError::Serve {
                reason: format!(
                    "shard {} failed after {} attempts ({kind}): {reason}",
                    task.index, task.attempts
                ),
            });
        }
        if !retry {
            return Ok(());
        }
        let exponent = task.attempts.saturating_sub(1).min(16);
        let backoff = self
            .options
            .backoff_base
            .saturating_mul(1u32 << exponent)
            .min(self.options.backoff_cap);
        log_event(
            LogLevel::Warn,
            "orchestrator.retry",
            &[
                ("shard", Json::Num(task.index as f64)),
                ("attempt", Json::Num(task.attempts as f64)),
                ("kind", Json::Str(kind.as_str().to_string())),
                ("reason", Json::Str(reason.to_string())),
                ("backoff_ms", Json::Num(backoff.as_millis() as f64)),
            ],
        );
        task.state = TaskState::Waiting {
            until: Instant::now() + backoff,
        };
        Ok(())
    }
}

/// The last non-empty line of a worker's stderr file, trimmed and cut to
/// [`STDERR_TAIL_BYTES`]. Only the file's last 4 × [`STDERR_TAIL_BYTES`]
/// are read, so a longer line is seen from the window's start.
fn stderr_tail(path: &Path) -> String {
    let mut tail = Vec::new();
    if let Ok(mut file) = fs::File::open(path) {
        let len = file.metadata().map_or(0, |meta| meta.len());
        let start = len.saturating_sub(4 * STDERR_TAIL_BYTES as u64);
        let _ = file
            .seek(SeekFrom::Start(start))
            .and_then(|_| file.read_to_end(&mut tail));
    }
    let line = tail
        .split(|&byte| byte == b'\n')
        .map(<[u8]>::trim_ascii)
        .rfind(|line| !line.is_empty())
        .unwrap_or_default();
    String::from_utf8_lossy(&line[..line.len().min(STDERR_TAIL_BYTES)]).into_owned()
}

/// Appends the last line of a worker's stderr file, if any, to a failure
/// reason.
fn with_stderr(reason: String, stderr_path: &Path) -> String {
    match stderr_tail(stderr_path) {
        tail if tail.is_empty() => reason,
        tail => format!("{reason}; stderr: {tail}"),
    }
}

/// Reads a worker's partial report with checksum verification: a sealed
/// file must verify (a torn or tampered one is quarantined to
/// `<path>.corrupt-<n>` and rejected), a legacy unsealed file is parsed
/// as-is, and a verified-but-unparseable payload is quarantined too. `None`
/// always means "treat the shard as not done".
fn read_shard_report(out_path: &Path) -> Option<ShardReport> {
    let body = match durable::read_verified(out_path) {
        Ok(VerifiedRead::Clean(body)) | Ok(VerifiedRead::Legacy(body)) => body,
        Ok(VerifiedRead::Corrupt { reason }) => {
            let _ = durable::quarantine(out_path, &reason);
            return None;
        }
        Ok(VerifiedRead::Missing) | Err(_) => return None,
    };
    match ShardReport::from_json(&body) {
        Ok(report) => Some(report),
        Err(err) => {
            let _ = durable::quarantine(out_path, &err.to_string());
            None
        }
    }
}

/// Checks whether `out_path` holds a shard report that can stand in for
/// executing `spec`: verified ([`read_shard_report`] — a truncated or
/// corrupted file from a crash mid-write is quarantined and rejected, so
/// resume can never adopt garbage), parseable, and an exact structural match
/// (shard index, shard count, cell kind, and the global indices of every
/// cell). Anything less — e.g. a report from a different plan reusing the
/// sweep id — is rejected and the shard is executed normally.
fn resumable_report(out_path: &Path, spec: &ShardSpec) -> Option<ShardReport> {
    let report = read_shard_report(out_path)?;
    let matches = report.shard_index() == spec.shard_index()
        && report.shard_count() == spec.shard_count()
        && report.is_stream() == spec.is_stream()
        && report.global_indices() == spec.global_indices();
    matches.then_some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kinds_have_stable_wire_names() {
        assert_eq!(FailureKind::SpawnTimeout.as_str(), "spawn-timeout");
        assert_eq!(FailureKind::Stall.as_str(), "stall");
        assert_eq!(FailureKind::WorkerExit.as_str(), "worker-exit");
        assert_eq!(FailureKind::BadReport.as_str(), "bad-report");
        assert_eq!(FailureKind::Stall.to_string(), "stall");
    }

    #[test]
    fn sweep_id_builder_sets_the_option() {
        let options = OrchestratorOptions::new("worker").with_sweep_id("ci-run.7");
        assert_eq!(options.sweep_id.as_deref(), Some("ci-run.7"));
        assert_eq!(OrchestratorOptions::new("worker").sweep_id, None);
    }

    #[test]
    fn invalid_sweep_ids_are_rejected_before_spawning() {
        use crate::api::{Job, Platform};
        use themis_net::presets::PresetTopology;
        for bad in ["", "../escape", "a/b", "white space"] {
            let mut options = OrchestratorOptions::new("no-such-worker-binary");
            options.sweep_id = Some(bad.to_string());
            let err = Orchestrator::new(options)
                .run_campaign(&[RunSpec::new(
                    Platform::preset(PresetTopology::Sw2d),
                    Job::all_reduce_mib(1.0).chunks(2),
                )])
                .unwrap_err();
            assert!(err.to_string().contains("invalid sweep id"), "{bad}: {err}");
        }
    }

    #[test]
    fn stderr_tail_keeps_the_last_non_empty_line_cut_to_the_cap() {
        let dir = std::env::temp_dir().join(format!("stderr-tail-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-0.stderr");
        let tail = |text: &str| {
            fs::write(&path, text).unwrap();
            stderr_tail(&path)
        };
        let long = "x".repeat(3 * STDERR_TAIL_BYTES);
        assert_eq!(
            tail(&format!("first\n{long}\n\n  \n")),
            "x".repeat(STDERR_TAIL_BYTES)
        );
        assert_eq!(tail("a\n last, unterminated "), "last, unterminated");
        // Only the end of a long file is read.
        assert_eq!(
            tail(&format!("{}\nthe end\n", "a\n".repeat(100_000))),
            "the end"
        );
        assert_eq!(tail(""), "");
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(stderr_tail(&path), "");
    }

    #[cfg(unix)]
    #[test]
    fn worker_guard_reaps_the_child_on_drop() {
        let child = Command::new("sleep")
            .arg("30")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        let guard = WorkerGuard(child);
        let pid = guard.id();
        assert!(std::path::Path::new(&format!("/proc/{pid}")).exists());
        drop(guard);
        // Killed *and* reaped: the pid has left the process table entirely
        // (a leaked zombie would still show up under /proc).
        assert!(!std::path::Path::new(&format!("/proc/{pid}")).exists());
    }
}
