//! The `sweep` workload: `Orchestrator::run_campaign` over the 36 `campaign`
//! cells with 2 cost-balanced shards, each a real `shard-worker` process.
//!
//! A warm sweep points `cache_file` at a schedule-cache file warmed during
//! set-up: every worker warm-starts from it and merge-publishes back, as
//! sweeps through `themis-serve --cache` do. The file is restored from the
//! set-up copy before every warm sweep. A cold sweep runs without a cache
//! file, so the gap between the two is what the durable cache file costs.

use crate::inproc::campaign_grid;
use crate::stats::{campaign_digest, median, quantile, unperturbed};
use crate::trace::{Tracer, OP};
use crate::{children_peak_rss_mib, own_peak_rss_mib, Ctx, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use themis::core::durable::{self, VerifiedRead};
use themis::core::json::Json;
use themis::prelude::*;

/// Worker processes per sweep.
const SHARDS: usize = 2;

/// Cold sweeps run for every warm one.
const COLD_PER_WARM: usize = 8;

struct Prepared {
    specs: Vec<RunSpec>,
    oracle: CampaignReport,
    /// The warmed cache file every warm sweep starts from.
    pristine: PathBuf,
}

fn prepare(ctx: &Ctx, round: usize) -> Result<Prepared, String> {
    let dir = ctx.work.join(format!("setup-{round}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let specs = campaign_grid().expand().map_err(|e| e.to_string())?;
    let oracle = Runner::sequential()
        .execute(&specs)
        .map(CampaignReport::new)
        .map_err(|e| e.to_string())?;
    let pristine = dir.join("schedules.json");
    let plan = SimPlanCache::new();
    Runner::sequential()
        .execute_with_cache(&specs, &plan)
        .map_err(|e| e.to_string())?;
    plan.schedules()
        .publish_to_file(&pristine)
        .map_err(|e| e.to_string())?;
    Ok(Prepared {
        specs,
        oracle,
        pristine,
    })
}

/// The measured window of a workload whose iterations take seconds: it
/// starts an iteration only if one as long as the longest so far still
/// fits, so a run measures for about `--seconds` and never much longer.
/// The first iteration always runs.
struct Window {
    deadline: Instant,
    longest: Duration,
    iterations: usize,
}

impl Window {
    fn new(seconds: f64) -> Self {
        Window {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            longest: Duration::ZERO,
            iterations: 0,
        }
    }

    fn room_for_another(&self) -> bool {
        self.iterations == 0 || Instant::now() + self.longest <= self.deadline
    }

    fn record(&mut self, started: Instant) {
        self.longest = self.longest.max(started.elapsed());
        self.iterations += 1;
    }
}

fn restore(pristine: &Path, live: &Path) -> Result<(), String> {
    std::fs::copy(pristine, live)
        .map(|_| ())
        .map_err(|e| format!("cannot restore {}: {e}", live.display()))
}

fn orchestrator(ctx: &Ctx, cache_file: Option<PathBuf>) -> Orchestrator {
    let mut options = OrchestratorOptions::new(ctx.bin_dir.join("shard-worker"));
    options.shards = SHARDS;
    options.strategy = ShardStrategy::CostBalanced;
    options.work_dir = ctx.work.join("sweep-work");
    options.cache_file = cache_file;
    Orchestrator::new(options)
}

/// One timed sweep; `Some(retries)` if its merged report equals the oracle.
fn sweep(orchestrator: &Orchestrator, p: &Prepared) -> (f64, Option<u32>) {
    let start = Instant::now();
    let outcome = orchestrator.run_campaign(&p.specs);
    let seconds = start.elapsed().as_secs_f64();
    let checked = outcome
        .ok()
        .filter(|o| o.merged.campaign() == Some(&p.oracle))
        .map(|o| o.retries());
    (seconds, checked)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let p = prepare(ctx, 0)?;
    println!("digest {}", campaign_digest(&p.oracle));
    // The first set-up counts from process start; one more runs with every
    // warm sweep, so set-ups meet the machine's phases as sweeps do.
    let mut setup_s = vec![ctx.started.elapsed().as_secs_f64()];
    let mut outcome = Outcome::default();
    let live = ctx.work.join("schedules.json");
    let cold = orchestrator(ctx, None);
    let warm = orchestrator(ctx, Some(live.clone()));
    let (mut cold_s, mut warm_s) = (Vec::new(), Vec::new());
    let mut window = Window::new(ctx.seconds);
    while window.room_for_another() {
        let iteration = Instant::now();
        prepare(ctx, setup_s.len())?;
        setup_s.push(iteration.elapsed().as_secs_f64());
        restore(&p.pristine, &live)?;
        let (seconds, checked) = sweep(&warm, &p);
        warm_s.push(seconds);
        outcome.check(checked == Some(0));
        for _ in 0..COLD_PER_WARM {
            let (seconds, checked) = sweep(&cold, &p);
            cold_s.push(seconds);
            outcome.check(checked == Some(0));
        }
        window.record(iteration);
    }
    let cells = p.specs.len() as f64;
    println!(
        "sweeps: {} warm (cache file), {} cold; {cells} cells, {SHARDS} shards each; \
         cold median {:.3} ms, p90 {:.3} ms",
        warm_s.len(),
        cold_s.len(),
        median(&cold_s) * 1e3,
        quantile(&cold_s, 0.90) * 1e3
    );
    // Both kinds of sweep see the machine's phases (over ten runs the
    // median of a run's few warm sweeps spread 17 %), so both take the
    // unperturbed estimate; with a handful of warm sweeps that is close
    // to the fastest.
    let cold = unperturbed(&cold_s);
    outcome.set("setup_s", unperturbed(&setup_s));
    outcome.set("cells_per_s", cells / cold);
    outcome.set("warm_cells_per_s", cells / unperturbed(&warm_s));
    outcome.set("latency_ms", cold * 1e3);
    outcome.set("max_rps", 1.0 / cold);
    outcome.set(
        "peak_rss_mib",
        own_peak_rss_mib().max(children_peak_rss_mib()),
    );
    Ok(outcome)
}

/// Reads a sealed (or legacy) file's body.
fn read_body(path: &Path) -> Result<String, String> {
    match durable::read_verified(path) {
        Ok(VerifiedRead::Clean(body) | VerifiedRead::Legacy(body)) => Ok(body),
        other => Err(format!("cannot read {}: {other:?}", path.display())),
    }
}

/// A spawned worker, killed and reaped if dropped before it exits.
struct Worker(Child);

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// What one replayed sweep works on: the cell matrix and its oracle, a
/// scratch directory, and for a warm sweep the cache file the workers share
/// plus a second copy the in-process publish writes to.
struct Replay<'a> {
    p: &'a Prepared,
    dir: &'a Path,
    worker_bin: &'a Path,
    cache: Option<(&'a Path, &'a Path)>,
}

/// What one replayed sweep produced.
struct Replayed {
    correct: bool,
    /// Spawn-to-exit time of the slowest worker, ns.
    slowest_ns: f64,
    parsed_bytes: f64,
}

/// One sweep, step by step through the layers the orchestrator and its
/// workers use, each call recorded as a span.
fn replay(t: &mut Tracer, r: &Replay<'_>) -> Result<Replayed, String> {
    let cache = ScheduleCache::new();
    if let Some((live, _)) = r.cache {
        t.span("schedule.file_load", |_| cache.load_from_file(live))
            .map_err(|e| e.to_string())?;
    }
    let specs = &r.p.specs;
    let shards = t
        .span("shard.plan", |_| {
            let plan = ShardPlan::from_cells(ShardStrategy::CostBalanced, specs, SHARDS);
            ShardSpec::campaign_shards(specs, &plan)
        })
        .map_err(|e| e.to_string())?;
    let mut bodies = Vec::new();
    let mut workers = Vec::new();
    for shard in &shards {
        let i = shard.shard_index();
        let spec_body = t.span("json.encode", |_| shard.to_json());
        let spec = r.dir.join(format!("shard-{i}.spec.json"));
        let out = r.dir.join(format!("shard-{i}.partial.json"));
        std::fs::write(&spec, &spec_body).map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&out);
        bodies.push(spec_body);
        let mut command = Command::new(r.worker_bin);
        command
            .arg("run")
            .arg(&spec)
            .arg("--out")
            .arg(&out)
            .arg("--progress")
            .arg(r.dir.join(format!("shard-{i}.progress")))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some((live, _)) = r.cache {
            command.arg("--cache").arg(live);
        }
        let child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", r.worker_bin.display()))?;
        workers.push((Instant::now(), Worker(child), out));
    }
    let mut partials = Vec::new();
    let mut slowest_ns = 0.0f64;
    t.span("worker", |_| -> Result<(), String> {
        for (spawned, worker, out) in &mut workers {
            let status = worker.0.wait().map_err(|e| e.to_string())?;
            slowest_ns = slowest_ns.max(spawned.elapsed().as_nanos() as f64);
            if !status.success() {
                return Err(format!("a shard worker failed: {status}"));
            }
            partials.push(read_body(out)?);
        }
        Ok(())
    })?;
    bodies.extend(partials.iter().cloned());
    if let Some((live, _)) = r.cache {
        bodies.push(read_body(live)?);
    }
    let parsed = t.span("json.parse", |_| {
        bodies.iter().all(|body| Json::parse(body).is_ok())
    });
    let reports = t
        .span("shard.decode", |_| {
            partials
                .iter()
                .map(|body| ShardReport::from_json(body))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let merged = t
        .span("shard.merge", |_| merge_reports(&reports))
        .map_err(|e| e.to_string())?;
    // What each worker encodes before it exits: its partial report and,
    // with a cache file, the schedule-cache dump it publishes.
    t.span("json.encode", |_| {
        for report in &reports {
            std::hint::black_box(report.to_json());
        }
        if r.cache.is_some() {
            std::hint::black_box(cache.dump());
        }
    });
    if let Some((_, publish)) = r.cache {
        t.span("schedule.file_publish", |_| cache.publish_to_file(publish))
            .map_err(|e| e.to_string())?;
    }
    Ok(Replayed {
        correct: parsed && merged.campaign() == Some(&r.p.oracle),
        slowest_ns,
        parsed_bytes: bodies.iter().map(String::len).sum::<usize>() as f64,
    })
}

/// The traced run. Warm sweeps are replayed layer by layer ([`replay`]):
/// `load_from_file`, shard planning, `ShardSpec::to_json`, one directly
/// spawned `shard-worker run --cache` per shard, `Json::parse` of the spec,
/// partial-report and cache-file bodies, `ShardReport::from_json`,
/// `merge_reports`, the workers' encodes and `publish_to_file`. Cold sweeps
/// are replayed the same way and each is paired with one orchestrated cold
/// sweep: the difference is the orchestrator's own share (spawning, poll
/// ticks, scratch files), which a cache file does not change.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let p = prepare(ctx, 0)?;
    let mut outcome = Outcome::default();
    let (mut warm_trace, mut cold_trace) = (Tracer::default(), Tracer::default());
    let dir = ctx.work.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let (live, publish) = (dir.join("schedules.json"), dir.join("publish.json"));
    let worker_bin = ctx.bin_dir.join("shard-worker");
    let warm = Replay {
        p: &p,
        dir: &dir,
        worker_bin: &worker_bin,
        cache: Some((&live, &publish)),
    };
    let cold = Replay {
        cache: None,
        ..warm
    };
    let orchestrated = orchestrator(ctx, None);
    let (mut parsed_bytes, mut retries) = (0.0, 0.0);
    let (mut warm_slowest, mut cold_slowest, mut cold_sweeps) =
        (Vec::new(), Vec::new(), Vec::new());
    let record = |outcome: &mut Outcome, replayed: Result<Replayed, String>| match replayed {
        Ok(r) => {
            outcome.check(r.correct);
            Some(r)
        }
        Err(message) => {
            eprintln!("sweep replay failed: {message}");
            outcome.check(false);
            None
        }
    };
    let mut window = Window::new(ctx.seconds);
    while window.room_for_another() {
        let iteration = Instant::now();
        restore(&p.pristine, &live)?;
        restore(&p.pristine, &publish)?;
        if let Some(r) = record(&mut outcome, warm_trace.op(|t| replay(t, &warm))) {
            warm_slowest.push(r.slowest_ns);
            parsed_bytes += r.parsed_bytes;
        }
        for _ in 0..COLD_PER_WARM {
            if let Some(r) = record(&mut outcome, cold_trace.op(|t| replay(t, &cold))) {
                cold_slowest.push(r.slowest_ns);
            }
            let (seconds, checked) = sweep(&orchestrated, &p);
            cold_sweeps.push(seconds * 1e9);
            retries += f64::from(checked.unwrap_or(0));
            outcome.check(checked == Some(0));
        }
        window.record(iteration);
    }
    let layer = |name: &str| median(&warm_trace.per_op(name));
    let cold_layer = |name: &str| median(&cold_trace.per_op(name));
    outcome.set("json.parse_ns", layer("json.parse"));
    outcome.set(
        "json.parse_mb_per_s",
        parsed_bytes / 1e6 / (warm_trace.total("json.parse") / 1e9),
    );
    outcome.set("json.encode_ns", layer("json.encode"));
    outcome.set("schedule.file_load_ns", layer("schedule.file_load"));
    outcome.set("schedule.file_publish_ns", layer("schedule.file_publish"));
    outcome.set("shard.plan_ns", layer("shard.plan"));
    outcome.set("shard.decode_ns", layer("shard.decode"));
    outcome.set("shard.merge_ns", layer("shard.merge"));
    outcome.set("worker.ns", median(&warm_slowest));
    outcome.set(
        "orchestrator.self_ns",
        median(&cold_sweeps)
            - median(&cold_slowest)
            - cold_layer("shard.decode")
            - cold_layer("shard.merge"),
    );
    outcome.set("orchestrator.retries", retries);
    outcome.set("unattributed_ns", layer(OP));
    outcome.set("trace.overhead_pct", warm_trace.overhead_pct());
    let cold_file = ctx.trace_file.with_file_name("sweep-cold.trace.tsv");
    for (tracer, file) in [(&warm_trace, &ctx.trace_file), (&cold_trace, &cold_file)] {
        tracer
            .write_tsv(file)
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    }
    Ok(outcome)
}
