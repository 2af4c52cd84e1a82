//! Cross-process campaign shard driver.
//!
//! A sharded campaign runs in three steps, each of which this binary covers:
//!
//! 1. `plan` — expand a campaign matrix, partition it into N shards and
//!    write one self-contained `shard-NN.json` spec file per shard;
//! 2. `run` — execute one spec file (anywhere: another process, another
//!    host) and write a partial-report file, optionally warm-starting from —
//!    and republishing to — a shared schedule-cache file;
//! 3. `merge` — reassemble the partial reports into a report bit-identical
//!    to the unsharded `Runner::execute`, with aggregate cache statistics.
//!
//! Usage:
//!
//! ```text
//! shard-worker plan --topology 2D-SW_SW --sizes-mib 64,256 --shards 2 --out-dir shards
//! shard-worker run shards/shard-00.json --out shards/part-00.json --cache schedules.json
//! shard-worker run shards/shard-01.json --out shards/part-01.json --cache schedules.json
//! shard-worker merge shards/part-00.json shards/part-01.json --out report.json
//! shard-worker cache-merge a.json b.json --out schedules.json
//! ```
//!
//! `plan` sweeps the named preset topologies × sizes × chunk counts under
//! all three Table 3 schedulers (the paper's default scheduler axis).
//!
//! Exit codes: 0 success, 1 usage/file errors, 3 shard execution failure
//! (the code the orchestrator treats as retryable).

use std::process::ExitCode;
use themis::api::shard::{merge_reports, ShardPlan, ShardReport, ShardSpec, ShardStrategy};
use themis::core::durable::{self, VerifiedRead};
use themis::core::json::Json;
use themis::core::telemetry::{self, log_event, LogLevel};
use themis::prelude::*;
use themis::ScheduleCache;

/// A failed subcommand, carrying which exit code it maps to.
enum CmdError {
    /// Bad arguments or unreadable/unwritable files → exit code 1.
    Usage(String),
    /// The shard itself failed to execute (scheduling/simulation error or an
    /// injected `--fail-after` abort) → exit code 3, the orchestrator's
    /// retry signal.
    Shard(String),
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError::Usage(message)
    }
}

/// Exit code for per-shard execution failures ([`CmdError::Shard`]).
const EXIT_SHARD_FAILED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("plan") => plan(&args[1..]).map_err(CmdError::Usage),
        Some("run") => run(&args[1..]),
        Some("merge") => merge(&args[1..]).map_err(CmdError::Usage),
        Some("cache-merge") => cache_merge(&args[1..]).map_err(CmdError::Usage),
        Some("--help" | "-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CmdError::Usage(format!(
            "unknown subcommand `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CmdError::Usage(message)) => {
            eprintln!("shard-worker: {message}");
            ExitCode::FAILURE
        }
        Err(CmdError::Shard(message)) => {
            eprintln!("shard-worker: shard failed: {message}");
            ExitCode::from(EXIT_SHARD_FAILED)
        }
    }
}

const USAGE: &str = "\
usage: shard-worker <plan|run|merge|cache-merge> [options]

  plan  --topology NAME [--topology NAME ...] --sizes-mib A[,B...]
        [--chunks A[,B...]] --shards N [--strategy round-robin|cost-balanced]
        [--out-dir DIR]
          Expand the campaign, partition it and write DIR/shard-NN.json.

  run   SPEC.json --out PART.json [--cache CACHE.json]
        [--progress FILE] [--fail-after N]
          Execute one shard spec, one cell at a time (a shard is the unit
          of parallelism); write its partial report. With --cache the
          worker warm-starts from the cache file (if present) and
          merge-publishes back into it afterwards (concurrent workers lose
          no entries). --progress writes a JSON heartbeat (done, total,
          elapsed_ms and the worker's telemetry snapshot) to FILE after
          every cell; --fail-after aborts deterministically after N cells
          (exit code 3) to exercise orchestrator retries. Shard execution
          failures exit with code 3; usage/file errors with code 1.

  merge PART.json [PART.json ...] --out REPORT.json
          Reassemble partial reports into the unsharded campaign report.

  cache-merge CACHE.json [CACHE.json ...] --out MERGED.json
          Merge schedule-cache dump files into one deterministic dump
          (merge(A,B) == merge(B,A)).
";

/// Pulls the value of a `--flag VALUE` option out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(at) if at + 1 < args.len() => {
            let value = args.remove(at + 1);
            args.remove(at);
            Ok(Some(value))
        }
        Some(_) => Err(format!("`{flag}` expects a value")),
    }
}

/// Pulls every occurrence of a repeatable `--flag VALUE` option.
fn take_flags(args: &mut Vec<String>, flag: &str) -> Result<Vec<String>, String> {
    let mut values = Vec::new();
    while let Some(value) = take_flag(args, flag)? {
        values.push(value);
    }
    Ok(values)
}

fn parse_list<T: std::str::FromStr>(text: &str, what: &str) -> Result<Vec<T>, String> {
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<T>()
                .map_err(|_| format!("invalid {what} `{part}`"))
        })
        .collect()
}

fn plan(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let topologies = take_flags(&mut args, "--topology")?;
    if topologies.is_empty() {
        return Err("`plan` needs at least one --topology".to_string());
    }
    let sizes: Vec<f64> = parse_list(
        &take_flag(&mut args, "--sizes-mib")?.ok_or("`plan` needs --sizes-mib")?,
        "size",
    )?;
    let chunks: Vec<usize> = match take_flag(&mut args, "--chunks")? {
        Some(text) => parse_list(&text, "chunk count")?,
        None => vec![themis::api::DEFAULT_CHUNKS],
    };
    let shards: usize = take_flag(&mut args, "--shards")?
        .ok_or("`plan` needs --shards")?
        .parse()
        .map_err(|_| "invalid --shards value".to_string())?;
    let strategy = match take_flag(&mut args, "--strategy")?.as_deref() {
        None | Some("cost-balanced") => ShardStrategy::CostBalanced,
        Some("round-robin") => ShardStrategy::RoundRobin,
        Some(other) => return Err(format!("unknown strategy `{other}`")),
    };
    let out_dir = take_flag(&mut args, "--out-dir")?.unwrap_or_else(|| "shards".to_string());
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let platforms = topologies
        .iter()
        .map(|name| Platform::named(name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| err.to_string())?;
    let specs = Campaign::new()
        .platforms(platforms)
        .sizes_mib(sizes)
        .chunk_counts(chunks)
        .expand()
        .map_err(|err| err.to_string())?;
    let plan = ShardPlan::from_cells(strategy, &specs, shards);
    let shard_specs = ShardSpec::campaign_shards(&specs, &plan).map_err(|err| err.to_string())?;

    std::fs::create_dir_all(&out_dir).map_err(|err| format!("cannot create `{out_dir}`: {err}"))?;
    for shard in &shard_specs {
        let path = format!("{out_dir}/shard-{:02}.json", shard.shard_index());
        std::fs::write(&path, shard.to_json())
            .map_err(|err| format!("cannot write `{path}`: {err}"))?;
        eprintln!("wrote {path} ({} cells)", shard.len());
    }
    eprintln!(
        "planned {} cells into {} shards",
        specs.len(),
        plan.shard_count()
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), CmdError> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out")?.ok_or_else(|| "`run` needs --out".to_string())?;
    let cache_path = take_flag(&mut args, "--cache")?;
    let progress_path = take_flag(&mut args, "--progress")?;
    let fail_after: Option<usize> = match take_flag(&mut args, "--fail-after")? {
        Some(text) => Some(
            text.parse()
                .map_err(|_| "invalid --fail-after value".to_string())?,
        ),
        None => None,
    };
    let [spec_path] = args.as_slice() else {
        return Err(CmdError::Usage(
            "`run` needs exactly one spec file".to_string(),
        ));
    };

    let text = std::fs::read_to_string(spec_path)
        .map_err(|err| format!("cannot read `{spec_path}`: {err}"))?;
    let spec = ShardSpec::from_json(&text).map_err(|err| err.to_string())?;

    let cache = ScheduleCache::new();
    if let Some(path) = &cache_path {
        let loaded = cache
            .load_from_file(std::path::Path::new(path))
            .map_err(|err| err.to_string())?;
        if loaded > 0 {
            log_event(
                LogLevel::Info,
                "worker.warm_start",
                &[
                    ("schedules", Json::Num(loaded as f64)),
                    ("cache", Json::Str(path.clone())),
                ],
            );
        }
    }
    // Cost tables are derived data and cheap to rebuild, so only the schedule
    // half of the plan round-trips through the cache file.
    let plan = SimPlanCache::with_schedules(cache);

    // The heartbeat hook: structured progress events on stderr, a JSON
    // heartbeat file (progress + this process's telemetry snapshot) for the
    // orchestrator's stall watchdog and cells/sec summary, and the
    // deterministic --fail-after abort used to exercise the retry path.
    let shard_index = spec.shard_index();
    let started = std::time::Instant::now();
    let observe = |done: usize, total: usize| {
        log_event(
            LogLevel::Info,
            "worker.progress",
            &[
                ("shard", Json::Num(shard_index as f64)),
                ("done", Json::Num(done as f64)),
                ("total", Json::Num(total as f64)),
            ],
        );
        if let Some(path) = &progress_path {
            let heartbeat = Json::obj([
                ("done", Json::Num(done as f64)),
                ("total", Json::Num(total as f64)),
                (
                    "elapsed_ms",
                    Json::Num(started.elapsed().as_millis() as f64),
                ),
                ("telemetry", telemetry::global().snapshot().to_json()),
            ]);
            let _ = std::fs::write(path, format!("{}\n", heartbeat.render()));
        }
        match fail_after {
            Some(after) => done < after,
            None => true,
        }
    };
    let report = spec
        .execute_with_cache_observed(&plan, observe)
        .map_err(|err| CmdError::Shard(err.to_string()))?;
    // Sealed + atomic: a worker killed mid-write can never leave a torn
    // partial that a resume or merge would silently adopt.
    durable::write_atomic(std::path::Path::new(&out), &report.to_json())
        .map_err(|err| format!("cannot write `{out}`: {err}"))?;

    if let Some(path) = &cache_path {
        // Merge-publish: concurrent sibling workers finishing around the same
        // time all land their schedules (last-writer-wins would drop them).
        let published = plan
            .schedules()
            .publish_to_file(std::path::Path::new(path))
            .map_err(|err| err.to_string())?;
        log_event(
            LogLevel::Info,
            "worker.cache_publish",
            &[
                ("schedules", Json::Num(published as f64)),
                ("cache", Json::Str(path.clone())),
            ],
        );
    }
    let stats = report.cache();
    log_event(
        LogLevel::Info,
        "worker.done",
        &[
            ("shard", Json::Num(shard_index as f64)),
            ("cells", Json::Num(report.len() as f64)),
            ("out", Json::Str(out.clone())),
            ("cache_hits", Json::Num(stats.hits as f64)),
            ("cache_misses", Json::Num(stats.misses as f64)),
            (
                "elapsed_ms",
                Json::Num(started.elapsed().as_millis() as f64),
            ),
        ],
    );
    Ok(())
}

/// Reads one durable input file (partial report or cache dump), accepting
/// sealed (checksum-verified) and legacy unsealed files, and failing loudly
/// on a corrupt one — `merge`/`cache-merge` must never fold a torn file into
/// an otherwise-good result.
fn read_verified_body(path: &str) -> Result<String, String> {
    match durable::read_verified(std::path::Path::new(path)) {
        Ok(VerifiedRead::Clean(body)) | Ok(VerifiedRead::Legacy(body)) => Ok(body),
        Ok(VerifiedRead::Corrupt { reason }) => Err(format!("`{path}` is corrupt: {reason}")),
        Ok(VerifiedRead::Missing) => Err(format!("cannot read `{path}`: no such file")),
        Err(err) => Err(format!("cannot read `{path}`: {err}")),
    }
}

fn merge(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out")?.ok_or("`merge` needs --out")?;
    if args.is_empty() {
        return Err("`merge` needs at least one partial report".to_string());
    }
    let partials = args
        .iter()
        .map(|path| {
            let text = read_verified_body(path)?;
            ShardReport::from_json(&text).map_err(|err| format!("{path}: {err}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let merged = merge_reports(&partials).map_err(|err| err.to_string())?;
    std::fs::write(&out, merged.to_json()).map_err(|err| format!("cannot write `{out}`: {err}"))?;
    let stats = merged.cache();
    eprintln!(
        "merged {} cells from {} shards -> {out} (cache: {} hits, {} misses, {:.0}% hit rate)",
        merged.len(),
        partials.len(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    Ok(())
}

fn cache_merge(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out")?.ok_or("`cache-merge` needs --out")?;
    if args.is_empty() {
        return Err("`cache-merge` needs at least one cache dump".to_string());
    }
    let dumps = args
        .iter()
        .map(|path| read_verified_body(path))
        .collect::<Result<Vec<String>, String>>()?;
    let merged = ScheduleCache::merge_dumps(dumps.iter().map(String::as_str))
        .map_err(|err| err.to_string())?;
    let entries = ScheduleCache::new();
    let loaded = entries.load(&merged).map_err(|err| err.to_string())?;
    durable::write_atomic(std::path::Path::new(&out), &merged)
        .map_err(|err| format!("cannot write `{out}`: {err}"))?;
    eprintln!("merged {} dumps ({loaded} schedules) -> {out}", dumps.len());
    Ok(())
}
