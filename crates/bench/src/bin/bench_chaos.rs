//! Chaos gate: eight deterministic failure-injection scenarios against the
//! production-hardened service stack, each required to end in a **structured
//! response or a clean recovery** — never a crash, hang, or silent
//! corruption — with recovered results bit-identical to the healthy run.
//!
//! 1. **fuzzed-jsonl** — a seeded LCG mutates and truncates valid request
//!    lines; every response must still parse as a structured JSON object
//!    (echoing the request id whenever one survived the mutation), and the
//!    service must keep serving afterwards.
//! 2. **torn-cache** — a published schedule-cache file is torn mid-body
//!    (checksum trailer intact). A service warm-started from the file that
//!    computed nothing new must not skip its publish over the torn file: it
//!    quarantines it and writes a verifiable file holding every schedule.
//!    Torn again, the next daemon start must quarantine the file,
//!    cold-start, and still answer campaigns bit-identically.
//! 3. **panic-mid-request** — a request handler panics; the daemon must
//!    answer a structured error on that request and stay alive.
//! 4. **flood** — clients push past the in-flight admission budget; excess
//!    requests must be shed with `status:"overloaded"` + `retry_after_ms`,
//!    and the service must recover to full health once the flood drains.
//! 5. **deadline** — a `deadline_ms: 0` campaign must answer
//!    `status:"timeout"` deterministically, and the same cell must succeed
//!    (bit-identically) once the deadline is lifted — a timeout is never
//!    memoised.
//! 6. **killed-resume** — a sweep killed mid-run leaves one partial report
//!    behind, which is then corrupted; the resumed sweep must quarantine the
//!    torn partial, re-run that shard, and merge bit-identically to the
//!    healthy unsharded run.
//! 7. **deep-nesting** — a ~2 MB line nested 1,000,000 levels deep must get
//!    a structured error naming the nesting limit instead of overflowing the
//!    parser's stack, and the `ping` on the next line must be answered.
//! 8. **huge-string** — a 15 MiB string-heavy line (just under the 16 MiB
//!    line cap) must be answered within 1 s: string parsing is linear.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p themis-bench --bin bench-chaos -- [--smoke] [output.json]
//! ```
//!
//! Emits a `CHAOS_report.json` report (`kind:"chaos-bench"`) that
//! `bench-gate --chaos-scenarios N` checks in CI. `--smoke` only shrinks the
//! fuzz-iteration count; every scenario still runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use themis::api::json::Json;
use themis::api::orchestrator::{Orchestrator, OrchestratorOptions};
use themis::api::serve::{campaign_cells_to_json, ServeOptions, Service};
use themis::core::durable;
use themis::prelude::*;

fn die(message: &str) -> ! {
    eprintln!("bench-chaos: {message}");
    std::process::exit(1);
}

/// A scratch directory unique to this process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("themis-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|err| die(&format!("cannot create scratch dir: {err}")));
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The tiny campaign matrix shared by every scenario that simulates.
fn campaign_specs() -> Vec<RunSpec> {
    Campaign::new()
        .topologies([PresetTopology::Sw2d])
        .schedulers(SchedulerKind::all())
        .sizes_mib([16.0])
        .chunk_counts([4])
        .expand()
        .unwrap()
}

fn campaign_request(id: usize, extra: &[(&'static str, Json)]) -> String {
    let mut fields = vec![
        ("id", Json::Num(id as f64)),
        ("kind", Json::Str("campaign".to_string())),
        ("cells", campaign_cells_to_json(&campaign_specs())),
    ];
    fields.extend(extra.iter().cloned());
    Json::obj(fields).render()
}

/// The `result` payload of a healthy campaign answered by a fresh service —
/// the bit-identity reference for the recovery scenarios.
fn healthy_campaign_result() -> Json {
    let service = Service::default();
    let response = Json::parse(&service.handle_line(&campaign_request(0, &[])))
        .unwrap_or_else(|err| die(&format!("healthy campaign response unparseable: {err}")));
    expect_status(&response, "ok", "healthy campaign");
    response.field("result").unwrap().clone()
}

fn expect_status(response: &Json, want: &str, what: &str) {
    let status = response
        .field("status")
        .and_then(Json::as_str)
        .unwrap_or_else(|err| die(&format!("{what}: response without status: {err}")));
    if status != want {
        die(&format!(
            "{what}: expected status {want:?}, got {response:?}"
        ));
    }
}

/// One scenario verdict for the report.
struct Verdict {
    name: &'static str,
    detail: String,
}

// --- Scenario 1: fuzzed/truncated JSONL lines ------------------------------

/// Deterministic 64-bit LCG (Knuth MMIX constants) — the only randomness in
/// this binary, so every run fuzzes the exact same byte positions.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() >> 16) as usize % bound.max(1)
    }
}

fn fuzzed_jsonl(iterations: usize) -> Verdict {
    let service = Service::default();
    let base = campaign_request(99, &[]);
    let mut rng = Lcg(0x0074_e315);
    let mut structured = 0usize;
    let mut id_echoes = 0usize;
    for round in 0..iterations {
        let mut bytes = base.clone().into_bytes();
        match round % 3 {
            // Byte mutation: replace 1–4 bytes with random printable ASCII,
            // which keeps the line valid UTF-8 but rarely valid JSON.
            0 => {
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(bytes.len());
                    bytes[at] = 0x20 + (rng.below(0x5f) as u8);
                }
            }
            // Truncation: cut the line anywhere, including inside a token.
            1 => bytes.truncate(rng.below(bytes.len())),
            // Both: truncate, then mutate what is left.
            _ => {
                bytes.truncate(1 + rng.below(bytes.len() - 1));
                let at = rng.below(bytes.len());
                bytes[at] = 0x20 + (rng.below(0x5f) as u8);
            }
        }
        let line = String::from_utf8(bytes).expect("ASCII mutations stay valid UTF-8");
        let response = match Json::parse(&service.handle_line(&line)) {
            Ok(response) => response,
            Err(err) => die(&format!(
                "fuzz round {round}: unstructured response to {line:?}: {err}"
            )),
        };
        if response.field("status").and_then(Json::as_str).is_err() {
            die(&format!("fuzz round {round}: response without status"));
        }
        structured += 1;
        // Whenever the mutated line still parses with the original id, the
        // structured response must echo it back.
        if let Ok(request) = Json::parse(&line) {
            if let Some(id) = request.get("id") {
                if response.get("id") != Some(id) {
                    die(&format!(
                        "fuzz round {round}: id {id:?} not echoed in {response:?}"
                    ));
                }
                id_echoes += 1;
            }
        }
    }
    // The service survived every mutation and still answers.
    let pong = Json::parse(&service.handle_line(r#"{"id":1,"kind":"ping"}"#)).unwrap();
    expect_status(&pong, "ok", "post-fuzz ping");
    Verdict {
        name: "fuzzed-jsonl",
        detail: format!("{structured} mutated lines answered structurally, {id_echoes} ids echoed"),
    }
}

// --- Scenario 2: torn cache file -------------------------------------------

/// Tears a sealed file mid-body, leaving the checksum trailer intact: the
/// worst corruption, because the body is still mostly plausible JSON.
fn tear(path: &Path) {
    let sealed = std::fs::read_to_string(path).unwrap();
    let trailer_at = sealed
        .rfind(durable::TRAILER_PREFIX)
        .unwrap_or_else(|| die("published cache file carries no checksum trailer"));
    let torn = format!("{}{}", &sealed[..trailer_at / 2], &sealed[trailer_at..]);
    std::fs::write(path, torn).unwrap();
}

/// The process-wide counters of cache-file publishes that wrote and that
/// were skipped.
fn publish_counters() -> (u64, u64) {
    let global = themis::core::telemetry::global().snapshot();
    (
        global.counter("cache.publish_written"),
        global.counter("cache.publish_skipped"),
    )
}

fn torn_cache(scratch: &Scratch, healthy: &Json) -> Verdict {
    let cache_file = scratch.path("chaos-cache.json");
    let options = ServeOptions {
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    };
    let warm = Service::new(options.clone());
    let response = Json::parse(&warm.handle_line(&campaign_request(1, &[]))).unwrap();
    expect_status(&response, "ok", "cache-warming campaign");
    let published = warm
        .publish_cache_file()
        .unwrap_or_else(|err| die(&format!("cache publish failed: {err}")));
    if published == 0 {
        die("cache publish wrote no schedules");
    }

    // A service warm-started from the file computes nothing new, so its
    // publish has nothing to merge, until the file is torn under it. The
    // publish must then quarantine the torn file and write a verifiable one
    // holding every schedule, never skip.
    let rewarm = Service::new(options.clone());
    match rewarm.load_cache_file() {
        Ok(loaded) if loaded == published => {}
        other => die(&format!(
            "warm start loaded {other:?} of {published} schedules"
        )),
    }
    let response = Json::parse(&rewarm.handle_line(&campaign_request(3, &[]))).unwrap();
    expect_status(&response, "ok", "warm-started campaign");
    if response.field("result").unwrap() != healthy {
        die("warm-started campaign diverged from the healthy run");
    }
    let misses = response
        .field("cache")
        .and_then(|cache| cache.field("schedules"))
        .and_then(|schedules| schedules.field("misses"))
        .and_then(Json::as_usize);
    if misses != Ok(0) {
        die(&format!("warm-started campaign scheduled anew: {misses:?}"));
    }
    tear(&cache_file);
    let (written_before, skipped_before) = publish_counters();
    match rewarm.publish_cache_file() {
        Ok(republished) if republished == published => {}
        other => die(&format!(
            "publish over the torn file returned {other:?}, not {published}"
        )),
    }
    if publish_counters() != (written_before + 1, skipped_before) {
        die("publish over the torn file did not write");
    }
    let first_quarantine = scratch.path("chaos-cache.json.corrupt-0");
    if !first_quarantine.exists() {
        die("publish did not quarantine the torn cache file");
    }
    if !matches!(
        durable::read_verified(&cache_file),
        Ok(durable::VerifiedRead::Clean(_))
    ) {
        die("publish over the torn file left no verifiable file");
    }
    match Service::new(options.clone()).load_cache_file() {
        Ok(loaded) if loaded == published => {}
        other => die(&format!(
            "the rebuilt file loads {other:?} of {published} schedules"
        )),
    }

    tear(&cache_file);
    let quarantined_before = themis::core::telemetry::global()
        .snapshot()
        .counter("cache.corrupt_quarantined");
    let cold = Service::new(options);
    let loaded = cold.load_cache_file().unwrap_or_else(|err| {
        die(&format!(
            "torn cache load errored instead of recovering: {err}"
        ))
    });
    if loaded != 0 {
        die(&format!("torn cache yielded {loaded} schedules"));
    }
    let quarantine = scratch.path("chaos-cache.json.corrupt-1");
    if !quarantine.exists() {
        die("torn cache file was not quarantined");
    }
    let quarantined_after = themis::core::telemetry::global()
        .snapshot()
        .counter("cache.corrupt_quarantined");
    if quarantined_after <= quarantined_before {
        die("cache.corrupt_quarantined counter did not advance");
    }

    // Cold-started after quarantine, the service still answers bit-identically.
    let response = Json::parse(&cold.handle_line(&campaign_request(2, &[]))).unwrap();
    expect_status(&response, "ok", "post-quarantine campaign");
    if response.field("result").unwrap() != healthy {
        die("post-quarantine campaign diverged from the healthy run");
    }
    Verdict {
        name: "torn-cache",
        detail: format!(
            "torn file under a warm publish quarantined to `{}` and rebuilt with \
             all {published} schedules; torn file at start-up quarantined to `{}`, \
             rebuilt bit-identically",
            first_quarantine.file_name().unwrap().to_string_lossy(),
            quarantine.file_name().unwrap().to_string_lossy()
        ),
    }
}

// --- Scenario 3: panic mid-request -----------------------------------------

fn panic_mid_request() -> Verdict {
    let service = Service::default();
    let before = service.telemetry().snapshot().counter("serve.panics");
    // The injected panic is expected — keep its backtrace out of the logs.
    std::panic::set_hook(Box::new(|_| {}));
    let response = Json::parse(
        &service.handle_line_with(r#"{"id":7,"kind":"chaos-panic"}"#, |_, kind, _| {
            (kind == "chaos-panic").then(|| panic!("injected chaos panic"))
        }),
    )
    .unwrap_or_else(|err| {
        die(&format!(
            "panicking request answered unparseable line: {err}"
        ))
    });
    let _ = std::panic::take_hook();
    expect_status(&response, "error", "panicking request");
    let reason = response.field("error").and_then(Json::as_str).unwrap();
    if !reason.contains("injected chaos panic") {
        die(&format!("panic message not surfaced: {reason:?}"));
    }
    if service.telemetry().snapshot().counter("serve.panics") <= before {
        die("serve.panics counter did not advance");
    }
    // The daemon survived: the very next request is served normally.
    let pong = Json::parse(&service.handle_line(r#"{"id":8,"kind":"ping"}"#)).unwrap();
    expect_status(&pong, "ok", "post-panic ping");
    Verdict {
        name: "panic-mid-request",
        detail: format!("structured error ({reason:?}), daemon alive"),
    }
}

// --- Scenario 4: client flood past the admission budget ---------------------

fn flood(healthy: &Json) -> Verdict {
    const FLOOD: usize = 8;
    let service = Service::new(ServeOptions {
        max_in_flight: 1,
        ..ServeOptions::default()
    });
    let release = (Mutex::new(false), Condvar::new());
    let occupied = AtomicBool::new(false);
    let mut shed = 0usize;
    std::thread::scope(|scope| {
        // One request occupies the whole budget, blocked on a condvar inside
        // its handler until the flood has been measured.
        let blocker = scope.spawn(|| {
            service.handle_line_with(r#"{"id":10,"kind":"chaos-block"}"#, |_, kind, _| {
                (kind == "chaos-block").then(|| {
                    occupied.store(true, Ordering::Release);
                    let (lock, signal) = &release;
                    let mut released = lock.lock().unwrap();
                    while !*released {
                        released = signal.wait(released).unwrap();
                    }
                    Ok(Json::obj([("blocked", Json::Bool(true))]))
                })
            })
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while !occupied.load(Ordering::Acquire) {
            if Instant::now() > deadline {
                die("blocker request never reached its handler");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The flood: every heavy request past the budget must be shed with a
        // structured overload response carrying retry advice — never queued.
        for round in 0..FLOOD {
            let response =
                Json::parse(&service.handle_line(&campaign_request(20 + round, &[]))).unwrap();
            expect_status(&response, "overloaded", "flooded campaign");
            let retry = response
                .field("retry_after_ms")
                .and_then(Json::as_f64)
                .unwrap_or_else(|err| {
                    die(&format!("overload response without retry advice: {err}"))
                });
            if retry <= 0.0 {
                die("retry_after_ms must be positive");
            }
            shed += 1;
        }
        let (lock, signal) = &release;
        *lock.lock().unwrap() = true;
        signal.notify_all();
        let blocked = Json::parse(&blocker.join().expect("blocker thread panicked")).unwrap();
        expect_status(&blocked, "ok", "released blocker");
    });
    if service.telemetry().snapshot().counter("serve.shed") < FLOOD as u64 {
        die("serve.shed counter did not record the flood");
    }
    // Budget drained: the same campaign now runs to a bit-identical answer.
    let response = Json::parse(&service.handle_line(&campaign_request(30, &[]))).unwrap();
    expect_status(&response, "ok", "post-flood campaign");
    if response.field("result").unwrap() != healthy {
        die("post-flood campaign diverged from the healthy run");
    }
    Verdict {
        name: "flood",
        detail: format!("{shed}/{FLOOD} requests shed with retry_after_ms, then recovered"),
    }
}

// --- Scenario 5: deadline-exceeded cell -------------------------------------

fn deadline_exceeded(healthy: &Json) -> Verdict {
    let service = Service::default();
    // A zero deadline expires before the first simulator epoch, so the
    // timeout is deterministic — no timing assumptions.
    let response = Json::parse(
        &service.handle_line(&campaign_request(40, &[("deadline_ms", Json::Num(0.0))])),
    )
    .unwrap();
    expect_status(&response, "timeout", "zero-deadline campaign");
    if service.telemetry().snapshot().counter("serve.timeouts") == 0 {
        die("serve.timeouts counter did not advance");
    }
    // The timeout was not memoised: the identical cell without a deadline
    // simulates cleanly and bit-identically.
    let response = Json::parse(&service.handle_line(&campaign_request(41, &[]))).unwrap();
    expect_status(&response, "ok", "post-timeout campaign");
    if response.field("result").unwrap() != healthy {
        die("post-timeout campaign diverged from the healthy run");
    }
    Verdict {
        name: "deadline",
        detail: "deadline_ms:0 answered status:\"timeout\"; retry without deadline bit-identical"
            .to_string(),
    }
}

// --- Scenario 6: killed-then-resumed sweep with a corrupted partial ----------

fn killed_resume(scratch: &Scratch, worker: &Path) -> Verdict {
    let specs = campaign_specs();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let sweep = "chaos-resume";

    // Kill the sweep mid-run: shard 1's only attempt aborts after one cell,
    // so the deterministic sweep directory keeps shard 0's finished partial.
    let mut crash = OrchestratorOptions::new(worker).with_sweep_id(sweep);
    crash.shards = 2;
    crash.work_dir = scratch.path("work");
    crash.max_attempts = 1;
    crash.fail_first_attempt = vec![(1, 1)];
    if Orchestrator::new(crash).run_campaign(&specs).is_ok() {
        die("crash run unexpectedly succeeded");
    }
    let partial = scratch.path(&format!("work/sweep-{sweep}/shard-0.partial.json"));
    if !partial.exists() {
        die("crash run left no shard-0 partial behind");
    }

    // Corrupt the surviving partial mid-body, trailer intact — the resume
    // must NOT adopt it.
    let sealed = std::fs::read_to_string(&partial).unwrap();
    let trailer_at = sealed
        .rfind(durable::TRAILER_PREFIX)
        .unwrap_or_else(|| die("shard partial carries no checksum trailer"));
    let torn = format!("{}{}", &sealed[..trailer_at / 2], &sealed[trailer_at..]);
    std::fs::write(&partial, torn).unwrap();

    let mut resume = OrchestratorOptions::new(worker).with_sweep_id(sweep);
    resume.shards = 2;
    resume.work_dir = scratch.path("work");
    resume.keep_files = true;
    let outcome = Orchestrator::new(resume)
        .run_campaign(&specs)
        .unwrap_or_else(|err| die(&format!("resume after corruption failed: {err}")));
    if !outcome.resumed_shards.is_empty() {
        die(&format!(
            "corrupt partial was adopted: resumed shards {:?}",
            outcome.resumed_shards
        ));
    }
    if outcome.attempts[0] == 0 {
        die("shard 0 was not re-run after its partial was corrupted");
    }
    let quarantine = scratch.path(&format!(
        "work/sweep-{sweep}/shard-0.partial.json.corrupt-0"
    ));
    if !quarantine.exists() {
        die("corrupt partial was not quarantined");
    }
    if outcome.merged.campaign() != Some(&reference) {
        die("resumed sweep diverged from the healthy unsharded run");
    }
    Verdict {
        name: "killed-resume",
        detail: format!(
            "corrupt partial quarantined, shard re-run ({} attempts), merge bit-identical",
            outcome.attempts[0]
        ),
    }
}

// --- Scenarios 7 and 8: hostile line shapes ---------------------------------

/// Feeds `lines` to a fresh service's serve loop over an in-memory pipe and
/// returns every response, parsed, plus the wall time the loop took.
fn serve_lines(lines: &[String]) -> (Vec<Json>, Duration) {
    let service = Service::default();
    let input = lines
        .iter()
        .map(|line| format!("{line}\n"))
        .collect::<String>();
    let mut out: Vec<u8> = Vec::new();
    let started = Instant::now();
    service
        .serve(std::io::Cursor::new(input.into_bytes()), &mut out)
        .unwrap_or_else(|err| die(&format!("serve loop failed: {err}")));
    let elapsed = started.elapsed();
    let responses = String::from_utf8(out)
        .unwrap_or_else(|err| die(&format!("non-UTF-8 response: {err}")))
        .lines()
        .map(|line| {
            Json::parse(line).unwrap_or_else(|err| die(&format!("unstructured response: {err}")))
        })
        .collect();
    (responses, elapsed)
}

fn deep_nesting() -> Verdict {
    const DEPTH: usize = 1_000_000;
    let deep = format!(
        "{{\"id\":50,\"kind\":\"ping\",\"x\":{}{}}}",
        "[".repeat(DEPTH),
        "]".repeat(DEPTH)
    );
    let (responses, _) = serve_lines(&[deep, r#"{"id":51,"kind":"ping"}"#.to_string()]);
    if responses.len() != 2 {
        die(&format!("expected 2 responses, got {}", responses.len()));
    }
    expect_status(&responses[0], "error", "deeply nested line");
    let reason = responses[0].field("error").and_then(Json::as_str).unwrap();
    if !reason.contains("64-level limit") {
        die(&format!(
            "nesting error does not name the limit: {reason:?}"
        ));
    }
    expect_status(&responses[1], "ok", "ping after the deep line");
    Verdict {
        name: "deep-nesting",
        detail: format!("{DEPTH}-deep line refused ({reason:?}), next line served"),
    }
}

fn huge_string() -> Verdict {
    // 15 MiB of text with two escapes and a non-ASCII char in every 64
    // bytes, so both the plain-run and the escape paths are exercised.
    let run = format!("{}\\n\\\"é", "x".repeat(58));
    let pad = run.repeat(15 * 1024 * 1024 / run.len());
    let line = format!("{{\"id\":60,\"kind\":\"ping\",\"pad\":\"{pad}\"}}");
    let bytes = line.len();
    let (responses, elapsed) = serve_lines(&[line]);
    if responses.len() != 1 {
        die(&format!("expected 1 response, got {}", responses.len()));
    }
    expect_status(&responses[0], "ok", "string-heavy line");
    if elapsed > Duration::from_secs(1) {
        die(&format!(
            "{bytes}-byte string-heavy line took {elapsed:?} (limit 1 s)"
        ));
    }
    Verdict {
        name: "huge-string",
        detail: format!("{bytes}-byte string-heavy line answered in {elapsed:?}"),
    }
}

// --- Driver -----------------------------------------------------------------

fn sibling_worker() -> PathBuf {
    let path = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("shard-worker")));
    match path {
        Some(path) if path.exists() => path,
        _ => die("shard-worker binary not found next to bench-chaos (build the whole workspace)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let output = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "CHAOS_report.json".to_string());
    let fuzz_iterations = if smoke { 300 } else { 2000 };
    let worker = sibling_worker();
    let scratch = Scratch::new();
    let healthy = healthy_campaign_result();

    let started = Instant::now();
    let verdicts = vec![
        fuzzed_jsonl(fuzz_iterations),
        torn_cache(&scratch, &healthy),
        panic_mid_request(),
        flood(&healthy),
        deadline_exceeded(&healthy),
        killed_resume(&scratch, &worker),
        deep_nesting(),
        huge_string(),
    ];
    // A scenario that fails die()s before reaching here, so every listed
    // verdict passed.
    for verdict in &verdicts {
        println!("chaos {:<18} PASS  {}", verdict.name, verdict.detail);
    }
    let report = Json::obj([
        ("kind", Json::Str("chaos-bench".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("fuzz_iterations", Json::Num(fuzz_iterations as f64)),
        (
            "elapsed_ms",
            Json::Num(started.elapsed().as_millis() as f64),
        ),
        (
            "scenarios",
            Json::Arr(
                verdicts
                    .iter()
                    .map(|verdict| {
                        Json::obj([
                            ("name", Json::Str(verdict.name.to_string())),
                            ("passed", Json::Bool(true)),
                            ("detail", Json::Str(verdict.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("passed", Json::Num(verdicts.len() as f64)),
        ("total", Json::Num(verdicts.len() as f64)),
    ]);
    std::fs::write(&output, format!("{}\n", report.render()))
        .unwrap_or_else(|err| die(&format!("failed to write {output}: {err}")));
    println!(
        "chaos report: {}/{} scenarios passed -> {output}",
        verdicts.len(),
        verdicts.len()
    );
}
