//! The `serve` workload: one `themis-serve --cache` daemon on a
//! stdin/stdout pipe, driven open-loop at a fixed, seeded arrival rate.
//!
//! Four in five requests repeat the 36-cell `campaign` request, whose cells
//! are all resident in the daemon. The fifth swaps one of its two sizes for
//! a size never requested before, so 18 fresh cells are computed. Arrival
//! times and fresh sizes come from the seed; every request line and every
//! expected response is rendered during set-up. The writer sends on
//! schedule without waiting for replies; the reader only timestamps raw
//! response lines, which are checked after the measured window.

use crate::inproc::{campaign_grid, traced_cell};
use crate::stats::{campaign_digest, median, quantile, unperturbed, Rng};
use crate::trace::{Tracer, OP};
use crate::{children_peak_rss_mib, Ctx, Outcome};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use themis::api::serve::campaign_cells_to_json;
use themis::core::json::Json;
use themis::prelude::*;

/// The fixed arrival rate of the open-loop phase, requests per second:
/// about a third of the `max_rps` measured when the benchmark was defined,
/// so a slow phase of a shared machine cannot push the daemon into a
/// growing backlog.
pub const RATE_RPS: f64 = 32.0;

/// Share of requests that carry 18 fresh cells.
pub const MISS_SHARE: f64 = 0.2;

/// Share of the measured window spent in the open loop; the rest goes to
/// back-to-back bursts of the same mix.
const OPEN_LOOP_SHARE: f64 = 0.85;

/// Back-to-back requests per measured second.
const BURST_PER_S: f64 = 16.0;

/// The run alternates this many back-to-back bursts with as many slices of
/// the open loop, so a slow phase of the machine lasting seconds touches
/// only some of each.
const SEGMENTS: usize = 5;

/// Requests in flight during a burst: enough that the daemon never waits
/// for the client, so the gap between two responses is one service time.
const WINDOW: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The sizes of the resident request, MiB.
const SIZES: [f64; 2] = [64.0, 256.0];

/// One request: its line and the `result` bytes the response must carry.
pub struct Request {
    pub id: u64,
    pub line: String,
    /// `None` for the resident request; else (fresh size MiB, slot swapped).
    pub fresh: Option<(f64, usize)>,
    pub expected: std::sync::Arc<String>,
}

/// The seeded request mix: for each request, `None` (the resident request)
/// or a never-requested size and the slot of [`SIZES`] it replaces.
pub fn request_mix(seed: u64, count: usize, miss_share: f64) -> Vec<Option<(f64, usize)>> {
    let mut rng = Rng::new(seed ^ 0x005e_ed0f_5e7e);
    let mut seen: HashSet<u64> = SIZES.iter().map(|s| s.to_bits()).collect();
    (0..count)
        .map(|_| {
            if rng.unit() >= miss_share {
                return None;
            }
            loop {
                // 1/256 MiB steps in [16, 512): 126,976 distinct sizes.
                let size = 16.0 + (rng.unit() * 496.0 * 256.0).floor() / 256.0;
                if seen.insert(size.to_bits()) {
                    return Some((size, (rng.next_u64() % 2) as usize));
                }
            }
        })
        .collect()
}

/// Seeded Poisson arrivals at `rate` per second over `window`, as offsets
/// from the start of the phase.
pub fn arrivals(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ 0xa771_7a15);
    let mut at = 0.0;
    let mut due = Vec::new();
    loop {
        at += rng.exponential(1.0 / rate);
        if at >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(at));
    }
}

fn specs_for(sizes: [f64; 2]) -> Result<Vec<RunSpec>, String> {
    campaign_grid()
        .sizes_mib(sizes)
        .expand()
        .map_err(|e| e.to_string())
}

fn report_for(specs: &[RunSpec]) -> Result<CampaignReport, String> {
    Runner::sequential()
        .execute(specs)
        .map(CampaignReport::new)
        .map_err(|e| e.to_string())
}

fn line_for(id: u64, cells: &str) -> String {
    format!("{{\"id\":{id},\"kind\":\"campaign\",\"cells\":{cells}}}\n")
}

/// Everything set-up builds: the resident request's inputs, the open-loop
/// and back-to-back requests, and the cache file the daemon loads.
pub struct Inputs {
    pub specs: Vec<RunSpec>,
    pub hit_report: CampaignReport,
    pub hit_cells: String,
    pub hit_expected: std::sync::Arc<String>,
    /// Open-loop requests and their due offsets.
    pub open: Vec<Request>,
    pub due: Vec<Duration>,
    /// Back-to-back requests, the same mix.
    pub burst: Vec<Request>,
    pub cache_file: PathBuf,
}

impl Inputs {
    pub fn build(ctx: &Ctx, dir: &Path, open_window: Duration) -> Result<Inputs, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let specs = specs_for(SIZES)?;
        let hit_report = report_for(&specs)?;
        let hit_cells = campaign_cells_to_json(&specs).render();
        let hit_expected = std::sync::Arc::new(hit_report.to_json());
        let due = arrivals(ctx.seed, RATE_RPS, open_window);
        let bursts = (BURST_PER_S * ctx.seconds).ceil().max(20.0) as usize;
        let mut mix = request_mix(ctx.seed, due.len() + bursts, MISS_SHARE).into_iter();
        let mut next_id = 1u64;
        let mut make = |fresh: Option<(f64, usize)>| -> Result<Request, String> {
            let id = next_id;
            next_id += 1;
            let (line, expected) = match fresh {
                None => (line_for(id, &hit_cells), hit_expected.clone()),
                Some((size, slot)) => {
                    let mut sizes = SIZES;
                    sizes[slot] = size;
                    let specs = specs_for(sizes)?;
                    let cells = campaign_cells_to_json(&specs).render();
                    let report = report_for(&specs)?;
                    (line_for(id, &cells), std::sync::Arc::new(report.to_json()))
                }
            };
            Ok(Request {
                id,
                line,
                fresh,
                expected,
            })
        };
        let open = (0..due.len())
            .map(|_| make(mix.next().flatten()))
            .collect::<Result<Vec<_>, _>>()?;
        let burst = (0..bursts)
            .map(|_| make(mix.next().flatten()))
            .collect::<Result<Vec<_>, _>>()?;

        let cache_file = dir.join("schedules.json");
        let plan = SimPlanCache::new();
        Runner::sequential()
            .execute_with_cache(&specs, &plan)
            .map_err(|e| e.to_string())?;
        plan.schedules()
            .publish_to_file(&cache_file)
            .map_err(|e| e.to_string())?;
        Ok(Inputs {
            specs,
            hit_report,
            hit_cells,
            hit_expected,
            open,
            due,
            burst,
            cache_file,
        })
    }
}

/// One spawned `themis-serve` on a stdin/stdout pipe; killed and reaped
/// when dropped, on every exit path.
pub struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    pub fn spawn(bin_dir: &Path, cache_file: &Path, work_dir: &Path) -> Result<Daemon, String> {
        let bin = bin_dir.join("themis-serve");
        let mut child = Command::new(&bin)
            .arg("--cache")
            .arg(cache_file)
            .arg("--work-dir")
            .arg(work_dir)
            .arg("--max-cells")
            .arg("1000000")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one line and waits for its response line (newline stripped).
    pub fn round_trip(&mut self, line: &str) -> Result<Vec<u8>, String> {
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("daemon write failed: {e}"))?;
        let mut response = Vec::new();
        self.stdout
            .read_until(b'\n', &mut response)
            .map_err(|e| format!("daemon read failed: {e}"))?;
        if response.pop() != Some(b'\n') {
            return Err("the daemon closed its output".to_string());
        }
        Ok(response)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// How the writer paces requests.
pub enum Pace<'a> {
    /// Send request `i` at its due offset, never waiting for replies.
    Open(&'a [Duration]),
    /// Keep this many requests in flight.
    BackToBack(usize),
}

/// One request's timeline, ns from the start of the phase, and its raw
/// response line.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub due_ns: f64,
    pub sent_ns: f64,
    pub recv_ns: f64,
    pub response: Vec<u8>,
}

impl Sample {
    /// Latency from the due time: a stalled response's wait counts against
    /// every request queued behind it.
    pub fn latency_ns(&self) -> f64 {
        self.recv_ns - self.due_ns
    }

    pub fn late_ns(&self) -> f64 {
        self.sent_ns - self.due_ns
    }
}

/// Sends `lines` to `writer` paced by `pace` on one thread while another
/// reads one response line per request from `reader`, timestamping each.
/// Returns the samples in request order (responses of a stdio daemon come
/// back in order). A reader that hits end of input leaves the remaining
/// samples without a response.
pub fn drive<W: Write + Send, R: BufRead + Send>(
    writer: &mut W,
    reader: &mut R,
    lines: &[&str],
    pace: Pace<'_>,
) -> Vec<Sample> {
    let n = lines.len();
    let start = Instant::now();
    let (acks, acked) = mpsc::channel::<()>();
    let (sent, received) = std::thread::scope(|scope| {
        let writing = scope.spawn(move || {
            let mut sent = vec![(0.0, 0.0); n];
            let mut acknowledged = 0usize;
            for (i, line) in lines.iter().enumerate() {
                let due = match &pace {
                    Pace::Open(due) => {
                        let due = due[i];
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        due
                    }
                    Pace::BackToBack(window) => {
                        while i >= acknowledged + window {
                            if acked.recv().is_err() {
                                return sent;
                            }
                            acknowledged += 1;
                        }
                        start.elapsed()
                    }
                };
                let sent_at = start.elapsed();
                if writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return sent;
                }
                sent[i] = (due.as_nanos() as f64, sent_at.as_nanos() as f64);
            }
            sent
        });
        let mut received = Vec::with_capacity(n);
        for _ in 0..n {
            let mut line = Vec::new();
            match reader.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let at = start.elapsed().as_nanos() as f64;
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            received.push((at, line));
            let _ = acks.send(());
        }
        drop(acks);
        (writing.join().expect("the writer does not panic"), received)
    });
    let mut samples: Vec<Sample> = sent
        .into_iter()
        .map(|(due_ns, sent_ns)| Sample {
            due_ns,
            sent_ns,
            recv_ns: f64::INFINITY,
            response: Vec::new(),
        })
        .collect();
    for (sample, (recv_ns, response)) in samples.iter_mut().zip(received) {
        sample.recv_ns = recv_ns;
        sample.response = response;
    }
    samples
}

/// Drives the daemon, killing it if the phase outlives `limit` so a hung
/// daemon ends the phase instead of the run.
fn drive_daemon(
    daemon: &mut Daemon,
    requests: &[Request],
    pace: Pace<'_>,
    limit: Duration,
) -> Vec<Sample> {
    let lines: Vec<&str> = requests.iter().map(|r| r.line.as_str()).collect();
    let pid = daemon.child.id();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let until = Instant::now() + limit;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                if Instant::now() >= until {
                    crate::kill_process(pid);
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let samples = drive(&mut daemon.stdin, &mut daemon.stdout, &lines, pace);
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        samples
    })
}

/// Checks a response line byte for byte against the in-process result and
/// returns its cell-cache (hits, misses), or `None` if it is wrong.
pub fn check_response(response: &[u8], id: u64, expected: &str) -> Option<(f64, f64)> {
    let head = format!("{{\"id\":{id},\"status\":\"ok\",\"kind\":\"campaign\",\"result\":");
    let rest = response.strip_prefix(head.as_bytes())?;
    let rest = rest.strip_prefix(expected.as_bytes())?;
    let cache = rest.strip_prefix(b",\"cache\":")?.strip_suffix(b"}")?;
    let cache = Json::parse(std::str::from_utf8(cache).ok()?).ok()?;
    let cells = cache.get("cells")?;
    Some((
        cells.get("hits")?.as_f64().ok()?,
        cells.get("misses")?.as_f64().ok()?,
    ))
}

/// Counts one operation per request and returns the cell-cache counts.
fn check_all(outcome: &mut Outcome, requests: &[Request], samples: &[Sample]) -> (f64, f64) {
    let (mut hits, mut misses) = (0.0, 0.0);
    for (request, sample) in requests.iter().zip(samples) {
        let checked = check_response(&sample.response, request.id, &request.expected);
        if let Some((h, m)) = checked {
            hits += h;
            misses += m;
        }
        outcome.check(checked.is_some());
    }
    for _ in samples.len()..requests.len() {
        outcome.check(false);
    }
    (hits, misses)
}

/// One set-up: inputs, a daemon warm-started from the cache file, and one
/// priming request so every resident cell is in the daemon's cell cache.
fn setup(ctx: &Ctx, round: usize, open_window: Duration) -> Result<(Inputs, Daemon), String> {
    let dir = ctx.work.join(format!("setup-{round}"));
    let inputs = Inputs::build(ctx, &dir, open_window)?;
    let mut daemon = Daemon::spawn(&ctx.bin_dir, &inputs.cache_file, &dir.join("serve-work"))?;
    let pong = daemon.round_trip("{\"id\":0,\"kind\":\"ping\"}\n")?;
    if !pong.starts_with(b"{\"id\":0,\"status\":\"ok\"") {
        return Err("the daemon did not answer its first ping".to_string());
    }
    let primed = daemon.round_trip(&line_for(0, &inputs.hit_cells))?;
    if check_response(&primed, 0, &inputs.hit_expected).is_none() {
        return Err("the priming response differs from Runner::execute".to_string());
    }
    Ok((inputs, daemon))
}

fn open_window(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(ctx.seconds * OPEN_LOOP_SHARE)
}

/// Time allowed for one phase before the daemon is presumed hung.
fn phase_limit(ctx: &Ctx) -> Duration {
    Duration::from_secs_f64(ctx.seconds * 2.0 + 30.0)
}

/// The open loop, cut into [`SEGMENTS`] slices at its due times. Each slice
/// starts with an idle daemon and keeps its requests' spacing; before each,
/// `between(slice)` may use the daemon.
fn open_loop(
    ctx: &Ctx,
    daemon: &mut Daemon,
    inputs: &Inputs,
    mut between: impl FnMut(&mut Daemon, usize),
) -> Vec<Sample> {
    let slice = inputs.due.last().map_or(0.0, |d| d.as_secs_f64()) / SEGMENTS as f64;
    let mut samples = Vec::with_capacity(inputs.open.len());
    let mut first = 0;
    for k in 0..SEGMENTS {
        between(daemon, k);
        let start = Duration::from_secs_f64(slice * k as f64);
        let end = if k + 1 == SEGMENTS {
            inputs.due.len()
        } else {
            let until = Duration::from_secs_f64(slice * (k + 1) as f64);
            inputs.due.partition_point(|&d| d < until)
        };
        let due: Vec<Duration> = inputs.due[first..end].iter().map(|&d| d - start).collect();
        samples.extend(drive_daemon(
            daemon,
            &inputs.open[first..end],
            Pace::Open(&due),
            phase_limit(ctx),
        ));
        first = end;
    }
    samples
}

/// The `k`-th of [`SEGMENTS`] equal chunks of `items`.
fn chunk<T>(items: &[T], k: usize) -> &[T] {
    let (n, s) = (items.len(), SEGMENTS);
    &items[k * n / s..(k + 1) * n / s]
}

/// Service time of each back-to-back request after the first of its
/// burst: the gap between its response and the one before, split by
/// whether the request carried fresh cells.
fn service_gaps(requests: &[Request], samples: &[Sample], hit: &mut Vec<f64>, miss: &mut Vec<f64>) {
    for (i, pair) in samples.windows(2).enumerate() {
        let gap = (pair[1].recv_ns - pair[0].recv_ns) / 1e9;
        match requests[i + 1].fresh {
            None => hit.push(gap),
            Some(_) => miss.push(gap),
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for round in 0..SETUPS {
        let start = if round == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        // Stop the previous daemon before starting the next.
        drop(state.take());
        state = Some(setup(ctx, round, open_window(ctx))?);
        times.push(start.elapsed().as_secs_f64());
    }
    let (inputs, mut daemon) = state.expect("at least one set-up");
    println!("digest {}", campaign_digest(&inputs.hit_report));
    let mut outcome = Outcome::default();

    let mut bursts = Vec::new();
    let open = open_loop(ctx, &mut daemon, &inputs, |daemon, k| {
        let requests = chunk(&inputs.burst, k);
        let samples = drive_daemon(daemon, requests, Pace::BackToBack(WINDOW), phase_limit(ctx));
        bursts.push((requests, samples));
    });
    drop(daemon);

    check_all(&mut outcome, &inputs.open, &open);
    let (mut hit_s, mut miss_s) = (Vec::new(), Vec::new());
    for (requests, samples) in &bursts {
        check_all(&mut outcome, requests, samples);
        service_gaps(requests, samples, &mut hit_s, &mut miss_s);
    }
    let latency_ms: Vec<f64> = open.iter().map(|s| s.latency_ns() / 1e6).collect();
    let late_ms: Vec<f64> = open.iter().map(|s| s.late_ns() / 1e6).collect();
    println!(
        "open loop: {} requests at {RATE_RPS} req/s, median {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, \
         generator p99 lateness {:.3} ms; back-to-back: {} hit and {} fresh service times",
        open.len(),
        median(&latency_ms),
        quantile(&latency_ms, 0.90),
        quantile(&latency_ms, 0.99),
        quantile(&late_ms, 0.99),
        hit_s.len(),
        miss_s.len()
    );
    let cells = inputs.specs.len() as f64;
    // Latencies and service times are bimodal under co-tenant phases like
    // in-process timings, so they take the same unperturbed estimate.
    let (hit, miss) = (unperturbed(&hit_s), unperturbed(&miss_s));
    let miss_share = miss_s.len() as f64 / (hit_s.len() + miss_s.len()).max(1) as f64;
    let mix_s = (1.0 - miss_share) * hit + miss_share * miss;
    outcome.set("setup_s", median(&times));
    outcome.set("cells_per_s", cells / miss);
    outcome.set("warm_cells_per_s", cells / hit);
    outcome.set("latency_ms", unperturbed(&latency_ms));
    outcome.set("max_rps", 1.0 / mix_s);
    outcome.set("peak_rss_mib", children_peak_rss_mib());
    Ok(outcome)
}

/// The traced replay: the open loop again (for lateness, queueing and the
/// cell hit ratio), then the back-to-back requests one at a time through
/// the layers: `Json::parse` on the line, `Service::handle_line` on an
/// in-process service loaded from the same cache file, the fresh cells'
/// schedule, cost table and event loop, `CampaignReport::to_json`, and one
/// unqueued round trip to the daemon.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let window = Duration::from_secs_f64(ctx.seconds * 0.5);
    let (inputs, mut daemon) = setup(ctx, 0, window)?;
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::default();

    let hit_line = line_for(0, &inputs.hit_cells);
    let open = open_loop(ctx, &mut daemon, &inputs, |_, _| ());
    let (hits, misses) = check_all(&mut outcome, &inputs.open, &open);

    // The in-process service, loaded from a copy of the same cache file,
    // and a shadow plan in the same state for the fresh cells' layers.
    let copy = ctx.work.join("traced-schedules.json");
    std::fs::copy(&inputs.cache_file, &copy).map_err(|e| e.to_string())?;
    let service = Service::new(ServeOptions {
        cache_file: Some(copy),
        work_dir: ctx.work.join("traced-serve-work"),
        max_resident_cells: 1_000_000,
        ..ServeOptions::default()
    });
    let load_start = Instant::now();
    service.load_cache_file().map_err(|e| e.to_string())?;
    let file_load_ns = load_start.elapsed().as_nanos() as f64;
    if check_response(
        service.handle_line(hit_line.trim_end()).as_bytes(),
        0,
        &inputs.hit_expected,
    )
    .is_none()
    {
        return Err("the in-process service differs from Runner::execute".to_string());
    }
    let shadow = SimPlanCache::new();
    Runner::sequential()
        .execute_with_cache(&inputs.specs, &shadow)
        .map_err(|e| e.to_string())?;
    let mut workspace = SimWorkspace::new();

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.5);
    let (mut parsed_bytes, mut schedule_runs, mut cost_builds, mut chunk_ops) =
        (0.0, 0.0, 0.0, 0.0);
    for request in &inputs.burst {
        if Instant::now() >= deadline {
            break;
        }
        let line = request.line.trim_end();
        let fresh_specs = match request.fresh {
            Some((size, slot)) => {
                let mut sizes = SIZES;
                sizes[slot] = size;
                specs_for(sizes)?
                    .into_iter()
                    .filter(|spec| spec.job.size() == DataSize::from_mib(size))
                    .collect()
            }
            None => Vec::new(),
        };
        let report = match request.fresh {
            None => None,
            Some(_) => {
                Some(CampaignReport::from_json(&request.expected).map_err(|e| e.to_string())?)
            }
        };
        let (misses_before, builds_before) =
            (shadow.schedules().misses(), shadow.cost_tables().misses());
        let ok = tracer.op(|t| {
            let parsed = t.span("json.parse", |_| Json::parse(line).is_ok());
            let response = t.span("serve.handle", |_| service.handle_line(line));
            let mut computed = true;
            for spec in &fresh_specs {
                match traced_cell(t, spec, &shadow, &mut workspace) {
                    Ok(result) => {
                        chunk_ops += result
                            .report
                            .dims
                            .iter()
                            .map(|d| d.ops_executed)
                            .sum::<usize>() as f64
                    }
                    Err(_) => computed = false,
                }
            }
            let report = report.as_ref().unwrap_or(&inputs.hit_report);
            let encoded = t.span("json.encode", |_| report.to_json());
            let served = t.span("serve.rtt", |_| daemon.round_trip(&request.line));
            parsed
                && computed
                && *encoded == *request.expected
                && check_response(response.as_bytes(), request.id, &request.expected).is_some()
                && served.is_ok_and(|r| check_response(&r, request.id, &request.expected).is_some())
        });
        outcome.check(ok);
        parsed_bytes += line.len() as f64;
        schedule_runs += (shadow.schedules().misses() - misses_before) as f64;
        cost_builds += (shadow.cost_tables().misses() - builds_before) as f64;
    }
    drop(daemon);
    let publish_start = Instant::now();
    service.publish_cache_file().map_err(|e| e.to_string())?;
    let file_publish_ns = publish_start.elapsed().as_nanos() as f64;

    let n = tracer.ops().max(1) as f64;
    let per = |name: &str| tracer.per_op(name);
    let (parse, handle, encode, rtt) = (
        per("json.parse"),
        per("serve.handle"),
        per("json.encode"),
        per("serve.rtt"),
    );
    let (schedule, cost, pipeline) = (per("schedule"), per("cost"), per("pipeline"));
    let self_ns: Vec<f64> = (0..tracer.ops())
        .map(|i| handle[i] - parse[i] - encode[i] - schedule[i] - cost[i] - pipeline[i])
        .collect();
    let io_ns: Vec<f64> = (0..tracer.ops()).map(|i| rtt[i] - handle[i]).collect();
    // Unqueued round trip per request class, for the queueing share.
    let class_rtt = |fresh: bool| {
        let class: Vec<f64> = (inputs.burst.iter().zip(&rtt))
            .filter(|(r, _)| r.fresh.is_some() == fresh)
            .map(|(_, &ns)| ns)
            .collect();
        median(&class)
    };
    let (rtt_hit, rtt_miss) = (class_rtt(false), class_rtt(true));
    let waits_ms: Vec<f64> = inputs
        .open
        .iter()
        .zip(&open)
        .map(|(r, s)| (s.latency_ns() - if r.fresh.is_some() { rtt_miss } else { rtt_hit }) / 1e6)
        .collect();
    let late_ms: Vec<f64> = open.iter().map(|s| s.late_ns() / 1e6).collect();
    let total_parse = tracer.total("json.parse");
    outcome.set("json.parse_ns", median(&parse));
    outcome.set(
        "json.parse_mb_per_s",
        parsed_bytes / 1e6 / (total_parse / 1e9),
    );
    outcome.set("json.encode_ns", median(&encode));
    outcome.set("serve.handle_ns", median(&handle));
    outcome.set("serve.self_ns", median(&self_ns));
    outcome.set("serve.io_ns", median(&io_ns));
    outcome.set("serve.queue_ms", quantile(&waits_ms, 0.99));
    outcome.set("serve.cell_hit_ratio", hits / (hits + misses));
    outcome.set("serve.late_ms", quantile(&late_ms, 0.99));
    outcome.set("schedule.ns", schedule.iter().sum::<f64>() / n);
    outcome.set("schedule.runs", schedule_runs / n);
    outcome.set("schedule.file_load_ns", file_load_ns);
    outcome.set("schedule.file_publish_ns", file_publish_ns);
    outcome.set("cost.ns", cost.iter().sum::<f64>() / n);
    outcome.set("cost.builds", cost_builds / n);
    outcome.set(
        "pipeline.ns_per_op",
        pipeline.iter().sum::<f64>() / chunk_ops.max(1.0),
    );
    outcome.set("pipeline.ops", chunk_ops / n);
    outcome.set("unattributed_ns", median(&per(OP)));
    outcome.set("trace.overhead_pct", tracer.overhead_pct());
    tracer
        .write_tsv(&ctx.trace_file)
        .map_err(|e| format!("cannot write {}: {e}", ctx.trace_file.display()))?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let window = Duration::from_secs(5);
        assert_eq!(arrivals(3, 40.0, window), arrivals(3, 40.0, window));
        assert_ne!(arrivals(3, 40.0, window), arrivals(4, 40.0, window));
        let mix = request_mix(3, 500, MISS_SHARE);
        assert_eq!(mix, request_mix(3, 500, MISS_SHARE));
        assert_ne!(mix, request_mix(4, 500, MISS_SHARE));
        let fresh: Vec<u64> = mix.iter().flatten().map(|(s, _)| s.to_bits()).collect();
        let unique: HashSet<u64> = fresh.iter().copied().collect();
        assert_eq!(fresh.len(), unique.len(), "fresh sizes never repeat");
        assert!(fresh.len() > 60 && fresh.len() < 140, "about a fifth miss");
        let due = arrivals(3, 40.0, Duration::from_secs(50));
        assert!((1800..2200).contains(&due.len()), "{} arrivals", due.len());
    }

    #[test]
    fn a_stalled_response_counts_against_later_requests() {
        let (mut client, server) = UnixStream::pair().unwrap();
        let stall = Duration::from_millis(80);
        let echo = std::thread::spawn(move || {
            let mut reader = BufReader::new(server.try_clone().unwrap());
            let mut writer = server;
            let mut line = String::new();
            for i in 0..6 {
                line.clear();
                reader.read_line(&mut line).unwrap();
                if i == 2 {
                    std::thread::sleep(stall);
                }
                writer.write_all(line.as_bytes()).unwrap();
            }
        });
        let lines: Vec<String> = (0..6).map(|i| format!("{{\"id\":{i}}}\n")).collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let due: Vec<Duration> = (0..6).map(|i| Duration::from_millis(10 * i)).collect();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let samples = drive(&mut client, &mut reader, &lines, Pace::Open(&due));
        echo.join().unwrap();
        assert_eq!(samples.len(), 6);
        let ms: Vec<f64> = samples.iter().map(|s| s.latency_ns() / 1e6).collect();
        assert!(ms[0] < 40.0 && ms[1] < 40.0, "{ms:?}");
        // Request 2 stalls 80 ms; 3 and 4 were due 10 and 20 ms later and
        // still waited behind it, so their latency carries the stall.
        assert!(ms[2] >= 80.0, "{ms:?}");
        assert!(ms[3] >= 60.0 && ms[4] >= 50.0, "{ms:?}");
        // The writer kept its schedule: it never waited for replies.
        assert!(samples.iter().all(|s| s.late_ns() < 30e6), "{samples:?}");
        assert_eq!(samples[5].response, b"{\"id\":5}");
    }

    #[test]
    fn responses_are_checked_byte_for_byte() {
        let good = b"{\"id\":7,\"status\":\"ok\",\"kind\":\"campaign\",\"result\":{\"r\":1},\
                     \"cache\":{\"cells\":{\"hits\":36,\"misses\":0}}}";
        assert_eq!(check_response(good, 7, "{\"r\":1}"), Some((36.0, 0.0)));
        assert_eq!(check_response(good, 8, "{\"r\":1}"), None);
        assert_eq!(check_response(good, 7, "{\"r\":2}"), None);
        assert_eq!(
            check_response(b"{\"id\":7,\"status\":\"error\"}", 7, "{}"),
            None
        );
    }
}
