//! `themis-serve` — the resident campaign daemon.
//!
//! Wraps a [`themis::api::serve::Service`] — one persistent warm
//! [`themis::SimPlanCache`] plus a single-flight result cache — in a
//! long-running process speaking the JSONL protocol (one request object per
//! line, one response object per line; see [`themis::api::serve`]). Requests
//! from every client share the same caches, so the second identical campaign
//! is answered without touching the simulator, and `sweep` requests fan out
//! to `shard-worker` processes supervised by the orchestrator.
//!
//! Usage:
//!
//! ```text
//! themis-serve [--socket PATH] [--cache FILE] [--worker PATH]
//!              [--work-dir DIR] [--max-cells N]
//!              [--max-line-bytes N] [--max-in-flight N] [--deadline-ms MS]
//! ```
//!
//! Without `--socket` the daemon serves stdin/stdout (one client, e.g. a
//! driver script over a pipe). With `--socket` it listens on a Unix domain
//! socket and serves every connection concurrently against the shared
//! caches. With `--cache` the schedule cache is warm-started from the file
//! at startup and merge-published back on shutdown (and on every
//! `cache-publish` request), so warm plans survive across daemon restarts
//! and are shared with `shard-worker` processes.
//!
//! Beyond the built-in request kinds, this binary answers
//! `{"kind":"figure-suite","figures":["fig04","fig08","fig09","fig11"]}`:
//! it runs the requested paper figures through the **resident** plan cache
//! (the `run_shared` suite) and reports the markdown plus the cache hit
//! statistics — a second suite request reuses every schedule of the first.
//!
//! ## Resilience
//!
//! `--max-in-flight N` bounds concurrent heavy requests: excess clients get
//! `status:"overloaded"` + `retry_after_ms` instead of unbounded queueing.
//! `--deadline-ms MS` applies a default deadline to requests that carry
//! none; deadline-exceeded simulations answer `status:"timeout"`. On
//! SIGTERM (unix) the daemon **drains gracefully**: it stops accepting,
//! lets in-flight requests finish, merge-publishes the warm schedule cache,
//! and exits cleanly.

use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use themis::api::serve::{ServeOptions, Service};
use themis::core::json::Json;
use themis::core::telemetry::{log_event, LogLevel};
use themis_bench::service_ext::figure_suite;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("themis-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Latched by the SIGTERM handler; polled by the accept loop to begin a
/// graceful drain.
static TERMINATE: OnceLock<&'static AtomicBool> = OnceLock::new();

fn terminate_flag() -> &'static AtomicBool {
    TERMINATE.get_or_init(|| {
        static FLAG: AtomicBool = AtomicBool::new(false);
        &FLAG
    })
}

/// SIGTERM → graceful drain, without a libc crate: the one symbol needed
/// (`signal(2)`) is declared by hand, unix-only. The handler does nothing
/// but a single atomic store — the only async-signal-safe thing it could do.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::Ordering;

    /// `SIGTERM` is 15 on every unix this workspace targets.
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigterm(_signum: i32) {
        super::terminate_flag().store(true, Ordering::Relaxed);
    }

    /// Installs the handler. Best-effort: on failure the default
    /// terminate-immediately disposition stays in place.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
        }
    }
}

const USAGE: &str = "\
usage: themis-serve [--socket PATH] [--cache FILE] [--worker PATH]
                    [--work-dir DIR] [--max-cells N]
                    [--max-line-bytes N] [--max-in-flight N] [--deadline-ms MS]

Serve JSONL campaign requests (one JSON object per line) against one
resident warm plan cache. Without --socket, serves stdin/stdout; with
--socket, serves concurrent connections on a Unix domain socket.
Request lines longer than --max-line-bytes (default 16 MiB) are rejected
with a structured error instead of being buffered. --max-in-flight sheds
heavy requests beyond the budget with status:\"overloaded\";
--deadline-ms applies a default deadline (status:\"timeout\") to requests
that carry none. SIGTERM drains in-flight work, publishes the cache, and
exits cleanly.
";

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

fn run(mut args: Vec<String>) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{USAGE}");
        return Ok(());
    }
    let socket = take_flag(&mut args, "--socket")?;
    let cache = take_flag(&mut args, "--cache")?;
    let worker = take_flag(&mut args, "--worker")?;
    let work_dir = take_flag(&mut args, "--work-dir")?;
    let max_cells: Option<usize> = match take_flag(&mut args, "--max-cells")? {
        Some(text) => Some(
            text.parse()
                .map_err(|_| "invalid --max-cells value".to_string())?,
        ),
        None => None,
    };
    let max_line_bytes: Option<usize> = match take_flag(&mut args, "--max-line-bytes")? {
        Some(text) => match text.parse() {
            Ok(bytes) if bytes > 0 => Some(bytes),
            _ => return Err("invalid --max-line-bytes value".to_string()),
        },
        None => None,
    };
    let max_in_flight: Option<usize> = match take_flag(&mut args, "--max-in-flight")? {
        Some(text) => Some(
            text.parse()
                .map_err(|_| "invalid --max-in-flight value".to_string())?,
        ),
        None => None,
    };
    let deadline_ms: Option<u64> = match take_flag(&mut args, "--deadline-ms")? {
        Some(text) => Some(
            text.parse()
                .map_err(|_| "invalid --deadline-ms value".to_string())?,
        ),
        None => None,
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }

    let mut options = ServeOptions {
        worker: worker.map(PathBuf::from).or_else(sibling_worker),
        cache_file: cache.map(PathBuf::from),
        ..ServeOptions::default()
    };
    if let Some(dir) = work_dir {
        options.work_dir = PathBuf::from(dir);
    }
    if let Some(cells) = max_cells {
        options.max_resident_cells = cells;
    }
    if let Some(bytes) = max_line_bytes {
        options.max_line_bytes = bytes;
    }
    if let Some(budget) = max_in_flight {
        options.max_in_flight = budget;
    }
    options.default_deadline_ms = deadline_ms;

    #[cfg(unix)]
    sigterm::install();

    let service = Service::new(options);
    let loaded = service.load_cache_file().map_err(|err| err.to_string())?;
    if loaded > 0 {
        log_event(
            LogLevel::Info,
            "serve.warm_start",
            &[("schedules", Json::Num(loaded as f64))],
        );
    }

    match socket {
        Some(path) => serve_socket(&service, &path)?,
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            service
                .serve_with(stdin.lock(), stdout.lock(), figure_suite)
                .map_err(|err| format!("serve loop failed: {err}"))?;
        }
    }

    // Graceful drain: whatever ended the serve loop (shutdown request,
    // SIGTERM, EOF), let in-flight heavy requests finish before the warm
    // cache is published and the process exits.
    if !service.wait_idle(std::time::Duration::from_secs(30)) {
        log_event(
            LogLevel::Warn,
            "serve.drain_timeout",
            &[("in_flight", Json::Num(service.in_flight() as f64))],
        );
    }
    let published = service
        .publish_cache_file()
        .map_err(|err| err.to_string())?;
    if published > 0 {
        log_event(
            LogLevel::Info,
            "serve.cache_publish",
            &[("schedules", Json::Num(published as f64))],
        );
    }
    let schedules = service.plan().schedules().stats();
    log_event(
        LogLevel::Info,
        "serve.exit",
        &[
            ("resident_cells", Json::Num(service.resident_cells() as f64)),
            (
                "schedules",
                Json::Num(service.plan().schedules().len() as f64),
            ),
            ("schedule_hits", Json::Num(schedules.hits as f64)),
            ("schedule_misses", Json::Num(schedules.misses as f64)),
        ],
    );
    Ok(())
}

/// The default `--worker`: a `shard-worker` binary next to this one.
fn sibling_worker() -> Option<PathBuf> {
    let path = std::env::current_exe().ok()?.parent()?.join("shard-worker");
    path.exists().then_some(path)
}

/// Serves concurrent connections on a Unix domain socket until a client
/// sends `shutdown`.
fn serve_socket(service: &Service, path: &str) -> Result<(), String> {
    // A stale socket file from an earlier daemon would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|err| format!("cannot bind `{path}`: {err}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|err| format!("cannot poll `{path}`: {err}"))?;
    log_event(
        LogLevel::Info,
        "serve.listening",
        &[("socket", Json::Str(path.to_string()))],
    );
    let connections = AtomicU64::new(0);
    std::thread::scope(|scope| {
        while !service.shutdown_requested() {
            if terminate_flag().load(Ordering::Relaxed) {
                // SIGTERM: stop accepting; the scope join below drains every
                // live connection (each finishes its current request, then
                // its serve loop observes the shutdown flag and exits).
                log_event(LogLevel::Info, "serve.sigterm", &[]);
                service.begin_shutdown();
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let id = connections.fetch_add(1, Ordering::Relaxed);
                    scope.spawn(move || {
                        let connection_error = |err: &dyn std::fmt::Display| {
                            log_event(
                                LogLevel::Warn,
                                "serve.connection_error",
                                &[
                                    ("connection", Json::Num(id as f64)),
                                    ("error", Json::Str(err.to_string())),
                                ],
                            );
                        };
                        let reader = match stream.try_clone() {
                            Ok(clone) => BufReader::new(clone),
                            Err(err) => {
                                connection_error(&err);
                                return;
                            }
                        };
                        if let Err(err) = service.serve_with(reader, &stream, figure_suite) {
                            connection_error(&err);
                        }
                    });
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(err) => {
                    log_event(
                        LogLevel::Error,
                        "serve.accept_failed",
                        &[("error", Json::Str(err.to_string()))],
                    );
                    break;
                }
            }
        }
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}
