//! Dependency-free telemetry: counters, gauges, histograms, wall-clock spans,
//! and structured JSONL logging.
//!
//! Every layer of the reproduction funnels its observability through this
//! module so that one [`Snapshot`] describes a whole process: the simulation
//! engines flush per-dimension busy/idle/queue-depth counters and per-phase
//! span timings here, the resident campaign service keeps per-kind request
//! counters and latency histograms here, and the benchmark drivers diff
//! snapshots around timed sections instead of threading private timers
//! through every call.
//!
//! Design notes:
//!
//! * A [`Registry`] is a cheaply cloneable handle (an [`Arc`] around the
//!   instrument tables). [`global()`] returns the process-wide registry that
//!   free-standing workspaces attach to; components that need isolated
//!   counters (e.g. one `Service` per test) create their own.
//! * Instrument names are interned: looking up a [`Counter`] returns a handle
//!   sharing the registered [`AtomicU64`], so the hot path is one relaxed
//!   atomic add with no map access. Engines go one step further and
//!   accumulate locally, flushing once per run.
//! * Telemetry never feeds back into simulation results: reports are
//!   bit-identical with the registry enabled, disabled, or absent.
//! * [`Registry::set_enabled`] turns span timing and engine flushes into
//!   no-ops so the telemetry-on vs telemetry-off overhead stays measurable:
//!   the repository benchmark's traced runs report it as
//!   `telemetry.overhead_pct`.
//!
//! ```
//! use themis_core::telemetry::Registry;
//!
//! let registry = Registry::new();
//! let cells = registry.counter("campaign.cells");
//! cells.add(3);
//! let before = registry.snapshot();
//! cells.add(2);
//! let delta = registry.snapshot().diff(&before);
//! assert_eq!(delta.counter("campaign.cells"), 2);
//! ```

use crate::json::Json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 histogram buckets: bucket `i` counts values `< 2^i`, so 44
/// buckets cover every nanosecond duration up to ~4.8 hours.
const HISTOGRAM_BUCKETS: usize = 44;

/// A thread-safe registry of named counters, gauges, and histograms.
///
/// Cloning is cheap (the instrument tables live behind one [`Arc`]); clones
/// observe and mutate the same instruments.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<Cow<'static, str>, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<Cow<'static, str>, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<Cow<'static, str>, Arc<HistogramCells>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// `true` while recording is on (the default). Instrument handles keep
    /// working when disabled; the flag is advisory and lets hot paths skip
    /// clock reads and flushes.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Disabling does not clear accumulated
    /// values.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Returns the counter registered under `name`, creating it at zero on
    /// first use. The handle shares the registered cell: increments through
    /// any handle are visible to every snapshot.
    pub fn counter(&self, name: impl Into<Cow<'static, str>>) -> Counter {
        let mut table = self.inner.counters.lock().expect("counter table poisoned");
        let cell = Arc::clone(table.entry(name.into()).or_default());
        Counter { cell }
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>) -> Gauge {
        let mut table = self.inner.gauges.lock().expect("gauge table poisoned");
        let cell = Arc::clone(table.entry(name.into()).or_default());
        Gauge { cell }
    }

    /// Returns the histogram registered under `name`, creating it empty on
    /// first use.
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>) -> Histogram {
        let mut table = self
            .inner
            .histograms
            .lock()
            .expect("histogram table poisoned");
        let cells = Arc::clone(
            table
                .entry(name.into())
                .or_insert_with(|| Arc::new(HistogramCells::new())),
        );
        Histogram { cells }
    }

    /// Starts a wall-clock span that records its elapsed nanoseconds into the
    /// histogram `name` when dropped (or [`Span::finish`]ed). Returns an
    /// inert span when the registry is disabled — no clock is read.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        if !self.enabled() {
            return Span { timing: None };
        }
        self.histogram(name).span()
    }

    /// A point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter table poisoned")
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge table poisoned")
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram table poisoned")
            .iter()
            .map(|(name, cells)| (name.to_string(), cells.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide registry. Free-standing [`SimWorkspace`]s (created
/// without an explicit registry) flush here, so a single snapshot diff
/// observes every simulation a process ran.
///
/// [`SimWorkspace`]: https://docs.rs/themis-sim
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A monotonically increasing counter handle (relaxed atomic adds).
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (also supports high-watermark updates).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Stores `value`.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is below it (high watermark).
    pub fn record_max(&self, value: u64) {
        self.cell.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(exp, cell)| {
                let count = cell.load(Ordering::Relaxed);
                (count > 0).then_some((exp as u32, count))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Log2-bucketed histogram handle: bucket `i` counts recorded values below
/// `2^i`. Records are three relaxed atomic adds.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let exp = (u64::BITS - value.leading_zeros()).min(HISTOGRAM_BUCKETS as u32 - 1);
        self.cells.buckets[exp as usize].fetch_add(1, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Starts a wall-clock span recording its elapsed nanoseconds into this
    /// histogram on drop. Callers holding a pre-registered handle should gate
    /// on [`Registry::enabled`] themselves to skip the clock read when
    /// telemetry is off.
    pub fn span(&self) -> Span {
        Span {
            timing: Some((self.clone(), Instant::now())),
        }
    }
}

/// An in-flight wall-clock span; see [`Registry::span`] and
/// [`Histogram::span`].
#[derive(Debug)]
pub struct Span {
    timing: Option<(Histogram, Instant)>,
}

impl Span {
    /// An inert span that records nothing — the disabled-telemetry stand-in.
    pub fn inert() -> Self {
        Span { timing: None }
    }

    /// Ends the span now (dropping it has the same effect).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((histogram, start)) = self.timing.take() {
            let elapsed = start.elapsed().as_nanos();
            histogram.record(u64::try_from(elapsed).unwrap_or(u64::MAX));
        }
    }
}

/// A point-in-time copy of a histogram: total count, total sum, and the
/// non-empty log2 buckets as `(exponent, count)` — bucket `exponent` counted
/// values below `2^exponent`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets, ascending by exponent.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let earlier_count = |exp: u32| {
            earlier
                .buckets
                .iter()
                .find(|(e, _)| *e == exp)
                .map_or(0, |(_, count)| *count)
        };
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(exp, count)| {
                let delta = count.saturating_sub(earlier_count(exp));
                (delta > 0).then_some((exp, delta))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("sum", Json::Num(self.sum as f64)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(exp, count)| {
                            Json::Arr(vec![Json::Num(f64::from(exp)), Json::Num(count as f64)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A point-in-time copy of every instrument in a [`Registry`], with sorted,
/// stable iteration order. Diffable and serializable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The named counter's value (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (zero when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Total nanoseconds accumulated by the named span histogram (zero when
    /// absent).
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.histogram(name).map_or(0, |h| h.sum)
    }

    /// The change since `earlier`: counters and histogram counts subtract
    /// (saturating); gauges keep their current value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &value)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                (name.clone(), value.saturating_sub(before))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, histogram)| {
                let before = earlier.histograms.get(name);
                let delta = match before {
                    Some(before) => histogram.diff(before),
                    None => histogram.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Serializes the snapshot as `{"counters":{...},"gauges":{...},
    /// "histograms":{...}}`.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(name, &value)| (name.clone(), Json::Num(value as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(name, &value)| (name.clone(), Json::Num(value as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(name, histogram)| (name.clone(), histogram.to_json()))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// Renders the snapshot in the Prometheus text exposition format. Names
    /// are prefixed `themis_` and sanitized (`.` → `_`); histograms emit
    /// cumulative `_bucket{le="..."}` lines with power-of-two bounds plus
    /// `_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, &value) in &self.counters {
            let metric = metric_name(name);
            out.push_str(&format!("# TYPE {metric} counter\n{metric} {value}\n"));
        }
        for (name, &value) in &self.gauges {
            let metric = metric_name(name);
            out.push_str(&format!("# TYPE {metric} gauge\n{metric} {value}\n"));
        }
        for (name, histogram) in &self.histograms {
            let metric = metric_name(name);
            out.push_str(&format!("# TYPE {metric} histogram\n"));
            let mut cumulative = 0u64;
            for &(exp, count) in &histogram.buckets {
                cumulative += count;
                let bound = 2u64.saturating_pow(exp);
                out.push_str(&format!("{metric}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{metric}_bucket{{le=\"+Inf\"}} {}\n{metric}_sum {}\n{metric}_count {}\n",
                histogram.count, histogram.sum, histogram.count
            ));
        }
        out
    }
}

/// `themis_` + the instrument name with every non-`[a-zA-Z0-9_:]` byte
/// replaced by `_`.
fn metric_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("themis_{sanitized}")
}

/// Hit/miss counters of one cache over some interval — the single view type
/// every memo layer (`ScheduleCache`, `CostTableCache`, the service's cell
/// cache) reports through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the underlying computation.
    pub misses: u64,
}

impl CacheStats {
    /// Builds stats from raw counters.
    pub fn new(hits: u64, misses: u64) -> Self {
        CacheStats { hits, misses }
    }

    /// `hits + misses`.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups() as f64
    }

    /// The change since `before` (saturating) — the per-interval delta every
    /// serve response and shard report carries.
    pub fn delta(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
        }
    }

    /// Serializes as `{"hits":N,"misses":N}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::Num(self.hits as f64)),
            ("misses", Json::Num(self.misses as f64)),
        ])
    }
}

/// Severity of a structured log event, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Unrecoverable or surprising failures.
    Error,
    /// Degraded-but-continuing conditions (stalls, retries).
    Warn,
    /// Lifecycle milestones (spawn, finish, merge).
    Info,
    /// High-volume diagnostics (heartbeats).
    Debug,
}

impl LogLevel {
    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    fn rank(self) -> u8 {
        match self {
            LogLevel::Error => 1,
            LogLevel::Warn => 2,
            LogLevel::Info => 3,
            LogLevel::Debug => 4,
        }
    }
}

/// The active log threshold: parsed once from the `THEMIS_LOG` environment
/// variable (`off`, `error`, `warn`, `info`, `debug`; default `warn`).
fn log_threshold() -> u8 {
    static THRESHOLD: OnceLock<u8> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        match std::env::var("THEMIS_LOG")
            .unwrap_or_default()
            .to_ascii_lowercase()
            .as_str()
        {
            "off" | "none" | "0" => 0,
            "error" => 1,
            "info" => 3,
            "debug" | "trace" => 4,
            // `warn`, unset, and anything unrecognized.
            _ => 2,
        }
    })
}

/// `true` when events at `level` pass the `THEMIS_LOG` filter.
pub fn log_enabled(level: LogLevel) -> bool {
    level.rank() <= log_threshold()
}

/// Emits one structured JSONL event on stderr:
/// `{"ts_ms":...,"level":"...","event":"...", ...fields}` — the shared
/// lifecycle-logging format of `themis-serve`, `shard-worker`, and the
/// orchestrator. Filtered by `THEMIS_LOG` (default `warn`).
pub fn log_event(level: LogLevel, event: &str, fields: &[(&str, Json)]) {
    if !log_enabled(level) {
        return;
    }
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as f64)
        .unwrap_or(0.0);
    let mut object: Vec<(String, Json)> = Vec::with_capacity(3 + fields.len());
    object.push(("ts_ms".to_string(), Json::Num(ts_ms)));
    object.push(("level".to_string(), Json::Str(level.as_str().to_string())));
    object.push(("event".to_string(), Json::Str(event.to_string())));
    for (key, value) in fields {
        object.push(((*key).to_string(), value.clone()));
    }
    eprintln!("{}", Json::Obj(object).render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let registry = Registry::new();
        let counter = registry.counter("a.b");
        counter.add(5);
        let before = registry.snapshot();
        counter.inc();
        registry.counter("a.b").add(2);
        let delta = registry.snapshot().diff(&before);
        assert_eq!(delta.counter("a.b"), 3);
        assert_eq!(delta.counter("missing"), 0);
        assert_eq!(registry.counter("a.b").get(), 8);
    }

    #[test]
    fn handles_share_cells_across_clones() {
        let registry = Registry::new();
        let clone = registry.clone();
        registry.counter("shared").add(1);
        clone.counter("shared").add(2);
        assert_eq!(registry.snapshot().counter("shared"), 3);
    }

    #[test]
    fn gauges_keep_the_high_watermark() {
        let registry = Registry::new();
        let gauge = registry.gauge("depth");
        gauge.record_max(3);
        gauge.record_max(1);
        assert_eq!(gauge.get(), 3);
        gauge.set(2);
        assert_eq!(registry.snapshot().gauge("depth"), 2);
    }

    #[test]
    fn histograms_bucket_by_log2() {
        let registry = Registry::new();
        let histogram = registry.histogram("lat");
        histogram.record(0); // exp 0
        histogram.record(1); // exp 1
        histogram.record(1000); // exp 10 (1000 < 1024)
        let snapshot = registry.snapshot();
        let h = snapshot.histogram("lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1001);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (10, 1)]);
        assert!((h.mean() - 1001.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn spans_record_into_their_histogram() {
        let registry = Registry::new();
        registry.span("phase.test").finish();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.histogram("phase.test").unwrap().count, 1);
        // Disabled registries hand out inert spans.
        registry.set_enabled(false);
        registry.span("phase.test").finish();
        assert_eq!(
            registry.snapshot().histogram("phase.test").unwrap().count,
            1
        );
        registry.set_enabled(true);
    }

    #[test]
    fn snapshot_serializes_and_renders_prometheus() {
        let registry = Registry::new();
        registry.counter("serve.requests.ping").add(4);
        registry.gauge("resident.cells").set(7);
        registry.histogram("serve.latency_ns.ping").record(900);
        let snapshot = registry.snapshot();
        let rendered = snapshot.to_json().render();
        assert!(rendered.contains("\"serve.requests.ping\":4"));
        assert!(rendered.contains("\"histograms\""));
        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE themis_serve_requests_ping counter"));
        assert!(text.contains("themis_serve_requests_ping 4"));
        assert!(text.contains("themis_resident_cells 7"));
        assert!(text.contains("themis_serve_latency_ns_ping_bucket{le=\"1024\"} 1"));
        assert!(text.contains("themis_serve_latency_ns_ping_count 1"));
    }

    #[test]
    fn cache_stats_delta_and_rate() {
        let before = CacheStats::new(2, 1);
        let after = CacheStats::new(5, 2);
        let delta = after.delta(&before);
        assert_eq!(delta, CacheStats::new(3, 1));
        assert_eq!(delta.lookups(), 4);
        assert!((delta.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(delta.to_json().render(), "{\"hits\":3,\"misses\":1}");
    }

    #[test]
    fn diffing_against_an_empty_snapshot_is_identity_for_counts() {
        let registry = Registry::new();
        registry.counter("x").add(9);
        registry.histogram("h").record(3);
        let snapshot = registry.snapshot();
        let delta = snapshot.diff(&Snapshot::default());
        assert_eq!(delta.counter("x"), 9);
        assert_eq!(delta.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn log_levels_are_ordered_and_filtered() {
        assert!(LogLevel::Error.rank() < LogLevel::Debug.rank());
        // The default threshold (warn) admits errors and warnings.
        assert!(log_enabled(LogLevel::Error));
        // Emitting below the threshold is a no-op and must not panic.
        log_event(LogLevel::Debug, "test.noop", &[("k", Json::Num(1.0))]);
    }
}
