//! Schedule caching for campaign-scale sweeps.
//!
//! Schedules are immutable once built and the schedulers are deterministic
//! (Sec. 4.6.1: every NPU computes the same schedule locally), so any two
//! cells of a campaign matrix that agree on (topology structure, collective,
//! chunk count, scheduler) execute the *same* [`CollectiveSchedule`]. The
//! [`ScheduleCache`] exploits that: it memoises schedules behind
//! [`Arc`] handles keyed by [`NetworkTopology::fingerprint`] plus the request
//! parameters, so repeated cells — and repeated collectives inside one stream
//! queue — skip the scheduler entirely.
//!
//! The cache additionally shares splitter output *across* scheduler kinds:
//! cells that differ only in their scheduler reuse the same chunk split
//! (computed once per `(size, chunks)` pair) through
//! [`crate::scheduler::CollectiveScheduler::schedule_presplit`].
//!
//! The cache is thread-safe (`Mutex`-guarded maps, atomic hit/miss counters)
//! and is shared by all workers of a campaign runner. Scheduling happens
//! *outside* the lock, so a miss never blocks concurrent lookups; if two
//! workers race on the same key, the first inserted schedule wins and both
//! return the same `Arc` — either way the contents are identical, so reports
//! stay bit-for-bit equal to the uncached path.

use crate::durable::{self, VerifiedRead};
use crate::error::ScheduleError;
use crate::intra_dim::IntraDimPolicy;
use crate::json::Json;
use crate::schedule::{ChunkSchedule, CollectiveRequest, CollectiveSchedule, StageOp};
use crate::scheduler::SchedulerKind;
use crate::splitter::Splitter;
use crate::telemetry::{log_event, LogLevel};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use themis_collectives::{CollectiveKind, PhaseOp};
use themis_net::{DataSize, NetworkTopology};

/// Memoised splitter output, keyed by `(collective size, chunk count)`.
type SplitMap = HashMap<(DataSize, usize), Arc<Vec<f64>>>;

/// The lookup key of a cached schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    /// Structural fingerprint of the topology the schedule was built for.
    pub topology_fingerprint: u64,
    /// The collective request (kind + per-NPU size).
    pub request: CollectiveRequest,
    /// Chunks per collective.
    pub chunks: usize,
    /// Scheduler configuration (Table 3).
    pub scheduler: SchedulerKind,
}

impl ScheduleKey {
    /// Builds the key for scheduling `request` on `topo` with `chunks` chunks
    /// under `scheduler`.
    pub fn new(
        topo: &NetworkTopology,
        request: &CollectiveRequest,
        chunks: usize,
        scheduler: SchedulerKind,
    ) -> Self {
        ScheduleKey {
            topology_fingerprint: topo.fingerprint(),
            request: *request,
            chunks,
            scheduler,
        }
    }
}

/// A thread-safe memo of collective schedules (and splitter output), shared
/// across the workers of a campaign run.
///
/// ```
/// use themis_core::{CollectiveRequest, ScheduleCache, SchedulerKind};
/// use themis_net::presets::PresetTopology;
///
/// # fn main() -> Result<(), themis_core::ScheduleError> {
/// let cache = ScheduleCache::new();
/// let topo = PresetTopology::Sw2d.build();
/// let request = CollectiveRequest::all_reduce_mib(64.0);
/// let first = cache.get_or_schedule(&topo, &request, 16, SchedulerKind::ThemisScf)?;
/// let second = cache.get_or_schedule(&topo, &request, 16, SchedulerKind::ThemisScf)?;
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ScheduleCache {
    schedules: Mutex<Entries>,
    splits: Mutex<SplitMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The cached schedules, and which sealed cache-file body they equal.
#[derive(Debug, Default)]
struct Entries {
    map: HashMap<ScheduleKey, Arc<CollectiveSchedule>>,
    /// The file body `map` equals, if known. Set by a load of a verified
    /// file into an empty cache and by every publish that writes; dropped by
    /// `clear()`. Entries are only ever added between clears, so `map` still
    /// equals the body while its length equals the recorded count.
    file: Option<FileBody>,
    /// `clear()` calls so far: a publish records the body it wrote only if
    /// no clear ran after it took its snapshot.
    clears: u64,
}

/// A sealed cache-file body: its entry count and the checksum its trailer
/// records.
#[derive(Debug, Clone, Copy)]
struct FileBody {
    entries: usize,
    checksum: u64,
}

impl ScheduleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// Returns the cached schedule for the key, or runs the scheduler (reusing
    /// cached splitter output) and memoises the result.
    ///
    /// The returned schedule is exactly what `scheduler.build(chunks)` would
    /// produce for the same request and topology — schedulers are
    /// deterministic, so cached and uncached runs are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::ZeroChunks`] for a zero chunk count and
    /// otherwise propagates the scheduler's errors.
    pub fn get_or_schedule(
        &self,
        topo: &NetworkTopology,
        request: &CollectiveRequest,
        chunks: usize,
        scheduler: SchedulerKind,
    ) -> Result<Arc<CollectiveSchedule>, ScheduleError> {
        if chunks == 0 {
            return Err(ScheduleError::ZeroChunks);
        }
        let key = ScheduleKey::new(topo, request, chunks, scheduler);
        if let Some(hit) = self
            .schedules
            .lock()
            .expect("schedule cache lock is never poisoned")
            .map
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Scheduling runs outside the lock: a slow miss never blocks hits on
        // other keys (or the same key — a racing worker just recomputes the
        // identical schedule and the first insert wins).
        let schedule = Arc::new(self.build_schedule(topo, request, chunks, scheduler, &key)?);
        Ok(Arc::clone(
            self.schedules
                .lock()
                .expect("schedule cache lock is never poisoned")
                .map
                .entry(key)
                .or_insert(schedule),
        ))
    }

    /// Builds the schedule for a cache miss. The two Themis variants run the
    /// same chunk-ordering algorithm (Algorithm 1 never reads the
    /// intra-dimension policy — that only governs *execution*), so when the
    /// sibling variant is already cached its chunk orders are cloned instead
    /// of re-running the scheduler; only the schedule's name and policy
    /// differ. The clone is bit-identical to scheduling from scratch
    /// (asserted in the tests below and the integration suites).
    fn build_schedule(
        &self,
        topo: &NetworkTopology,
        request: &CollectiveRequest,
        chunks: usize,
        scheduler: SchedulerKind,
        key: &ScheduleKey,
    ) -> Result<CollectiveSchedule, ScheduleError> {
        let sibling = match scheduler {
            SchedulerKind::ThemisFifo => Some(SchedulerKind::ThemisScf),
            SchedulerKind::ThemisScf => Some(SchedulerKind::ThemisFifo),
            SchedulerKind::Baseline => None,
        };
        if let Some(sibling) = sibling {
            let sibling_key = ScheduleKey {
                scheduler: sibling,
                ..*key
            };
            let cached = self
                .schedules
                .lock()
                .expect("schedule cache lock is never poisoned")
                .map
                .get(&sibling_key)
                .cloned();
            if let Some(sibling_schedule) = cached {
                let built = scheduler.build(chunks);
                return Ok(CollectiveSchedule::new(
                    *request,
                    built.name(),
                    built.intra_dim_policy(),
                    sibling_schedule.chunks().to_vec(),
                ));
            }
        }
        let split = self.split_cached(request.size(), chunks)?;
        let mut built = scheduler.build(chunks);
        built.schedule_presplit(request, topo, &split)
    }

    /// Returns the cached splitter output for `(size, chunks)`, computing and
    /// memoising it on first use. Shared across scheduler kinds.
    ///
    /// # Errors
    ///
    /// Propagates [`Splitter`] validation errors (zero chunks, empty
    /// collective).
    pub fn split_cached(
        &self,
        size: DataSize,
        chunks: usize,
    ) -> Result<Arc<Vec<f64>>, ScheduleError> {
        if let Some(hit) = self
            .splits
            .lock()
            .expect("split cache lock is never poisoned")
            .get(&(size, chunks))
        {
            return Ok(Arc::clone(hit));
        }
        let split = Arc::new(Splitter::new(chunks)?.split(size)?);
        Ok(Arc::clone(
            self.splits
                .lock()
                .expect("split cache lock is never poisoned")
                .entry((size, chunks))
                .or_insert(split),
        ))
    }

    /// Number of lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that ran the scheduler.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative hit/miss counters as the unified
    /// [`CacheStats`](crate::telemetry::CacheStats) view.
    pub fn stats(&self) -> crate::telemetry::CacheStats {
        crate::telemetry::CacheStats::new(self.hits(), self.misses())
    }

    /// Number of distinct schedules currently cached.
    pub fn len(&self) -> usize {
        self.schedules
            .lock()
            .expect("schedule cache lock is never poisoned")
            .map
            .len()
    }

    /// `true` if no schedule has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes every cached schedule to a JSON string (the cache-file
    /// format shared with `themis::api::shard`'s cross-process workers).
    ///
    /// Entries are written in a deterministic order (sorted by key), so the
    /// same cache contents always dump to the same text. Splitter output and
    /// the hit/miss counters are *not* serialized: splits are cheap to
    /// recompute and counters describe one process's lookups.
    ///
    /// ```
    /// use themis_core::{CollectiveRequest, ScheduleCache, SchedulerKind};
    /// use themis_net::presets::PresetTopology;
    ///
    /// # fn main() -> Result<(), themis_core::ScheduleError> {
    /// let topo = PresetTopology::Sw2d.build();
    /// let request = CollectiveRequest::all_reduce_mib(64.0);
    /// let cache = ScheduleCache::new();
    /// cache.get_or_schedule(&topo, &request, 16, SchedulerKind::ThemisScf)?;
    /// let file = cache.dump();
    ///
    /// // A later campaign — possibly in another process — warm-starts from
    /// // the dump and serves the same request without rescheduling:
    /// let warm = ScheduleCache::new();
    /// assert_eq!(warm.load(&file)?, 1);
    /// warm.get_or_schedule(&topo, &request, 16, SchedulerKind::ThemisScf)?;
    /// assert_eq!((warm.hits(), warm.misses()), (1, 0));
    /// # Ok(())
    /// # }
    /// ```
    pub fn dump(&self) -> String {
        self.dump_counted().0
    }

    /// [`ScheduleCache::dump`], plus the number of entries dumped and the
    /// `clear()` count, both read under the schedules lock.
    fn dump_counted(&self) -> (String, usize, u64) {
        let (mut entries, clears) = {
            let schedules = self
                .schedules
                .lock()
                .expect("schedule cache lock is never poisoned");
            let entries: Vec<(ScheduleKey, Arc<CollectiveSchedule>)> = schedules
                .map
                .iter()
                .map(|(key, schedule)| (*key, Arc::clone(schedule)))
                .collect();
            (entries, schedules.clears)
        };
        entries.sort_by(|(a, _), (b, _)| {
            (
                a.topology_fingerprint,
                a.request.kind().to_string(),
                a.request.size(),
                a.chunks,
                a.scheduler.label(),
            )
                .cmp(&(
                    b.topology_fingerprint,
                    b.request.kind().to_string(),
                    b.request.size(),
                    b.chunks,
                    b.scheduler.label(),
                ))
        });
        let body = Json::obj([
            ("version", Json::Num(1.0)),
            ("kind", Json::Str("schedule-cache".to_string())),
            (
                "entries",
                Json::Arr(
                    entries
                        .iter()
                        .map(|(key, schedule)| entry_to_json(key, schedule))
                        .collect(),
                ),
            ),
        ])
        .render();
        (body, entries.len(), clears)
    }

    /// Loads a dump previously produced by [`ScheduleCache::dump`], merging
    /// its entries into this cache. Keys that are already present keep their
    /// existing schedule; the hit/miss counters are unaffected (loaded entries
    /// count as hits only when a later lookup actually uses them). Returns the
    /// number of entries inserted.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Serialization`] on malformed text, an unknown
    /// layout version, or unknown scheduler/collective/policy labels.
    pub fn load(&self, text: &str) -> Result<usize, ScheduleError> {
        self.load_body(text, None)
    }

    /// [`ScheduleCache::load`]. With the `checksum` of the verified file
    /// `text` came from, the file is recorded as the body this cache equals
    /// when the cache was empty: every entry it then holds came from the
    /// file.
    fn load_body(&self, text: &str, checksum: Option<u64>) -> Result<usize, ScheduleError> {
        let value = Json::parse(text)?;
        let version = value.field("version")?.as_usize()?;
        let kind = value.field("kind")?.as_str()?;
        if version != 1 || kind != "schedule-cache" {
            return Err(ScheduleError::Serialization {
                reason: format!("unsupported schedule cache dump `{kind}` v{version}"),
            });
        }
        let mut parsed = Vec::new();
        for entry in value.field("entries")?.as_arr()? {
            parsed.push(entry_from_json(entry)?);
        }
        let mut inserted = 0;
        let mut schedules = self
            .schedules
            .lock()
            .expect("schedule cache lock is never poisoned");
        for (key, schedule) in parsed {
            schedules.map.entry(key).or_insert_with(|| {
                inserted += 1;
                Arc::new(schedule)
            });
        }
        let entries = schedules.map.len();
        if let Some(checksum) = checksum.filter(|_| entries == inserted) {
            schedules.file = Some(FileBody { entries, checksum });
        }
        Ok(inserted)
    }

    /// Loads a cache file previously written by [`ScheduleCache::dump`] or
    /// [`ScheduleCache::publish_to_file`], merging its entries into this
    /// cache. A missing file is a cold start, not an error: the method
    /// returns `Ok(0)`. Returns the number of entries inserted.
    ///
    /// The file's checksum trailer (see [`crate::durable`]) is verified
    /// first; legacy files without a trailer stay readable. A corrupt file —
    /// a torn write, a flipped byte, or unparseable contents — is **not** an
    /// error either: it is quarantined to `<path>.corrupt-<n>` (with a
    /// structured log event and a bump of the `cache.corrupt_quarantined`
    /// counter) and the load reports a cold start, so a damaged cache file
    /// can never wedge a campaign. The cache simply rebuilds from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Io`] when the file exists but cannot be read.
    pub fn load_from_file(&self, path: &Path) -> Result<usize, ScheduleError> {
        let (read, checksum) =
            durable::read_checksummed(path).map_err(|err| ScheduleError::Io {
                reason: format!("cannot read `{}`: {err}", path.display()),
            })?;
        let body = match read {
            VerifiedRead::Missing => return Ok(0),
            VerifiedRead::Clean(body) | VerifiedRead::Legacy(body) => body,
            VerifiedRead::Corrupt { reason } => {
                // Quarantine is best-effort: losing the rename race to a
                // concurrent quarantine still ends in a clean cold start.
                let _ = durable::quarantine(path, &reason);
                return Ok(0);
            }
        };
        match self.load_body(&body, checksum) {
            Ok(inserted) => Ok(inserted),
            Err(ScheduleError::Serialization { reason }) => {
                // The checksum matched (or the file predates checksums) but
                // the payload is not a cache dump: same quarantine treatment.
                let _ = durable::quarantine(path, &reason);
                Ok(0)
            }
            Err(err) => Err(err),
        }
    }

    /// Publishes this cache's schedules to a shared cache file. It
    /// merge-publishes when it holds schedules the file lacks, with
    /// **merge-on-write** semantics: the file is locked (via a `<path>.lock`
    /// sentinel), its current entries are merged into this cache, and the
    /// union is written back atomically (temp file + rename). Concurrent
    /// workers publishing to the same file therefore never lose each other's
    /// entries — unlike a plain `fs::write(path, cache.dump())`, which is
    /// last-writer-wins.
    ///
    /// The merge runs *into* this cache: after a successful publish the cache
    /// holds the union and the file holds the same union. Entries already
    /// present keep their in-memory `Arc`s; the hit/miss counters are
    /// untouched. Returns the number of entries in the published union.
    ///
    /// A publish with nothing to merge writes nothing. The cache remembers
    /// the sealed file body its entries last equalled: the verified file
    /// [`ScheduleCache::load_from_file`] loaded into it while it was empty,
    /// or the file a publish last wrote. While the cache has gained no entry
    /// since, and `path` still verifies clean with that body's checksum, the
    /// file already holds the union the merge would write (byte for byte
    /// when a publish wrote it, as the dump is deterministic), so the
    /// publish returns at once: no lock, no parse, no write. Every other
    /// state takes the merge path: entries added, the file changed, missing,
    /// torn or unsealed, or the cache [`cleared`](ScheduleCache::clear). The
    /// process-wide counters `cache.publish_written` and
    /// `cache.publish_skipped` count the two outcomes.
    ///
    /// The written file is sealed with a checksum trailer and landed by
    /// [`durable::write_atomic`], so a publisher killed mid-write leaves
    /// either the previous complete file or the new complete file — never a
    /// torn one. A pre-existing corrupt file is quarantined (see
    /// [`ScheduleCache::load_from_file`]) and the publish rebuilds the file
    /// from this cache's entries alone.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Io`] when the lock cannot be acquired within
    /// its bounded wait or the file cannot be read/written.
    pub fn publish_to_file(&self, path: &Path) -> Result<usize, ScheduleError> {
        if let Some(entries) = self.already_in(path) {
            crate::telemetry::global()
                .counter("cache.publish_skipped")
                .inc();
            return Ok(entries);
        }
        let _lock = DumpFileLock::acquire(path)?;
        self.load_from_file(path)?;
        let (dump, entries, clears) = self.dump_counted();
        let checksum = durable::write_atomic(path, &dump).map_err(|err| ScheduleError::Io {
            reason: format!("cannot write `{}`: {err}", path.display()),
        })?;
        let mut schedules = self
            .schedules
            .lock()
            .expect("schedule cache lock is never poisoned");
        if schedules.clears == clears {
            schedules.file = Some(FileBody { entries, checksum });
        }
        drop(schedules);
        crate::telemetry::global()
            .counter("cache.publish_written")
            .inc();
        Ok(entries)
    }

    /// The entry count, when this cache has gained no entry since it last
    /// equalled a sealed file body and `path` still verifies clean with that
    /// body's checksum: the file then holds every entry a publish would
    /// write. A file that cannot be read is left to the merge path.
    fn already_in(&self, path: &Path) -> Option<usize> {
        let body = {
            let schedules = self
                .schedules
                .lock()
                .expect("schedule cache lock is never poisoned");
            schedules
                .file
                .filter(|body| body.entries == schedules.map.len())?
        };
        let (_, checksum) = durable::read_checksummed(path).ok()?;
        (checksum == Some(body.checksum)).then_some(body.entries)
    }

    /// Merges several cache dumps into one, without touching any file: the
    /// union of all entries, first occurrence of a key winning. Because
    /// schedulers are deterministic, dumps produced from the same workload
    /// carry identical schedules for identical keys, so the merge is
    /// **order-independent**: `merge_dumps([a, b]) == merge_dumps([b, a])`
    /// (asserted in the tests and by `shard-worker cache-merge`).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Serialization`] when any dump is malformed.
    pub fn merge_dumps<'a>(
        dumps: impl IntoIterator<Item = &'a str>,
    ) -> Result<String, ScheduleError> {
        let merged = ScheduleCache::new();
        for dump in dumps {
            merged.load(dump)?;
        }
        Ok(merged.dump())
    }

    /// Drops every cached schedule and split (the hit/miss counters keep
    /// counting), and with them the record of the file body the cache
    /// equalled, so the next [`ScheduleCache::publish_to_file`] merges.
    pub fn clear(&self) {
        let mut schedules = self
            .schedules
            .lock()
            .expect("schedule cache lock is never poisoned");
        schedules.map.clear();
        schedules.file = None;
        schedules.clears += 1;
        drop(schedules);
        self.splits
            .lock()
            .expect("split cache lock is never poisoned")
            .clear();
    }
}

/// An exclusive advisory lock on a cache file, held as a `<path>.lock`
/// sentinel created with `create_new` (atomic on every platform). Dropped —
/// and thereby released — even on error paths. Stale sentinels (from a
/// killed worker) are broken after [`DumpFileLock::STALE`].
struct DumpFileLock {
    path: PathBuf,
}

impl DumpFileLock {
    /// How long between acquisition attempts: an uncontended publish holds
    /// the lock for tens of milliseconds, so a waiter polls often enough to
    /// take it within about a millisecond of its release.
    const RETRY: Duration = Duration::from_millis(1);
    /// Attempts before giving up (bounded wait of ~5 s total).
    const ATTEMPTS: u32 = 5_000;
    /// Age after which a sentinel is considered abandoned and broken.
    const STALE: Duration = Duration::from_secs(30);

    fn acquire(target: &Path) -> Result<Self, ScheduleError> {
        let mut path = target.as_os_str().to_owned();
        path.push(".lock");
        let path = PathBuf::from(path);
        for _ in 0..Self::ATTEMPTS {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut sentinel) => {
                    // Contents are diagnostic only (who holds the lock).
                    let _ = write!(sentinel, "{}", std::process::id());
                    return Ok(DumpFileLock { path });
                }
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Break abandoned sentinels so one crashed worker cannot
                    // wedge every later publisher.
                    if let Ok(meta) = std::fs::metadata(&path) {
                        let stale = meta
                            .modified()
                            .ok()
                            .and_then(|at| at.elapsed().ok())
                            .is_some_and(|age| age > Self::STALE);
                        if stale {
                            if std::fs::remove_file(&path).is_ok() {
                                crate::telemetry::global()
                                    .counter("cache.lock_takeover")
                                    .inc();
                                log_event(
                                    LogLevel::Warn,
                                    "cache.lock_takeover",
                                    &[("lock", Json::Str(path.display().to_string()))],
                                );
                            }
                            continue;
                        }
                    }
                    std::thread::sleep(Self::RETRY);
                }
                Err(err) => {
                    return Err(ScheduleError::Io {
                        reason: format!("cannot create lock `{}`: {err}", path.display()),
                    })
                }
            }
        }
        Err(ScheduleError::Io {
            reason: format!(
                "timed out waiting for cache lock `{}` (held by another worker?)",
                path.display()
            ),
        })
    }
}

impl Drop for DumpFileLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn entry_to_json(key: &ScheduleKey, schedule: &CollectiveSchedule) -> Json {
    // The key's request is not repeated at the entry level: cached entries
    // satisfy `key.request == schedule.request()` by construction, so the
    // loader derives it from the schedule and no inconsistent file exists.
    Json::obj([
        // The fingerprint is a full 64-bit hash; JSON numbers only cover
        // 53 bits losslessly, so it travels as a hex string.
        (
            "fingerprint",
            Json::Str(format!("{:016x}", key.topology_fingerprint)),
        ),
        ("chunks", Json::Num(key.chunks as f64)),
        ("scheduler", Json::Str(key.scheduler.label().to_string())),
        ("schedule", schedule_to_json(schedule)),
    ])
}

fn entry_from_json(value: &Json) -> Result<(ScheduleKey, CollectiveSchedule), ScheduleError> {
    let fingerprint_hex = value.field("fingerprint")?.as_str()?;
    let topology_fingerprint =
        u64::from_str_radix(fingerprint_hex, 16).map_err(|_| ScheduleError::Serialization {
            reason: format!("invalid topology fingerprint `{fingerprint_hex}`"),
        })?;
    let schedule = schedule_from_json(value.field("schedule")?)?;
    let key = ScheduleKey {
        topology_fingerprint,
        request: *schedule.request(),
        chunks: value.field("chunks")?.as_usize()?,
        scheduler: scheduler_from_label(value.field("scheduler")?.as_str()?)?,
    };
    Ok((key, schedule))
}

fn schedule_to_json(schedule: &CollectiveSchedule) -> Json {
    Json::obj([
        (
            "scheduler_name",
            Json::Str(schedule.scheduler_name().to_string()),
        ),
        (
            "intra_dim_policy",
            Json::Str(
                match schedule.intra_dim_policy() {
                    IntraDimPolicy::Fifo => "FIFO",
                    IntraDimPolicy::SmallestChunkFirst => "SCF",
                }
                .to_string(),
            ),
        ),
        (
            "collective",
            Json::Str(schedule.request().kind().to_string()),
        ),
        (
            "size_bytes",
            Json::Num(schedule.request().size().as_bytes_f64()),
        ),
        (
            "chunks",
            Json::Arr(
                schedule
                    .chunks()
                    .iter()
                    .map(|chunk| {
                        Json::obj([
                            ("chunk_index", Json::Num(chunk.chunk_index as f64)),
                            ("initial_bytes", Json::Num(chunk.initial_bytes)),
                            (
                                "stages",
                                Json::Arr(
                                    chunk
                                        .stages
                                        .iter()
                                        .map(|stage| {
                                            Json::obj([
                                                ("dim", Json::Num(stage.dim as f64)),
                                                ("op", Json::Str(stage.op.label().to_string())),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn schedule_from_json(value: &Json) -> Result<CollectiveSchedule, ScheduleError> {
    let policy = match value.field("intra_dim_policy")?.as_str()? {
        "FIFO" => IntraDimPolicy::Fifo,
        "SCF" => IntraDimPolicy::SmallestChunkFirst,
        other => {
            return Err(ScheduleError::Serialization {
                reason: format!("unknown intra-dimension policy `{other}`"),
            })
        }
    };
    let mut chunks = Vec::new();
    for chunk in value.field("chunks")?.as_arr()? {
        let mut stages = Vec::new();
        for stage in chunk.field("stages")?.as_arr()? {
            stages.push(StageOp::new(
                stage.field("dim")?.as_usize()?,
                phase_op_from_label(stage.field("op")?.as_str()?)?,
            ));
        }
        chunks.push(ChunkSchedule {
            chunk_index: chunk.field("chunk_index")?.as_usize()?,
            initial_bytes: chunk.field("initial_bytes")?.as_f64()?,
            stages,
        });
    }
    Ok(CollectiveSchedule::new(
        request_from_json(value)?,
        value.field("scheduler_name")?.as_str()?,
        policy,
        chunks,
    ))
}

/// Parses the `collective` + `size_bytes` fields of an object into a request.
fn request_from_json(value: &Json) -> Result<CollectiveRequest, ScheduleError> {
    let label = value.field("collective")?.as_str()?;
    let kind = CollectiveKind::all()
        .into_iter()
        .find(|k| k.to_string() == label)
        .ok_or_else(|| ScheduleError::Serialization {
            reason: format!("unknown collective `{label}`"),
        })?;
    let size = DataSize::from_bytes(value.field("size_bytes")?.as_u64()?);
    Ok(CollectiveRequest::new(kind, size))
}

fn scheduler_from_label(label: &str) -> Result<SchedulerKind, ScheduleError> {
    SchedulerKind::all()
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| ScheduleError::Serialization {
            reason: format!("unknown scheduler `{label}`"),
        })
}

fn phase_op_from_label(label: &str) -> Result<PhaseOp, ScheduleError> {
    match label {
        "RS" => Ok(PhaseOp::ReduceScatter),
        "AG" => Ok(PhaseOp::AllGather),
        "A2A" => Ok(PhaseOp::AllToAll),
        other => Err(ScheduleError::Serialization {
            reason: format!("unknown phase op `{other}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::presets::PresetTopology;

    #[test]
    fn cached_schedules_match_direct_scheduling_bit_for_bit() {
        let cache = ScheduleCache::new();
        let request = CollectiveRequest::all_reduce_mib(128.0);
        for preset in [PresetTopology::Sw2d, PresetTopology::SwSwSw3dHetero] {
            let topo = preset.build();
            for kind in SchedulerKind::all() {
                let cached = cache.get_or_schedule(&topo, &request, 16, kind).unwrap();
                let direct = kind.build(16).schedule(&request, &topo).unwrap();
                assert_eq!(*cached, direct, "{} on {}", kind, topo.name());
            }
        }
    }

    #[test]
    fn hits_share_one_arc_and_are_counted() {
        let cache = ScheduleCache::new();
        let topo = PresetTopology::Sw2d.build();
        let request = CollectiveRequest::all_reduce_mib(32.0);
        let a = cache
            .get_or_schedule(&topo, &request, 8, SchedulerKind::Baseline)
            .unwrap();
        let b = cache
            .get_or_schedule(&topo, &request, 8, SchedulerKind::Baseline)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);

        // A renamed but structurally identical topology hits the same entry.
        let renamed = topo.renamed("same-structure");
        let c = cache
            .get_or_schedule(&renamed, &request, 8, SchedulerKind::Baseline)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn distinct_keys_miss_independently() {
        let cache = ScheduleCache::new();
        let topo = PresetTopology::Sw2d.build();
        let request = CollectiveRequest::all_reduce_mib(32.0);
        for kind in SchedulerKind::all() {
            cache.get_or_schedule(&topo, &request, 8, kind).unwrap();
        }
        cache
            .get_or_schedule(&topo, &request, 16, SchedulerKind::Baseline)
            .unwrap();
        let other = PresetTopology::SwSwSw3dHomo.build();
        cache
            .get_or_schedule(&other, &request, 8, SchedulerKind::Baseline)
            .unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.len(), 5);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn themis_variants_share_chunk_orders_bit_for_bit() {
        // Algorithm 1 never reads the intra-dimension policy, so the cache
        // derives one Themis variant from the other's cached chunks — and the
        // result must not differ in a single bit from scheduling directly.
        let cache = ScheduleCache::new();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        for preset in [
            PresetTopology::SwSwSw3dHetero,
            PresetTopology::RingFcRingSw4d,
        ] {
            let topo = preset.build();
            for (first, second) in [
                (SchedulerKind::ThemisFifo, SchedulerKind::ThemisScf),
                (SchedulerKind::ThemisScf, SchedulerKind::ThemisFifo),
            ] {
                cache.clear();
                cache.get_or_schedule(&topo, &request, 32, first).unwrap();
                let derived = cache.get_or_schedule(&topo, &request, 32, second).unwrap();
                let direct = second.build(32).schedule(&request, &topo).unwrap();
                assert_eq!(*derived, direct, "{second} derived from {first}");
            }
        }
    }

    #[test]
    fn split_output_is_shared_across_scheduler_kinds() {
        let cache = ScheduleCache::new();
        let size = DataSize::from_mib(64.0);
        let first = cache.split_cached(size, 16).unwrap();
        let second = cache.split_cached(size, 16).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.len(), 16);
        let direct = Splitter::new(16).unwrap().split(size).unwrap();
        assert_eq!(*first, direct);
    }

    #[test]
    fn invalid_requests_error_without_poisoning_the_cache() {
        let cache = ScheduleCache::new();
        let topo = PresetTopology::Sw2d.build();
        let request = CollectiveRequest::all_reduce_mib(32.0);
        assert!(matches!(
            cache.get_or_schedule(&topo, &request, 0, SchedulerKind::Baseline),
            Err(ScheduleError::ZeroChunks)
        ));
        let empty = CollectiveRequest::new(
            themis_collectives::CollectiveKind::AllReduce,
            DataSize::ZERO,
        );
        assert!(cache
            .get_or_schedule(&topo, &empty, 8, SchedulerKind::ThemisScf)
            .is_err());
        // The cache still works after errors.
        cache
            .get_or_schedule(&topo, &request, 8, SchedulerKind::ThemisScf)
            .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn dump_and_load_round_trip_schedules_bit_for_bit() {
        let cache = ScheduleCache::new();
        let request = CollectiveRequest::all_reduce_mib(96.0);
        let a2a = CollectiveRequest::new(
            themis_collectives::CollectiveKind::AllToAll,
            DataSize::from_mib(8.0),
        );
        for preset in [PresetTopology::Sw2d, PresetTopology::FcRingSw3d] {
            let topo = preset.build();
            for kind in SchedulerKind::all() {
                cache.get_or_schedule(&topo, &request, 8, kind).unwrap();
            }
            cache
                .get_or_schedule(&topo, &a2a, 4, SchedulerKind::Baseline)
                .unwrap();
        }
        let text = cache.dump();
        // Deterministic output: dumping twice yields identical text.
        assert_eq!(text, cache.dump());

        let warm = ScheduleCache::new();
        assert_eq!(warm.load(&text).unwrap(), cache.len());
        assert_eq!(warm.len(), cache.len());
        // Loading again inserts nothing (all keys present).
        assert_eq!(warm.load(&text).unwrap(), 0);
        // Counters untouched by load.
        assert_eq!((warm.hits(), warm.misses()), (0, 0));

        // Every loaded schedule is bit-identical to a freshly scheduled one
        // and every lookup on the warm cache is a hit.
        for preset in [PresetTopology::Sw2d, PresetTopology::FcRingSw3d] {
            let topo = preset.build();
            for kind in SchedulerKind::all() {
                let loaded = warm.get_or_schedule(&topo, &request, 8, kind).unwrap();
                let direct = kind.build(8).schedule(&request, &topo).unwrap();
                assert_eq!(*loaded, direct, "{} on {}", kind, topo.name());
            }
        }
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.hits(), 6);
    }

    #[test]
    fn load_rejects_malformed_dumps() {
        let cache = ScheduleCache::new();
        assert!(matches!(
            cache.load("not json"),
            Err(ScheduleError::Serialization { .. })
        ));
        assert!(matches!(
            cache.load("{\"version\": 2, \"kind\": \"schedule-cache\", \"entries\": []}"),
            Err(ScheduleError::Serialization { .. })
        ));
        assert!(matches!(
            cache.load("{\"version\": 1, \"kind\": \"campaign\", \"entries\": []}"),
            Err(ScheduleError::Serialization { .. })
        ));
        let bad_entry = "{\"version\": 1, \"kind\": \"schedule-cache\", \"entries\": \
                         [{\"fingerprint\": \"zz\"}]}";
        assert!(matches!(
            cache.load(bad_entry),
            Err(ScheduleError::Serialization { .. })
        ));
        // Nothing was inserted by the failed loads.
        assert!(cache.is_empty());
        // An empty dump loads cleanly.
        assert_eq!(
            cache
                .load("{\"version\": 1, \"kind\": \"schedule-cache\", \"entries\": []}")
                .unwrap(),
            0
        );
    }

    #[test]
    fn load_keeps_existing_entries() {
        let cache = ScheduleCache::new();
        let topo = PresetTopology::Sw2d.build();
        let request = CollectiveRequest::all_reduce_mib(32.0);
        let original = cache
            .get_or_schedule(&topo, &request, 8, SchedulerKind::ThemisScf)
            .unwrap();
        let text = cache.dump();
        assert_eq!(cache.load(&text).unwrap(), 0);
        let still = cache
            .get_or_schedule(&topo, &request, 8, SchedulerKind::ThemisScf)
            .unwrap();
        // The pre-existing Arc survived the merge.
        assert!(Arc::ptr_eq(&original, &still));
    }

    /// A scratch directory under the target-adjacent temp dir, removed on
    /// drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("themis-cache-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("temp dir is creatable");
            TempDir(path)
        }

        fn file(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Builds a cache holding one schedule per given size.
    fn cache_with_sizes(sizes: &[f64]) -> ScheduleCache {
        let cache = ScheduleCache::new();
        schedule_sizes(&cache, sizes);
        cache
    }

    /// Adds one schedule per given size to `cache`.
    fn schedule_sizes(cache: &ScheduleCache, sizes: &[f64]) {
        let topo = PresetTopology::Sw2d.build();
        for &mib in sizes {
            let request = CollectiveRequest::all_reduce_mib(mib);
            cache
                .get_or_schedule(&topo, &request, 8, SchedulerKind::ThemisScf)
                .unwrap();
        }
    }

    /// Cuts the body of a sealed file in half but keeps its checksum trailer,
    /// exactly what a killed non-atomic writer would leave behind.
    fn tear(path: &Path) {
        let sealed = std::fs::read_to_string(path).unwrap();
        let trailer_at = sealed.rfind(durable::TRAILER_PREFIX).unwrap();
        let torn = format!("{}{}", &sealed[..trailer_at / 2], &sealed[trailer_at..]);
        std::fs::write(path, torn).unwrap();
    }

    #[test]
    fn merge_dumps_is_order_independent() {
        let a = cache_with_sizes(&[16.0, 32.0]).dump();
        let b = cache_with_sizes(&[32.0, 64.0]).dump();
        let ab = ScheduleCache::merge_dumps([a.as_str(), b.as_str()]).unwrap();
        let ba = ScheduleCache::merge_dumps([b.as_str(), a.as_str()]).unwrap();
        assert_eq!(ab, ba);
        // The union holds all three distinct keys.
        let merged = ScheduleCache::new();
        assert_eq!(merged.load(&ab).unwrap(), 3);
        // Merging a dump with itself is the identity.
        assert_eq!(
            ScheduleCache::merge_dumps([a.as_str(), a.as_str()]).unwrap(),
            a
        );
        // Malformed dumps are rejected.
        assert!(matches!(
            ScheduleCache::merge_dumps([a.as_str(), "not json"]),
            Err(ScheduleError::Serialization { .. })
        ));
    }

    #[test]
    fn publish_to_file_merges_instead_of_overwriting() {
        let dir = TempDir::new("publish");
        let path = dir.file("schedules.json");

        // Worker A publishes two entries, worker B publishes two others
        // (one overlapping). Last-writer-wins would leave only B's entries;
        // merge-on-write keeps the union.
        let a = cache_with_sizes(&[16.0, 32.0]);
        assert_eq!(a.publish_to_file(&path).unwrap(), 2);
        let b = cache_with_sizes(&[32.0, 64.0]);
        assert_eq!(b.publish_to_file(&path).unwrap(), 3);
        // `b` wrote the file and has gained nothing since: its next publish
        // has nothing to merge, so it returns at once even while another
        // publisher holds the lock, and leaves the file as it is.
        let written = std::fs::read(&path).unwrap();
        let lock = dir.file("schedules.json.lock");
        std::fs::write(&lock, "alive").unwrap();
        let started = std::time::Instant::now();
        assert_eq!(b.publish_to_file(&path).unwrap(), 3);
        assert!(started.elapsed() < Duration::from_secs(1));
        std::fs::remove_file(&lock).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), written);

        let merged = ScheduleCache::new();
        assert_eq!(merged.load_from_file(&path).unwrap(), 3);
        // The published file is sealed and its body equals the
        // order-independent dump merge.
        let expected = ScheduleCache::merge_dumps([
            cache_with_sizes(&[16.0, 32.0]).dump().as_str(),
            cache_with_sizes(&[32.0, 64.0]).dump().as_str(),
        ])
        .unwrap();
        match durable::read_verified(&path).unwrap() {
            VerifiedRead::Clean(body) => {
                assert_eq!(body.trim_end_matches('\n'), expected.trim_end_matches('\n'));
            }
            other => panic!("published file should verify Clean, got {other:?}"),
        }
        // The lock sentinel was released.
        assert!(!dir.file("schedules.json.lock").exists());

        // `a` has gained nothing since its publish either, but `b` changed
        // the file: the publish merges and both hold the union.
        assert_eq!(a.publish_to_file(&path).unwrap(), 3);
        assert_eq!(a.len(), 3);
        // The same for a cache loaded from the file, when another publisher
        // adds an entry after the load.
        let loaded = ScheduleCache::new();
        assert_eq!(loaded.load_from_file(&path).unwrap(), 3);
        assert_eq!(
            cache_with_sizes(&[128.0]).publish_to_file(&path).unwrap(),
            4
        );
        assert_eq!(loaded.publish_to_file(&path).unwrap(), 4);
        assert_eq!(loaded.len(), 4);
        assert_eq!(ScheduleCache::new().load_from_file(&path).unwrap(), 4);

        // After `clear()` and as many new entries as before, the entry count
        // matches the file's again, but the cache no longer equals the file:
        // the publish merges.
        loaded.clear();
        schedule_sizes(&loaded, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded.publish_to_file(&path).unwrap(), 8);
        assert_eq!(ScheduleCache::new().load_from_file(&path).unwrap(), 8);

        // A cache that held an entry of its own before loading the file does
        // not equal it: the publish merges that entry in.
        let own = cache_with_sizes(&[256.0]);
        assert_eq!(own.load_from_file(&path).unwrap(), 8);
        assert_eq!(own.publish_to_file(&path).unwrap(), 9);
        assert_eq!(ScheduleCache::new().load_from_file(&path).unwrap(), 9);
    }

    #[test]
    fn load_from_file_treats_missing_files_as_cold_start() {
        let _counters = crate::telemetry::global_counters_lock();
        let dir = TempDir::new("load");
        let cache = ScheduleCache::new();
        assert_eq!(cache.load_from_file(&dir.file("absent.json")).unwrap(), 0);
        // A malformed (legacy, unsealed) file is quarantined, not fatal: the
        // load reports a cold start and the evidence moves aside.
        let bad = dir.file("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert_eq!(cache.load_from_file(&bad).unwrap(), 0);
        assert!(!bad.exists());
        assert!(dir.file("bad.json.corrupt-0").exists());
        assert!(cache.is_empty());
    }

    #[test]
    fn torn_cache_files_are_quarantined_and_rebuilt() {
        let _counters = crate::telemetry::global_counters_lock();
        let dir = TempDir::new("torn");
        let path = dir.file("schedules.json");
        cache_with_sizes(&[16.0, 32.0])
            .publish_to_file(&path)
            .unwrap();
        let sealed = std::fs::read_to_string(&path).unwrap();

        // A cache loaded before the file was deleted has nothing to add, but
        // the publish recreates the file.
        let loaded = ScheduleCache::new();
        assert_eq!(loaded.load_from_file(&path).unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.publish_to_file(&path).unwrap(), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), sealed);
        // One loaded before the file was torn: the file no longer verifies,
        // so the publish quarantines it and rebuilds it from the cache.
        let loaded = ScheduleCache::new();
        assert_eq!(loaded.load_from_file(&path).unwrap(), 2);
        tear(&path);
        assert_eq!(loaded.publish_to_file(&path).unwrap(), 2);
        assert!(dir.file("schedules.json.corrupt-0").exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), sealed);

        // The next load of a torn file detects the tear, quarantines, and
        // cold-starts.
        tear(&path);
        let cache = ScheduleCache::new();
        assert_eq!(cache.load_from_file(&path).unwrap(), 0);
        assert!(!path.exists());
        assert!(dir.file("schedules.json.corrupt-1").exists());

        // A publish over the quarantined path rebuilds a verifiable file.
        cache_with_sizes(&[64.0]).publish_to_file(&path).unwrap();
        assert!(matches!(
            durable::read_verified(&path).unwrap(),
            VerifiedRead::Clean(_)
        ));
        let rebuilt = ScheduleCache::new();
        assert_eq!(rebuilt.load_from_file(&path).unwrap(), 1);
    }

    #[test]
    fn legacy_unsealed_dumps_stay_loadable() {
        let dir = TempDir::new("legacy");
        let path = dir.file("schedules.json");
        // A file written by `fs::write(path, cache.dump())` before sealing
        // existed has no trailer — it must load, not quarantine.
        let warm = cache_with_sizes(&[16.0]);
        std::fs::write(&path, warm.dump()).unwrap();
        let cache = ScheduleCache::new();
        assert_eq!(cache.load_from_file(&path).unwrap(), 1);
        assert!(path.exists());
        // The cache has nothing to add, but an unsealed file is rewritten
        // sealed.
        assert_eq!(cache.publish_to_file(&path).unwrap(), 1);
        match durable::read_verified(&path).unwrap() {
            VerifiedRead::Clean(body) => assert_eq!(body.trim_end_matches('\n'), warm.dump()),
            other => panic!("the publish should seal the file, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_publishers_lose_no_entries() {
        let dir = TempDir::new("race");
        let path = dir.file("schedules.json");
        let sizes: Vec<f64> = (1..=8).map(|i| i as f64 * 8.0).collect();
        std::thread::scope(|scope| {
            for chunk in sizes.chunks(2) {
                let path = path.clone();
                scope.spawn(move || {
                    cache_with_sizes(chunk).publish_to_file(&path).unwrap();
                });
            }
        });
        let merged = ScheduleCache::new();
        assert_eq!(merged.load_from_file(&path).unwrap(), sizes.len());
    }

    #[test]
    fn stale_locks_are_broken() {
        let _counters = crate::telemetry::global_counters_lock();
        let dir = TempDir::new("stale");
        let path = dir.file("schedules.json");
        let lock = dir.file("schedules.json.lock");
        // Simulate a worker that died holding the lock: an orphaned sentinel
        // backdated beyond the stale horizon.
        std::fs::write(&lock, "dead").unwrap();
        let old = std::time::SystemTime::now() - Duration::from_secs(120);
        let file = std::fs::OpenOptions::new().write(true).open(&lock).unwrap();
        file.set_modified(old).unwrap();
        drop(file);
        let takeovers_before = crate::telemetry::global()
            .counter("cache.lock_takeover")
            .get();
        cache_with_sizes(&[16.0]).publish_to_file(&path).unwrap();
        assert!(!lock.exists());
        // The takeover was counted (observable via the `metrics` request).
        assert_eq!(
            crate::telemetry::global()
                .counter("cache.lock_takeover")
                .get(),
            takeovers_before + 1
        );
    }

    #[test]
    fn fresh_locks_are_not_taken_over() {
        let _counters = crate::telemetry::global_counters_lock();
        let dir = TempDir::new("fresh-lock");
        let path = dir.file("schedules.json");
        cache_with_sizes(&[16.0, 32.0])
            .publish_to_file(&path)
            .unwrap();
        let sealed = std::fs::read(&path).unwrap();
        let loaded = ScheduleCache::new();
        assert_eq!(loaded.load_from_file(&path).unwrap(), 2);
        let lock = dir.file("schedules.json.lock");
        std::fs::write(&lock, "alive").unwrap();
        let takeovers_before = crate::telemetry::global()
            .counter("cache.lock_takeover")
            .get();
        // A young sentinel blocks publishers until the bounded wait expires.
        let held = DumpFileLock::acquire(&dir.file("other.json")).unwrap();
        drop(held);
        assert!(lock.exists());
        assert_eq!(
            crate::telemetry::global()
                .counter("cache.lock_takeover")
                .get(),
            takeovers_before
        );
        // A cache loaded from the file with nothing new publishes without
        // the lock: it returns the entry count at once and the file's bytes
        // stay as they were.
        let started = std::time::Instant::now();
        assert_eq!(loaded.publish_to_file(&path).unwrap(), 2);
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(std::fs::read(&path).unwrap(), sealed);
        assert!(lock.exists());
    }

    #[test]
    fn cache_is_shared_safely_across_threads() {
        let cache = ScheduleCache::new();
        let topo = PresetTopology::FcRingSw3d.build();
        let request = CollectiveRequest::all_reduce_mib(64.0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for kind in SchedulerKind::all() {
                        cache.get_or_schedule(&topo, &request, 8, kind).unwrap();
                    }
                });
            }
        });
        // Every kind is cached exactly once, however the workers raced.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits() + cache.misses(), 12);
        assert!(cache.misses() >= 3);
    }
}
