//! Cross-process campaign sharding: split an expanded campaign matrix into
//! self-contained shards, execute them anywhere, and merge the partial
//! reports back into one bit-identical campaign report.
//!
//! [`crate::api::Runner`] parallelises *within* one process. For
//! production-scale figure sweeps the matrix is larger than one machine: this
//! module partitions an expanded matrix (collective campaigns and stream
//! campaigns alike) into `N` shards so each shard can run in its own process
//! — or on its own host — and the partial results can be reassembled exactly.
//!
//! The moving parts:
//!
//! * [`ShardPlan`] — a deterministic partition of cell indices into shards,
//!   either [`ShardStrategy::RoundRobin`] or
//!   [`ShardStrategy::CostBalanced`] (greedy longest-processing-time over
//!   [`CampaignCell::cost_estimate`]).
//! * [`ShardSpec`] — one shard as a self-contained unit of work: the cells
//!   plus their global matrix indices, JSON round-trippable via
//!   [`crate::api::json`] so a spec file can travel to another process (the
//!   `shard-worker` binary in `crates/bench` executes one).
//! * [`ShardReport`] — the partial result of one shard, including the
//!   shard's schedule-cache hit/miss counters; also JSON round-trippable.
//! * [`merge_reports`] — validates and reassembles partial reports into a
//!   [`MergedReport`] whose [`CampaignReport`] / [`StreamCampaignReport`] is
//!   **bit-identical** to what the unsharded [`Runner::execute`] /
//!   [`Runner::execute_streams`] would have produced on the same matrix.
//!
//! Workers warm-start from a shared schedule-cache file
//! ([`themis_core::ScheduleCache::dump`] / [`themis_core::ScheduleCache::load`],
//! wrapped into a [`SimPlanCache`]): cells repeated across
//! shards or across successive campaigns are scheduled once, and the merged
//! report surfaces the aggregate hit/miss counters.
//!
//! ```
//! use themis::prelude::*;
//! use themis::api::shard::{merge_reports, ShardPlan, ShardSpec, ShardStrategy};
//!
//! # fn main() -> Result<(), ThemisError> {
//! let campaign = Campaign::new()
//!     .topologies([PresetTopology::Sw2d])
//!     .sizes_mib([32.0, 64.0])
//!     .chunk_counts([8]);
//! let specs = campaign.expand()?;
//!
//! // Partition the 6-cell matrix into 2 shards and execute each on its own
//! // (in one process here; each spec round-trips through JSON to any other).
//! let plan = ShardPlan::from_cells(ShardStrategy::CostBalanced, &specs, 2);
//! let shards = ShardSpec::campaign_shards(&specs, &plan)?;
//! let runner = Runner::sequential();
//! let partials = shards
//!     .iter()
//!     .map(|shard| shard.execute(&runner))
//!     .collect::<Result<Vec<_>, _>>()?;
//!
//! // The merged report is bit-identical to the unsharded run.
//! let merged = merge_reports(&partials)?;
//! let direct = campaign.run(&runner)?;
//! assert_eq!(merged.campaign(), Some(&direct));
//! # Ok(())
//! # }
//! ```

use crate::api::json::Json;
use crate::api::platform::Platform;
use crate::api::report::{
    collective_from_label, run_result_from_json, run_result_to_json, scheduler_from_label,
};
use crate::api::report::{CampaignReport, RunResult};
use crate::api::runner::{CampaignCell, RunSpec, Runner};
use crate::api::stream::{
    stream_result_from_json, stream_result_to_json, QueuedCollective, StreamCampaignReport,
    StreamJob, StreamRunResult, StreamSpec,
};
use crate::api::Job;
use crate::error::ThemisError;
use themis_core::SimPlanCache;
use themis_net::{DataSize, DimensionSpec, NetworkTopology, TopologyKind};
use themis_sim::{FaultEvent, FaultKind, FaultPlan, SimOptions};

/// How a [`ShardPlan`] distributes cells over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Cell `i` goes to shard `i % shards`. Simple and load-agnostic.
    RoundRobin,
    /// Greedy longest-processing-time balancing over
    /// [`CampaignCell::cost_estimate`]: cells are assigned, most expensive
    /// first, to the currently least-loaded shard. Better wall-clock balance
    /// when cell costs are skewed (mixed sizes or chunk counts).
    CostBalanced,
}

impl ShardStrategy {
    /// Builds the plan for `cells` under this strategy.
    pub fn plan<C: CampaignCell>(self, cells: &[C], shard_count: usize) -> ShardPlan {
        ShardPlan::from_cells(self, cells, shard_count)
    }
}

/// A deterministic partition of the cell indices `0..cells` of an expanded
/// campaign matrix into shards.
///
/// Shard counts exceeding the cell count simply leave the surplus shards
/// empty; a shard count of zero is treated as one. Within every shard the
/// indices are ascending, and the same inputs always produce the same plan —
/// planning on one host and executing on others is reproducible.
///
/// ```
/// use themis::api::shard::ShardPlan;
///
/// let plan = ShardPlan::round_robin(5, 2);
/// assert_eq!(plan.shard_count(), 2);
/// assert_eq!(plan.shard(0), &[0, 2, 4]);
/// assert_eq!(plan.shard(1), &[1, 3]);
///
/// // Cost balancing puts the two expensive cells on different shards.
/// let plan = ShardPlan::cost_balanced(&[10.0, 1.0, 1.0, 10.0], 2);
/// assert_eq!(plan.shard(0), &[0, 1]);
/// assert_eq!(plan.shard(1), &[2, 3]);
///
/// // More shards than cells: the surplus shards are empty.
/// let plan = ShardPlan::round_robin(2, 4);
/// assert_eq!(plan.cell_count(), 2);
/// assert!(plan.shard(3).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    assignments: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Plans `cells` under `strategy` (cost estimates are taken from
    /// [`CampaignCell::cost_estimate`] when the strategy needs them).
    pub fn from_cells<C: CampaignCell>(
        strategy: ShardStrategy,
        cells: &[C],
        shard_count: usize,
    ) -> Self {
        match strategy {
            ShardStrategy::RoundRobin => ShardPlan::round_robin(cells.len(), shard_count),
            ShardStrategy::CostBalanced => {
                let costs: Vec<f64> = cells.iter().map(CampaignCell::cost_estimate).collect();
                ShardPlan::cost_balanced(&costs, shard_count)
            }
        }
    }

    /// Round-robin plan: cell `i` goes to shard `i % shard_count`.
    pub fn round_robin(cells: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let mut assignments = vec![Vec::new(); shard_count];
        for index in 0..cells {
            assignments[index % shard_count].push(index);
        }
        ShardPlan { assignments }
    }

    /// Cost-balanced plan: greedy longest-processing-time assignment of
    /// `costs` (one entry per cell) onto the least-loaded shard. Ties —
    /// equal costs, equal loads — break towards the lower index, so the plan
    /// is deterministic; non-finite or negative costs count as zero load.
    pub fn cost_balanced(costs: &[f64], shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| {
            costs[b]
                .partial_cmp(&costs[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut loads = vec![0.0f64; shard_count];
        let mut assignments = vec![Vec::new(); shard_count];
        for index in order {
            let target = loads
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| {
                    a.partial_cmp(b)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(i.cmp(j))
                })
                .map(|(i, _)| i)
                .expect("shard_count >= 1");
            let cost = costs[index];
            loads[target] += if cost.is_finite() && cost > 0.0 {
                cost
            } else {
                0.0
            };
            assignments[target].push(index);
        }
        for shard in &mut assignments {
            shard.sort_unstable();
        }
        ShardPlan { assignments }
    }

    /// Number of shards (≥ 1; surplus shards may be empty).
    pub fn shard_count(&self) -> usize {
        self.assignments.len()
    }

    /// Total number of cells across all shards.
    pub fn cell_count(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// The ascending global cell indices of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shard_count()`.
    pub fn shard(&self, shard: usize) -> &[usize] {
        &self.assignments[shard]
    }

    /// Iterates over the shards' index lists.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.assignments.iter().map(Vec::as_slice)
    }
}

/// The cells of one shard, carrying their global matrix indices.
#[derive(Debug, Clone, PartialEq)]
enum ShardCells {
    Campaign(Vec<(usize, RunSpec)>),
    Stream(Vec<(usize, StreamSpec)>),
}

/// One shard of an expanded campaign matrix: a self-contained unit of work.
///
/// A shard knows which slice of the matrix it holds (`shard_index` of
/// `shard_count`, plus each cell's global index), executes through any
/// [`Runner`], and round-trips through JSON so a spec file can be handed to
/// another process (`shard-worker run`). Merging the resulting
/// [`ShardReport`]s with [`merge_reports`] reproduces the unsharded report
/// bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    shard_index: usize,
    shard_count: usize,
    cells: ShardCells,
}

impl ShardSpec {
    /// Splits an expanded collective-campaign matrix into shard specs
    /// following `plan` (one [`ShardSpec`] per plan shard, including empty
    /// ones).
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Campaign`] if the plan's cell count does not
    /// match `specs`.
    pub fn campaign_shards(
        specs: &[RunSpec],
        plan: &ShardPlan,
    ) -> Result<Vec<ShardSpec>, ThemisError> {
        check_plan(plan, specs.len())?;
        Ok(plan
            .iter()
            .enumerate()
            .map(|(shard_index, indices)| ShardSpec {
                shard_index,
                shard_count: plan.shard_count(),
                cells: ShardCells::Campaign(
                    indices.iter().map(|&i| (i, specs[i].clone())).collect(),
                ),
            })
            .collect())
    }

    /// Splits an expanded stream-campaign matrix into shard specs following
    /// `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Campaign`] if the plan's cell count does not
    /// match `specs`.
    pub fn stream_shards(
        specs: &[StreamSpec],
        plan: &ShardPlan,
    ) -> Result<Vec<ShardSpec>, ThemisError> {
        check_plan(plan, specs.len())?;
        Ok(plan
            .iter()
            .enumerate()
            .map(|(shard_index, indices)| ShardSpec {
                shard_index,
                shard_count: plan.shard_count(),
                cells: ShardCells::Stream(indices.iter().map(|&i| (i, specs[i].clone())).collect()),
            })
            .collect())
    }

    /// This shard's position within the plan.
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// Total number of shards in the plan this spec came from.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of cells in this shard.
    pub fn len(&self) -> usize {
        match &self.cells {
            ShardCells::Campaign(cells) => cells.len(),
            ShardCells::Stream(cells) => cells.len(),
        }
    }

    /// `true` if the shard holds no cells (plans with more shards than cells
    /// produce empty shards).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if this shard holds stream-campaign cells.
    pub fn is_stream(&self) -> bool {
        matches!(self.cells, ShardCells::Stream(_))
    }

    /// The global matrix indices of this shard's cells, ascending.
    pub fn global_indices(&self) -> Vec<usize> {
        match &self.cells {
            ShardCells::Campaign(cells) => cells.iter().map(|(i, _)| *i).collect(),
            ShardCells::Stream(cells) => cells.iter().map(|(i, _)| *i).collect(),
        }
    }

    /// Executes the shard with a private precompiled plan cache.
    ///
    /// # Errors
    ///
    /// Returns the first scheduling/simulation error in cell order.
    pub fn execute(&self, runner: &Runner) -> Result<ShardReport, ThemisError> {
        self.execute_with_cache(runner, &SimPlanCache::new())
    }

    /// Executes the shard through a caller-provided [`SimPlanCache`] — wrap a
    /// [`themis_core::ScheduleCache`] loaded from a dumped cache file
    /// ([`SimPlanCache::with_schedules`]) to warm-start, dump
    /// `plan.schedules()` afterwards to publish this shard's schedules. The
    /// report's [`CacheStats`] count only this execution's schedule lookups
    /// (not earlier users of the same plan).
    ///
    /// Cells are dispatched by reference: executing a shard repeatedly (e.g.
    /// in a benchmark loop) does not re-clone its platforms and jobs per run.
    ///
    /// # Errors
    ///
    /// Returns the first scheduling/simulation error in cell order.
    pub fn execute_with_cache(
        &self,
        runner: &Runner,
        plan: &SimPlanCache,
    ) -> Result<ShardReport, ThemisError> {
        let cache = plan.schedules();
        let before = cache.stats();
        let results = match &self.cells {
            ShardCells::Campaign(cells) => {
                let specs: Vec<&RunSpec> = cells.iter().map(|(_, spec)| spec).collect();
                let results = runner.execute_with_cache(&specs, plan)?;
                ShardResults::Campaign(cells.iter().map(|(i, _)| *i).zip(results).collect())
            }
            ShardCells::Stream(cells) => {
                let specs: Vec<&StreamSpec> = cells.iter().map(|(_, spec)| spec).collect();
                let results = runner.execute_with_cache(&specs, plan)?;
                ShardResults::Stream(cells.iter().map(|(i, _)| *i).zip(results).collect())
            }
        };
        Ok(ShardReport {
            shard_index: self.shard_index,
            shard_count: self.shard_count,
            cache: cache.stats().delta(&before),
            results,
        })
    }

    /// Like [`ShardSpec::execute_with_cache`], but executing the cells one at
    /// a time and calling `observe(done, total)` after each — the hook
    /// `shard-worker run` uses to emit heartbeat/progress lines the
    /// orchestrator ([`crate::api::orchestrator`]) watches. `observe` is also
    /// called once with `(0, total)` before the first cell, so a worker
    /// proves liveness even while its first cell simulates.
    ///
    /// Returning `false` from `observe` aborts the shard with
    /// [`ThemisError::Serve`] — the deterministic failure path behind the
    /// worker's `--fail-after` test hook.
    ///
    /// Cells share `plan` exactly as the batch path does, so the report is
    /// bit-identical to [`ShardSpec::execute_with_cache`].
    ///
    /// # Errors
    ///
    /// Returns the first scheduling/simulation error in cell order, or
    /// [`ThemisError::Serve`] when `observe` aborts.
    pub fn execute_with_cache_observed(
        &self,
        runner: &Runner,
        plan: &SimPlanCache,
        mut observe: impl FnMut(usize, usize) -> bool,
    ) -> Result<ShardReport, ThemisError> {
        let total = self.len();
        let mut check = |done: usize| {
            if observe(done, total) {
                Ok(())
            } else {
                Err(ThemisError::Serve {
                    reason: format!(
                        "shard {} aborted by its observer after {done} of {total} cells",
                        self.shard_index
                    ),
                })
            }
        };
        check(0)?;
        let cache = plan.schedules();
        let before = cache.stats();
        let results = match &self.cells {
            ShardCells::Campaign(cells) => {
                let mut results = Vec::with_capacity(cells.len());
                for (done, (index, spec)) in cells.iter().enumerate() {
                    let mut cell = runner.execute_with_cache(std::slice::from_ref(spec), plan)?;
                    results.push((*index, cell.remove(0)));
                    check(done + 1)?;
                }
                ShardResults::Campaign(results)
            }
            ShardCells::Stream(cells) => {
                let mut results = Vec::with_capacity(cells.len());
                for (done, (index, spec)) in cells.iter().enumerate() {
                    let mut cell = runner.execute_with_cache(std::slice::from_ref(spec), plan)?;
                    results.push((*index, cell.remove(0)));
                    check(done + 1)?;
                }
                ShardResults::Stream(results)
            }
        };
        Ok(ShardReport {
            shard_index: self.shard_index,
            shard_count: self.shard_count,
            cache: cache.stats().delta(&before),
            results,
        })
    }

    /// Serializes the shard spec to compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The spec as a [`Json`] value.
    pub(crate) fn to_json_value(&self) -> Json {
        let (cells_kind, entries) = match &self.cells {
            ShardCells::Campaign(cells) => (
                "campaign",
                cells
                    .iter()
                    .map(|(index, spec)| {
                        Json::obj([
                            ("index", Json::Num(*index as f64)),
                            ("platform", platform_to_json(&spec.platform)),
                            ("job", job_to_json(&spec.job)),
                        ])
                    })
                    .collect(),
            ),
            ShardCells::Stream(cells) => (
                "stream",
                cells
                    .iter()
                    .map(|(index, spec)| {
                        Json::obj([
                            ("index", Json::Num(*index as f64)),
                            ("platform", platform_to_json(&spec.platform)),
                            ("stream", stream_job_to_json(&spec.job)),
                        ])
                    })
                    .collect(),
            ),
        };
        Json::obj([
            ("version", Json::Num(1.0)),
            ("kind", Json::Str("shard-spec".to_string())),
            ("cells", Json::Str(cells_kind.to_string())),
            ("shard_index", Json::Num(self.shard_index as f64)),
            ("shard_count", Json::Num(self.shard_count as f64)),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// Deserializes a spec previously produced by [`ShardSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Json`] on malformed text or an unknown layout,
    /// and [`ThemisError::Net`] if a serialized platform fails validation.
    pub fn from_json(text: &str) -> Result<Self, ThemisError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Deserializes a spec from an already-parsed [`Json`] value.
    pub(crate) fn from_json_value(value: &Json) -> Result<Self, ThemisError> {
        let version = value.field("version")?.as_usize()?;
        let kind = value.field("kind")?.as_str()?;
        if version != 1 || kind != "shard-spec" {
            return Err(ThemisError::Json {
                reason: format!("unsupported shard spec `{kind}` v{version}"),
            });
        }
        let entries = value.field("entries")?.as_arr()?;
        let cells = match value.field("cells")?.as_str()? {
            "campaign" => ShardCells::Campaign(
                entries
                    .iter()
                    .map(|entry| {
                        Ok((
                            entry.field("index")?.as_usize()?,
                            RunSpec::new(
                                platform_from_json(entry.field("platform")?)?,
                                job_from_json(entry.field("job")?)?,
                            ),
                        ))
                    })
                    .collect::<Result<_, ThemisError>>()?,
            ),
            "stream" => ShardCells::Stream(
                entries
                    .iter()
                    .map(|entry| {
                        Ok((
                            entry.field("index")?.as_usize()?,
                            StreamSpec::new(
                                platform_from_json(entry.field("platform")?)?,
                                stream_job_from_json(entry.field("stream")?)?,
                            ),
                        ))
                    })
                    .collect::<Result<_, ThemisError>>()?,
            ),
            other => {
                return Err(ThemisError::Json {
                    reason: format!("unknown shard cell kind `{other}`"),
                })
            }
        };
        Ok(ShardSpec {
            shard_index: value.field("shard_index")?.as_usize()?,
            shard_count: value.field("shard_count")?.as_usize()?,
            cells,
        })
    }
}

fn check_plan(plan: &ShardPlan, cells: usize) -> Result<(), ThemisError> {
    if plan.cell_count() != cells {
        return Err(ThemisError::Campaign {
            reason: format!(
                "shard plan covers {} cells but the matrix has {cells}",
                plan.cell_count()
            ),
        });
    }
    Ok(())
}

/// The unified cache hit/miss view — re-exported from
/// [`themis_core::telemetry`], where every memo layer reports through the
/// same type. In a [`ShardReport`] it carries one shard execution's
/// schedule-cache counters (or their sum in a merged report).
pub use themis_core::telemetry::CacheStats;

/// Per-cell results of one shard, keyed by global matrix index.
#[derive(Debug, Clone, PartialEq)]
enum ShardResults {
    Campaign(Vec<(usize, RunResult)>),
    Stream(Vec<(usize, StreamRunResult)>),
}

/// The partial report of one executed shard: the shard's results keyed by
/// their global matrix indices, plus the shard's schedule-cache counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    shard_index: usize,
    shard_count: usize,
    cache: CacheStats,
    results: ShardResults,
}

impl ShardReport {
    /// This shard's position within the plan.
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// Total number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Number of cells this shard executed.
    pub fn len(&self) -> usize {
        match &self.results {
            ShardResults::Campaign(results) => results.len(),
            ShardResults::Stream(results) => results.len(),
        }
    }

    /// `true` if the shard executed no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if this report holds stream-campaign results.
    pub fn is_stream(&self) -> bool {
        matches!(self.results, ShardResults::Stream(_))
    }

    /// The global matrix indices of this report's cells, in result order.
    /// The orchestrator compares these against a [`ShardSpec`] to decide
    /// whether an on-disk partial report can be resumed.
    pub fn global_indices(&self) -> Vec<usize> {
        match &self.results {
            ShardResults::Campaign(results) => results.iter().map(|(i, _)| *i).collect(),
            ShardResults::Stream(results) => results.iter().map(|(i, _)| *i).collect(),
        }
    }

    /// The shard's schedule-cache counters.
    pub fn cache(&self) -> CacheStats {
        self.cache
    }

    /// Serializes the partial report to compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The partial report as a [`Json`] value.
    pub(crate) fn to_json_value(&self) -> Json {
        let (cells_kind, entries) = match &self.results {
            ShardResults::Campaign(results) => (
                "campaign",
                results
                    .iter()
                    .map(|(index, result)| {
                        Json::obj([
                            ("index", Json::Num(*index as f64)),
                            ("result", run_result_to_json(result)),
                        ])
                    })
                    .collect(),
            ),
            ShardResults::Stream(results) => (
                "stream",
                results
                    .iter()
                    .map(|(index, result)| {
                        Json::obj([
                            ("index", Json::Num(*index as f64)),
                            ("result", stream_result_to_json(result)),
                        ])
                    })
                    .collect(),
            ),
        };
        Json::obj([
            ("version", Json::Num(1.0)),
            ("kind", Json::Str("shard-report".to_string())),
            ("cells", Json::Str(cells_kind.to_string())),
            ("shard_index", Json::Num(self.shard_index as f64)),
            ("shard_count", Json::Num(self.shard_count as f64)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(self.cache.hits as f64)),
                    ("misses", Json::Num(self.cache.misses as f64)),
                ]),
            ),
            ("results", Json::Arr(entries)),
        ])
    }

    /// Deserializes a report previously produced by [`ShardReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Json`] on malformed text or an unknown layout.
    pub fn from_json(text: &str) -> Result<Self, ThemisError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Deserializes a partial report from an already-parsed [`Json`] value.
    pub(crate) fn from_json_value(value: &Json) -> Result<Self, ThemisError> {
        let version = value.field("version")?.as_usize()?;
        let kind = value.field("kind")?.as_str()?;
        if version != 1 || kind != "shard-report" {
            return Err(ThemisError::Json {
                reason: format!("unsupported shard report `{kind}` v{version}"),
            });
        }
        let entries = value.field("results")?.as_arr()?;
        let results = match value.field("cells")?.as_str()? {
            "campaign" => ShardResults::Campaign(
                entries
                    .iter()
                    .map(|entry| {
                        Ok((
                            entry.field("index")?.as_usize()?,
                            run_result_from_json(entry.field("result")?)?,
                        ))
                    })
                    .collect::<Result<_, ThemisError>>()?,
            ),
            "stream" => ShardResults::Stream(
                entries
                    .iter()
                    .map(|entry| {
                        Ok((
                            entry.field("index")?.as_usize()?,
                            stream_result_from_json(entry.field("result")?)?,
                        ))
                    })
                    .collect::<Result<_, ThemisError>>()?,
            ),
            other => {
                return Err(ThemisError::Json {
                    reason: format!("unknown shard cell kind `{other}`"),
                })
            }
        };
        let cache = value.field("cache")?;
        Ok(ShardReport {
            shard_index: value.field("shard_index")?.as_usize()?,
            shard_count: value.field("shard_count")?.as_usize()?,
            cache: CacheStats {
                hits: cache.field("hits")?.as_usize()? as u64,
                misses: cache.field("misses")?.as_usize()? as u64,
            },
            results,
        })
    }
}

/// The reassembled results of a merged sharded campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum MergedResults {
    /// A collective-campaign matrix.
    Campaign(CampaignReport),
    /// A stream-campaign matrix.
    Stream(StreamCampaignReport),
}

/// The outcome of [`merge_reports`]: the reassembled campaign report —
/// bit-identical to the unsharded run — plus the summed schedule-cache
/// counters of every shard.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedReport {
    cache: CacheStats,
    results: MergedResults,
}

impl MergedReport {
    /// Aggregate schedule-cache counters across all merged shards.
    pub fn cache(&self) -> CacheStats {
        self.cache
    }

    /// The merged results.
    pub fn results(&self) -> &MergedResults {
        &self.results
    }

    /// The merged collective-campaign report, if this was a campaign matrix.
    pub fn campaign(&self) -> Option<&CampaignReport> {
        match &self.results {
            MergedResults::Campaign(report) => Some(report),
            MergedResults::Stream(_) => None,
        }
    }

    /// The merged stream-campaign report, if this was a stream matrix.
    pub fn stream(&self) -> Option<&StreamCampaignReport> {
        match &self.results {
            MergedResults::Campaign(_) => None,
            MergedResults::Stream(report) => Some(report),
        }
    }

    /// Number of merged cells.
    pub fn len(&self) -> usize {
        match &self.results {
            MergedResults::Campaign(report) => report.len(),
            MergedResults::Stream(report) => report.len(),
        }
    }

    /// `true` if the merged matrix had no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the merged report (campaign report + cache counters) to
    /// compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The merged report as a [`Json`] value.
    pub(crate) fn to_json_value(&self) -> Json {
        let (kind, report) = match &self.results {
            MergedResults::Campaign(report) => ("merged-campaign", report.to_json_value()),
            MergedResults::Stream(report) => ("merged-stream", report.to_json_value()),
        };
        Json::obj([
            ("version", Json::Num(1.0)),
            ("kind", Json::Str(kind.to_string())),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(self.cache.hits as f64)),
                    ("misses", Json::Num(self.cache.misses as f64)),
                ]),
            ),
            ("report", report),
        ])
    }

    /// Deserializes a report previously produced by [`MergedReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Json`] on malformed text or an unknown layout.
    pub fn from_json(text: &str) -> Result<Self, ThemisError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Deserializes a merged report from an already-parsed [`Json`] value.
    pub(crate) fn from_json_value(value: &Json) -> Result<Self, ThemisError> {
        let version = value.field("version")?.as_usize()?;
        let kind = value.field("kind")?.as_str()?;
        if version != 1 {
            return Err(ThemisError::Json {
                reason: format!("unsupported merged report version {version}"),
            });
        }
        let report = value.field("report")?;
        let results = match kind {
            "merged-campaign" => MergedResults::Campaign(CampaignReport::from_json_value(report)?),
            "merged-stream" => {
                MergedResults::Stream(StreamCampaignReport::from_json_value(report)?)
            }
            other => {
                return Err(ThemisError::Json {
                    reason: format!("unsupported merged report `{other}`"),
                })
            }
        };
        let cache = value.field("cache")?;
        Ok(MergedReport {
            cache: CacheStats {
                hits: cache.field("hits")?.as_usize()? as u64,
                misses: cache.field("misses")?.as_usize()? as u64,
            },
            results,
        })
    }
}

/// Reassembles the partial reports of every shard of one plan into the
/// report the unsharded [`Runner::execute`] / [`Runner::execute_streams`]
/// would have produced — bit-identical, in matrix order — and sums the
/// shards' schedule-cache counters.
///
/// # Errors
///
/// Returns [`ThemisError::Campaign`] if the reports disagree on the shard
/// count or cell kind, a shard is missing/duplicated, or the global indices
/// do not form a complete `0..n` matrix.
pub fn merge_reports(reports: &[ShardReport]) -> Result<MergedReport, ThemisError> {
    let first = reports.first().ok_or_else(|| ThemisError::Campaign {
        reason: "cannot merge zero shard reports".to_string(),
    })?;
    if reports.len() != first.shard_count {
        return Err(ThemisError::Campaign {
            reason: format!(
                "plan has {} shards but {} reports were provided",
                first.shard_count,
                reports.len()
            ),
        });
    }
    let mut seen_shards = vec![false; first.shard_count];
    for report in reports {
        if report.shard_count != first.shard_count {
            return Err(ThemisError::Campaign {
                reason: format!(
                    "shard {} reports {} total shards, expected {}",
                    report.shard_index, report.shard_count, first.shard_count
                ),
            });
        }
        if report.is_stream() != first.is_stream() {
            return Err(ThemisError::Campaign {
                reason: "cannot merge campaign and stream shard reports".to_string(),
            });
        }
        let slot =
            seen_shards
                .get_mut(report.shard_index)
                .ok_or_else(|| ThemisError::Campaign {
                    reason: format!(
                        "shard index {} is out of range for {} shards",
                        report.shard_index, first.shard_count
                    ),
                })?;
        if std::mem::replace(slot, true) {
            return Err(ThemisError::Campaign {
                reason: format!("duplicate report for shard {}", report.shard_index),
            });
        }
    }
    let cache = CacheStats {
        hits: reports.iter().map(|r| r.cache.hits).sum(),
        misses: reports.iter().map(|r| r.cache.misses).sum(),
    };
    let results = if first.is_stream() {
        MergedResults::Stream(StreamCampaignReport::new(collect_ordered(
            reports.iter().flat_map(|r| match &r.results {
                ShardResults::Stream(results) => results.iter().cloned(),
                ShardResults::Campaign(_) => unreachable!("kinds verified above"),
            }),
        )?))
    } else {
        MergedResults::Campaign(CampaignReport::new(collect_ordered(
            reports.iter().flat_map(|r| match &r.results {
                ShardResults::Campaign(results) => results.iter().cloned(),
                ShardResults::Stream(_) => unreachable!("kinds verified above"),
            }),
        )?))
    };
    Ok(MergedReport { cache, results })
}

/// Orders `(global index, result)` pairs by index and verifies they form a
/// complete, duplicate-free `0..n` matrix.
fn collect_ordered<R>(pairs: impl Iterator<Item = (usize, R)>) -> Result<Vec<R>, ThemisError> {
    let mut indexed: Vec<(usize, R)> = pairs.collect();
    indexed.sort_by_key(|(index, _)| *index);
    for (position, (index, _)) in indexed.iter().enumerate() {
        if *index != position {
            return Err(ThemisError::Campaign {
                reason: format!(
                    "shard reports do not cover the full matrix: expected cell {position}, \
                     found {index}"
                ),
            });
        }
    }
    Ok(indexed.into_iter().map(|(_, result)| result).collect())
}

// ---------------------------------------------------------------------------
// JSON forms of the spec halves (platform, job, stream job). These live here
// rather than on the types themselves because sharding and the service layer
// ([`crate::api::serve`]) are the only consumers of *spec* (as opposed to
// report) serialization.
// ---------------------------------------------------------------------------

pub(crate) fn platform_to_json(platform: &Platform) -> Json {
    let options = platform.options();
    Json::obj([
        ("name", Json::Str(platform.name().to_string())),
        (
            "dims",
            Json::Arr(
                platform
                    .topology()
                    .dims()
                    .iter()
                    .map(|dim| {
                        Json::obj([
                            ("kind", Json::Str(dim.kind().label().to_string())),
                            ("size", Json::Num(dim.size() as f64)),
                            (
                                "link_bandwidth_gbps",
                                Json::Num(dim.link_bandwidth().as_gbps()),
                            ),
                            ("links_per_npu", Json::Num(dim.links_per_npu() as f64)),
                            ("step_latency_ns", Json::Num(dim.step_latency_ns())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "options",
            Json::obj([
                (
                    "max_concurrent_ops_per_dim",
                    Json::Num(options.max_concurrent_ops_per_dim as f64),
                ),
                (
                    "enforce_intra_dim_order",
                    Json::Bool(options.enforce_intra_dim_order),
                ),
                ("activity_window_ns", Json::Num(options.activity_window_ns)),
                (
                    "cross_collective_overlap",
                    Json::Bool(options.cross_collective_overlap),
                ),
                ("record_op_log", Json::Bool(options.record_op_log)),
                ("reference_engine", Json::Bool(options.reference_engine)),
                (
                    "faults",
                    Json::Arr(
                        options
                            .faults
                            .events()
                            .iter()
                            .map(fault_event_to_json)
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

fn fault_event_to_json(event: &FaultEvent) -> Json {
    let mut pairs = vec![
        ("at_ns", Json::Num(event.at_ns)),
        ("dim", Json::Num(event.dim as f64)),
    ];
    match event.kind {
        FaultKind::Degrade { factor } => {
            pairs.push(("kind", Json::Str("degrade".to_string())));
            pairs.push(("factor", Json::Num(factor)));
        }
        FaultKind::Fail => pairs.push(("kind", Json::Str("fail".to_string()))),
        FaultKind::Recover => pairs.push(("kind", Json::Str("recover".to_string()))),
    }
    Json::obj(pairs)
}

fn fault_event_from_json(value: &Json) -> Result<FaultEvent, ThemisError> {
    let kind = match value.field("kind")?.as_str()? {
        "degrade" => FaultKind::Degrade {
            factor: value.field("factor")?.as_f64()?,
        },
        "fail" => FaultKind::Fail,
        "recover" => FaultKind::Recover,
        other => {
            return Err(ThemisError::Campaign {
                reason: format!("unknown fault kind `{other}`"),
            })
        }
    };
    Ok(FaultEvent {
        at_ns: value.field("at_ns")?.as_f64()?,
        dim: value.field("dim")?.as_usize()?,
        kind,
    })
}

pub(crate) fn platform_from_json(value: &Json) -> Result<Platform, ThemisError> {
    let mut dims = Vec::new();
    for dim in value.field("dims")?.as_arr()? {
        let label = dim.field("kind")?.as_str()?;
        let kind = TopologyKind::all()
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| ThemisError::Json {
                reason: format!("unknown dimension topology `{label}`"),
            })?;
        dims.push(DimensionSpec::new(
            kind,
            dim.field("size")?.as_usize()?,
            dim.field("link_bandwidth_gbps")?.as_f64()?,
            dim.field("links_per_npu")?.as_usize()?,
            dim.field("step_latency_ns")?.as_f64()?,
        )?);
    }
    let topology = NetworkTopology::new(value.field("name")?.as_str()?, dims)?;
    let options = value.field("options")?;
    // `faults` is optional for backward compatibility: specs serialized
    // before fault support parse as fault-free.
    let faults = match options.get("faults") {
        Some(list) => FaultPlan::from_events(
            list.as_arr()?
                .iter()
                .map(fault_event_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        None => FaultPlan::new(),
    };
    Ok(Platform::custom(topology).with_options(SimOptions {
        max_concurrent_ops_per_dim: options.field("max_concurrent_ops_per_dim")?.as_usize()?,
        enforce_intra_dim_order: options.field("enforce_intra_dim_order")?.as_bool()?,
        activity_window_ns: options.field("activity_window_ns")?.as_f64()?,
        cross_collective_overlap: options.field("cross_collective_overlap")?.as_bool()?,
        record_op_log: options.field("record_op_log")?.as_bool()?,
        faults,
        // Optional for backward compatibility, like `faults`: specs
        // serialized before the engine rewrite parse as fast-engine runs
        // (bit-identical either way).
        reference_engine: match options.get("reference_engine") {
            Some(flag) => flag.as_bool()?,
            None => false,
        },
    }))
}

pub(crate) fn job_to_json(job: &Job) -> Json {
    Json::obj([
        ("collective", Json::Str(job.kind().to_string())),
        ("size_bytes", Json::Num(job.size().as_bytes_f64())),
        ("chunks", Json::Num(job.chunk_count() as f64)),
        (
            "scheduler",
            Json::Str(job.scheduler_kind().label().to_string()),
        ),
    ])
}

pub(crate) fn job_from_json(value: &Json) -> Result<Job, ThemisError> {
    Ok(Job::new(
        collective_from_label(value.field("collective")?.as_str()?)?,
        DataSize::from_bytes(value.field("size_bytes")?.as_f64()? as u64),
    )
    .chunks(value.field("chunks")?.as_usize()?)
    .scheduler(scheduler_from_label(value.field("scheduler")?.as_str()?)?))
}

pub(crate) fn stream_job_to_json(job: &StreamJob) -> Json {
    Json::obj([
        ("name", Json::Str(job.name().to_string())),
        (
            "scheduler",
            Json::Str(job.scheduler_kind().label().to_string()),
        ),
        ("chunks", Json::Num(job.chunk_count() as f64)),
        (
            "collectives",
            Json::Arr(
                job.entries()
                    .iter()
                    .map(|entry| {
                        Json::obj([
                            ("label", Json::Str(entry.label().to_string())),
                            ("issue_ns", Json::Num(entry.issue_ns())),
                            ("collective", Json::Str(entry.kind().to_string())),
                            ("size_bytes", Json::Num(entry.size().as_bytes_f64())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn stream_job_from_json(value: &Json) -> Result<StreamJob, ThemisError> {
    let mut entries = Vec::new();
    for entry in value.field("collectives")?.as_arr()? {
        entries.push(
            QueuedCollective::new(
                entry.field("label")?.as_str()?,
                collective_from_label(entry.field("collective")?.as_str()?)?,
                DataSize::from_bytes(entry.field("size_bytes")?.as_f64()? as u64),
            )
            .issued_at(entry.field("issue_ns")?.as_f64()?),
        );
    }
    Ok(StreamJob::named(value.field("name")?.as_str()?)
        .scheduler(scheduler_from_label(value.field("scheduler")?.as_str()?)?)
        .chunks(value.field("chunks")?.as_usize()?)
        .collectives(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::SchedulerKind;
    use themis_net::presets::PresetTopology;

    fn matrix() -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for preset in [PresetTopology::Sw2d, PresetTopology::SwSwSw3dHomo] {
            let platform = Platform::preset(preset);
            for mib in [16.0, 64.0] {
                for kind in SchedulerKind::all() {
                    specs.push(RunSpec::new(
                        platform.clone(),
                        Job::all_reduce_mib(mib).chunks(4).scheduler(kind),
                    ));
                }
            }
        }
        specs
    }

    #[test]
    fn round_robin_plans_deterministically() {
        let plan = ShardPlan::round_robin(7, 3);
        assert_eq!(plan.shard_count(), 3);
        assert_eq!(plan.cell_count(), 7);
        assert_eq!(plan.shard(0), &[0, 3, 6]);
        assert_eq!(plan.shard(1), &[1, 4]);
        assert_eq!(plan.shard(2), &[2, 5]);
        // Zero shards are clamped to one.
        assert_eq!(ShardPlan::round_robin(3, 0).shard_count(), 1);
        // The iterator walks the shards in order.
        assert_eq!(plan.iter().count(), 3);
    }

    #[test]
    fn cost_balancing_spreads_expensive_cells() {
        let plan = ShardPlan::cost_balanced(&[8.0, 8.0, 1.0, 1.0, 1.0, 1.0], 2);
        // The two expensive cells land on different shards.
        let shard_of = |cell: usize| (0..2).find(|&s| plan.shard(s).contains(&cell)).unwrap();
        assert_ne!(shard_of(0), shard_of(1));
        assert_eq!(plan.cell_count(), 6);
        // Every index appears exactly once across all shards.
        let mut all: Vec<usize> = plan.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        // Degenerate costs stay deterministic and covered.
        let odd = ShardPlan::cost_balanced(&[f64::NAN, -3.0, 0.0], 2);
        assert_eq!(odd.cell_count(), 3);
    }

    #[test]
    fn strategies_cover_every_cell_even_with_surplus_shards() {
        let specs = matrix();
        for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostBalanced] {
            for shard_count in [1, 2, 5, specs.len() + 3] {
                let plan = strategy.plan(&specs, shard_count);
                assert_eq!(plan.shard_count(), shard_count);
                assert_eq!(plan.cell_count(), specs.len());
                let mut all: Vec<usize> = plan.iter().flatten().copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..specs.len()).collect::<Vec<_>>());
                // Same inputs, same plan.
                assert_eq!(plan, strategy.plan(&specs, shard_count));
            }
        }
    }

    #[test]
    fn shard_specs_carry_their_slice_of_the_matrix() {
        let specs = matrix();
        let plan = ShardPlan::round_robin(specs.len(), 5);
        let shards = ShardSpec::campaign_shards(&specs, &plan).unwrap();
        assert_eq!(shards.len(), 5);
        for (index, shard) in shards.iter().enumerate() {
            assert_eq!(shard.shard_index(), index);
            assert_eq!(shard.shard_count(), 5);
            assert_eq!(shard.global_indices(), plan.shard(index));
            assert!(!shard.is_stream());
            assert!(!shard.is_empty());
        }
        let short_plan = ShardPlan::round_robin(3, 2);
        assert!(matches!(
            ShardSpec::campaign_shards(&specs, &short_plan),
            Err(ThemisError::Campaign { .. })
        ));
    }

    #[test]
    fn merge_rejects_inconsistent_partials() {
        let specs = matrix();
        let runner = Runner::sequential();
        let plan = ShardPlan::round_robin(specs.len(), 2);
        let shards = ShardSpec::campaign_shards(&specs, &plan).unwrap();
        let partials: Vec<ShardReport> =
            shards.iter().map(|s| s.execute(&runner).unwrap()).collect();

        assert!(matches!(
            merge_reports(&[]),
            Err(ThemisError::Campaign { .. })
        ));
        // Missing a shard.
        assert!(matches!(
            merge_reports(&partials[..1]),
            Err(ThemisError::Campaign { .. })
        ));
        // Duplicated shard.
        assert!(matches!(
            merge_reports(&[partials[0].clone(), partials[0].clone()]),
            Err(ThemisError::Campaign { .. })
        ));
        // Mixing plans of different shard counts.
        let other_plan = ShardPlan::round_robin(specs.len(), 3);
        let other = ShardSpec::campaign_shards(&specs, &other_plan).unwrap()[0]
            .execute(&runner)
            .unwrap();
        assert!(matches!(
            merge_reports(&[partials[0].clone(), other]),
            Err(ThemisError::Campaign { .. })
        ));
        // The happy path still merges.
        assert!(merge_reports(&partials).is_ok());
    }

    #[test]
    fn cache_stats_helpers() {
        let stats = CacheStats { hits: 3, misses: 1 };
        assert_eq!(stats.lookups(), 4);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
