//! Campaign execution backends: a sequential runner and a dependency-free
//! multi-threaded runner built on `std::thread::scope`.
//!
//! Both backends produce *identical* output for the same spec list: results
//! are returned in spec order and every simulation is deterministic, so the
//! parallel backend is a pure wall-clock optimisation.

use crate::api::job::Job;
use crate::api::platform::Platform;
use crate::api::report::RunResult;
use crate::api::stream::{StreamRunResult, StreamSpec};
use crate::error::ThemisError;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use themis_core::SimPlanCache;
use themis_sim::SimWorkspace;

/// One cell of an expanded campaign matrix: a [`Job`] bound to a [`Platform`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The platform the job runs on.
    pub platform: Platform,
    /// The job to run.
    pub job: Job,
}

impl RunSpec {
    /// Creates a run spec.
    pub fn new(platform: Platform, job: Job) -> Self {
        RunSpec { platform, job }
    }
}

/// A self-contained campaign cell a [`Runner`] can dispatch: it executes on
/// its own (optionally through a shared [`SimPlanCache`]) and produces one
/// result. Implemented by [`RunSpec`] (single collectives) and
/// [`StreamSpec`] (collective streams), so the worker-pool scaffolding and
/// the sharding layer ([`crate::api::shard`]) are written once for both.
pub trait CampaignCell: Sync {
    /// The per-cell result type.
    type Output: Send;

    /// Executes the cell on the plain path: scheduled and priced afresh,
    /// through no cache — the reference the planned path is compared
    /// against.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors as [`ThemisError`].
    fn execute(&self) -> Result<Self::Output, ThemisError>;

    /// Executes the cell through a shared precompiled [`SimPlanCache`]
    /// (schedules *and* per-op cost tables memoised) on the worker's reusable
    /// [`SimWorkspace`]. Bit-identical to [`CampaignCell::execute`].
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors as [`ThemisError`].
    fn execute_planned(
        &self,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<Self::Output, ThemisError>;

    /// A deterministic estimate of the cell's relative simulation cost, used
    /// by [`crate::api::shard::ShardStrategy::CostBalanced`] to balance
    /// shards. The absolute scale is meaningless; only ratios between cells
    /// of one matrix matter. The default counts simulated chunk operations
    /// (the dominant per-cell cost) plus a small size term.
    fn cost_estimate(&self) -> f64;
}

impl CampaignCell for RunSpec {
    type Output = RunResult;

    fn execute(&self) -> Result<RunResult, ThemisError> {
        self.job.run_on(&self.platform)
    }

    fn execute_planned(
        &self,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<RunResult, ThemisError> {
        self.job.run_planned(&self.platform, plan, workspace)
    }

    fn cost_estimate(&self) -> f64 {
        let stages = self
            .job
            .kind()
            .num_stages(self.platform.topology().num_dims());
        (self.job.chunk_count() * stages) as f64 + self.job.size().as_bytes_f64() * 1e-6
    }
}

impl CampaignCell for StreamSpec {
    type Output = StreamRunResult;

    fn execute(&self) -> Result<StreamRunResult, ThemisError> {
        self.job.run_on(&self.platform)
    }

    fn execute_planned(
        &self,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<StreamRunResult, ThemisError> {
        self.job.run_planned(&self.platform, plan, workspace)
    }

    fn cost_estimate(&self) -> f64 {
        let dims = self.platform.topology().num_dims();
        let chunks = self.job.chunk_count() as f64;
        self.job
            .entries()
            .iter()
            .map(|entry| {
                chunks * entry.kind().num_stages(dims) as f64 + entry.size().as_bytes_f64() * 1e-6
            })
            .sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sequential,
    Parallel { threads: Option<NonZeroUsize> },
}

/// Upper bound on idle pooled workspaces; returns beyond the cap are dropped
/// so a one-off wide parallel run does not pin its peak working set forever.
const WORKSPACE_POOL_CAP: usize = 32;

/// Process-wide pool of reusable [`SimWorkspace`]s, shared by runner
/// workers and shard executions ([`crate::api::shard::ShardSpec`]).
///
/// `Runner` is a `Copy` configuration value that callers freely re-create per
/// campaign, so the pool — not the runner — is what carries event-loop
/// buffers and the op-matrix memo across executions. Checkout order is
/// arbitrary; workspaces are pure caches, so which one a worker gets never
/// affects results.
static WORKSPACE_POOL: Mutex<Vec<SimWorkspace>> = Mutex::new(Vec::new());

pub(crate) fn checkout_workspace() -> SimWorkspace {
    WORKSPACE_POOL
        .lock()
        .ok()
        .and_then(|mut pool| pool.pop())
        .unwrap_or_default()
}

pub(crate) fn checkin_workspace(workspace: SimWorkspace) {
    if let Ok(mut pool) = WORKSPACE_POOL.lock() {
        if pool.len() < WORKSPACE_POOL_CAP {
            pool.push(workspace);
        }
    }
}

/// Executes a list of [`RunSpec`]s and collects their [`RunResult`]s in spec
/// order.
///
/// The parallel backend distributes specs over a pool of worker threads with
/// an atomic work index (the heavy simulations dominate, so dynamic
/// distribution beats static chunking when cell costs are skewed). Reports
/// are bit-identical to the sequential backend's.
///
/// By default every execution shares one precompiled [`SimPlanCache`] across
/// its cells and workers: cells that agree on (topology structure,
/// collective, chunks, scheduler) schedule once, cells whose schedules price
/// identically (including Themis+FIFO vs Themis+SCF) share one per-op cost
/// table, stream cells stop re-scheduling identical queued collectives, and
/// every worker reuses one [`SimWorkspace`] across the cells it claims.
/// Schedulers and the cost model are deterministic, so cached runs are
/// bit-identical to uncached ones; disable with
/// [`Runner::with_schedule_cache`] to measure or debug the uncached path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    backend: Backend,
    cache_schedules: bool,
}

impl Runner {
    /// A runner that executes specs one after the other on the calling thread.
    pub fn sequential() -> Self {
        Runner {
            backend: Backend::Sequential,
            cache_schedules: true,
        }
    }

    /// A runner that executes specs on one worker thread per available core.
    pub fn parallel() -> Self {
        Runner {
            backend: Backend::Parallel { threads: None },
            cache_schedules: true,
        }
    }

    /// A parallel runner with an explicit worker-thread count (values of zero
    /// are treated as one).
    pub fn parallel_threads(threads: usize) -> Self {
        Runner {
            backend: Backend::Parallel {
                threads: NonZeroUsize::new(threads.max(1)),
            },
            cache_schedules: true,
        }
    }

    /// Enables or disables the shared per-execution [`SimPlanCache`]
    /// (enabled by default; reports are bit-identical either way).
    #[must_use]
    pub fn with_schedule_cache(mut self, enabled: bool) -> Self {
        self.cache_schedules = enabled;
        self
    }

    /// `true` if this runner uses worker threads.
    pub fn is_parallel(&self) -> bool {
        matches!(self.backend, Backend::Parallel { .. })
    }

    /// The number of worker threads this runner would use for `jobs` specs.
    pub fn worker_count(&self, jobs: usize) -> usize {
        match self.backend {
            Backend::Sequential => 1,
            Backend::Parallel { threads } => {
                let available = threads
                    .or_else(|| std::thread::available_parallelism().ok())
                    .map_or(1, NonZeroUsize::get);
                available.min(jobs).max(1)
            }
        }
    }

    /// Executes `specs` and returns their results in spec order.
    ///
    /// # Errors
    ///
    /// Returns the first error in spec order. Workers stop claiming new cells
    /// once any cell has errored (cells already in flight still finish), so a
    /// failing campaign does not execute its whole remaining matrix just to
    /// discard it.
    pub fn execute(&self, specs: &[RunSpec]) -> Result<Vec<RunResult>, ThemisError> {
        self.execute_cells(specs, None)
    }

    /// Executes stream-campaign cells ([`StreamSpec`]s) and returns their
    /// results in spec order. Both backends produce bit-identical reports.
    ///
    /// # Errors
    ///
    /// Returns the first error in spec order, as for [`Runner::execute`].
    pub fn execute_streams(
        &self,
        specs: &[StreamSpec],
    ) -> Result<Vec<StreamRunResult>, ThemisError> {
        self.execute_cells(specs, None)
    }

    /// Executes cells through a caller-provided [`SimPlanCache`] instead of a
    /// per-execution one, so the caller can warm-start it (e.g. from a dumped
    /// schedule-cache file), read its hit/miss statistics after the run, or
    /// share one warm plan across several campaigns, as the figure suites
    /// do. The plan is always consulted, regardless of
    /// [`Runner::with_schedule_cache`] (reports are bit-identical either
    /// way).
    ///
    /// # Errors
    ///
    /// Returns the first error in spec order, as for [`Runner::execute`].
    pub fn execute_with_cache<C: CampaignCell>(
        &self,
        specs: &[C],
        plan: &SimPlanCache,
    ) -> Result<Vec<C::Output>, ThemisError> {
        self.execute_cells(specs, Some(plan))
    }

    /// Shared dispatch of [`Runner::execute`] / [`Runner::execute_streams`] /
    /// [`Runner::execute_with_cache`]: picks the caching mode, then runs the
    /// cells through the worker-pool scaffolding.
    fn execute_cells<C: CampaignCell>(
        &self,
        specs: &[C],
        warm: Option<&SimPlanCache>,
    ) -> Result<Vec<C::Output>, ThemisError> {
        match warm {
            Some(plan) => self.execute_tasks(specs, |spec, ws| spec.execute_planned(plan, ws)),
            None if self.cache_schedules => {
                let plan = SimPlanCache::new();
                self.execute_tasks(specs, |spec, ws| spec.execute_planned(&plan, ws))
            }
            None => self.execute_tasks(specs, |spec, _ws| spec.execute()),
        }
    }

    /// Shared backend: runs `execute` over `items` sequentially or on the
    /// worker pool, collecting results in item order. Every worker checks one
    /// reusable [`SimWorkspace`] out of the process-wide pool, so event-loop
    /// allocations and memoised op matrices amortise across the cells it
    /// claims *and* across repeated executions.
    fn execute_tasks<T, R>(
        &self,
        items: &[T],
        execute: impl Fn(&T, &mut SimWorkspace) -> Result<R, ThemisError> + Sync,
    ) -> Result<Vec<R>, ThemisError>
    where
        T: Sync,
        R: Send,
    {
        let workers = match self.backend {
            Backend::Sequential => 1,
            Backend::Parallel { .. } => self.worker_count(items.len()),
        };
        if workers <= 1 || items.len() <= 1 {
            let mut workspace = checkout_workspace();
            // `collect` into a `Result` short-circuits at the first error.
            let results = items
                .iter()
                .map(|item| execute(item, &mut workspace))
                .collect();
            checkin_workspace(workspace);
            return results;
        }
        let next = AtomicUsize::new(0);
        let errored = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<R, ThemisError>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut workspace = checkout_workspace();
                    loop {
                        // Early exit: once any cell errors, stop claiming new
                        // cells instead of executing the rest of the matrix
                        // and discarding it.
                        if errored.load(Ordering::Relaxed) {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        let result = execute(item, &mut workspace);
                        if result.is_err() {
                            errored.store(true, Ordering::Relaxed);
                        }
                        // Each slot is written by exactly one worker; the
                        // mutex only publishes the write to the collecting
                        // thread.
                        *slots[index]
                            .lock()
                            .expect("no panics while holding the slot lock") = Some(result);
                    }
                    checkin_workspace(workspace);
                });
            }
        });
        let mut results = Vec::with_capacity(items.len());
        for slot in slots {
            let value = slot
                .into_inner()
                .expect("worker threads joined without panicking");
            match value {
                Some(Ok(result)) => results.push(result),
                Some(Err(err)) => return Err(err),
                // The atomic work index hands out indices in order and every
                // claimed cell is finished, so a skipped slot can only appear
                // *after* the first errored slot — which was returned above.
                None => unreachable!("cells are only skipped after an earlier error"),
            }
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::SchedulerKind;
    use themis_net::presets::PresetTopology;

    fn specs() -> Vec<RunSpec> {
        let platform = Platform::preset(PresetTopology::Sw2d);
        SchedulerKind::all()
            .into_iter()
            .map(|kind| {
                RunSpec::new(
                    platform.clone(),
                    Job::all_reduce_mib(32.0).chunks(8).scheduler(kind),
                )
            })
            .collect()
    }

    #[test]
    fn sequential_and_parallel_agree_bit_for_bit() {
        let specs = specs();
        let sequential = Runner::sequential().execute(&specs).unwrap();
        let parallel = Runner::parallel_threads(3).execute(&specs).unwrap();
        assert_eq!(sequential, parallel);
        // Order matches the spec list, not completion order.
        for (spec, result) in specs.iter().zip(&sequential) {
            assert_eq!(spec.job.scheduler_kind(), result.config.scheduler);
        }
    }

    #[test]
    fn errors_propagate_in_spec_order() {
        let platform = Platform::preset(PresetTopology::Sw2d);
        let mut specs = specs();
        specs.insert(
            1,
            RunSpec::new(platform, Job::all_reduce_mib(32.0).chunks(0)),
        );
        for runner in [Runner::sequential(), Runner::parallel_threads(2)] {
            let err = runner.execute(&specs).unwrap_err();
            assert!(matches!(err, ThemisError::Schedule(_)), "{runner:?}");
        }
    }

    #[test]
    fn schedule_cache_toggle_does_not_change_results() {
        let specs = specs();
        let cached = Runner::parallel_threads(2).execute(&specs).unwrap();
        let uncached = Runner::parallel_threads(2)
            .with_schedule_cache(false)
            .execute(&specs)
            .unwrap();
        assert_eq!(cached, uncached);
    }

    #[test]
    fn execute_with_cache_matches_and_counts() {
        let specs = specs();
        let plan = SimPlanCache::new();
        let warm = Runner::parallel_threads(2)
            .execute_with_cache(&specs, &plan)
            .unwrap();
        assert_eq!(warm, Runner::sequential().execute(&specs).unwrap());
        let schedules = plan.schedules();
        assert_eq!((schedules.hits(), schedules.misses()), (0, 3));
        // The two Themis variants share one cost table. Both workers may
        // build it when they race on the key (the first insert wins), so the
        // first run counts 2 or 3 misses.
        assert_eq!(plan.cost_tables().len(), 2);
        let built = plan.cost_tables().misses();
        assert!((2..=3).contains(&built), "{built} cost-table misses");
        // A second execution over the same plan is served entirely from it.
        let again = Runner::sequential()
            .execute_with_cache(&specs, &plan)
            .unwrap();
        assert_eq!(again, warm);
        assert_eq!((schedules.hits(), schedules.misses()), (3, 3));
        assert_eq!(plan.cost_tables().misses(), built);
    }

    #[test]
    fn worker_counts_are_bounded() {
        assert_eq!(Runner::sequential().worker_count(10), 1);
        assert_eq!(Runner::parallel_threads(4).worker_count(2), 2);
        assert_eq!(Runner::parallel_threads(0).worker_count(10), 1);
        assert!(Runner::parallel().worker_count(64) >= 1);
        assert!(!Runner::sequential().is_parallel());
        assert!(Runner::parallel().is_parallel());
    }
}
