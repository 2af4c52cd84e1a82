//! The [`Job`] half of a run: the collective to execute and the scheduling
//! configuration to execute it with.

use crate::api::platform::Platform;
use crate::api::report::{RunConfig, RunResult};
use crate::error::ThemisError;
use themis_collectives::CollectiveKind;
use themis_core::{
    CollectiveRequest, CollectiveSchedule, ScheduleError, SchedulerKind, SimPlanCache,
};
use themis_net::DataSize;
use themis_sim::{PipelineSimulator, SimError, SimReport, SimWorkspace};

/// The paper's default chunk granularity (64 chunks per collective).
pub const DEFAULT_CHUNKS: usize = 64;

/// A collective job: kind, per-NPU size, chunk granularity and the Table 3
/// scheduler configuration that turns it into an executable schedule.
///
/// Defaults: 64 chunks per collective and Themis+SCF scheduling.
///
/// ```
/// use themis::api::{Job, Platform};
/// use themis::{PresetTopology, SchedulerKind};
///
/// # fn main() -> Result<(), themis::ThemisError> {
/// let platform = Platform::preset(PresetTopology::Sw2d);
/// let result = Job::all_reduce_mib(64.0)
///     .chunks(16)
///     .scheduler(SchedulerKind::Baseline)
///     .run_on(&platform)?;
/// assert!(result.report.total_time_ns > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    kind: CollectiveKind,
    size: DataSize,
    chunks: usize,
    scheduler: SchedulerKind,
}

impl Job {
    /// Creates a job for a collective of `kind` over `size` bytes per NPU.
    pub fn new(kind: CollectiveKind, size: DataSize) -> Self {
        Job {
            kind,
            size,
            chunks: DEFAULT_CHUNKS,
            scheduler: SchedulerKind::ThemisScf,
        }
    }

    /// Convenience constructor for an All-Reduce of `size`.
    pub fn all_reduce(size: DataSize) -> Self {
        Job::new(CollectiveKind::AllReduce, size)
    }

    /// Convenience constructor for an All-Reduce of `mib` mebibytes.
    pub fn all_reduce_mib(mib: f64) -> Self {
        Job::all_reduce(DataSize::from_mib(mib))
    }

    /// Sets the number of chunks the collective is split into.
    #[must_use]
    pub fn chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks;
        self
    }

    /// Sets the scheduler configuration (Table 3).
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The collective pattern.
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// The per-NPU data size.
    pub fn size(&self) -> DataSize {
        self.size
    }

    /// The chunk granularity.
    pub fn chunk_count(&self) -> usize {
        self.chunks
    }

    /// The scheduler configuration.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The [`CollectiveRequest`] this job issues to the scheduler.
    pub fn request(&self) -> CollectiveRequest {
        CollectiveRequest::new(self.kind, self.size)
    }

    /// The [`RunConfig`] describing this job on `platform` (used to key
    /// results inside campaign reports).
    pub fn config_on(&self, platform: &Platform) -> RunConfig {
        RunConfig {
            topology: platform.name().to_string(),
            scheduler: self.scheduler,
            collective: self.kind,
            size: self.size,
            chunks: self.chunks,
        }
    }

    /// Schedules this job on `platform` without simulating it.
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Schedule`] for invalid requests (zero chunks,
    /// zero size) or topology mismatches.
    pub fn schedule_on(&self, platform: &Platform) -> Result<CollectiveSchedule, ThemisError> {
        // `SchedulerKind::build` uses the infallible constructors, which panic
        // on a zero chunk count; surface that as the scheduling error instead.
        if self.chunks == 0 {
            return Err(ThemisError::Schedule(ScheduleError::ZeroChunks));
        }
        let mut scheduler = self.scheduler.build(self.chunks);
        // Faults active at t = 0 fold into the bandwidths the scheduler sees
        // (see `Platform::scheduling_topology`); later events stay invisible.
        Ok(scheduler.schedule(&self.request(), platform.scheduling_topology()?.as_ref())?)
    }

    /// Schedules *and* simulates this job on `platform`.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors as [`ThemisError`].
    pub fn run_on(&self, platform: &Platform) -> Result<RunResult, ThemisError> {
        let run = self.run_detailed(platform)?;
        Ok(RunResult {
            config: self.config_on(platform),
            report: run.report,
        })
    }

    /// The full precompiled-plan fast path
    /// ([`PipelineSimulator::run_kind_planned`]): the schedule comes from the
    /// plan's [`themis_core::ScheduleCache`], the per-op cost table from its
    /// [`themis_core::CostTableCache`], and the event-loop state from the
    /// caller's reusable [`SimWorkspace`]. This is what the campaign
    /// [`crate::api::Runner`] executes for every cell unless caching is
    /// disabled. Reports are bit-identical to [`Job::run_on`].
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors as [`ThemisError`].
    pub fn run_planned(
        &self,
        platform: &Platform,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<RunResult, ThemisError> {
        let report = PipelineSimulator::new(platform.topology(), platform.options())
            .run_kind_planned(
                self.scheduler,
                self.chunks,
                &self.request(),
                plan,
                workspace,
            )
            .map_err(|err| match err {
                // A scheduling failure keeps the variant `Job::schedule_on`
                // reports it with.
                SimError::Schedule(err) => ThemisError::Schedule(err),
                err => ThemisError::Sim(err),
            })?;
        Ok(RunResult {
            config: self.config_on(platform),
            report,
        })
    }

    /// Like [`Job::run_on`], but also returns the [`CollectiveSchedule`] that
    /// was executed (for callers that inspect per-chunk dimension orders).
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors as [`ThemisError`].
    pub fn run_detailed(&self, platform: &Platform) -> Result<ScheduledRun, ThemisError> {
        let schedule = self.schedule_on(platform)?;
        let report =
            PipelineSimulator::new(platform.topology(), platform.options()).run(&schedule)?;
        Ok(ScheduledRun { schedule, report })
    }
}

/// The full outcome of one job run: the executed schedule and its simulation
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledRun {
    /// The schedule the scheduler emitted (per-chunk dimension orders).
    pub schedule: CollectiveSchedule,
    /// The simulation report of executing that schedule.
    pub report: SimReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::presets::PresetTopology;

    #[test]
    fn defaults_match_the_paper() {
        let job = Job::all_reduce_mib(256.0);
        assert_eq!(job.chunk_count(), DEFAULT_CHUNKS);
        assert_eq!(job.scheduler_kind(), SchedulerKind::ThemisScf);
        assert_eq!(job.kind(), CollectiveKind::AllReduce);
        assert_eq!(job.size(), DataSize::from_mib(256.0));
    }

    #[test]
    fn run_detailed_returns_matching_schedule_and_report() {
        let platform = Platform::preset(PresetTopology::Sw2d);
        let job = Job::all_reduce_mib(64.0).chunks(8);
        let run = job.run_detailed(&platform).unwrap();
        assert_eq!(run.schedule.chunks().len(), 8);
        assert_eq!(run.report.scheduler_name, "Themis+SCF");
        assert!(run.report.total_time_ns > 0.0);
    }

    #[test]
    fn cached_runs_match_uncached_runs_bit_for_bit() {
        let platform = Platform::preset(PresetTopology::SwSwSw3dHetero);
        let plan = SimPlanCache::new();
        let mut workspace = SimWorkspace::new();
        for kind in SchedulerKind::all() {
            let job = Job::all_reduce_mib(96.0).chunks(8).scheduler(kind);
            let cached = job.run_planned(&platform, &plan, &mut workspace).unwrap();
            let direct = job.run_on(&platform).unwrap();
            assert_eq!(cached, direct, "{kind}");
            // A second cached run hits and stays identical.
            let again = job.run_planned(&platform, &plan, &mut workspace).unwrap();
            assert_eq!(again, direct);
        }
        assert_eq!(plan.schedules().misses(), 3);
        assert_eq!(plan.schedules().hits(), 3);
        // Cached scheduling surfaces the same error as the plain path.
        let job = Job::all_reduce_mib(96.0).chunks(0);
        let err = job
            .run_planned(&platform, &plan, &mut workspace)
            .unwrap_err();
        assert_eq!(err, job.run_on(&platform).unwrap_err());
        assert!(matches!(err, ThemisError::Schedule(_)));
    }

    #[test]
    fn scheduling_errors_surface_as_themis_errors() {
        let platform = Platform::preset(PresetTopology::Sw2d);
        let err = Job::all_reduce_mib(64.0)
            .chunks(0)
            .run_on(&platform)
            .unwrap_err();
        assert!(matches!(err, ThemisError::Schedule(_)));
    }
}
