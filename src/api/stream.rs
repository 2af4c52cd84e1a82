//! Stream jobs: queued multi-collective work for the experiment layer.
//!
//! A [`StreamJob`] is the campaign-level analogue of [`crate::api::Job`] for
//! *streams* of collectives: an ordered queue of [`QueuedCollective`]s (each
//! with an issue time) executed by the streaming queue engine
//! ([`themis_sim::stream`]). Whether queued collectives overlap in flight or
//! run back-to-back is controlled by the platform's
//! [`SimOptions::cross_collective_overlap`] flag, so the same job measures
//! both the streaming and the sequential-timeline policies.
//!
//! [`StreamJob::from_training`] derives a stream from a [`TrainingJob`]'s
//! layer graph: one gradient All-Reduce per layer, issued as back-propagation
//! completes the layer (plus DLRM's gradient-side All-To-All).
//!
//! [`StreamCampaign`] sweeps stream jobs over platforms × schedulers and runs
//! through the same [`Runner`] backends as collective campaigns — parallel
//! and sequential execution are bit-identical — and
//! [`StreamCampaignReport`] serializes through [`crate::api::json`].
//!
//! ```
//! use themis::prelude::*;
//!
//! # fn main() -> Result<(), ThemisError> {
//! let stream = StreamJob::named("two-grads")
//!     .push(QueuedCollective::all_reduce_mib("layer-2", 64.0))
//!     .push(QueuedCollective::all_reduce_mib("layer-1", 64.0));
//! let report = StreamCampaign::new()
//!     .topologies([PresetTopology::SwSwSw3dHomo])
//!     .schedulers([SchedulerKind::ThemisScf])
//!     .stream(stream)
//!     .run(&Runner::parallel())?;
//! let cell = &report.results()[0];
//! assert!(cell.makespan_ns() > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::api::job::DEFAULT_CHUNKS;
use crate::api::json::Json;
use crate::api::platform::Platform;
use crate::api::report::{
    dim_from_json, dim_to_json, scheduler_from_label, sim_report_from_json, sim_report_to_json,
};
use crate::api::runner::Runner;
use crate::api::training::TrainingJob;
use crate::error::ThemisError;
use std::sync::Arc;
use themis_collectives::CollectiveKind;
use themis_core::plan::CostTable;
use themis_core::{
    CollectiveRequest, CollectiveSchedule, ScheduleError, SchedulerKind, SimPlanCache,
};
use themis_net::presets::PresetTopology;
use themis_net::DataSize;
use themis_sim::stream::{StreamEntry, StreamSimulator};
use themis_sim::{CollectiveSpan, SimOptions, SimWorkspace, StreamReport};
use themis_workloads::{collective_stream, CommunicationPolicy};

/// One collective of a stream job: pattern, per-NPU size and the time the
/// workload issues it (ns; default `0.0`, i.e. queued from the start).
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedCollective {
    label: String,
    issue_ns: f64,
    kind: CollectiveKind,
    size: DataSize,
}

impl QueuedCollective {
    /// Creates a queued collective issued at time zero.
    pub fn new(label: impl Into<String>, kind: CollectiveKind, size: DataSize) -> Self {
        QueuedCollective {
            label: label.into(),
            issue_ns: 0.0,
            kind,
            size,
        }
    }

    /// Convenience constructor for an All-Reduce of `mib` mebibytes.
    pub fn all_reduce_mib(label: impl Into<String>, mib: f64) -> Self {
        QueuedCollective::new(label, CollectiveKind::AllReduce, DataSize::from_mib(mib))
    }

    /// Sets the issue time (ns since the stream's clock zero).
    #[must_use]
    pub fn issued_at(mut self, issue_ns: f64) -> Self {
        self.issue_ns = issue_ns;
        self
    }

    /// The label used in reports.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The issue time, ns.
    pub fn issue_ns(&self) -> f64 {
        self.issue_ns
    }

    /// The collective pattern.
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// The per-NPU data size.
    pub fn size(&self) -> DataSize {
        self.size
    }

    /// The [`CollectiveRequest`] this queued collective issues.
    pub fn request(&self) -> CollectiveRequest {
        CollectiveRequest::new(self.kind, self.size)
    }
}

/// A stream job: a named queue of collectives plus the scheduler configuration
/// and chunk granularity every queued collective is scheduled with.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamJob {
    name: String,
    entries: Vec<QueuedCollective>,
    scheduler: SchedulerKind,
    chunks: usize,
}

impl StreamJob {
    /// Creates an empty stream job (defaults: Themis+SCF, 64 chunks per
    /// collective).
    pub fn named(name: impl Into<String>) -> Self {
        StreamJob {
            name: name.into(),
            entries: Vec::new(),
            scheduler: SchedulerKind::ThemisScf,
            chunks: DEFAULT_CHUNKS,
        }
    }

    /// Derives a stream from a [`TrainingJob`]'s layer graph: per-layer
    /// gradient collectives issued as back-propagation completes each layer
    /// (wait-free back-propagation). The job's policy selects the scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Campaign`] for the Ideal policy (it has no
    /// executable schedule) and [`ThemisError::Workload`] for workloads whose
    /// strategy cannot be expressed as a single-network stream
    /// (Transformer-1T's model-parallel ZeRO-2).
    pub fn from_training(job: &TrainingJob) -> Result<Self, ThemisError> {
        let scheduler = match job.policy_kind() {
            CommunicationPolicy::Baseline => SchedulerKind::Baseline,
            CommunicationPolicy::ThemisFifo => SchedulerKind::ThemisFifo,
            CommunicationPolicy::ThemisScf => SchedulerKind::ThemisScf,
            CommunicationPolicy::Ideal => {
                return Err(ThemisError::Campaign {
                    reason: "the Ideal policy is an analytic bound with no executable \
                             schedule, so it cannot drive a stream job"
                        .to_string(),
                });
            }
        };
        let config = job.workload().config();
        let entries = collective_stream(&config)?
            .into_iter()
            .map(|c| {
                let size = c.data_size();
                QueuedCollective {
                    label: c.label,
                    issue_ns: c.issue_ns,
                    kind: c.kind,
                    size,
                }
            })
            .collect();
        Ok(StreamJob {
            name: format!("{}-iteration", job.workload().name()),
            entries,
            scheduler,
            chunks: config.chunks_per_collective,
        })
    }

    /// Appends one collective to the queue.
    #[must_use]
    pub fn push(mut self, collective: QueuedCollective) -> Self {
        self.entries.push(collective);
        self
    }

    /// Replaces the queue.
    #[must_use]
    pub fn collectives<I: IntoIterator<Item = QueuedCollective>>(mut self, entries: I) -> Self {
        self.entries = entries.into_iter().collect();
        self
    }

    /// Sets the scheduler configuration (Table 3).
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the chunks-per-collective granularity.
    #[must_use]
    pub fn chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks;
        self
    }

    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The queued collectives, in push order.
    pub fn entries(&self) -> &[QueuedCollective] {
        &self.entries
    }

    /// The scheduler configuration.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The chunk granularity.
    pub fn chunk_count(&self) -> usize {
        self.chunks
    }

    /// The [`StreamRunConfig`] describing this job on `platform`.
    pub fn config_on(&self, platform: &Platform) -> StreamRunConfig {
        StreamRunConfig {
            topology: platform.name().to_string(),
            scheduler: self.scheduler,
            stream: self.name.clone(),
            collectives: self.entries.len(),
            chunks: self.chunks,
        }
    }

    /// Schedules and simulates the whole queue on `platform`. Overlap
    /// behaviour follows the platform's
    /// [`SimOptions::cross_collective_overlap`].
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors as [`ThemisError`].
    pub fn run_on(&self, platform: &Platform) -> Result<StreamRunResult, ThemisError> {
        if self.chunks == 0 {
            return Err(ThemisError::Schedule(ScheduleError::ZeroChunks));
        }
        let entries = self.stream_entries();
        let mut scheduler = self.scheduler.build(self.chunks);
        let report = StreamSimulator::new(platform.topology(), platform.options())
            .run(scheduler.as_mut(), &entries)?;
        Ok(StreamRunResult {
            config: self.config_on(platform),
            report,
        })
    }

    /// The full precompiled-plan fast path: every queued collective's
    /// schedule comes from the plan's [`themis_core::ScheduleCache`], its
    /// per-op cost table from the plan's [`themis_core::CostTableCache`]
    /// (identical queued collectives — e.g. repeated per-layer gradients —
    /// share one schedule *and* one cost table), and the merged event loop
    /// runs on the caller's reusable [`SimWorkspace`]
    /// ([`StreamSimulator::run_planned_cached`]). Reports are bit-identical
    /// to [`StreamJob::run_on`].
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors as [`ThemisError`].
    pub fn run_planned(
        &self,
        platform: &Platform,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<StreamRunResult, ThemisError> {
        if self.chunks == 0 {
            return Err(ThemisError::Schedule(ScheduleError::ZeroChunks));
        }
        let entries = self.stream_entries();
        let sched_topo = platform.scheduling_topology()?;
        let simulator = StreamSimulator::new(platform.topology(), platform.options());
        let cost_model = themis_collectives::CostModel::new();
        let mut schedules: Vec<Arc<CollectiveSchedule>> = Vec::with_capacity(entries.len());
        let mut tables: Vec<Arc<CostTable>> = Vec::with_capacity(entries.len());
        for entry in &entries {
            let schedule = {
                let _span = workspace.phase_schedule_span();
                plan.schedules().get_or_schedule(
                    sched_topo.as_ref(),
                    &entry.request,
                    self.chunks,
                    self.scheduler,
                )?
            };
            {
                let _span = workspace.phase_cost_span();
                tables.push(plan.cost_tables().get_or_build(
                    platform.topology(),
                    &cost_model,
                    &schedule,
                )?);
            }
            schedules.push(schedule);
        }
        let report = simulator.run_planned_cached(
            &entries,
            &schedules,
            &tables,
            workspace,
            Some(plan.cost_tables()),
        )?;
        Ok(StreamRunResult {
            config: self.config_on(platform),
            report,
        })
    }

    /// The engine-level entries of this stream, in push order.
    fn stream_entries(&self) -> Vec<StreamEntry> {
        self.entries
            .iter()
            .map(|c| StreamEntry::new(c.label.clone(), c.issue_ns, c.request()))
            .collect()
    }
}

/// The configuration of one stream-campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRunConfig {
    /// Topology (platform) name.
    pub topology: String,
    /// Scheduler configuration (Table 3).
    pub scheduler: SchedulerKind,
    /// Stream name.
    pub stream: String,
    /// Number of queued collectives.
    pub collectives: usize,
    /// Chunks per collective.
    pub chunks: usize,
}

impl std::fmt::Display for StreamRunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream `{}` ({} collectives) on {} under {} ({} chunks)",
            self.stream, self.collectives, self.topology, self.scheduler, self.chunks
        )
    }
}

/// One executed stream-campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRunResult {
    /// What was run.
    pub config: StreamRunConfig,
    /// What the stream engine measured.
    pub report: StreamReport,
}

impl StreamRunResult {
    /// Makespan of the stream (first issue to last completion), ns.
    pub fn makespan_ns(&self) -> f64 {
        self.report.makespan_ns()
    }

    /// Time two or more collectives were in flight together, ns.
    pub fn overlap_ns(&self) -> f64 {
        self.report.overlap_ns
    }

    /// The per-collective spans.
    pub fn spans(&self) -> &[CollectiveSpan] {
        &self.report.spans
    }
}

/// One cell of an expanded stream campaign: a [`StreamJob`] bound to a
/// [`Platform`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// The platform the stream runs on.
    pub platform: Platform,
    /// The stream job to run.
    pub job: StreamJob,
}

impl StreamSpec {
    /// Creates a stream spec.
    pub fn new(platform: Platform, job: StreamJob) -> Self {
        StreamSpec { platform, job }
    }
}

/// A declarative sweep of stream jobs over platforms × schedulers.
///
/// Expansion order is platform → stream → scheduler (scheduler innermost),
/// mirroring [`crate::api::Campaign`]. Each cell runs the stream under one
/// Table 3 scheduler; the streams' own scheduler settings are overridden by
/// the scheduler axis.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCampaign {
    platforms: Vec<Platform>,
    schedulers: Vec<SchedulerKind>,
    streams: Vec<StreamJob>,
    sim_options: Option<SimOptions>,
}

impl Default for StreamCampaign {
    fn default() -> Self {
        StreamCampaign {
            platforms: Vec::new(),
            schedulers: SchedulerKind::all().to_vec(),
            streams: Vec::new(),
            sim_options: None,
        }
    }
}

impl StreamCampaign {
    /// Creates an empty stream campaign (scheduler axis defaults to all three
    /// Table 3 schedulers).
    pub fn new() -> Self {
        StreamCampaign::default()
    }

    /// Appends one platform to the sweep.
    #[must_use]
    pub fn platform(mut self, platform: impl Into<Platform>) -> Self {
        self.platforms.push(platform.into());
        self
    }

    /// Replaces the platform axis.
    #[must_use]
    pub fn platforms<I, P>(mut self, platforms: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: Into<Platform>,
    {
        self.platforms = platforms.into_iter().map(Into::into).collect();
        self
    }

    /// Replaces the platform axis with preset topologies.
    #[must_use]
    pub fn topologies<I: IntoIterator<Item = PresetTopology>>(self, presets: I) -> Self {
        self.platforms(presets)
    }

    /// Replaces the scheduler axis.
    #[must_use]
    pub fn schedulers<I: IntoIterator<Item = SchedulerKind>>(mut self, schedulers: I) -> Self {
        self.schedulers = schedulers.into_iter().collect();
        self
    }

    /// Appends one stream to the sweep.
    #[must_use]
    pub fn stream(mut self, stream: StreamJob) -> Self {
        self.streams.push(stream);
        self
    }

    /// Replaces the stream axis.
    #[must_use]
    pub fn streams<I: IntoIterator<Item = StreamJob>>(mut self, streams: I) -> Self {
        self.streams = streams.into_iter().collect();
        self
    }

    /// Overrides the simulator options of every platform in the sweep (e.g.
    /// `SimOptions::default().with_cross_collective_overlap(false)` for the
    /// sequential-timeline reference).
    #[must_use]
    pub fn sim_options(mut self, options: SimOptions) -> Self {
        self.sim_options = Some(options);
        self
    }

    /// The number of cells the run matrix expands to.
    pub fn matrix_size(&self) -> usize {
        self.platforms.len() * self.streams.len() * self.schedulers.len()
    }

    /// Expands the campaign into its run matrix (platform → stream →
    /// scheduler).
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Campaign`] if any axis is empty or a stream has
    /// no collectives.
    pub fn expand(&self) -> Result<Vec<StreamSpec>, ThemisError> {
        for (axis, empty) in [
            ("platforms", self.platforms.is_empty()),
            ("streams", self.streams.is_empty()),
            ("schedulers", self.schedulers.is_empty()),
        ] {
            if empty {
                return Err(ThemisError::Campaign {
                    reason: format!("the {axis} axis is empty"),
                });
            }
        }
        if let Some(stream) = self.streams.iter().find(|s| s.entries().is_empty()) {
            return Err(ThemisError::Campaign {
                reason: format!("stream `{}` has no collectives", stream.name()),
            });
        }
        if let Some(options) = &self.sim_options {
            options.validate().map_err(ThemisError::from)?;
        }
        let mut specs = Vec::with_capacity(self.matrix_size());
        for platform in &self.platforms {
            let platform = match &self.sim_options {
                Some(options) => platform.clone().with_options(options.clone()),
                None => platform.clone(),
            };
            for stream in &self.streams {
                for &scheduler in &self.schedulers {
                    specs.push(StreamSpec::new(
                        platform.clone(),
                        stream.clone().scheduler(scheduler),
                    ));
                }
            }
        }
        Ok(specs)
    }

    /// Expands the campaign and executes every cell through `runner`.
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Campaign`] for an invalid matrix and otherwise
    /// propagates the first scheduling/simulation error in matrix order.
    pub fn run(&self, runner: &Runner) -> Result<StreamCampaignReport, ThemisError> {
        let specs = self.expand()?;
        Ok(StreamCampaignReport::new(runner.execute_streams(&specs)?))
    }

    /// Like [`StreamCampaign::run`], but executing through a caller-provided
    /// [`SimPlanCache`] shared with other campaigns (bit-identical reports).
    ///
    /// # Errors
    ///
    /// Same contract as [`StreamCampaign::run`].
    pub fn run_with_cache(
        &self,
        runner: &Runner,
        plan: &SimPlanCache,
    ) -> Result<StreamCampaignReport, ThemisError> {
        let specs = self.expand()?;
        Ok(StreamCampaignReport::new(
            runner.execute_with_cache(&specs, plan)?,
        ))
    }
}

/// The outcome of a stream campaign: every cell in matrix order, regardless of
/// the runner backend.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamCampaignReport {
    results: Vec<StreamRunResult>,
}

impl StreamCampaignReport {
    /// Wraps a list of stream run results.
    pub fn new(results: Vec<StreamRunResult>) -> Self {
        StreamCampaignReport { results }
    }

    /// The executed cells, in matrix order.
    pub fn results(&self) -> &[StreamRunResult] {
        &self.results
    }

    /// Number of executed cells.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` if the campaign executed no cells.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Iterates over the executed cells.
    pub fn iter(&self) -> std::slice::Iter<'_, StreamRunResult> {
        self.results.iter()
    }

    /// The cell matching `(topology, stream, scheduler)`, if any.
    pub fn find(
        &self,
        topology: &str,
        stream: &str,
        scheduler: SchedulerKind,
    ) -> Option<&StreamRunResult> {
        self.results.iter().find(|r| {
            r.config.topology == topology
                && r.config.stream == stream
                && r.config.scheduler == scheduler
        })
    }

    /// Makespan speedup of `scheduler` over the baseline on the same
    /// `(topology, stream)` cell.
    pub fn makespan_speedup_over_baseline(
        &self,
        topology: &str,
        stream: &str,
        scheduler: SchedulerKind,
    ) -> Option<f64> {
        let baseline = self.find(topology, stream, SchedulerKind::Baseline)?;
        let other = self.find(topology, stream, scheduler)?;
        if other.makespan_ns() <= 0.0 {
            return Some(f64::INFINITY);
        }
        Some(baseline.makespan_ns() / other.makespan_ns())
    }

    /// Serializes the report to compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The report as a [`Json`] value (embedded in merged shard reports).
    pub(crate) fn to_json_value(&self) -> Json {
        Self::envelope(self.results.iter().map(stream_result_to_json).collect())
    }

    /// The report layout around already-encoded cells, one
    /// [`stream_result_to_json`] value (or its pre-rendered text) per cell;
    /// the stream analogue of
    /// [`crate::api::report::CampaignReport::envelope`].
    pub(crate) fn envelope(results: Vec<Json>) -> Json {
        Json::obj([
            ("version", Json::Num(1.0)),
            ("kind", Json::Str("stream-campaign".to_string())),
            ("results", Json::Arr(results)),
        ])
    }

    /// Deserializes a report previously produced by
    /// [`StreamCampaignReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Json`] on malformed text or an unknown layout.
    pub fn from_json(text: &str) -> Result<Self, ThemisError> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Deserializes a report from an already-parsed [`Json`] value.
    pub(crate) fn from_json_value(value: &Json) -> Result<Self, ThemisError> {
        let version = value.field("version")?.as_usize()?;
        let kind = value.field("kind")?.as_str()?;
        if version != 1 || kind != "stream-campaign" {
            return Err(ThemisError::Json {
                reason: format!("unsupported stream campaign report `{kind}` v{version}"),
            });
        }
        let results = value
            .field("results")?
            .as_arr()?
            .iter()
            .map(stream_result_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StreamCampaignReport::new(results))
    }
}

impl<'a> IntoIterator for &'a StreamCampaignReport {
    type Item = &'a StreamRunResult;
    type IntoIter = std::slice::Iter<'a, StreamRunResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

pub(crate) fn stream_result_to_json(result: &StreamRunResult) -> Json {
    Json::obj([
        (
            "config",
            Json::obj([
                ("topology", Json::Str(result.config.topology.clone())),
                (
                    "scheduler",
                    Json::Str(result.config.scheduler.label().to_string()),
                ),
                ("stream", Json::Str(result.config.stream.clone())),
                ("collectives", Json::Num(result.config.collectives as f64)),
                ("chunks", Json::Num(result.config.chunks as f64)),
            ]),
        ),
        ("report", stream_report_to_json(&result.report)),
    ])
}

pub(crate) fn stream_result_from_json(value: &Json) -> Result<StreamRunResult, ThemisError> {
    let config = value.field("config")?;
    Ok(StreamRunResult {
        config: StreamRunConfig {
            topology: config.field("topology")?.as_str()?.to_string(),
            scheduler: scheduler_from_label(config.field("scheduler")?.as_str()?)?,
            stream: config.field("stream")?.as_str()?.to_string(),
            collectives: config.field("collectives")?.as_usize()?,
            chunks: config.field("chunks")?.as_usize()?,
        },
        report: stream_report_from_json(value.field("report")?)?,
    })
}

fn stream_report_to_json(report: &StreamReport) -> Json {
    Json::obj([
        ("scheduler_name", Json::Str(report.scheduler_name.clone())),
        ("topology_name", Json::Str(report.topology_name.clone())),
        ("finish_ns", Json::Num(report.finish_ns)),
        ("network_busy_ns", Json::Num(report.network_busy_ns)),
        ("overlap_ns", Json::Num(report.overlap_ns)),
        (
            "dims",
            Json::Arr(report.dims.iter().map(dim_to_json).collect()),
        ),
        (
            "spans",
            Json::Arr(report.spans.iter().map(span_to_json).collect()),
        ),
    ])
}

fn stream_report_from_json(value: &Json) -> Result<StreamReport, ThemisError> {
    Ok(StreamReport {
        scheduler_name: value.field("scheduler_name")?.as_str()?.to_string(),
        topology_name: value.field("topology_name")?.as_str()?.to_string(),
        finish_ns: value.field("finish_ns")?.as_f64()?,
        network_busy_ns: value.field("network_busy_ns")?.as_f64()?,
        overlap_ns: value.field("overlap_ns")?.as_f64()?,
        dims: value
            .field("dims")?
            .as_arr()?
            .iter()
            .map(dim_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        spans: value
            .field("spans")?
            .as_arr()?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn span_to_json(span: &CollectiveSpan) -> Json {
    Json::obj([
        ("index", Json::Num(span.index as f64)),
        ("label", Json::Str(span.label.clone())),
        ("issue_ns", Json::Num(span.issue_ns)),
        ("start_ns", Json::Num(span.start_ns)),
        ("finish_ns", Json::Num(span.finish_ns)),
        ("active_ns", Json::Num(span.active_ns)),
        ("overlapped_ns", Json::Num(span.overlapped_ns)),
        ("report", sim_report_to_json(&span.report)),
    ])
}

fn span_from_json(value: &Json) -> Result<CollectiveSpan, ThemisError> {
    Ok(CollectiveSpan {
        index: value.field("index")?.as_usize()?,
        label: value.field("label")?.as_str()?.to_string(),
        issue_ns: value.field("issue_ns")?.as_f64()?,
        start_ns: value.field("start_ns")?.as_f64()?,
        finish_ns: value.field("finish_ns")?.as_f64()?,
        active_ns: value.field("active_ns")?.as_f64()?,
        overlapped_ns: value.field("overlapped_ns")?.as_f64()?,
        report: sim_report_from_json(value.field("report")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_workloads::Workload;

    fn two_collective_stream() -> StreamJob {
        StreamJob::named("pair")
            .push(QueuedCollective::all_reduce_mib("g2", 64.0))
            .push(QueuedCollective::all_reduce_mib("g1", 64.0).issued_at(1_000.0))
            .chunks(8)
    }

    #[test]
    fn builders_carry_their_settings() {
        let job = two_collective_stream().scheduler(SchedulerKind::Baseline);
        assert_eq!(job.name(), "pair");
        assert_eq!(job.entries().len(), 2);
        assert_eq!(job.scheduler_kind(), SchedulerKind::Baseline);
        assert_eq!(job.chunk_count(), 8);
        let entry = &job.entries()[1];
        assert_eq!(entry.label(), "g1");
        assert_eq!(entry.issue_ns(), 1_000.0);
        assert_eq!(entry.kind(), CollectiveKind::AllReduce);
        assert_eq!(entry.size(), DataSize::from_mib(64.0));
        assert_eq!(entry.request().kind(), CollectiveKind::AllReduce);
    }

    #[test]
    fn run_on_executes_and_overlap_helps() {
        let platform = Platform::preset(PresetTopology::SwSwSw3dHomo);
        let streamed = two_collective_stream().run_on(&platform).unwrap();
        let sequential = two_collective_stream()
            .run_on(
                &platform
                    .clone()
                    .with_options(SimOptions::default().with_cross_collective_overlap(false)),
            )
            .unwrap();
        assert!(streamed.makespan_ns() <= sequential.makespan_ns() + 1e-6);
        assert!(streamed.overlap_ns() > 0.0);
        assert_eq!(streamed.spans().len(), 2);
        assert_eq!(streamed.config.collectives, 2);
        assert!(streamed.config.to_string().contains("stream `pair`"));
    }

    #[test]
    fn from_training_derives_layer_streams() {
        let job = StreamJob::from_training(&TrainingJob::new(Workload::ResNet152)).unwrap();
        assert_eq!(job.name(), "ResNet-152-iteration");
        assert!(!job.entries().is_empty());
        assert_eq!(job.scheduler_kind(), SchedulerKind::ThemisScf);
        // Issue times follow back-propagation order.
        let issues: Vec<f64> = job.entries().iter().map(|e| e.issue_ns()).collect();
        assert!(issues.windows(2).all(|w| w[0] <= w[1]));

        let err = StreamJob::from_training(
            &TrainingJob::new(Workload::ResNet152).policy(CommunicationPolicy::Ideal),
        )
        .unwrap_err();
        assert!(matches!(err, ThemisError::Campaign { .. }));
        let err = StreamJob::from_training(&TrainingJob::new(Workload::Transformer1T)).unwrap_err();
        assert!(matches!(err, ThemisError::Workload(_)));
    }

    #[test]
    fn campaign_expansion_and_validation() {
        let campaign = StreamCampaign::new()
            .topologies([PresetTopology::Sw2d, PresetTopology::SwSwSw3dHomo])
            .stream(two_collective_stream());
        assert_eq!(campaign.matrix_size(), 6); // 2 platforms x 1 stream x 3 schedulers
        let specs = campaign.expand().unwrap();
        assert_eq!(specs.len(), 6);
        // Scheduler is the innermost axis and overrides the job's setting.
        assert_eq!(specs[0].job.scheduler_kind(), SchedulerKind::Baseline);
        assert_eq!(specs[1].job.scheduler_kind(), SchedulerKind::ThemisFifo);
        assert_eq!(specs[2].job.scheduler_kind(), SchedulerKind::ThemisScf);
        assert_eq!(specs[3].platform.name(), "3D-SW_SW_SW_homo");

        assert!(matches!(
            StreamCampaign::new().expand(),
            Err(ThemisError::Campaign { .. })
        ));
        assert!(matches!(
            StreamCampaign::new()
                .topologies([PresetTopology::Sw2d])
                .stream(StreamJob::named("empty"))
                .expand(),
            Err(ThemisError::Campaign { .. })
        ));
        assert!(matches!(
            StreamCampaign::new()
                .topologies([PresetTopology::Sw2d])
                .stream(two_collective_stream())
                .schedulers([])
                .expand(),
            Err(ThemisError::Campaign { .. })
        ));
    }

    #[test]
    fn stream_campaign_report_round_trips_through_json() {
        let report = StreamCampaign::new()
            .topologies([PresetTopology::Sw2d])
            .schedulers([SchedulerKind::Baseline, SchedulerKind::ThemisScf])
            .stream(two_collective_stream())
            .run(&Runner::sequential())
            .unwrap();
        assert_eq!(report.len(), 2);
        assert!(!report.is_empty());
        let text = report.to_json();
        let back = StreamCampaignReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        let speedup = back
            .makespan_speedup_over_baseline("2D-SW_SW", "pair", SchedulerKind::ThemisScf)
            .unwrap();
        assert!(speedup > 0.0);
        assert!(back
            .find("2D-SW_SW", "pair", SchedulerKind::ThemisFifo)
            .is_none());

        assert!(StreamCampaignReport::from_json("{}").is_err());
        assert!(StreamCampaignReport::from_json(
            "{\"version\": 1, \"kind\": \"campaign\", \"results\": []}"
        )
        .is_err());
    }
}
