//! Result types of the experiment layer: one [`RunResult`] per executed cell
//! and a [`CampaignReport`] for the whole matrix, with dependency-free JSON
//! serialization.

use crate::api::json::Json;
use crate::error::ThemisError;
use themis_collectives::CollectiveKind;
use themis_core::SchedulerKind;
use themis_net::DataSize;
use themis_sim::stats::OpRecord;
use themis_sim::{DimReport, SimReport};

/// The configuration of one run: which job ran on which platform.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Topology (platform) name.
    pub topology: String,
    /// Scheduler configuration (Table 3).
    pub scheduler: SchedulerKind,
    /// Collective pattern.
    pub collective: CollectiveKind,
    /// Per-NPU collective size.
    pub size: DataSize,
    /// Chunks per collective.
    pub chunks: usize,
}

impl std::fmt::Display for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {:.0} MiB on {} under {} ({} chunks)",
            self.collective,
            self.size.as_mib(),
            self.topology,
            self.scheduler,
            self.chunks
        )
    }
}

/// One executed campaign cell: its configuration plus the full simulation
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// What was run.
    pub config: RunConfig,
    /// What the simulator measured.
    pub report: SimReport,
}

impl RunResult {
    /// Completion time of the collective, ns.
    pub fn total_time_ns(&self) -> f64 {
        self.report.total_time_ns
    }

    /// Completion time of the collective, µs.
    pub fn total_time_us(&self) -> f64 {
        self.report.total_time_us()
    }

    /// The paper's weighted average BW utilisation for this run.
    pub fn average_bw_utilization(&self) -> f64 {
        self.report.average_bw_utilization()
    }
}

/// The outcome of a whole campaign: every cell of the expanded run matrix, in
/// deterministic matrix order (platform → size → chunk count → scheduler)
/// regardless of the runner backend.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignReport {
    results: Vec<RunResult>,
}

impl CampaignReport {
    /// Wraps a list of run results.
    pub fn new(results: Vec<RunResult>) -> Self {
        CampaignReport { results }
    }

    /// The executed cells, in matrix order.
    pub fn results(&self) -> &[RunResult] {
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
    pub fn iter(&self) -> std::slice::Iter<'_, RunResult> {
        self.results.iter()
    }

    /// The first cell matching `(topology, scheduler, size)`, if any
    /// (ignores the chunk count; see [`CampaignReport::find_with_chunks`]).
    pub fn find(
        &self,
        topology: &str,
        scheduler: SchedulerKind,
        size: DataSize,
    ) -> Option<&RunResult> {
        self.results.iter().find(|r| {
            r.config.topology == topology
                && r.config.scheduler == scheduler
                && r.config.size == size
        })
    }

    /// The cell matching `(topology, scheduler, size, chunks)`, if any.
    pub fn find_with_chunks(
        &self,
        topology: &str,
        scheduler: SchedulerKind,
        size: DataSize,
        chunks: usize,
    ) -> Option<&RunResult> {
        self.results.iter().find(|r| {
            r.config.topology == topology
                && r.config.scheduler == scheduler
                && r.config.size == size
                && r.config.chunks == chunks
        })
    }

    /// Speedup of `scheduler` over the baseline on the same `(topology, size)`
    /// cell: baseline time divided by `scheduler` time.
    pub fn speedup_over_baseline(
        &self,
        topology: &str,
        size: DataSize,
        scheduler: SchedulerKind,
    ) -> Option<f64> {
        let baseline = self.find(topology, SchedulerKind::Baseline, size)?;
        let other = self.find(topology, scheduler, size)?;
        Some(baseline.total_time_ns() / other.total_time_ns())
    }

    /// Speedups of `scheduler` over the baseline across every `(topology,
    /// size, chunks)` cell both schedulers cover, in matrix order.
    pub fn speedups_over_baseline(&self, scheduler: SchedulerKind) -> Vec<f64> {
        self.results
            .iter()
            .filter(|r| r.config.scheduler == scheduler)
            .filter_map(|r| {
                let baseline = self.find_with_chunks(
                    &r.config.topology,
                    SchedulerKind::Baseline,
                    r.config.size,
                    r.config.chunks,
                )?;
                Some(baseline.total_time_ns() / r.total_time_ns())
            })
            .collect()
    }

    /// Serializes the report to compact JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The report as a [`Json`] value (embedded in merged shard reports).
    pub(crate) fn to_json_value(&self) -> Json {
        Self::envelope(self.results.iter().map(run_result_to_json).collect())
    }

    /// The report layout around already-encoded cells, one
    /// [`run_result_to_json`] value (or its pre-rendered text) per cell.
    /// The service splices memoised cells into it, so a served report is
    /// byte-identical to [`CampaignReport::to_json`].
    pub(crate) fn envelope(results: Vec<Json>) -> Json {
        Json::obj([("version", Json::Num(1.0)), ("results", Json::Arr(results))])
    }

    /// Deserializes a report previously produced by
    /// [`CampaignReport::to_json`].
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
        if version != 1 {
            return Err(ThemisError::Json {
                reason: format!("unsupported campaign report version {version}"),
            });
        }
        let results = value
            .field("results")?
            .as_arr()?
            .iter()
            .map(run_result_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport::new(results))
    }
}

impl<'a> IntoIterator for &'a CampaignReport {
    type Item = &'a RunResult;
    type IntoIter = std::slice::Iter<'a, RunResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

pub(crate) fn scheduler_from_label(label: &str) -> Result<SchedulerKind, ThemisError> {
    SchedulerKind::all()
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| ThemisError::Json {
            reason: format!("unknown scheduler `{label}`"),
        })
}

pub(crate) fn collective_from_label(label: &str) -> Result<CollectiveKind, ThemisError> {
    CollectiveKind::all()
        .into_iter()
        .find(|k| k.to_string() == label)
        .ok_or_else(|| ThemisError::Json {
            reason: format!("unknown collective `{label}`"),
        })
}

pub(crate) fn run_result_to_json(result: &RunResult) -> Json {
    Json::obj([
        ("config", config_to_json(&result.config)),
        ("report", sim_report_to_json(&result.report)),
    ])
}

pub(crate) fn run_result_from_json(value: &Json) -> Result<RunResult, ThemisError> {
    Ok(RunResult {
        config: config_from_json(value.field("config")?)?,
        report: sim_report_from_json(value.field("report")?)?,
    })
}

fn config_to_json(config: &RunConfig) -> Json {
    Json::obj([
        ("topology", Json::Str(config.topology.clone())),
        ("scheduler", Json::Str(config.scheduler.label().to_string())),
        ("collective", Json::Str(config.collective.to_string())),
        ("size_bytes", Json::Num(config.size.as_bytes_f64())),
        ("chunks", Json::Num(config.chunks as f64)),
    ])
}

fn config_from_json(value: &Json) -> Result<RunConfig, ThemisError> {
    Ok(RunConfig {
        topology: value.field("topology")?.as_str()?.to_string(),
        scheduler: scheduler_from_label(value.field("scheduler")?.as_str()?)?,
        collective: collective_from_label(value.field("collective")?.as_str()?)?,
        size: DataSize::from_bytes(value.field("size_bytes")?.as_u64()?),
        chunks: value.field("chunks")?.as_usize()?,
    })
}

pub(crate) fn sim_report_to_json(report: &SimReport) -> Json {
    Json::obj([
        ("scheduler_name", Json::Str(report.scheduler_name.clone())),
        ("topology_name", Json::Str(report.topology_name.clone())),
        ("total_time_ns", Json::Num(report.total_time_ns)),
        ("activity_window_ns", Json::Num(report.activity_window_ns)),
        (
            "dims",
            Json::Arr(report.dims.iter().map(dim_to_json).collect()),
        ),
        (
            "op_log",
            Json::Arr(report.op_log.iter().map(op_to_json).collect()),
        ),
    ])
}

pub(crate) fn sim_report_from_json(value: &Json) -> Result<SimReport, ThemisError> {
    Ok(SimReport {
        scheduler_name: value.field("scheduler_name")?.as_str()?.to_string(),
        topology_name: value.field("topology_name")?.as_str()?.to_string(),
        total_time_ns: value.field("total_time_ns")?.as_f64()?,
        activity_window_ns: value.field("activity_window_ns")?.as_f64()?,
        dims: value
            .field("dims")?
            .as_arr()?
            .iter()
            .map(dim_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        op_log: value
            .field("op_log")?
            .as_arr()?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

pub(crate) fn dim_to_json(dim: &DimReport) -> Json {
    Json::obj([
        (
            "bandwidth_bytes_per_ns",
            Json::Num(dim.bandwidth_bytes_per_ns),
        ),
        ("busy_ns", Json::Num(dim.busy_ns)),
        ("wire_bytes", Json::Num(dim.wire_bytes)),
        ("ops_executed", Json::Num(dim.ops_executed as f64)),
        (
            "presence_intervals",
            Json::Arr(
                dim.presence_intervals
                    .iter()
                    .map(|(s, e)| Json::Arr(vec![Json::Num(*s), Json::Num(*e)]))
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn dim_from_json(value: &Json) -> Result<DimReport, ThemisError> {
    let intervals = value
        .field("presence_intervals")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(ThemisError::Json {
                    reason: "presence interval must be a [start, end] pair".to_string(),
                });
            }
            Ok((pair[0].as_f64()?, pair[1].as_f64()?))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DimReport {
        bandwidth_bytes_per_ns: value.field("bandwidth_bytes_per_ns")?.as_f64()?,
        busy_ns: value.field("busy_ns")?.as_f64()?,
        wire_bytes: value.field("wire_bytes")?.as_f64()?,
        ops_executed: value.field("ops_executed")?.as_usize()?,
        presence_intervals: intervals,
    })
}

fn op_to_json(op: &OpRecord) -> Json {
    Json::obj([
        ("dim", Json::Num(op.dim as f64)),
        ("chunk", Json::Num(op.chunk as f64)),
        ("stage", Json::Num(op.stage as f64)),
        ("label", Json::Str(op.label.clone())),
        ("start_ns", Json::Num(op.start_ns)),
        ("end_ns", Json::Num(op.end_ns)),
    ])
}

fn op_from_json(value: &Json) -> Result<OpRecord, ThemisError> {
    Ok(OpRecord {
        dim: value.field("dim")?.as_usize()?,
        chunk: value.field("chunk")?.as_usize()?,
        stage: value.field("stage")?.as_usize()?,
        label: value.field("label")?.as_str()?.to_string(),
        start_ns: value.field("start_ns")?.as_f64()?,
        end_ns: value.field("end_ns")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Job, Platform};
    use themis_net::presets::PresetTopology;

    fn small_report() -> CampaignReport {
        let platform = Platform::preset(PresetTopology::Sw2d);
        let results = SchedulerKind::all()
            .into_iter()
            .map(|kind| {
                Job::all_reduce_mib(32.0)
                    .chunks(4)
                    .scheduler(kind)
                    .run_on(&platform)
                    .unwrap()
            })
            .collect();
        CampaignReport::new(results)
    }

    #[test]
    fn lookup_and_speedups() {
        let report = small_report();
        assert_eq!(report.len(), 3);
        let size = DataSize::from_mib(32.0);
        let baseline = report
            .find("2D-SW_SW", SchedulerKind::Baseline, size)
            .unwrap();
        assert_eq!(baseline.config.chunks, 4);
        let speedup = report
            .speedup_over_baseline("2D-SW_SW", size, SchedulerKind::ThemisScf)
            .unwrap();
        assert!(speedup >= 1.0);
        assert_eq!(
            report
                .speedups_over_baseline(SchedulerKind::ThemisScf)
                .len(),
            1
        );
        assert!(report
            .find("2D-SW_SW", SchedulerKind::Baseline, DataSize::from_mib(1.0))
            .is_none());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = small_report();
        let text = report.to_json();
        let back = CampaignReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn from_json_rejects_unknown_layouts() {
        assert!(CampaignReport::from_json("{}").is_err());
        assert!(CampaignReport::from_json("{\"version\": 2, \"results\": []}").is_err());
        assert!(CampaignReport::from_json("not json").is_err());
        let empty = CampaignReport::from_json("{\"version\": 1, \"results\": []}").unwrap();
        assert!(empty.is_empty());
    }
}
