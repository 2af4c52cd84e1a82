//! The Themis chunk scheduler — Algorithm 1 of the paper.
//!
//! Themis gives every chunk its own traversal order over the network
//! dimensions, chosen greedily so that new chunks put more load on the
//! dimensions that currently have less (in terms of predicted communication
//! time). The scheduler is built from the components of Fig. 6:
//!
//! * [`Splitter`] divides the collective into equal chunks,
//! * [`DimLoadTracker`] holds the per-dimension accumulated load,
//! * [`LatencyModel`] predicts each chunk's per-dimension runtime,
//! * the scheduler sorts the dimensions by load and assigns the sorted order
//!   as the chunk's schedule, falling back to the baseline order when the
//!   load gap is below a robustness threshold (Algorithm 1, lines 19–21).

use crate::baseline::baseline_stages;
use crate::error::ScheduleError;
use crate::intra_dim::IntraDimPolicy;
use crate::latency_model::LatencyModel;
use crate::load_tracker::DimLoadTracker;
use crate::schedule::{ChunkSchedule, CollectiveRequest, CollectiveSchedule, StageOp};
use crate::scheduler::CollectiveScheduler;
use crate::splitter::Splitter;
use themis_collectives::{CollectiveKind, CostModel, PhaseOp};
use themis_net::NetworkTopology;

/// Configuration of the Themis scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThemisConfig {
    /// Number of chunks each collective is split into (paper default: 64).
    pub chunks_per_collective: usize,
    /// The robustness threshold is the predicted runtime of a phase op of size
    /// `chunk_size / threshold_divisor` on the least-loaded dimension
    /// (paper default: 16, Sec. 5.3).
    pub threshold_divisor: f64,
    /// Intra-dimension chunk execution policy (paper default: SCF).
    pub intra_dim_policy: IntraDimPolicy,
}

impl Default for ThemisConfig {
    fn default() -> Self {
        ThemisConfig {
            chunks_per_collective: Splitter::DEFAULT_CHUNKS_PER_COLLECTIVE,
            threshold_divisor: 16.0,
            intra_dim_policy: IntraDimPolicy::SmallestChunkFirst,
        }
    }
}

impl ThemisConfig {
    fn validate(&self) -> Result<(), ScheduleError> {
        if self.chunks_per_collective == 0 {
            return Err(ScheduleError::ZeroChunks);
        }
        if !self.threshold_divisor.is_finite() || self.threshold_divisor <= 0.0 {
            return Err(ScheduleError::InvalidConfig {
                reason: format!(
                    "threshold divisor must be positive, got {}",
                    self.threshold_divisor
                ),
            });
        }
        Ok(())
    }
}

/// The Themis collective chunk scheduler (Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ThemisScheduler {
    config: ThemisConfig,
    cost: CostModel,
}

impl ThemisScheduler {
    /// Creates a Themis scheduler with `chunks_per_collective` chunks and the
    /// paper's default threshold (`chunk_size / 16`) and intra-dimension
    /// policy (Smallest-Chunk-First).
    ///
    /// # Panics
    ///
    /// Panics if `chunks_per_collective` is zero; use
    /// [`ThemisScheduler::with_config`] for a fallible constructor.
    pub fn new(chunks_per_collective: usize) -> Self {
        let config = ThemisConfig {
            chunks_per_collective,
            ..ThemisConfig::default()
        };
        Self::with_config(config).expect("chunks_per_collective must be non-zero")
    }

    /// Creates a Themis scheduler from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid (zero chunks or a
    /// non-positive threshold divisor).
    pub fn with_config(config: ThemisConfig) -> Result<Self, ScheduleError> {
        config.validate()?;
        Ok(ThemisScheduler {
            config,
            cost: CostModel::new(),
        })
    }

    /// Replaces the intra-dimension policy (builder style).
    #[must_use]
    pub fn with_intra_dim_policy(mut self, policy: IntraDimPolicy) -> Self {
        self.config.intra_dim_policy = policy;
        self
    }

    /// Replaces the cost model (e.g. to enable in-network collective offload,
    /// Sec. 4.5).
    #[must_use]
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &ThemisConfig {
        &self.config
    }

    /// Initial per-dimension loads: the fixed delay `A_K` of the target
    /// collective type on each dimension (Sec. 4.4).
    fn initial_loads(
        &self,
        kind: CollectiveKind,
        topo: &NetworkTopology,
    ) -> Result<Vec<f64>, ScheduleError> {
        let model = LatencyModel::with_cost_model(topo, self.cost);
        let mut loads = vec![0.0; topo.num_dims()];
        for (dim, load) in loads.iter_mut().enumerate() {
            for phase in kind.phases() {
                *load += model.fixed_delay_ns(dim, *phase)?;
            }
        }
        Ok(loads)
    }

    /// `SCHEDULER.SCHEDULE` (Algorithm 1, lines 17–32): picks the dimension
    /// order for one chunk of a single-phase collective (`RS`, `AG` or `A2A`),
    /// updates the load tracker, and returns the order.
    fn schedule_phase(
        &self,
        phase: PhaseOp,
        chunk_bytes: f64,
        topo: &NetworkTopology,
        model: &LatencyModel<'_>,
        tracker: &mut DimLoadTracker,
    ) -> Result<Vec<usize>, ScheduleError> {
        let num_dims = topo.num_dims();
        let baseline_order: Vec<usize> = match phase {
            PhaseOp::ReduceScatter | PhaseOp::AllToAll => (0..num_dims).collect(),
            PhaseOp::AllGather => (0..num_dims).rev().collect(),
        };
        let least_loaded = tracker.least_loaded_dim().unwrap_or(0);
        let threshold = model.chunk_runtime_ns(
            least_loaded,
            phase,
            chunk_bytes / self.config.threshold_divisor,
        )?;
        let order = if tracker.load_gap() < threshold {
            // Robustness fallback (lines 19–21): when the dimensions are
            // already balanced, keep the baseline order so the lower-BW
            // dimensions are not oversubscribed.
            baseline_order
        } else {
            match phase {
                PhaseOp::ReduceScatter | PhaseOp::AllToAll => tracker.dims_by_ascending_load(),
                PhaseOp::AllGather => tracker.dims_by_descending_load(),
            }
        };
        let stages: Vec<StageOp> = order.iter().map(|&dim| StageOp::new(dim, phase)).collect();
        let new_load = model.loads_for_stages(chunk_bytes, &stages)?;
        tracker.add(&new_load)?;
        Ok(order)
    }

    /// `SCHEDULE_COLLECTIVE` (Algorithm 1, lines 1–16) for a single chunk.
    fn schedule_chunk(
        &self,
        kind: CollectiveKind,
        chunk_bytes: f64,
        topo: &NetworkTopology,
        model: &LatencyModel<'_>,
        tracker: &mut DimLoadTracker,
    ) -> Result<Vec<StageOp>, ScheduleError> {
        match kind {
            CollectiveKind::AllReduce => {
                let rs_order =
                    self.schedule_phase(PhaseOp::ReduceScatter, chunk_bytes, topo, model, tracker)?;
                // Line 8: the All-Gather order is the reverse of the chunk's
                // Reduce-Scatter order.
                let mut stages: Vec<StageOp> =
                    rs_order.iter().map(|&dim| StageOp::rs(dim)).collect();
                stages.extend(rs_order.iter().rev().map(|&dim| StageOp::ag(dim)));
                Ok(stages)
            }
            CollectiveKind::ReduceScatter => {
                let order =
                    self.schedule_phase(PhaseOp::ReduceScatter, chunk_bytes, topo, model, tracker)?;
                Ok(order.iter().map(|&dim| StageOp::rs(dim)).collect())
            }
            CollectiveKind::AllGather => {
                let order =
                    self.schedule_phase(PhaseOp::AllGather, chunk_bytes, topo, model, tracker)?;
                Ok(order.iter().map(|&dim| StageOp::ag(dim)).collect())
            }
            CollectiveKind::AllToAll => {
                // All-To-All chunks keep their size across stages, so the
                // traversal order does not affect per-dimension load; Themis
                // falls back to the baseline order (see also Sec. 5.2: DLRM's
                // All-To-All is overlapped with compute).
                let stages = baseline_stages(CollectiveKind::AllToAll, topo.num_dims());
                let new_load = model.loads_for_stages(chunk_bytes, &stages)?;
                tracker.add(&new_load)?;
                Ok(stages)
            }
        }
    }
}

impl Default for ThemisScheduler {
    fn default() -> Self {
        ThemisScheduler {
            config: ThemisConfig::default(),
            cost: CostModel::new(),
        }
    }
}

impl CollectiveScheduler for ThemisScheduler {
    fn name(&self) -> String {
        format!("Themis+{}", self.config.intra_dim_policy)
    }

    fn intra_dim_policy(&self) -> IntraDimPolicy {
        self.config.intra_dim_policy
    }

    fn schedule(
        &mut self,
        request: &CollectiveRequest,
        topo: &NetworkTopology,
    ) -> Result<CollectiveSchedule, ScheduleError> {
        let splitter = Splitter::new(self.config.chunks_per_collective)?;
        let chunk_sizes = splitter.split(request.size())?;
        self.schedule_presplit(request, topo, &chunk_sizes)
    }

    fn schedule_presplit(
        &mut self,
        request: &CollectiveRequest,
        topo: &NetworkTopology,
        chunk_bytes: &[f64],
    ) -> Result<CollectiveSchedule, ScheduleError> {
        let model = LatencyModel::with_cost_model(topo, self.cost);
        let mut tracker = DimLoadTracker::new(topo.num_dims());
        tracker.reset(self.initial_loads(request.kind(), topo)?);

        let mut chunks = Vec::with_capacity(chunk_bytes.len());
        for (chunk_index, &initial_bytes) in chunk_bytes.iter().enumerate() {
            let stages =
                self.schedule_chunk(request.kind(), initial_bytes, topo, &model, &mut tracker)?;
            chunks.push(ChunkSchedule {
                chunk_index,
                initial_bytes,
                stages,
            });
        }
        Ok(CollectiveSchedule::new(
            *request,
            self.name(),
            self.intra_dim_policy(),
            chunks,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::{DataSize, DimensionSpec, TopologyKind};

    /// The Fig. 5 / Fig. 7 running example: a 4×4 2D network where
    /// BW(dim1) = 2 × BW(dim2), with negligible step latency.
    fn fig5_topology() -> NetworkTopology {
        NetworkTopology::builder("fig5-4x4")
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 4, 800.0, 0.0)
                    .unwrap(),
            )
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 4, 400.0, 0.0)
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn reproduces_fig7_chunk_orders() {
        // 256 MB All-Reduce split into 4 × 64 MB chunks: chunk 1 follows the
        // baseline, chunk 2 starts its Reduce-Scatter on dim2 to fill the load
        // gap, chunks 3 and 4 start on dim1 again (Fig. 7, steps b–e).
        let topo = fig5_topology();
        let mut scheduler = ThemisScheduler::new(4);
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = scheduler.schedule(&request, &topo).unwrap();
        schedule.validate(&topo).unwrap();
        let rs_orders: Vec<Vec<usize>> = schedule
            .chunks()
            .iter()
            .map(ChunkSchedule::reduce_scatter_order)
            .collect();
        assert_eq!(
            rs_orders,
            vec![vec![0, 1], vec![1, 0], vec![0, 1], vec![0, 1]]
        );
        // The All-Gather order of every chunk is the reverse of its RS order.
        for chunk in schedule.chunks() {
            let rs = chunk.reduce_scatter_order();
            let mut ag = chunk.all_gather_order();
            ag.reverse();
            assert_eq!(rs, ag);
        }
    }

    #[test]
    fn balances_loads_better_than_baseline() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);

        let mut themis = ThemisScheduler::new(64);
        let themis_schedule = themis.schedule(&request, &topo).unwrap();
        let mut baseline = crate::BaselineScheduler::new(64);
        let baseline_schedule = baseline.schedule(&request, &topo).unwrap();

        let model = LatencyModel::new(&topo);
        let per_dim_time = |schedule: &CollectiveSchedule| -> Vec<f64> {
            let mut totals = vec![0.0; topo.num_dims()];
            for chunk in schedule.chunks() {
                let loads = model
                    .loads_for_stages(chunk.initial_bytes, &chunk.stages)
                    .unwrap();
                for (t, l) in totals.iter_mut().zip(loads) {
                    *t += l;
                }
            }
            totals
        };

        let themis_loads = per_dim_time(&themis_schedule);
        let baseline_loads = per_dim_time(&baseline_schedule);
        let gap = |loads: &[f64]| {
            loads.iter().cloned().fold(f64::MIN, f64::max)
                - loads.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            gap(&themis_loads) < gap(&baseline_loads) * 0.25,
            "Themis load gap {:.3e} should be far below baseline gap {:.3e}",
            gap(&themis_loads),
            gap(&baseline_loads)
        );
        // The bottleneck dimension's total load (which bounds the collective
        // time) must be lower under Themis.
        let max = |loads: &[f64]| loads.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max(&themis_loads) < max(&baseline_loads));
    }

    #[test]
    fn balanced_topology_first_chunk_uses_baseline_order() {
        // With all loads equal (A_K only) the robustness threshold keeps the
        // very first chunk on the baseline order.
        let topo = fig5_topology();
        let mut scheduler = ThemisScheduler::new(8);
        let schedule = scheduler
            .schedule(&CollectiveRequest::all_reduce_mib(64.0), &topo)
            .unwrap();
        assert_eq!(schedule.chunks()[0].reduce_scatter_order(), vec![0, 1]);
    }

    #[test]
    fn single_phase_collectives_are_scheduled() {
        let topo = fig5_topology();
        let mut scheduler = ThemisScheduler::new(8);
        for kind in [
            CollectiveKind::ReduceScatter,
            CollectiveKind::AllGather,
            CollectiveKind::AllToAll,
        ] {
            let request = CollectiveRequest::new(kind, DataSize::from_mib(64.0));
            let schedule = scheduler.schedule(&request, &topo).unwrap();
            schedule.validate(&topo).unwrap();
            assert_eq!(schedule.chunks().len(), 8);
            for chunk in schedule.chunks() {
                assert_eq!(chunk.stages.len(), kind.num_stages(topo.num_dims()));
            }
        }
    }

    #[test]
    fn config_validation() {
        assert!(ThemisScheduler::with_config(ThemisConfig {
            chunks_per_collective: 0,
            ..ThemisConfig::default()
        })
        .is_err());
        assert!(ThemisScheduler::with_config(ThemisConfig {
            threshold_divisor: 0.0,
            ..ThemisConfig::default()
        })
        .is_err());
        assert!(ThemisScheduler::with_config(ThemisConfig {
            threshold_divisor: f64::NAN,
            ..ThemisConfig::default()
        })
        .is_err());
        let default = ThemisScheduler::default();
        assert_eq!(default.config().chunks_per_collective, 64);
        assert_eq!(default.config().threshold_divisor, 16.0);
        assert_eq!(
            default.intra_dim_policy(),
            IntraDimPolicy::SmallestChunkFirst
        );
        assert_eq!(default.name(), "Themis+SCF");
        assert_eq!(
            ThemisScheduler::new(4)
                .with_intra_dim_policy(IntraDimPolicy::Fifo)
                .name(),
            "Themis+FIFO"
        );
    }

    #[test]
    fn schedules_are_deterministic_across_replicas() {
        // Sec. 4.6.1: every NPU running the same scheduler must produce the
        // same schedule. Two independent scheduler instances stand in for two
        // NPUs computing the schedule locally.
        let topo = themis_net::presets::PresetTopology::RingFcRingSw4d.build();
        let request = CollectiveRequest::all_reduce_mib(300.0);
        let a = ThemisScheduler::new(64).schedule(&request, &topo).unwrap();
        let b = ThemisScheduler::new(64).schedule(&request, &topo).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_preset_topologies_produce_valid_schedules() {
        let request = CollectiveRequest::all_reduce_mib(500.0);
        for preset in themis_net::presets::PresetTopology::all() {
            let topo = preset.build();
            let mut scheduler = ThemisScheduler::new(32);
            let schedule = scheduler.schedule(&request, &topo).unwrap();
            schedule.validate(&topo).unwrap();
        }
    }
}
