//! The Themis `Latency Model` component (Fig. 6).
//!
//! Predicts the runtime of a chunk phase op on a network dimension. Two
//! flavours are exposed:
//!
//! * [`LatencyModel::loads_for_stages`] — the per-dimension *load* the
//!   scheduler accounts (`calcLoads` of Algorithm 1): only the bandwidth
//!   term `n^i_K × B_K` (Sec. 4.4 notes that `N_K` only participates with
//!   `B_K`, so the load tracker accounts the bandwidth term and the fixed
//!   delay [`LatencyModel::fixed_delay_ns`], `A_K`, is added once at reset).
//! * [`LatencyModel::chunk_runtime_ns`] — the full runtime
//!   `A_K + n^i_K × B_K` of one op, used by the scheduler's threshold check
//!   ([`LatencyModel::runtimes_for_stages`] sums it per dimension).
//!
//! The model is a pure function of offline parameters (topology + collective
//! algorithm), so every NPU computing it locally produces identical values —
//! the basis of the inter-dimension schedule consistency of Sec. 4.6.1.

use crate::error::ScheduleError;
use crate::schedule::StageOp;
use themis_collectives::{CostModel, PhaseOp};
use themis_net::NetworkTopology;

/// Predicts per-chunk, per-dimension runtimes on a fixed topology.
#[derive(Debug, Clone)]
pub struct LatencyModel<'a> {
    topo: &'a NetworkTopology,
    cost: CostModel,
}

impl<'a> LatencyModel<'a> {
    /// Creates a latency model for `topo` without in-network offload.
    pub fn new(topo: &'a NetworkTopology) -> Self {
        LatencyModel {
            topo,
            cost: CostModel::new(),
        }
    }

    /// Creates a latency model with a custom cost model (e.g. with in-network
    /// collective offload enabled).
    pub fn with_cost_model(topo: &'a NetworkTopology, cost: CostModel) -> Self {
        LatencyModel { topo, cost }
    }

    /// The topology the model is bound to.
    pub fn topology(&self) -> &NetworkTopology {
        self.topo
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Full runtime (`A_K + n × B_K`) of running `op` on `dim` for a chunk of
    /// `chunk_bytes` at stage entry.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range dimension or invalid size.
    pub fn chunk_runtime_ns(
        &self,
        dim: usize,
        op: PhaseOp,
        chunk_bytes: f64,
    ) -> Result<f64, ScheduleError> {
        let spec = self.topo.dim(dim)?;
        let cost = self.cost.chunk_cost(spec, op, chunk_bytes)?;
        Ok(cost.total_ns())
    }

    /// Fixed delay `A_K` of one phase op on `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range dimension.
    pub fn fixed_delay_ns(&self, dim: usize, op: PhaseOp) -> Result<f64, ScheduleError> {
        let spec = self.topo.dim(dim)?;
        Ok(self.cost.fixed_delay_ns(spec, op))
    }

    /// Walks a chunk of `initial_bytes` through the ordered `stages` and
    /// returns the per-dimension *load* (bandwidth-term) contribution
    /// (`calcLoads` of Algorithm 1, lines 28–29).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range dimensions or invalid sizes.
    pub fn loads_for_stages(
        &self,
        initial_bytes: f64,
        stages: &[StageOp],
    ) -> Result<Vec<f64>, ScheduleError> {
        let mut loads = vec![0.0; self.topo.num_dims()];
        let mut current = initial_bytes;
        for stage in stages {
            let spec = self.topo.dim(stage.dim)?;
            let cost = self.cost.chunk_cost(spec, stage.op, current)?;
            loads[stage.dim] += cost.transfer_ns;
            current = cost.resident_bytes_after;
        }
        Ok(loads)
    }

    /// Walks a chunk through `stages` and returns the per-dimension *runtime*
    /// (fixed delay + bandwidth term) contribution.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range dimensions or invalid sizes.
    pub fn runtimes_for_stages(
        &self,
        initial_bytes: f64,
        stages: &[StageOp],
    ) -> Result<Vec<f64>, ScheduleError> {
        let mut runtimes = vec![0.0; self.topo.num_dims()];
        let mut current = initial_bytes;
        for stage in stages {
            let spec = self.topo.dim(stage.dim)?;
            let cost = self.cost.chunk_cost(spec, stage.op, current)?;
            runtimes[stage.dim] += cost.total_ns();
            current = cost.resident_bytes_after;
        }
        Ok(runtimes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::{DimensionSpec, TopologyKind};

    fn topo_4x4_2to1() -> NetworkTopology {
        // The Fig. 5 network: 4×4, BW(dim1) = 2 × BW(dim2), zero latency.
        NetworkTopology::builder("fig5")
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
    fn load_excludes_fixed_delay_and_runtime_includes_it() {
        let topo = NetworkTopology::builder("latency")
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 8, 400.0, 700.0)
                    .unwrap(),
            )
            .build()
            .unwrap();
        let model = LatencyModel::new(&topo);
        let load = model.loads_for_stages(1e6, &[StageOp::rs(0)]).unwrap()[0];
        let runtime = model
            .chunk_runtime_ns(0, PhaseOp::ReduceScatter, 1e6)
            .unwrap();
        let fixed = model.fixed_delay_ns(0, PhaseOp::ReduceScatter).unwrap();
        assert!((runtime - load - fixed).abs() < 1e-9);
        assert_eq!(fixed, 3.0 * 700.0);
    }

    #[test]
    fn baseline_stage_loads_match_fig5_ratios() {
        // Fig. 5 baseline schedule: stage loads on dim1 and dim2 differ by 2×
        // per chunk leg (1 + 1 on dim1 vs 0.5 + 0.5 on dim2).
        let topo = topo_4x4_2to1();
        let model = LatencyModel::new(&topo);
        let mb = 1024.0 * 1024.0;
        let stages = vec![
            StageOp::rs(0),
            StageOp::rs(1),
            StageOp::ag(1),
            StageOp::ag(0),
        ];
        let loads = model.loads_for_stages(64.0 * mb, &stages).unwrap();
        assert!((loads[0] / loads[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn reversed_schedule_shifts_load_to_dim2() {
        let topo = topo_4x4_2to1();
        let model = LatencyModel::new(&topo);
        let mb = 1024.0 * 1024.0;
        let reversed = vec![
            StageOp::rs(1),
            StageOp::rs(0),
            StageOp::ag(0),
            StageOp::ag(1),
        ];
        let loads = model.loads_for_stages(64.0 * mb, &reversed).unwrap();
        // Now dim2 sees the 64 MB leg at half the bandwidth while dim1 only
        // sees the shrunken 16 MB leg: dim2's load is 8× dim1's.
        assert!(loads[1] > loads[0]);
        assert!((loads[1] / loads[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn runtimes_are_at_least_loads() {
        let topo = topo_4x4_2to1();
        let model = LatencyModel::new(&topo);
        let stages = vec![
            StageOp::rs(0),
            StageOp::rs(1),
            StageOp::ag(1),
            StageOp::ag(0),
        ];
        let loads = model.loads_for_stages(1e8, &stages).unwrap();
        let runtimes = model.runtimes_for_stages(1e8, &stages).unwrap();
        for (load, runtime) in loads.iter().zip(runtimes.iter()) {
            assert!(runtime >= load);
        }
    }

    #[test]
    fn out_of_range_dimension_is_an_error() {
        let topo = topo_4x4_2to1();
        let model = LatencyModel::new(&topo);
        assert!(model.chunk_runtime_ns(5, PhaseOp::AllGather, 1.0).is_err());
        assert!(model.fixed_delay_ns(9, PhaseOp::AllGather).is_err());
    }
}
