//! Convenience wrapper: schedule *and* simulate a collective in one call.

use crate::error::SimError;
use crate::options::SimOptions;
use crate::pipeline::PipelineSimulator;
use crate::stats::SimReport;
use crate::workspace::SimWorkspace;
use themis_core::{CollectiveRequest, CollectiveScheduler, SchedulerKind, SimPlanCache};
use themis_net::NetworkTopology;

/// Schedules and simulates collectives on a fixed topology.
#[derive(Debug, Clone)]
pub struct CollectiveExecutor<'a> {
    topo: &'a NetworkTopology,
    options: SimOptions,
}

impl<'a> CollectiveExecutor<'a> {
    /// Creates an executor for `topo` with default simulation options.
    pub fn new(topo: &'a NetworkTopology) -> Self {
        CollectiveExecutor {
            topo,
            options: SimOptions::default(),
        }
    }

    /// Replaces the simulation options.
    #[must_use]
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// The topology the executor runs on.
    pub fn topology(&self) -> &NetworkTopology {
        self.topo
    }

    /// Schedules `request` with `scheduler` and simulates the resulting
    /// schedule.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    pub fn run(
        &self,
        scheduler: &mut dyn CollectiveScheduler,
        request: &CollectiveRequest,
    ) -> Result<SimReport, SimError> {
        // Faults active at t = 0 are static asymmetry the scheduler sees
        // (see `FaultPlan::initial_topology`); later events stay invisible.
        let initial = self.options.faults.initial_topology(self.topo)?;
        let schedule = scheduler.schedule(request, initial.as_ref().unwrap_or(self.topo))?;
        PipelineSimulator::new(self.topo, self.options.clone()).run(&schedule)
    }

    /// Runs `request` under one of the Table 3 scheduler configurations with
    /// the given chunk granularity.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    pub fn run_kind(
        &self,
        kind: SchedulerKind,
        chunks_per_collective: usize,
        request: &CollectiveRequest,
    ) -> Result<SimReport, SimError> {
        let mut scheduler = kind.build(chunks_per_collective);
        self.run(scheduler.as_mut(), request)
    }

    /// Like [`CollectiveExecutor::run_kind`], but scheduling through a shared
    /// [`SimPlanCache`]: the schedule, the splitter output (shared across
    /// scheduler kinds), the per-op cost table and any fault-epoch cost
    /// tables are all served from the plan when warm. Bit-identical to the
    /// uncached path.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    pub fn run_kind_planned(
        &self,
        kind: SchedulerKind,
        chunks_per_collective: usize,
        request: &CollectiveRequest,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<SimReport, SimError> {
        let initial = self.options.faults.initial_topology(self.topo)?;
        let schedule = plan.schedules().get_or_schedule(
            initial.as_ref().unwrap_or(self.topo),
            request,
            chunks_per_collective,
            kind,
        )?;
        let simulator = PipelineSimulator::new(self.topo, self.options.clone());
        let table =
            plan.cost_tables()
                .get_or_build(self.topo, simulator.cost_model(), &schedule)?;
        simulator.run_planned(&schedule, &table, workspace, Some(plan.cost_tables()))
    }

    /// Runs `request` under all three Table 3 scheduler configurations and
    /// returns the reports in `[Baseline, Themis+FIFO, Themis+SCF]` order.
    ///
    /// The kinds share one [`SimPlanCache`]: the chunk split is computed once
    /// (via `CollectiveScheduler::schedule_presplit`) instead of once per
    /// scheduler, and the two Themis variants share one cost table. Reports
    /// are bit-identical to scheduling each kind from scratch.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    pub fn run_all_kinds(
        &self,
        chunks_per_collective: usize,
        request: &CollectiveRequest,
    ) -> Result<Vec<SimReport>, SimError> {
        let plan = SimPlanCache::new();
        let mut workspace = SimWorkspace::new();
        SchedulerKind::all()
            .iter()
            .map(|kind| {
                self.run_kind_planned(*kind, chunks_per_collective, request, &plan, &mut workspace)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::BaselineScheduler;
    use themis_net::presets::PresetTopology;

    #[test]
    fn run_all_kinds_orders_match_table3() {
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let executor = CollectiveExecutor::new(&topo);
        // Use a large, bandwidth-bound collective (as in Fig. 8) so both
        // Themis variants clearly beat the baseline.
        let request = CollectiveRequest::all_reduce_mib(1024.0);
        let reports = executor.run_all_kinds(32, &request).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].scheduler_name, "Baseline");
        assert_eq!(reports[1].scheduler_name, "Themis+FIFO");
        assert_eq!(reports[2].scheduler_name, "Themis+SCF");
        // Themis variants beat the baseline on this over-provisioned topology.
        assert!(reports[1].total_time_ns < reports[0].total_time_ns);
        assert!(reports[2].total_time_ns < reports[0].total_time_ns);
    }

    #[test]
    fn run_all_kinds_matches_per_kind_scheduling_bit_for_bit() {
        // The shared-plan path (pre-split reuse + cost-table sharing) must not
        // change a single bit of any report.
        let topo = PresetTopology::FcRingSw3d.build();
        let executor = CollectiveExecutor::new(&topo);
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let shared = executor.run_all_kinds(16, &request).unwrap();
        for (report, kind) in shared.iter().zip(themis_core::SchedulerKind::all()) {
            let direct = executor.run_kind(kind, 16, &request).unwrap();
            assert_eq!(*report, direct, "{kind}");
        }
    }

    #[test]
    fn run_kind_planned_hits_a_warm_plan() {
        let topo = PresetTopology::Sw2d.build();
        let executor = CollectiveExecutor::new(&topo);
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let plan = SimPlanCache::new();
        let mut ws = SimWorkspace::new();
        let first = executor
            .run_kind_planned(SchedulerKind::ThemisScf, 8, &request, &plan, &mut ws)
            .unwrap();
        let second = executor
            .run_kind_planned(SchedulerKind::ThemisScf, 8, &request, &plan, &mut ws)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(plan.schedules().hits(), 1);
        assert_eq!(plan.cost_tables().hits(), 1);
    }

    #[test]
    fn faulted_planned_runs_serve_epoch_tables_from_the_plan() {
        use crate::faults::FaultPlan;
        let topo = PresetTopology::Sw2d.build();
        let faults = FaultPlan::new()
            .degrade(5_000.0, 0, 0.5)
            .degrade(20_000.0, 1, 0.25);
        let executor =
            CollectiveExecutor::new(&topo).with_options(SimOptions::default().with_faults(faults));
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let plan = SimPlanCache::new();
        let mut ws = SimWorkspace::new();
        let first = executor
            .run_kind_planned(SchedulerKind::ThemisScf, 8, &request, &plan, &mut ws)
            .unwrap();
        // The base table plus one table per degraded epoch.
        assert_eq!(plan.cost_tables().len(), 3);
        let misses = plan.cost_tables().misses();
        let second = executor
            .run_kind_planned(SchedulerKind::ThemisScf, 8, &request, &plan, &mut ws)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(
            plan.cost_tables().misses(),
            misses,
            "a warm plan must serve every epoch table"
        );
    }

    #[test]
    fn custom_options_are_used() {
        let topo = PresetTopology::Sw2d.build();
        let executor = CollectiveExecutor::new(&topo)
            .with_options(SimOptions::default().with_enforced_order(true));
        assert!(executor.options.enforce_intra_dim_order);
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let report = executor
            .run(&mut BaselineScheduler::new(8), &request)
            .unwrap();
        assert!(report.total_time_ns > 0.0);
        assert_eq!(executor.topology().name(), "2D-SW_SW");
    }
}
