//! The chunk-pipeline simulator.
//!
//! Executes a [`CollectiveSchedule`] on a multi-dimensional network. Every
//! dimension is modelled as a channel that executes chunk phase operations
//! using the `A_K + n × B_K` cost model; a chunk becomes ready on the next
//! dimension of its schedule the moment its current stage completes. The
//! simulator reproduces the pipeline behaviour of Fig. 5, including the idle
//! (bubble) time that appears on over-provisioned dimensions under the
//! baseline scheduling.
//!
//! A single collective is the one-entry case of a stream issued at t = 0, so
//! the simulator owns no event loop: it validates its inputs and runs the
//! single-collective instantiation of the stream engine's loop
//! ([`crate::stream`]), in the single-run frame — t = 0 is the origin and
//! `total_time_ns` is the finish time, even when every first-stage dimension
//! is blocked at t = 0 (a stream span would start at its first issue).

use crate::error::SimError;
use crate::options::SimOptions;
use crate::stats::SimReport;
use crate::stream::engine::Engine;
use crate::workspace::SimWorkspace;
use std::sync::Arc;
use themis_collectives::CostModel;
use themis_core::plan::{CostTable, CostTableCache};
use themis_core::{
    CollectiveRequest, CollectiveSchedule, IntraDimPolicy, ScheduleError, SchedulerKind,
    SimPlanCache,
};
use themis_net::NetworkTopology;

/// Simulates the execution of collective schedules on a fixed topology.
#[derive(Debug, Clone)]
pub struct PipelineSimulator<'a> {
    topo: &'a NetworkTopology,
    options: SimOptions,
    cost: CostModel,
}

impl<'a> PipelineSimulator<'a> {
    /// Creates a simulator for `topo` with the given options.
    pub fn new(topo: &'a NetworkTopology, options: SimOptions) -> Self {
        PipelineSimulator {
            topo,
            options,
            cost: CostModel::new(),
        }
    }

    /// The topology this simulator executes on.
    pub fn topology(&self) -> &NetworkTopology {
        self.topo
    }

    /// The simulation options.
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    /// The cost model ops are priced with.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Executes `schedule` and returns the simulation report.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the options or schedule are invalid, or if the
    /// simulation fails to make progress.
    pub fn run(&self, schedule: &CollectiveSchedule) -> Result<SimReport, SimError> {
        let table = CostTable::build(self.topo, &self.cost, schedule)?;
        self.run_inner(schedule, &table, &mut SimWorkspace::new(), None, None)
    }

    /// Executes `schedule` against the shared [`Arc`]s a [`SimPlanCache`]
    /// serves: a pre-computed [`CostTable`]
    /// (the cost model is not re-evaluated), the caller's [`SimWorkspace`]
    /// scratch, and `plan_cache` for any fault-epoch cost tables
    /// ([`SimOptions::faults`]), so repeated cells price each fault epoch
    /// once. The `Arc` identities let the workspace memoise the run's flat
    /// op arrays, so a repeated cell skips that build entirely.
    /// Bit-identical to [`PipelineSimulator::run`] when `table` was built for
    /// this `(schedule, topology, cost model)` triple: table and matrix
    /// construction are deterministic, cached or not.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the options, the fault plan or the schedule
    /// are invalid, the table's shape does not match the schedule, or the
    /// simulation fails to make progress.
    pub fn run_planned(
        &self,
        schedule: &Arc<CollectiveSchedule>,
        table: &Arc<CostTable>,
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<SimReport, SimError> {
        self.run_inner(
            schedule,
            table,
            workspace,
            plan_cache,
            Some((schedule, table)),
        )
    }

    /// Schedules `request` under one of the Table 3 scheduler configurations
    /// with `chunks` chunks and simulates the schedule: the plain path every
    /// cached path is compared against.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::ZeroChunks`] for a zero chunk count, and
    /// propagates scheduling and simulation errors.
    pub fn run_kind(
        &self,
        kind: SchedulerKind,
        chunks: usize,
        request: &CollectiveRequest,
    ) -> Result<SimReport, SimError> {
        // `SchedulerKind::build` uses the infallible constructors, which
        // panic on a zero chunk count.
        if chunks == 0 {
            return Err(ScheduleError::ZeroChunks.into());
        }
        // Faults active at t = 0 are static asymmetry the scheduler sees
        // (see `FaultPlan::initial_topology`); later events stay invisible.
        let initial = self.options.faults.initial_topology(self.topo)?;
        let schedule = kind
            .build(chunks)
            .schedule(request, initial.as_ref().unwrap_or(self.topo))?;
        self.run(&schedule)
    }

    /// Like [`PipelineSimulator::run_kind`], but served through a shared
    /// [`SimPlanCache`]: the schedule, the per-op cost table and any
    /// fault-epoch cost tables come from the plan when warm, and the
    /// event-loop state from the caller's reusable [`SimWorkspace`]. The
    /// schedule and cost-table lookups are timed as the workspace's
    /// `phase.schedule_ns` and `phase.cost_precompute_ns` spans.
    /// Bit-identical to [`PipelineSimulator::run_kind`].
    ///
    /// # Errors
    ///
    /// Same contract as [`PipelineSimulator::run_kind`] (the plan's
    /// [`themis_core::ScheduleCache`] refuses a zero chunk count).
    pub fn run_kind_planned(
        &self,
        kind: SchedulerKind,
        chunks: usize,
        request: &CollectiveRequest,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<SimReport, SimError> {
        let schedule = {
            let _span = workspace.phase_schedule_span();
            let initial = self.options.faults.initial_topology(self.topo)?;
            plan.schedules().get_or_schedule(
                initial.as_ref().unwrap_or(self.topo),
                request,
                chunks,
                kind,
            )?
        };
        let table = {
            let _span = workspace.phase_cost_span();
            plan.cost_tables()
                .get_or_build(self.topo, &self.cost, &schedule)?
        };
        self.run_planned(&schedule, &table, workspace, Some(plan.cost_tables()))
    }

    fn run_inner(
        &self,
        schedule: &CollectiveSchedule,
        table: &CostTable,
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
        shared: Option<(&Arc<CollectiveSchedule>, &Arc<CostTable>)>,
    ) -> Result<SimReport, SimError> {
        self.options.validate()?;
        // Plan-served runs revalidate only on first sight: both entry checks
        // are pure functions of the schedule contents, the table shape and
        // the dimension count, so one pass per `(schedule, table)` identity
        // covers every later run (see [`soa::MatrixMemo`]).
        let prevalidated = shared.is_some_and(|(schedule_arc, table_arc)| {
            workspace
                .matrix_memo
                .is_validated(schedule_arc, table_arc, self.topo.num_dims())
        });
        if !prevalidated {
            schedule.validate(self.topo)?;
            if !table.matches(schedule) {
                return Err(SimError::InvalidOptions {
                    reason: format!(
                        "cost table shape ({} chunks / {} ops) does not match the schedule \
                         ({} chunks)",
                        table.num_chunks(),
                        table.num_ops(),
                        schedule.chunks().len()
                    ),
                });
            }
            if let Some((schedule_arc, table_arc)) = shared {
                workspace
                    .matrix_memo
                    .mark_validated(schedule_arc, table_arc, self.topo.num_dims());
            }
        }
        // The loop compiles the fault plan with this simulator's cost model;
        // an empty plan compiles to nothing and the loop walks its exact
        // fault-free float path.
        Engine {
            topo: self.topo,
            options: &self.options,
            cost: &self.cost,
        }
        .run_single(schedule, table, shared, workspace, plan_cache)
    }

    /// Executes `schedule` with both intra-dimension policies and returns the
    /// reports side by side (convenience for the Fig. 8 / Fig. 11 sweeps).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from the individual runs.
    pub fn run_with_policy(
        &self,
        schedule: &CollectiveSchedule,
        policy: IntraDimPolicy,
    ) -> Result<SimReport, SimError> {
        let overridden = CollectiveSchedule::new(
            *schedule.request(),
            schedule.scheduler_name(),
            policy,
            schedule.chunks().to_vec(),
        );
        self.run(&overridden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::{
        BaselineScheduler, CollectiveRequest, CollectiveScheduler, IdealEstimator, ThemisScheduler,
    };
    use themis_net::presets::PresetTopology;
    use themis_net::{DimensionSpec, TopologyKind};

    /// The Fig. 5 network: 4×4, BW(dim1) = 2 × BW(dim2), zero latency.
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

    fn run(
        scheduler: &mut dyn CollectiveScheduler,
        topo: &NetworkTopology,
        request: &CollectiveRequest,
        options: SimOptions,
    ) -> SimReport {
        let schedule = scheduler.schedule(request, topo).unwrap();
        PipelineSimulator::new(topo, options)
            .run(&schedule)
            .unwrap()
    }

    #[test]
    fn fig5_baseline_takes_eight_units_and_themis_seven() {
        // Fig. 5: with 4 × 64 MB chunks, the baseline pipeline finishes after
        // 8 "units" (one unit = 64 MB RS on dim1) while Themis finishes in 7.
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let unit_ns = {
            // 48 MB at 100 bytes/ns.
            48.0 * 1024.0 * 1024.0 / 100.0
        };

        let baseline = run(
            &mut BaselineScheduler::new(4),
            &topo,
            &request,
            SimOptions::default(),
        );
        assert!(
            (baseline.total_time_ns / unit_ns - 8.0).abs() < 0.05,
            "baseline took {:.2} units",
            baseline.total_time_ns / unit_ns
        );

        let themis = run(
            &mut ThemisScheduler::new(4),
            &topo,
            &request,
            SimOptions::default(),
        );
        assert!(
            (themis.total_time_ns / unit_ns - 7.0).abs() < 0.05,
            "Themis took {:.2} units",
            themis.total_time_ns / unit_ns
        );
        assert!(themis.speedup_over(&baseline) > 1.1);
    }

    #[test]
    fn themis_beats_baseline_on_all_next_gen_topologies() {
        let request = CollectiveRequest::all_reduce_mib(500.0);
        for preset in PresetTopology::next_generation() {
            let topo = preset.build();
            let baseline = run(
                &mut BaselineScheduler::new(64),
                &topo,
                &request,
                SimOptions::default(),
            );
            let themis = run(
                &mut ThemisScheduler::new(64),
                &topo,
                &request,
                SimOptions::default(),
            );
            assert!(
                themis.total_time_ns <= baseline.total_time_ns * 1.001,
                "{}: Themis {:.0} ns vs baseline {:.0} ns",
                preset.name(),
                themis.total_time_ns,
                baseline.total_time_ns
            );
            assert!(themis.average_bw_utilization() >= baseline.average_bw_utilization() - 1e-9);
        }
    }

    #[test]
    fn no_schedule_beats_the_ideal_bound() {
        let request = CollectiveRequest::all_reduce_mib(512.0);
        let ideal = IdealEstimator::new();
        for preset in PresetTopology::all() {
            let topo = preset.build();
            let bound = ideal.communication_time_ns(&request, &topo).unwrap();
            for chunks in [8usize, 64] {
                let themis = run(
                    &mut ThemisScheduler::new(chunks),
                    &topo,
                    &request,
                    SimOptions::default(),
                );
                assert!(
                    themis.total_time_ns >= bound * 0.999,
                    "{}: Themis {:.0} ns beat the ideal bound {:.0} ns",
                    preset.name(),
                    themis.total_time_ns,
                    bound
                );
            }
        }
    }

    #[test]
    fn utilization_is_within_bounds_and_improves_with_themis() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let request = CollectiveRequest::all_reduce_mib(1024.0);
        let baseline = run(
            &mut BaselineScheduler::new(64),
            &topo,
            &request,
            SimOptions::default(),
        );
        let themis = run(
            &mut ThemisScheduler::new(64),
            &topo,
            &request,
            SimOptions::default(),
        );
        for report in [&baseline, &themis] {
            for util in report.per_dim_utilization() {
                assert!((0.0..=1.0).contains(&util));
            }
        }
        assert!(baseline.average_bw_utilization() < 0.75);
        assert!(themis.average_bw_utilization() > baseline.average_bw_utilization() + 0.15);
    }

    #[test]
    fn wire_bytes_match_schedule_prediction() {
        let topo = PresetTopology::FcRingSw3d.build();
        let request = CollectiveRequest::all_reduce_mib(128.0);
        let schedule = ThemisScheduler::new(16).schedule(&request, &topo).unwrap();
        let report = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        let predicted = schedule.wire_bytes_per_dim(&topo);
        for (dim, expected) in predicted.iter().enumerate() {
            assert!(
                (report.dims[dim].wire_bytes - expected).abs() < 1.0,
                "dim {dim}: {} vs {}",
                report.dims[dim].wire_bytes,
                expected
            );
        }
    }

    #[test]
    fn enforced_order_does_not_change_results_for_deterministic_runs() {
        // The enforced order is the one a healthy concurrency-1 run takes,
        // so enforcing it on such a run changes no bit of the report, op
        // log included. On the 4D cell, dim 2 starts two 35.84 ns ops whose
        // predecessors end at the same instant: a tie the order must keep.
        use PresetTopology::{RingSwSwSw4d, SwSwSw3dHetero};
        use SchedulerKind::{Baseline, ThemisScf};
        for (preset, kind, mib, chunks) in [
            (SwSwSw3dHetero, ThemisScf, 256.0, 32),
            (RingSwSwSw4d, Baseline, 64.0, 1024),
        ] {
            let topo = preset.build();
            let request = CollectiveRequest::all_reduce_mib(mib);
            let plain = PipelineSimulator::new(&topo, SimOptions::default())
                .run_kind(kind, chunks, &request)
                .unwrap();
            let enforced =
                PipelineSimulator::new(&topo, SimOptions::default().with_enforced_order(true))
                    .run_kind(kind, chunks, &request)
                    .unwrap();
            assert!(!plain.op_log.is_empty());
            assert_eq!(enforced, plain, "{} {kind}", preset.name());
        }
    }

    #[test]
    fn enforced_runs_are_linear_in_chunks() {
        // Enforcing the order costs one more healthy run of the loop, so an
        // enforced run takes about twice a plain one at any chunk count.
        use std::time::{Duration, Instant};
        let topo = PresetTopology::Sw2d.build();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let plain = PipelineSimulator::new(&topo, SimOptions::default());
        let enforced =
            PipelineSimulator::new(&topo, SimOptions::default().with_enforced_order(true));
        for kind in [SchedulerKind::Baseline, SchedulerKind::ThemisScf] {
            let mut best = [Duration::MAX; 2];
            for _ in 0..3 {
                for (sim, best) in [&plain, &enforced].into_iter().zip(&mut best) {
                    let started = Instant::now();
                    sim.run_kind(kind, 4096, &request).unwrap();
                    *best = (*best).min(started.elapsed());
                }
            }
            let [plain_best, enforced_best] = best;
            assert!(
                enforced_best <= plain_best * 5,
                "{kind}: enforced {enforced_best:?} vs plain {plain_best:?}"
            );
        }
    }

    #[test]
    fn processor_sharing_concurrency_does_not_lose_work() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(8).schedule(&request, &topo).unwrap();
        let serial = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        let shared =
            PipelineSimulator::new(&topo, SimOptions::default().with_max_concurrent_ops(4))
                .run(&schedule)
                .unwrap();
        // The same bytes move in both configurations, and the completion time
        // stays in the same ballpark (processor sharing reorders completions
        // but does not change any dimension's aggregate work).
        assert!((serial.total_wire_bytes() - shared.total_wire_bytes()).abs() < 1.0);
        assert!(shared.total_time_ns >= serial.total_time_ns * 0.7);
        assert!(shared.total_time_ns <= serial.total_time_ns * 1.5);
    }

    #[test]
    fn activity_timeline_shows_baseline_dim_underutilization() {
        // Fig. 9's qualitative claim: under the baseline, the outer dimensions
        // of 3D-SW_SW_SW_homo are active far less than dim 1.
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let request = CollectiveRequest::all_reduce_mib(1024.0);
        let baseline = run(
            &mut BaselineScheduler::new(64),
            &topo,
            &request,
            SimOptions::default(),
        );
        let busy_fraction: Vec<f64> = baseline
            .dims
            .iter()
            .map(|d| d.busy_ns / baseline.total_time_ns)
            .collect();
        assert!(busy_fraction[0] > 0.9);
        assert!(busy_fraction[1] < 0.6);
        assert!(busy_fraction[2] < 0.4);
        // Activity rates are well-formed.
        for rates in baseline.activity_rates() {
            for r in rates {
                assert!((0.0..=1.0 + 1e-9).contains(&r));
            }
        }
    }

    #[test]
    fn op_trace_covers_every_chunk_stage_without_overlap() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(4).schedule(&request, &topo).unwrap();
        let report = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        // 4 chunks x 4 stages.
        assert_eq!(report.op_log.len(), 16);
        for op in &report.op_log {
            assert!(op.end_ns > op.start_ns);
            assert!(op.end_ns <= report.total_time_ns + 1.0);
        }
        // With one op at a time per dimension, ops on the same dimension never
        // overlap.
        for dim in 0..report.num_dims() {
            let ops = report.ops_on_dim(dim);
            for pair in ops.windows(2) {
                assert!(pair[1].start_ns >= pair[0].end_ns - 1e-6);
            }
        }
        // The ASCII timeline has one lane per dimension.
        let timeline = report.ascii_timeline(64);
        assert_eq!(timeline.lines().count(), 2);
        assert!(timeline.contains('#'));
    }

    #[test]
    fn op_log_gate_skips_the_trace_without_changing_results() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(8).schedule(&request, &topo).unwrap();
        let with_log = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        let without_log = PipelineSimulator::new(&topo, SimOptions::default().with_op_log(false))
            .run(&schedule)
            .unwrap();
        assert!(!with_log.op_log.is_empty());
        assert!(without_log.op_log.is_empty());
        // Everything except the trace is bit-identical.
        assert_eq!(
            with_log.total_time_ns.to_bits(),
            without_log.total_time_ns.to_bits()
        );
        assert_eq!(with_log.dims, without_log.dims);
    }

    #[test]
    fn bandwidth_degradation_slows_the_run_monotonically() {
        use crate::faults::FaultPlan;
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(8).schedule(&request, &topo).unwrap();
        let healthy = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        let mut last = healthy.total_time_ns;
        for factor in [0.75, 0.5, 0.25] {
            let faults = FaultPlan::new().degrade(healthy.total_time_ns * 0.3, 0, factor);
            let degraded = PipelineSimulator::new(&topo, SimOptions::default().with_faults(faults))
                .run(&schedule)
                .unwrap();
            assert!(
                degraded.total_time_ns >= last - 1e-6,
                "factor {factor}: {} < {}",
                degraded.total_time_ns,
                last
            );
            // The same bytes cross every dimension regardless of the fault.
            assert!((degraded.total_wire_bytes() - healthy.total_wire_bytes()).abs() < 1.0);
            last = degraded.total_time_ns;
        }
        assert!(last > healthy.total_time_ns);
    }

    #[test]
    fn failure_blocks_issuance_until_recovery() {
        use crate::faults::FaultPlan;
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(8).schedule(&request, &topo).unwrap();
        let healthy = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        // Fail dim 0 outright from t = 0; recover it late. No dim-0 op can
        // start before the recovery, so the run finishes after it.
        let recover_at = healthy.total_time_ns * 2.0;
        let faults = FaultPlan::new().fail(0.0, 0).recover(recover_at, 0);
        let report = PipelineSimulator::new(&topo, SimOptions::default().with_faults(faults))
            .run(&schedule)
            .unwrap();
        assert!(report.total_time_ns > recover_at);
        assert!((report.total_wire_bytes() - healthy.total_wire_bytes()).abs() < 1.0);
        for op in report.ops_on_dim(0) {
            assert!(op.start_ns >= recover_at - 1e-6);
        }
    }

    #[test]
    fn single_run_frame_starts_at_zero_when_every_first_stage_is_blocked() {
        use crate::faults::FaultPlan;
        use crate::stream::{StreamEntry, StreamSimulator};
        // Every Baseline All-Reduce chunk starts with a Reduce-Scatter on
        // dim 0, so failing dim 0 at t = 0 blocks every first stage.
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let schedule = BaselineScheduler::new(8).schedule(&request, &topo).unwrap();
        let healthy = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        let recover_at = healthy.total_time_ns * 0.5;
        let options =
            SimOptions::default().with_faults(FaultPlan::new().fail(0.0, 0).recover(recover_at, 0));
        let report = PipelineSimulator::new(&topo, options.clone())
            .run(&schedule)
            .unwrap();
        // t = 0 stays the origin: the blocked prefix counts towards the
        // makespan and the op log keeps absolute times.
        assert!(report.total_time_ns > recover_at);
        assert!(!report.op_log.is_empty());
        for op in &report.op_log {
            assert!(op.start_ns >= recover_at, "{op:?} starts before recovery");
        }
        // A stream span of the same collective is shifted to its first
        // issue instead.
        let stream = StreamSimulator::new(&topo, options)
            .run(
                &mut BaselineScheduler::new(8),
                &[StreamEntry::new("only", 0.0, request)],
            )
            .unwrap();
        let span = &stream.spans[0];
        assert!(span.start_ns >= recover_at);
        assert!(span.report.total_time_ns < report.total_time_ns);
        assert!((span.report.total_time_ns + span.start_ns - report.total_time_ns).abs() < 1e-3);
    }

    #[test]
    fn a_schedule_without_chunks_finishes_at_zero() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let schedule = CollectiveSchedule::new(request, "empty", IntraDimPolicy::Fifo, Vec::new());
        let report = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        assert_eq!(report.total_time_ns, 0.0);
        assert!(report.op_log.is_empty());
    }

    #[test]
    fn permanent_failure_stalls_the_simulation() {
        use crate::faults::FaultPlan;
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(8).schedule(&request, &topo).unwrap();
        let faults = FaultPlan::new().fail(0.0, 0);
        let err = PipelineSimulator::new(&topo, SimOptions::default().with_faults(faults))
            .run(&schedule)
            .unwrap_err();
        assert!(matches!(err, SimError::Stalled { .. }));
    }

    #[test]
    fn malformed_fault_plans_are_rejected() {
        use crate::faults::FaultPlan;
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let schedule = ThemisScheduler::new(4).schedule(&request, &topo).unwrap();
        // Dimension out of range for the topology.
        let faults = FaultPlan::new().degrade(0.0, 9, 0.5);
        let err = PipelineSimulator::new(&topo, SimOptions::default().with_faults(faults))
            .run(&schedule)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidOptions { .. }));
    }

    #[test]
    fn invalid_options_are_rejected() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let schedule = BaselineScheduler::new(4).schedule(&request, &topo).unwrap();
        let sim = PipelineSimulator::new(&topo, SimOptions::default().with_max_concurrent_ops(0));
        assert!(matches!(
            sim.run(&schedule),
            Err(SimError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn schedule_for_wrong_topology_is_rejected() {
        let topo2d = fig5_topology();
        let topo3d = PresetTopology::SwSwSw3dHomo.build();
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let schedule = BaselineScheduler::new(4)
            .schedule(&request, &topo3d)
            .unwrap();
        let sim = PipelineSimulator::new(&topo2d, SimOptions::default());
        assert!(sim.run(&schedule).is_err());
    }

    #[test]
    fn run_with_policy_overrides_intra_dim_policy() {
        let topo = PresetTopology::RingFcRingSw4d.build();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(64).schedule(&request, &topo).unwrap();
        let sim = PipelineSimulator::new(&topo, SimOptions::default());
        let fifo = sim
            .run_with_policy(&schedule, IntraDimPolicy::Fifo)
            .unwrap();
        let scf = sim
            .run_with_policy(&schedule, IntraDimPolicy::SmallestChunkFirst)
            .unwrap();
        // SCF should never be slower than FIFO by more than noise (Sec. 4.3).
        assert!(scf.total_time_ns <= fifo.total_time_ns * 1.05);
    }

    #[test]
    fn run_kind_planned_orders_match_table3() {
        // Use a large, bandwidth-bound collective (as in Fig. 8) so both
        // Themis variants clearly beat the baseline.
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let sim = PipelineSimulator::new(&topo, SimOptions::default());
        let request = CollectiveRequest::all_reduce_mib(1024.0);
        let plan = SimPlanCache::new();
        let mut ws = SimWorkspace::new();
        let reports: Vec<SimReport> = SchedulerKind::all()
            .into_iter()
            .map(|kind| {
                sim.run_kind_planned(kind, 32, &request, &plan, &mut ws)
                    .unwrap()
            })
            .collect();
        let names: Vec<&str> = reports.iter().map(|r| r.scheduler_name.as_str()).collect();
        assert_eq!(names, ["Baseline", "Themis+FIFO", "Themis+SCF"]);
        // Themis variants beat the baseline on this over-provisioned topology.
        assert!(reports[1].total_time_ns < reports[0].total_time_ns);
        assert!(reports[2].total_time_ns < reports[0].total_time_ns);
    }

    #[test]
    fn run_kind_planned_matches_run_kind_bit_for_bit() {
        // One plan shared by the three kinds (one chunk split, one cost
        // table for both Themis variants) must not change a single bit of
        // any report.
        let topo = PresetTopology::FcRingSw3d.build();
        let sim = PipelineSimulator::new(&topo, SimOptions::default());
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let plan = SimPlanCache::new();
        let mut ws = SimWorkspace::new();
        for kind in SchedulerKind::all() {
            let planned = sim
                .run_kind_planned(kind, 16, &request, &plan, &mut ws)
                .unwrap();
            assert_eq!(planned, sim.run_kind(kind, 16, &request).unwrap(), "{kind}");
        }
        // Both paths refuse a zero chunk count instead of panicking.
        let plain = sim.run_kind(SchedulerKind::Baseline, 0, &request);
        let planned = sim.run_kind_planned(SchedulerKind::Baseline, 0, &request, &plan, &mut ws);
        for err in [plain.unwrap_err(), planned.unwrap_err()] {
            assert_eq!(err, SimError::Schedule(ScheduleError::ZeroChunks));
        }
    }

    #[test]
    fn run_kind_planned_hits_a_warm_plan() {
        let topo = PresetTopology::Sw2d.build();
        let sim = PipelineSimulator::new(&topo, SimOptions::default());
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let plan = SimPlanCache::new();
        let mut ws = SimWorkspace::new();
        let first = sim
            .run_kind_planned(SchedulerKind::ThemisScf, 8, &request, &plan, &mut ws)
            .unwrap();
        let second = sim
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
        let sim = PipelineSimulator::new(&topo, SimOptions::default().with_faults(faults));
        let request = CollectiveRequest::all_reduce_mib(64.0);
        let plan = SimPlanCache::new();
        let mut ws = SimWorkspace::new();
        let first = sim
            .run_kind_planned(SchedulerKind::ThemisScf, 8, &request, &plan, &mut ws)
            .unwrap();
        // The base table plus one table per degraded epoch.
        assert_eq!(plan.cost_tables().len(), 3);
        let misses = plan.cost_tables().misses();
        let second = sim
            .run_kind_planned(SchedulerKind::ThemisScf, 8, &request, &plan, &mut ws)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(
            plan.cost_tables().misses(),
            misses,
            "a warm plan must serve every epoch table"
        );
        assert_eq!(
            first,
            sim.run_kind(SchedulerKind::ThemisScf, 8, &request).unwrap()
        );
    }
}
