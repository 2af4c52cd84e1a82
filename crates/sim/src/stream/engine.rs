//! The stream execution engine, and the event loop behind every simulation.
//!
//! [`StreamSimulator`] generalises the single-collective chunk pipeline to a
//! queue of collectives. Each collective is scheduled with a shared
//! scheduler; its chunks enter the per-dimension ready queues at the
//! collective's issue time (event-driven admission). Every dimension serves
//! the earliest admitted collective first, so a later collective's chunks
//! only start on dimensions the earlier collectives have vacated — in-flight
//! overlap without ever reordering a collective behind its queue successors.
//!
//! The loop is one data-oriented function generic over `const MULTI: bool`.
//! The merged instantiation runs the queue above. The single-collective
//! instantiation — behind [`crate::PipelineSimulator`] and the sequential
//! stream policy — compiles out what one collective never needs:
//! admission, the vacancy tracker, the per-collective segment accounting
//! and the per-dimension ready-collective lists and counts. It is the only
//! event loop in the crate; the differential suites check it against a plain
//! reference loop kept in the test tree (`crates/sim/tests/oracle`).

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::faults::FaultTimeline;
use crate::options::SimOptions;
use crate::soa::{self, BitIter, Completion, Lane, LaneKind, OpMatrix, ReadyIndex};
use crate::stats::{DimReport, LabelInterner, RawOp, SimReport};
use crate::stream::queue::{StreamEntry, VacancyTracker};
use crate::stream::report::{CollectiveSpan, StreamReport};
use crate::workspace::{LoopCounters, SimWorkspace};
use std::borrow::Borrow;
use std::sync::Arc;
use themis_collectives::CostModel;
use themis_core::plan::{CostTable, CostTableCache};
use themis_core::telemetry::Registry;
use themis_core::{CollectiveSchedule, CollectiveScheduler, IntraDimPolicy};
use themis_net::NetworkTopology;

/// Maximum number of zero-progress iterations tolerated before declaring the
/// simulation stalled.
const STALL_GUARD: usize = 64;

/// Executes a queue of collectives with a shared scheduler on one topology.
///
/// With [`SimOptions::cross_collective_overlap`] enabled (the default) the
/// engine overlaps queued collectives in flight; with it disabled the queue
/// degrades to the strict back-to-back execution of the sequential timeline
/// model, each collective simulated alone and laid end to end.
#[derive(Debug)]
pub struct StreamSimulator<'a> {
    topo: &'a NetworkTopology,
    options: SimOptions,
    cost: CostModel,
}

impl<'a> StreamSimulator<'a> {
    /// Creates a stream simulator.
    pub fn new(topo: &'a NetworkTopology, options: SimOptions) -> Self {
        StreamSimulator {
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

    fn engine(&self) -> Engine<'_> {
        Engine {
            topo: self.topo,
            options: &self.options,
            cost: &self.cost,
        }
    }

    /// Simulates `entries` using `scheduler` for every collective and returns
    /// the stream report. Entries are admitted in issue order (ties broken by
    /// list position); negative or NaN issue times are clamped to zero.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    pub fn run(
        &self,
        scheduler: &mut dyn CollectiveScheduler,
        entries: &[StreamEntry],
    ) -> Result<StreamReport, SimError> {
        self.options.validate()?;
        let order = admission_order(entries);
        // Faults active at t = 0 are static asymmetry the bandwidth-aware
        // schedulers get to see; mid-stream events stay invisible (see
        // `FaultPlan::initial_topology`). The cached facade paths schedule
        // against the same topology, so both stay bit-identical.
        let initial = self.options.faults.initial_topology(self.topo)?;
        let sched_topo = initial.as_ref().unwrap_or(self.topo);
        let mut schedules = Vec::with_capacity(order.len());
        for &index in &order {
            let schedule = scheduler.schedule(&entries[index].request, sched_topo)?;
            schedule.validate(self.topo)?;
            schedules.push(Arc::new(schedule));
        }
        let tables = schedules
            .iter()
            .map(|schedule| Ok(Arc::new(CostTable::build(self.topo, &self.cost, schedule)?)))
            .collect::<Result<Vec<_>, SimError>>()?;
        let mut workspace = SimWorkspace::new();
        self.dispatch(entries, &order, &schedules, &tables, &mut workspace, None)
    }

    /// Runs the policy selected by
    /// [`SimOptions::cross_collective_overlap`] over admission-ordered
    /// schedules and cost tables.
    fn dispatch(
        &self,
        entries: &[StreamEntry],
        order: &[usize],
        schedules: &[Arc<CollectiveSchedule>],
        tables: &[Arc<CostTable>],
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<StreamReport, SimError> {
        if self.options.cross_collective_overlap {
            self.run_overlapped(entries, order, schedules, tables, workspace, plan_cache)
        } else {
            self.run_sequential(entries, order, schedules, tables, workspace, plan_cache)
        }
    }

    /// Like [`StreamSimulator::run`], but executing the shared schedules and
    /// cost tables a [`themis_core::SimPlanCache`] serves — `schedules[i]`
    /// is the schedule of `entries[i]` and `tables[i]` prices it — with the
    /// caller's reusable [`SimWorkspace`], and building any fault-epoch cost
    /// tables ([`SimOptions::faults`]) through `plan_cache` so repeated cells
    /// price each fault epoch once. Neither a scheduler nor the cost model
    /// runs here. Schedulers, the cost model and epoch-table construction are
    /// deterministic, so this is bit-identical to [`StreamSimulator::run`]
    /// with the scheduler that produced the schedules.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the options or fault plan are invalid, the
    /// schedule or table lists do not match the entries, a schedule does not
    /// fit the topology, a table does not match its schedule, or the
    /// simulation fails to make progress.
    pub fn run_planned_cached(
        &self,
        entries: &[StreamEntry],
        schedules: &[Arc<CollectiveSchedule>],
        tables: &[Arc<CostTable>],
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<StreamReport, SimError> {
        self.options.validate()?;
        if tables.len() != schedules.len() {
            return Err(SimError::InvalidOptions {
                reason: format!(
                    "{} cost tables provided for {} schedules",
                    tables.len(),
                    schedules.len()
                ),
            });
        }
        // Plan-served pairs revalidate only on first sight: both entry
        // checks are pure functions of the schedule contents, the table
        // shape and the dimension count, so one pass per `(schedule, table)`
        // identity covers every later run (see [`soa::MatrixMemo`]).
        let num_dims = self.topo.num_dims();
        for (schedule, table) in schedules.iter().zip(tables) {
            if workspace
                .matrix_memo
                .is_validated(schedule, table, num_dims)
            {
                continue;
            }
            schedule.validate(self.topo)?;
            if !table.matches(schedule) {
                return Err(SimError::InvalidOptions {
                    reason: format!(
                        "cost table shape ({} chunks) does not match its schedule ({} chunks)",
                        table.num_chunks(),
                        schedule.chunks().len()
                    ),
                });
            }
            workspace
                .matrix_memo
                .mark_validated(schedule, table, num_dims);
        }
        if schedules.len() != entries.len() {
            return Err(SimError::InvalidOptions {
                reason: format!(
                    "{} schedules provided for {} stream entries",
                    schedules.len(),
                    entries.len()
                ),
            });
        }
        let order = admission_order(entries);
        let ordered: Vec<Arc<CollectiveSchedule>> = order
            .iter()
            .map(|&index| Arc::clone(&schedules[index]))
            .collect();
        let ordered_tables: Vec<Arc<CostTable>> = order
            .iter()
            .map(|&index| Arc::clone(&tables[index]))
            .collect();
        self.dispatch(
            entries,
            &order,
            &ordered,
            &ordered_tables,
            workspace,
            plan_cache,
        )
    }

    /// The sequential-timeline policy: each collective runs alone through
    /// the single-collective loop, in its own single-run frame, and the runs
    /// are laid end to end (a collective starts when both its issue time has
    /// arrived and the network has drained its predecessor).
    fn run_sequential(
        &self,
        entries: &[StreamEntry],
        order: &[usize],
        schedules: &[Arc<CollectiveSchedule>],
        tables: &[Arc<CostTable>],
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<StreamReport, SimError> {
        let mut report = StreamReport::empty(
            schedules.first().map_or("", |s| s.scheduler_name()),
            self.topo.name(),
            DimReport::for_topology(self.topo),
        );
        let mut network_free_at = 0.0f64;
        for (slot, &index) in order.iter().enumerate() {
            let issue_ns = entries[index].clamped_issue_ns();
            let start_ns = network_free_at.max(issue_ns);
            // Fault times are absolute stream time; each laid-end-to-end
            // collective runs in its own frame, so it gets the plan as seen
            // from its start offset (past events collapsed into state at 0).
            let shifted;
            let options = if self.options.faults.is_empty() {
                &self.options
            } else {
                shifted = self
                    .options
                    .clone()
                    .with_faults(self.options.faults.shifted(start_ns));
                &shifted
            };
            let (schedule, table) = (&schedules[slot], &tables[slot]);
            let sim_report = Engine {
                options,
                ..self.engine()
            }
            .run_single(
                schedule,
                table,
                Some((schedule, table)),
                workspace,
                plan_cache,
            )?;
            let finish_ns = start_ns + sim_report.total_time_ns;
            network_free_at = finish_ns;
            report.network_busy_ns += sim_report.total_time_ns;
            for (dim, agg) in report.dims.iter_mut().enumerate() {
                let local = &sim_report.dims[dim];
                agg.busy_ns += local.busy_ns;
                agg.wire_bytes += local.wire_bytes;
                agg.ops_executed += local.ops_executed;
                for &(s, e) in &local.presence_intervals {
                    push_presence(&mut agg.presence_intervals, s + start_ns, e + start_ns);
                }
            }
            report.spans.push(CollectiveSpan {
                index,
                label: entries[index].label.clone(),
                issue_ns,
                start_ns,
                finish_ns,
                active_ns: sim_report.total_time_ns,
                overlapped_ns: 0.0,
                report: sim_report,
            });
        }
        report.finish_ns = network_free_at;
        Ok(report)
    }

    /// The overlap-aware policy: one merged event loop over all admitted
    /// collectives, with earliest-collective priority on every dimension.
    fn run_overlapped(
        &self,
        entries: &[StreamEntry],
        order: &[usize],
        schedules: &[Arc<CollectiveSchedule>],
        tables: &[Arc<CostTable>],
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<StreamReport, SimError> {
        let engine = self.engine();
        let issue_ns: Vec<f64> = order
            .iter()
            .map(|&index| entries[index].clamped_issue_ns())
            .collect();
        let run = engine.run_merged(&issue_ns, schedules, tables, workspace, plan_cache)?;
        // Assemble spans: shift each collective's statistics into its own
        // time frame so the embedded report reads like a standalone run.
        // Labels are resolved here, once per executed op, from the interned
        // table — the event loop never formatted a string.
        let labels = self
            .options
            .record_op_log
            .then(|| LabelInterner::for_dims(self.topo.num_dims()));
        let mut report = StreamReport {
            network_busy_ns: run.network_busy_ns,
            overlap_ns: run.overlap_ns,
            ..StreamReport::empty(
                schedules.first().map_or("", |s| s.scheduler_name()),
                self.topo.name(),
                run.dims,
            )
        };
        for ((state, &index), schedule) in run.colls.into_iter().zip(order).zip(schedules) {
            report.finish_ns = report.finish_ns.max(state.finish_ns);
            report.spans.push(CollectiveSpan {
                index,
                label: entries[index].label.clone(),
                issue_ns: state.issue_ns,
                start_ns: state.start_ns,
                finish_ns: state.finish_ns,
                active_ns: state.active_ns,
                overlapped_ns: state.overlapped_ns,
                report: engine.collective_report(
                    schedule,
                    state.start_ns,
                    state.finish_ns,
                    state.dims,
                    &state.raw_ops,
                    labels.as_ref(),
                ),
            });
        }
        Ok(report)
    }
}

/// The fabric an event loop runs on: the topology, the options, and the
/// cost model that prices fault epochs. [`crate::PipelineSimulator`] passes
/// its own model; the stream policies pass [`CostModel::new`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Engine<'a> {
    pub(crate) topo: &'a NetworkTopology,
    pub(crate) options: &'a SimOptions,
    pub(crate) cost: &'a CostModel,
}

/// Book-keeping for one admitted collective during a merged run.
#[derive(Debug)]
struct CollState {
    issue_ns: f64,
    outstanding_ops: usize,
    started: bool,
    start_ns: f64,
    finish_ns: f64,
    active_ns: f64,
    overlapped_ns: f64,
    dims: Vec<DimReport>,
    raw_ops: Vec<RawOp>,
}

impl CollState {
    fn new(issue_ns: f64, schedule: &CollectiveSchedule, topo: &NetworkTopology) -> Self {
        CollState {
            issue_ns,
            outstanding_ops: schedule.chunks().iter().map(|c| c.stages.len()).sum(),
            started: false,
            start_ns: 0.0,
            finish_ns: 0.0,
            active_ns: 0.0,
            overlapped_ns: 0.0,
            dims: DimReport::for_topology(topo),
            raw_ops: Vec::new(),
        }
    }
}

/// The plan-cache `Arc`s a run's schedules and tables came from: the
/// identity the workspace memoises built op matrices under.
type PlanArcs<'p> = (&'p [Arc<CollectiveSchedule>], &'p [Arc<CostTable>]);

/// What the event loop hands back for report assembly.
#[derive(Debug)]
struct LoopRun {
    /// Network-wide per-dimension statistics, on the run's clock.
    dims: Vec<DimReport>,
    /// The clock when the loop ended: a single-collective run's makespan.
    end_ns: f64,
    /// Time at least one collective was executing (merged runs).
    network_busy_ns: f64,
    /// Time at least two collectives were executing (merged runs).
    overlap_ns: f64,
    /// Per-collective state in admission order; the single-collective
    /// instantiation keeps none.
    colls: Vec<CollState>,
}

impl Engine<'_> {
    /// Runs one collective in the single-run frame: t = 0 is the origin and
    /// `total_time_ns` is the finish time, even when no op can start at
    /// t = 0. `shared` are the plan-cache `Arc`s the schedule and table came
    /// from, which let the workspace memoise the op matrix.
    pub(crate) fn run_single(
        &self,
        schedule: &CollectiveSchedule,
        table: &CostTable,
        shared: Option<(&Arc<CollectiveSchedule>, &Arc<CostTable>)>,
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<SimReport, SimError> {
        let timelines = self.compile_faults(&[schedule], plan_cache)?;
        let labels = self
            .options
            .record_op_log
            .then(|| LabelInterner::for_dims(self.topo.num_dims()));
        // Faulted runs build their matrix fresh: fault timelines are per-run
        // inputs, not part of the memo key.
        let memo = match shared {
            Some((schedule, table)) if timelines.is_none() => {
                Some((std::slice::from_ref(schedule), std::slice::from_ref(table)))
            }
            _ => None,
        };
        let order = self.enforced_order(&[schedule], &[table], workspace.cancel.as_ref())?;
        let run = self.run_fast::<false, _, _>(
            &[schedule],
            &[table],
            &[],
            timelines,
            memo,
            order,
            workspace,
        )?;
        Ok(self.collective_report(
            schedule,
            0.0,
            run.end_ns,
            run.dims,
            &workspace.raw_ops,
            labels.as_ref(),
        ))
    }

    /// Runs admission-ordered collectives, issued at `issue_ns`, through
    /// one merged loop.
    fn run_merged(
        &self,
        issue_ns: &[f64],
        schedules: &[Arc<CollectiveSchedule>],
        tables: &[Arc<CostTable>],
        workspace: &mut SimWorkspace,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<LoopRun, SimError> {
        let timelines = self.compile_faults(schedules, plan_cache)?;
        let memo = timelines.is_none().then_some((schedules, tables));
        let order = self.enforced_order(schedules, tables, workspace.cancel.as_ref())?;
        self.run_fast::<true, _, _>(
            schedules, tables, issue_ns, timelines, memo, order, workspace,
        )
    }

    /// Compiles the fault plan once per collective — cost tables are
    /// per-schedule, so each gets its own epoch tables, while all timelines
    /// share the plan's epoch boundaries and blocked masks. `None` for a
    /// healthy fabric, which keeps the loop on its exact fault-free float
    /// path.
    fn compile_faults<S: Borrow<CollectiveSchedule>>(
        &self,
        schedules: &[S],
        plan_cache: Option<&CostTableCache>,
    ) -> Result<Option<Vec<FaultTimeline>>, SimError> {
        if self.options.faults.is_empty() {
            return Ok(None);
        }
        schedules
            .iter()
            .map(|schedule| {
                self.options
                    .faults
                    .compile(self.topo, self.cost, schedule.borrow(), plan_cache)
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
    }

    /// The Sec. 4.6.2 enforced intra-dimension order, or none when
    /// enforcement is off: for every collective and dimension
    /// (collective-major), the run's op ids in the order that collective's
    /// healthy run started them there, reversed so the next op to start is
    /// the last. That run is this loop on the collective alone from t = 0,
    /// one op per dimension at a time, without faults or enforcement, so its
    /// per-dimension completion order is its start order. It runs in a
    /// scratch workspace that polls `cancel` and flushes no telemetry: the
    /// enforced run counts as one run.
    fn enforced_order<S, T>(
        &self,
        schedules: &[S],
        tables: &[T],
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<Vec<u32>>, SimError>
    where
        S: Borrow<CollectiveSchedule>,
        T: Borrow<CostTable>,
    {
        if !self.options.enforce_intra_dim_order {
            return Ok(Vec::new());
        }
        // The defaults: concurrency 1, op log on, no faults, no enforcement.
        let options = SimOptions::default();
        let healthy = Engine {
            options: &options,
            ..*self
        };
        let registry = Registry::new();
        registry.set_enabled(false);
        let mut scratch = SimWorkspace::with_telemetry(registry);
        scratch.cancel = cancel.cloned();
        let num_dims = self.topo.num_dims();
        let mut order = vec![Vec::new(); schedules.len() * num_dims];
        let mut base = 0;
        for (coll, (schedule, table)) in schedules.iter().zip(tables).enumerate() {
            let table = table.borrow();
            healthy.run_fast::<false, _, _>(
                &[schedule.borrow()],
                &[table],
                &[],
                None,
                None,
                Vec::new(),
                &mut scratch,
            )?;
            for raw in scratch.raw_ops.iter().rev() {
                let op = base + table.offsets()[raw.chunk] + raw.stage;
                order[coll * num_dims + raw.dim].push(op as u32);
            }
            base += table.num_ops();
        }
        Ok(order)
    }

    /// A collective's own report, in the time frame that starts at
    /// `frame_ns`: stream spans pass their first issue time, the single-run
    /// frame passes 0.0 and stays unshifted.
    fn collective_report(
        &self,
        schedule: &CollectiveSchedule,
        frame_ns: f64,
        finish_ns: f64,
        mut dims: Vec<DimReport>,
        raw_ops: &[RawOp],
        labels: Option<&LabelInterner>,
    ) -> SimReport {
        let op_log = match labels {
            Some(labels) => raw_ops
                .iter()
                .map(|raw| {
                    let stage_op = &schedule.chunks()[raw.chunk].stages[raw.stage];
                    let mut op = labels.materialise(raw, stage_op);
                    op.start_ns -= frame_ns;
                    op.end_ns -= frame_ns;
                    op
                })
                .collect(),
            None => Vec::new(),
        };
        if frame_ns != 0.0 {
            for dim in &mut dims {
                for interval in &mut dim.presence_intervals {
                    interval.0 -= frame_ns;
                    interval.1 -= frame_ns;
                }
            }
        }
        SimReport {
            scheduler_name: schedule.scheduler_name().to_string(),
            topology_name: self.topo.name().to_string(),
            total_time_ns: (finish_ns - frame_ns).max(0.0),
            activity_window_ns: self.options.activity_window_ns,
            dims,
            op_log,
        }
    }

    /// The data-oriented loop: per-op state lives in the flat [`OpMatrix`]
    /// arrays (collectives concatenated into one dense op-id space), ready
    /// ops are `u32`s in per-(dimension, collective) [`Lane`]s — cost-rank
    /// bucket queues that pop in Smallest-Chunk-First `(cost, arrival)`
    /// order — and `u64` masks let every scan skip quiescent dimensions
    /// entirely.
    ///
    /// `MULTI = false` runs one collective issued at t = 0 and compiles out
    /// admission, the vacancy tracker, the per-collective accounting and the
    /// ready index: a dimension's one lane is its whole ready set. Every
    /// simulated float operation happens in the same order on the same
    /// values as in the test tree's reference loop, so reports are
    /// bit-identical to it (enforced by the `differential` and
    /// `engine_equivalence` suites).
    ///
    /// A non-empty `order` ([`Engine::enforced_order`]) is enforced: each
    /// dimension starts its next op from it instead of popping its lane.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn run_fast<const MULTI: bool, S, T>(
        &self,
        schedules: &[S],
        tables: &[T],
        issue_ns: &[f64],
        timelines: Option<Vec<FaultTimeline>>,
        memo: Option<PlanArcs<'_>>,
        mut order: Vec<Vec<u32>>,
        workspace: &mut SimWorkspace,
    ) -> Result<LoopRun, SimError>
    where
        S: Borrow<CollectiveSchedule>,
        T: Borrow<CostTable>,
    {
        let num_dims = self.topo.num_dims();
        // A topology's NPU count fits in `usize`, so it has at most 63
        // dimensions: every dimension fits a bit of a `u64` mask.
        debug_assert!(num_dims <= 64, "masked loop requires <= 64 dimensions");
        let num_colls = schedules.len();
        debug_assert!(MULTI || num_colls == 1, "one collective per single run");
        let max_active = self.options.max_concurrent_ops_per_dim;
        let record_op_log = self.options.record_op_log;
        let mut dims = DimReport::for_topology(self.topo);
        let mut colls: Vec<CollState> = if MULTI {
            schedules
                .iter()
                .zip(issue_ns)
                .map(|(schedule, &issue)| CollState::new(issue, schedule.borrow(), self.topo))
                .collect()
        } else {
            Vec::new()
        };

        workspace.prepare_fast(num_dims, num_colls, MULTI);
        // Telemetry accumulates locally (depth watermarks in the lanes and
        // the ready index, busy/idle in the report) and flushes once after
        // the loop; when disabled not even the clock is read. Either way the
        // simulated floats are untouched, so reports stay bit-identical.
        let telemetry_on = workspace.telemetry.enabled();
        if telemetry_on {
            workspace.telemetry.ensure_dims(num_dims);
        }
        let loop_started = telemetry_on.then(std::time::Instant::now);
        // Cloned out before the destructure; absent a token the per-iteration
        // check is one `Option` test and the float path is untouched.
        let cancel = workspace.cancel.clone();
        let mut cancel_iter: u64 = 0;
        let SimWorkspace {
            ops,
            matrix_memo,
            lanes,
            active,
            completions,
            ready,
            last_busy_end,
            raw_ops,
            accounts,
            telemetry,
            depth_scratch,
            ..
        } = workspace;

        let need_ranks = !self.options.enforce_intra_dim_order
            && schedules
                .iter()
                .any(|s| s.borrow().intra_dim_policy() == IntraDimPolicy::SmallestChunkFirst);
        // Plan-served runs memoise the built matrix by `Arc` identity.
        let matrix: &OpMatrix = match memo {
            Some((schedules, tables)) => matrix_memo.get_or_build(schedules, tables, need_ranks),
            None => {
                ops.build(schedules, tables, timelines.as_deref(), need_ranks);
                ops
            }
        };
        // Enforced runs: `done[op]` once `op` completed. The next op of an
        // order is ready when it is its chunk's first stage (its collective
        // owns the dimension, so it is admitted) or the op before it, its
        // chunk's previous stage, is done.
        let mut done = vec![false; if order.is_empty() { 0 } else { matrix.num_ops }];
        for (coll, schedule) in schedules.iter().enumerate() {
            let kind = if !order.is_empty() {
                LaneKind::Counted
            } else if schedule.borrow().intra_dim_policy() == IntraDimPolicy::SmallestChunkFirst {
                LaneKind::Scf
            } else {
                LaneKind::Fifo
            };
            for dim in 0..num_dims {
                lanes[lane_index::<MULTI>(dim, coll, num_colls)]
                    .reset(kind, matrix.num_ranks[coll]);
            }
        }
        let mut vacancy = if MULTI {
            VacancyTracker::from_stage_dims(
                schedules.iter().map(|schedule| {
                    schedule
                        .borrow()
                        .chunks()
                        .iter()
                        .flat_map(|chunk| chunk.stages.iter().map(|stage| stage.dim))
                }),
                num_dims,
            )
        } else {
            VacancyTracker::default()
        };

        let mut epoch = 0usize;
        let mut now = 0.0f64;
        let mut outstanding = 0usize;
        let mut admit_ptr = 0usize;
        let mut stall_counter = 0usize;
        // Bit `d` set ⇔ dimension `d` has ready (resp. in-flight) ops. Their
        // union is the live set; everything else is quiescent and skipped.
        let mut ready_mask = 0u64;
        let mut busy_mask = 0u64;
        let mut network_busy_ns = 0.0f64;
        let mut overlap_ns = 0.0f64;
        let mut events_batched = 0u64;
        let mut dims_quiesced = 0u64;

        if !MULTI {
            // The one collective is issued at t = 0: it is admitted before
            // the first iteration.
            outstanding = matrix.num_ops;
            admit::<MULTI>(
                matrix,
                schedules[0].borrow(),
                tables[0].borrow(),
                0,
                num_colls,
                epoch,
                lanes,
                ready,
                &mut ready_mask,
            );
        }
        while (MULTI && admit_ptr < num_colls) || outstanding > 0 {
            if let Some(token) = &cancel {
                if token.should_stop(cancel_iter) {
                    return Err(SimError::Cancelled { at_ns: now });
                }
                cancel_iter += 1;
            }
            // The fabric state of the current fault epoch, shared across
            // collectives (one plan, one set of boundaries and blocks).
            let (blocked_dims, next_fault): (u64, Option<f64>) = match timelines.as_deref() {
                Some([timeline, ..]) => (
                    soa::blocked_mask(&timeline.epochs()[epoch].blocked),
                    timeline.epoch_start(epoch + 1),
                ),
                _ => (0, None),
            };

            if MULTI {
                // Event-driven admission: collectives whose issue time has
                // arrived enter the ready lanes (their chunks' first stages).
                while admit_ptr < num_colls && colls[admit_ptr].issue_ns <= now {
                    let coll = admit_ptr;
                    admit_ptr += 1;
                    let state = &mut colls[coll];
                    if state.outstanding_ops == 0 {
                        // A degenerate collective with no stages completes at
                        // admission.
                        state.started = true;
                        state.start_ns = now;
                        state.finish_ns = now;
                        continue;
                    }
                    outstanding += state.outstanding_ops;
                    admit::<MULTI>(
                        matrix,
                        schedules[coll].borrow(),
                        tables[coll].borrow(),
                        coll,
                        num_colls,
                        epoch,
                        lanes,
                        ready,
                        &mut ready_mask,
                    );
                }
            }

            // Issue on live, unblocked dimensions only; failed dimensions
            // issue nothing, their ready ops wait for a recovery boundary. A
            // dimension serves the earliest admitted collective that has not
            // vacated it, so chunks of collective k+1 only start on
            // dimensions collective k is done with.
            for dim in BitIter(ready_mask & !blocked_dims) {
                while active[dim].len() < max_active {
                    let coll = if MULTI {
                        if ready.count[dim] == 0 {
                            break;
                        }
                        let Some(coll) = vacancy.owner(dim, admit_ptr) else {
                            break;
                        };
                        coll
                    } else {
                        0
                    };
                    let lane = &mut lanes[lane_index::<MULTI>(dim, coll, num_colls)];
                    if lane.is_empty() {
                        // The owner has work left on this dimension but none
                        // of it is ready yet: the dimension waits rather than
                        // letting a later collective in ahead of it.
                        break;
                    }
                    let op = if order.is_empty() {
                        // The lane is policy-ordered: the pop *is* the
                        // FIFO/SCF pick.
                        lane.pop().expect("ready lane is non-empty")
                    } else {
                        // The dimension starts the enforced order's next op
                        // once it is ready, and waits for it rather than run
                        // another op out of turn.
                        let next = &mut order[coll * num_dims + dim];
                        let op = *next.last().expect("a ready op is still to start");
                        let opx = op as usize;
                        if matrix.stage[opx] != 0 && !done[opx - 1] {
                            break;
                        }
                        next.pop();
                        lane.count_out();
                        op
                    };
                    if MULTI {
                        ready.pop(dim, coll, lane.is_empty());
                    }
                    let opx = op as usize;
                    // Pay the fixed delay `A_K` only when the dimension
                    // (re)starts its pipeline after an idle period (Sec. 4.4
                    // charges it per dimension, not per chunk): back-to-back
                    // ops overlap their step latencies with the
                    // predecessor's transfer, whichever collective they
                    // belong to. `work` was precomputed with the identical
                    // `OpCost::work_ns` float addition.
                    let resuming_after_idle =
                        active[dim].is_empty() && now > last_busy_end[dim] + 1e-6;
                    let starting_cold = last_busy_end[dim] == f64::NEG_INFINITY;
                    let work_ns = if resuming_after_idle || starting_cold {
                        matrix.work_at(epoch, opx)
                    } else {
                        matrix.transfer_at(epoch, opx)
                    };
                    if MULTI && !colls[coll].started {
                        colls[coll].started = true;
                        colls[coll].start_ns = now;
                    }
                    active[dim].push(op, work_ns, now);
                    busy_mask |= 1u64 << dim;
                }
                let drained = if MULTI {
                    ready.count[dim] == 0
                } else {
                    lanes[dim].is_empty()
                };
                if drained {
                    ready_mask &= !(1u64 << dim);
                }
            }

            let next_admission = if MULTI {
                colls.get(admit_ptr).map(|c| c.issue_ns)
            } else {
                None
            };
            if busy_mask == 0 {
                // Nothing is executing: jump across the idle gap to the next
                // event — an admission or a fault boundary (e.g. the recovery
                // of a failed dimension holding every ready op) — or, with
                // neither left, declare a stall (a permanent link failure;
                // the enforced order cannot deadlock, a healthy run took it).
                match next_event(next_admission, next_fault) {
                    Some((at, is_fault)) => {
                        now = at.max(now);
                        epoch += usize::from(is_fault);
                        continue;
                    }
                    // Only collectives without stages were left: done.
                    None if outstanding == 0 => break,
                    None => {}
                }
                let pending = lanes[..num_dims * num_colls].iter().map(Lane::len).sum();
                return Err(SimError::Stalled {
                    at_ns: now,
                    outstanding_ops: pending,
                });
            }

            // Earliest completion under processor sharing, scanning busy
            // dimensions only; capped by the next admission and fault events.
            // `min(remaining) * k` is bitwise the reference's minimum over
            // per-op `remaining * k` products: multiplying by the positive op
            // count is monotone, so the order of min and multiply commutes.
            let mut delta = f64::INFINITY;
            for dim in BitIter(busy_mask) {
                let set = &active[dim];
                delta = delta.min(set.min_remaining() * set.len() as f64);
            }
            let (delta, advance_to_admission, advance_to_fault) =
                cap_step(delta, now, next_admission, next_fault);
            guard_progress(
                &mut stall_counter,
                delta > 0.0 || advance_to_admission || advance_to_fault,
                now,
                outstanding,
            )?;

            // Account the segment [now, now + delta) on live dimensions; the
            // quiescent remainder skips all bookkeeping (and is counted).
            if delta > 0.0 {
                let live = busy_mask | ready_mask;
                dims_quiesced += num_dims as u64 - u64::from(live.count_ones());
                for dim in BitIter(live) {
                    let dim_report = &mut dims[dim];
                    if busy_mask & (1u64 << dim) != 0 {
                        dim_report.busy_ns += delta;
                    }
                    push_presence(&mut dim_report.presence_intervals, now, now + delta);
                    if MULTI {
                        let in_flight = active[dim].ops().iter();
                        accounts.charge_dim(
                            &mut colls,
                            dim,
                            in_flight.map(|&op| matrix.coll[op as usize] as usize),
                            &ready.colls[dim],
                            now,
                            delta,
                        );
                    }
                }
                if MULTI {
                    accounts.close_segment(
                        &mut colls,
                        delta,
                        &mut network_busy_ns,
                        &mut overlap_ns,
                    );
                }
            }

            // Charge each dimension's `delta / k` share and collect this
            // timestamp's completions in one sweep per busy dimension, then a
            // deterministic sort. `(dim, op id)` is the reference's
            // `(dim, coll, chunk)` order: collective blocks are concatenated
            // in admission order, op ids are monotone in chunk within a
            // block, and each `(dim, chunk)` pair completes at most once per
            // step (a chunk's stages run sequentially).
            completions.clear();
            for dim in BitIter(busy_mask) {
                let set = &mut active[dim];
                let share = delta / set.len() as f64;
                if set.advance(share, dim as u32, completions) {
                    busy_mask &= !(1u64 << dim);
                }
            }
            now = if advance_to_fault {
                epoch += 1;
                next_fault.expect("fault boundary exists when advancing to it")
            } else if advance_to_admission {
                next_admission.expect("admission event exists")
            } else {
                now + delta
            };

            if completions.len() > 1 {
                completions.sort_unstable_by(|a, b| a.dim.cmp(&b.dim).then(a.op.cmp(&b.op)));
                events_batched += completions.len() as u64;
            }

            for &Completion { dim, op, start_ns } in completions.iter() {
                let dim = dim as usize;
                let opx = op as usize;
                let coll = if MULTI { matrix.coll[opx] as usize } else { 0 };
                dims[dim].wire_bytes += matrix.wire[opx];
                dims[dim].ops_executed += 1;
                let raw = || RawOp {
                    dim,
                    chunk: matrix.chunk[opx] as usize,
                    stage: matrix.stage[opx] as usize,
                    start_ns,
                    end_ns: now,
                };
                if MULTI {
                    vacancy.complete(coll, dim);
                    let state = &mut colls[coll];
                    state.dims[dim].wire_bytes += matrix.wire[opx];
                    state.dims[dim].ops_executed += 1;
                    if record_op_log {
                        state.raw_ops.push(raw());
                    }
                    state.outstanding_ops -= 1;
                    if state.outstanding_ops == 0 {
                        state.finish_ns = now;
                    }
                } else if record_op_log {
                    raw_ops.push(raw());
                }
                last_busy_end[dim] = now;
                outstanding -= 1;
                if !done.is_empty() {
                    done[opx] = true;
                }
                // The successor is the next dense op id; its SCF rank prices
                // against the post-boundary epoch, like the reference loop.
                if !matrix.last_stage[opx] {
                    let succ = opx + 1;
                    let target = matrix.dim[succ] as usize;
                    enqueue::<MULTI>(
                        lanes,
                        ready,
                        num_colls,
                        target,
                        coll,
                        succ as u32,
                        matrix.rank_at(epoch, succ),
                    );
                    ready_mask |= 1u64 << target;
                }
            }
        }

        if let Some(started) = loop_started {
            // The lanes and the ready index track their own depth high-water
            // marks as they fill, so telemetry reads them here instead of
            // sampling inside the event loop.
            depth_scratch.clear();
            let makespan = if MULTI {
                depth_scratch.extend(ready.high_water.iter().take(num_dims));
                colls
                    .iter()
                    .fold(0.0, |finish: f64, c| finish.max(c.finish_ns))
            } else {
                depth_scratch.extend(lanes.iter().take(num_dims).map(Lane::high_water));
                now
            };
            telemetry.flush_run(
                &dims,
                makespan,
                depth_scratch,
                MULTI,
                started.elapsed(),
                LoopCounters {
                    events_batched,
                    dims_quiesced,
                },
            );
        }
        Ok(LoopRun {
            dims,
            end_ns: now,
            network_busy_ns,
            overlap_ns,
            colls,
        })
    }
}

/// Index of collective `coll`'s lane on `dim`: lanes are dimension-major,
/// and a single-collective run has exactly one lane per dimension.
#[inline(always)]
fn lane_index<const MULTI: bool>(dim: usize, coll: usize, num_colls: usize) -> usize {
    if MULTI {
        dim * num_colls + coll
    } else {
        dim
    }
}

/// Makes `op` of collective `coll` ready on `dim`; a merged run also
/// records it in the dimension's ready index. Pushes arrive in global arrival
/// order, so lane FIFO order is the SCF tie-break by arrival.
#[inline(always)]
fn enqueue<const MULTI: bool>(
    lanes: &mut [Lane],
    ready: &mut ReadyIndex,
    num_colls: usize,
    dim: usize,
    coll: usize,
    op: u32,
    rank: u32,
) {
    let lane = &mut lanes[lane_index::<MULTI>(dim, coll, num_colls)];
    if MULTI {
        ready.push(dim, coll, lane.is_empty());
    }
    lane.push(op, rank);
}

/// Admits collective `coll`: its chunks' first stages become ready, in chunk
/// order, with SCF ranks priced at `epoch`.
#[allow(clippy::too_many_arguments)]
fn admit<const MULTI: bool>(
    matrix: &OpMatrix,
    schedule: &CollectiveSchedule,
    table: &CostTable,
    coll: usize,
    num_colls: usize,
    epoch: usize,
    lanes: &mut [Lane],
    ready: &mut ReadyIndex,
    ready_mask: &mut u64,
) {
    let base = matrix.coll_base[coll] as usize;
    let offsets = table.offsets();
    for (chunk_idx, chunk) in schedule.chunks().iter().enumerate() {
        if chunk.stages.is_empty() {
            continue;
        }
        let op = base + offsets[chunk_idx];
        let dim = matrix.dim[op] as usize;
        enqueue::<MULTI>(
            lanes,
            ready,
            num_colls,
            dim,
            coll,
            op as u32,
            matrix.rank_at(epoch, op),
        );
        *ready_mask |= 1u64 << dim;
    }
}

/// The event an idle network jumps to: the earlier of the next admission and
/// the next fault boundary (a tie goes to the fault), flagged `true` for a
/// fault.
fn next_event(admission: Option<f64>, fault: Option<f64>) -> Option<(f64, bool)> {
    match (admission, fault) {
        (Some(admission), Some(fault)) if fault <= admission => Some((fault, true)),
        (Some(admission), _) => Some((admission, false)),
        (None, fault) => fault.map(|fault| (fault, true)),
    }
}

/// Caps a step of `delta` (the earliest completion) at the next admission
/// and the next fault boundary, so in-flight ops never straddle an epoch
/// switch unobserved. Returns the step and whether it lands on the admission
/// and on the boundary; on a strict fault win the admission flag clears (the
/// admission still happens next iteration, once `now` has crossed its issue
/// time).
#[inline(always)]
fn cap_step(
    mut delta: f64,
    now: f64,
    next_admission: Option<f64>,
    next_fault: Option<f64>,
) -> (f64, bool, bool) {
    let mut to_admission = false;
    if let Some(at) = next_admission {
        let gap = (at - now).max(0.0);
        if gap <= delta {
            delta = gap;
            to_admission = true;
        }
    }
    let mut to_fault = false;
    if let Some(at) = next_fault {
        let gap = (at - now).max(0.0);
        if gap <= delta {
            if gap < delta {
                to_admission = false;
            }
            delta = gap;
            to_fault = true;
        }
    }
    if !delta.is_finite() {
        delta = 0.0;
    }
    (delta, to_admission, to_fault)
}

/// Counts consecutive iterations without progress; past [`STALL_GUARD`] of
/// them the simulation is declared stalled.
#[inline(always)]
fn guard_progress(
    stall_counter: &mut usize,
    progress: bool,
    now: f64,
    outstanding: usize,
) -> Result<(), SimError> {
    if progress {
        *stall_counter = 0;
        return Ok(());
    }
    *stall_counter += 1;
    if *stall_counter > STALL_GUARD {
        return Err(SimError::Stalled {
            at_ns: now,
            outstanding_ops: outstanding,
        });
    }
    Ok(())
}

/// The per-collective segment accounting of a merged run, with its scratch
/// reused across cells through the workspace. Flags reset through `touched`
/// and `in_flight`, so a segment costs O(ops and collectives in flight), not
/// O(dims × collectives).
#[derive(Debug, Default)]
pub(crate) struct CollAccounts {
    /// Collective has an op in flight somewhere in the current segment.
    active: Vec<bool>,
    /// Collective has an op in flight on the dimension being charged.
    busy_on_dim: Vec<bool>,
    /// Collective has an op in flight or ready on that dimension.
    on_dim: Vec<bool>,
    touched: Vec<usize>,
    /// The collectives in flight in the current segment, first-seen order.
    in_flight: Vec<usize>,
}

impl CollAccounts {
    pub(crate) fn reset(&mut self, num_colls: usize) {
        for flags in [&mut self.active, &mut self.busy_on_dim, &mut self.on_dim] {
            flags.clear();
            flags.resize(num_colls, false);
        }
        self.touched.clear();
        self.in_flight.clear();
    }

    /// Charges the segment `[now, now + delta)` on `dim` to every collective
    /// present there: busy time if one of its ops is in flight (`in_flight`
    /// lists the in-flight ops' collectives, repeats allowed), presence if
    /// in flight or `ready`.
    #[inline(always)]
    fn charge_dim(
        &mut self,
        colls: &mut [CollState],
        dim: usize,
        in_flight: impl Iterator<Item = usize>,
        ready: &[usize],
        now: f64,
        delta: f64,
    ) {
        self.touched.clear();
        for coll in in_flight {
            if !self.active[coll] {
                self.active[coll] = true;
                self.in_flight.push(coll);
            }
            self.busy_on_dim[coll] = true;
            if !self.on_dim[coll] {
                self.on_dim[coll] = true;
                self.touched.push(coll);
            }
        }
        for &coll in ready {
            if !self.on_dim[coll] {
                self.on_dim[coll] = true;
                self.touched.push(coll);
            }
        }
        for &coll in &self.touched {
            let state = &mut colls[coll];
            if self.busy_on_dim[coll] {
                state.dims[dim].busy_ns += delta;
            }
            push_presence(&mut state.dims[dim].presence_intervals, now, now + delta);
            self.busy_on_dim[coll] = false;
            self.on_dim[coll] = false;
        }
    }

    /// Closes a segment charged dimension by dimension: network busy and
    /// overlap time, and each in-flight collective's active and overlapped
    /// time. The accumulators are independent, so visiting collectives in
    /// first-seen order adds the same `delta` to the same counters as index
    /// order would.
    #[inline(always)]
    fn close_segment(
        &mut self,
        colls: &mut [CollState],
        delta: f64,
        network_busy_ns: &mut f64,
        overlap_ns: &mut f64,
    ) {
        let in_flight = self.in_flight.len();
        if in_flight >= 1 {
            *network_busy_ns += delta;
        }
        if in_flight >= 2 {
            *overlap_ns += delta;
        }
        for &coll in &self.in_flight {
            colls[coll].active_ns += delta;
            if in_flight >= 2 {
                colls[coll].overlapped_ns += delta;
            }
            self.active[coll] = false;
        }
        self.in_flight.clear();
    }
}

/// Appends `[start, end)` to `intervals`, merging with the previous interval
/// when contiguous.
fn push_presence(intervals: &mut Vec<(f64, f64)>, start: f64, end: f64) {
    if let Some(last) = intervals.last_mut() {
        if (last.1 - start).abs() < 1e-6 {
            last.1 = end;
            return;
        }
    }
    intervals.push((start, end));
}

/// Admission order of the entries: by clamped issue time, ties broken by list
/// position.
fn admission_order(entries: &[StreamEntry]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        entries[a]
            .clamped_issue_ns()
            .partial_cmp(&entries[b].clamped_issue_ns())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineSimulator;
    use themis_core::{CollectiveRequest, ThemisScheduler};
    use themis_net::presets::PresetTopology;

    fn entry(label: &str, issue_ns: f64, mib: f64) -> StreamEntry {
        StreamEntry::all_reduce_mib(label, issue_ns, mib)
    }

    fn run_stream(
        topo: &NetworkTopology,
        options: SimOptions,
        entries: &[StreamEntry],
    ) -> StreamReport {
        StreamSimulator::new(topo, options)
            .run(&mut ThemisScheduler::new(8), entries)
            .unwrap()
    }

    #[test]
    fn single_collective_matches_the_pipeline_simulator_bit_for_bit() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = {
            use themis_core::CollectiveScheduler;
            ThemisScheduler::new(8).schedule(&request, &topo).unwrap()
        };
        let standalone = PipelineSimulator::new(&topo, SimOptions::default())
            .run(&schedule)
            .unwrap();
        let stream = run_stream(&topo, SimOptions::default(), &[entry("only", 0.0, 256.0)]);
        assert_eq!(stream.spans.len(), 1);
        // Same dynamics, same floats: the merged loop with one admitted
        // collective is exactly the single-collective pipeline.
        assert_eq!(stream.spans[0].report, standalone);
        assert_eq!(
            stream.finish_ns.to_bits(),
            standalone.total_time_ns.to_bits()
        );
        assert_eq!(stream.overlap_ns, 0.0);
    }

    #[test]
    fn streaming_overlaps_queued_collectives_and_never_loses_work() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let entries = vec![
            entry("first", 0.0, 256.0),
            entry("second", 0.0, 256.0),
            entry("third", 0.0, 256.0),
        ];
        let streamed = run_stream(&topo, SimOptions::default(), &entries);
        let sequential = run_stream(
            &topo,
            SimOptions::default().with_cross_collective_overlap(false),
            &entries,
        );
        assert!(streamed.makespan_ns() <= sequential.makespan_ns() + 1e-6);
        assert!(
            streamed.overlap_ns > 0.0,
            "queued identical collectives must overlap in flight"
        );
        // Same bytes cross every dimension regardless of the policy.
        for (s, q) in streamed.dims.iter().zip(sequential.dims.iter()) {
            assert!((s.wire_bytes - q.wire_bytes).abs() < 1.0);
            assert_eq!(s.ops_executed, q.ops_executed);
        }
        // Priority protects the head of the queue: the first collective is
        // not slower than it would run in isolation (small tolerance for the
        // fixed-delay accounting at dimension restarts).
        let alone = run_stream(&topo, SimOptions::default(), &entries[..1]);
        assert!(
            streamed.spans[0].finish_ns <= alone.finish_ns * 1.001 + 1.0,
            "head-of-queue collective was delayed: {} vs {}",
            streamed.spans[0].finish_ns,
            alone.finish_ns
        );
    }

    #[test]
    fn disabling_overlap_degenerates_to_the_sequential_timeline_bitwise() {
        // With overlap off every collective runs alone, in its own frame, and
        // starts once it is issued and the network has drained: each span is
        // a standalone pipeline run laid end to end, bit for bit. The entries
        // are listed out of issue order, one is issued before t = 0 and the
        // last one long after the others drain.
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let entries = vec![
            entry("a", 0.0, 128.0),
            entry("b", 10_000.0, 64.0),
            entry("c", 0.0, 32.0),
            entry("d", -1e9, 16.0),
            entry("e", 1e9, 16.0),
        ];
        let options = SimOptions::default().with_cross_collective_overlap(false);
        let stream = run_stream(&topo, options, &entries);
        let labels: Vec<&str> = stream.spans.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["a", "c", "d", "b", "e"], "admitted in issue order");
        let mut network_free_at = 0.0f64;
        for span in &stream.spans {
            let request = entries[span.index].request;
            let schedule = {
                use themis_core::CollectiveScheduler;
                ThemisScheduler::new(8).schedule(&request, &topo).unwrap()
            };
            let alone = PipelineSimulator::new(&topo, SimOptions::default())
                .run(&schedule)
                .unwrap();
            assert_eq!(span.report, alone, "{}", span.label);
            let start = network_free_at.max(entries[span.index].issue_ns.max(0.0));
            assert_eq!(span.start_ns.to_bits(), start.to_bits(), "{}", span.label);
            network_free_at = start + alone.total_time_ns;
            assert_eq!(span.finish_ns.to_bits(), network_free_at.to_bits());
            assert_eq!(span.overlapped_ns, 0.0);
        }
        assert_eq!(stream.finish_ns.to_bits(), network_free_at.to_bits());
        assert_eq!(stream.overlap_ns, 0.0);
        // The early issue is clamped to t = 0, so the makespan is the finish
        // time, and the late issue leaves the network idle in between.
        assert_eq!(stream.makespan_ns(), stream.finish_ns);
        assert_eq!(stream.spans[4].start_ns, 1e9);
        assert!(stream.total_communication_ns() < stream.finish_ns);
    }

    #[test]
    fn issue_gaps_leave_the_network_idle() {
        let topo = PresetTopology::Sw2d.build();
        let gap = 1e9;
        let entries = vec![entry("early", 0.0, 16.0), entry("late", gap, 16.0)];
        let streamed = run_stream(&topo, SimOptions::default(), &entries);
        assert_eq!(streamed.overlap_ns, 0.0);
        assert!(streamed.spans[1].start_ns >= gap);
        assert!(streamed.network_busy_ns < streamed.makespan_ns());
        // With the gap larger than either collective, streaming equals the
        // sequential policy exactly.
        let sequential = run_stream(
            &topo,
            SimOptions::default().with_cross_collective_overlap(false),
            &entries,
        );
        assert!((streamed.makespan_ns() - sequential.makespan_ns()).abs() < 1e-3);
    }

    #[test]
    fn overlap_accounting_is_consistent() {
        let topo = PresetTopology::FcRingSw3d.build();
        let entries = vec![
            entry("g3", 0.0, 128.0),
            entry("g2", 200_000.0, 128.0),
            entry("g1", 400_000.0, 128.0),
        ];
        let report = run_stream(&topo, SimOptions::default(), &entries);
        // Σ per-collective active time = busy time + once-more-per-extra
        // collective overlap; with at most pairwise overlap this reduces to
        // network_busy + overlap. In general active ≥ busy and overlap ≤ busy.
        let total_active: f64 = report.spans.iter().map(|s| s.active_ns).sum();
        assert!(total_active >= report.network_busy_ns - 1e-6);
        assert!(report.overlap_ns <= report.network_busy_ns + 1e-6);
        assert_eq!(
            report.exposed_communication_ns(),
            (report.network_busy_ns - report.overlap_ns).max(0.0)
        );
        for span in &report.spans {
            assert!(span.overlapped_ns <= span.active_ns + 1e-6);
            assert!(span.finish_ns >= span.start_ns);
            assert!(span.start_ns >= span.issue_ns);
        }
    }

    #[test]
    fn enforced_order_is_respected_per_collective() {
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let entries = vec![entry("a", 0.0, 128.0), entry("b", 0.0, 128.0)];
        let enforced = run_stream(
            &topo,
            SimOptions::default().with_enforced_order(true),
            &entries,
        );
        let plain = run_stream(&topo, SimOptions::default(), &entries);
        // Enforcement pins each collective to the op order its healthy run
        // alone takes, so dimensions may wait where the free-running engine
        // would overlap more aggressively — the run must still complete,
        // move the same bytes and beat (or match) the enforced sequential
        // policy.
        assert_eq!(enforced.spans.len(), 2);
        for (e, p) in enforced.dims.iter().zip(plain.dims.iter()) {
            assert!((e.wire_bytes - p.wire_bytes).abs() < 1.0);
            assert_eq!(e.ops_executed, p.ops_executed);
        }
        let enforced_sequential = run_stream(
            &topo,
            SimOptions::default()
                .with_enforced_order(true)
                .with_cross_collective_overlap(false),
            &entries,
        );
        assert!(enforced.makespan_ns() <= enforced_sequential.makespan_ns() + 1e-6);
    }

    #[test]
    fn runs_are_deterministic() {
        let topo = PresetTopology::RingFcRingSw4d.build();
        let entries = vec![
            entry("x", 0.0, 64.0),
            entry("y", 0.0, 96.0),
            entry("z", 50_000.0, 32.0),
        ];
        let first = run_stream(&topo, SimOptions::default(), &entries);
        let second = run_stream(&topo, SimOptions::default(), &entries);
        assert_eq!(first, second);
    }

    #[test]
    fn mid_stream_faults_complete_deterministically_under_both_policies() {
        use crate::faults::FaultPlan;
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let entries = vec![
            entry("a", 0.0, 128.0),
            entry("b", 0.0, 128.0),
            entry("c", 500_000.0, 64.0),
        ];
        let healthy = run_stream(&topo, SimOptions::default(), &entries);
        let faults = FaultPlan::new()
            .degrade(healthy.finish_ns * 0.25, 1, 0.5)
            .fail(healthy.finish_ns * 0.5, 2)
            .recover(healthy.finish_ns * 0.9, 2);
        for overlap in [true, false] {
            let options = SimOptions::default()
                .with_cross_collective_overlap(overlap)
                .with_faults(faults.clone());
            let first = run_stream(&topo, options.clone(), &entries);
            let second = run_stream(&topo, options, &entries);
            assert_eq!(first, second, "overlap={overlap}");
            // Faults slow the stream down but never lose work.
            assert!(first.finish_ns >= healthy.finish_ns - 1e-6);
            for (f, h) in first.dims.iter().zip(healthy.dims.iter()) {
                assert!((f.wire_bytes - h.wire_bytes).abs() < 1.0);
                assert_eq!(f.ops_executed, h.ops_executed);
            }
        }
    }

    #[test]
    fn sequential_policy_hands_each_collective_the_shifted_plan() {
        use crate::faults::FaultPlan;
        let topo = PresetTopology::Sw2d.build();
        let entries = vec![entry("a", 0.0, 64.0), entry("b", 0.0, 64.0)];
        let healthy = run_stream(
            &topo,
            SimOptions::default().with_cross_collective_overlap(false),
            &entries,
        );
        // A degradation landing inside the second collective's span slows
        // only it: the first span matches the healthy run bit for bit.
        let at = healthy.spans[0].finish_ns + healthy.spans[1].active_ns * 0.5;
        let faults = FaultPlan::new().degrade(at, 0, 0.25);
        let faulted = run_stream(
            &topo,
            SimOptions::default()
                .with_cross_collective_overlap(false)
                .with_faults(faults),
            &entries,
        );
        assert_eq!(
            faulted.spans[0].report, healthy.spans[0].report,
            "fault before the second collective must not touch the first"
        );
        assert!(faulted.spans[1].active_ns > healthy.spans[1].active_ns);
        assert!(faulted.finish_ns > healthy.finish_ns);
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let topo = PresetTopology::Sw2d.build();
        for overlap in [true, false] {
            let options = SimOptions::default().with_cross_collective_overlap(overlap);
            let report = run_stream(&topo, options, &[]);
            assert!(report.spans.is_empty());
            assert_eq!(report.finish_ns, 0.0);
            assert_eq!(report.makespan_ns(), 0.0);
            assert_eq!(report.total_communication_ns(), 0.0);
        }
    }

    #[test]
    fn invalid_options_are_rejected() {
        let topo = PresetTopology::Sw2d.build();
        let sim = StreamSimulator::new(&topo, SimOptions::default().with_max_concurrent_ops(0));
        let err = sim
            .run(&mut ThemisScheduler::new(8), &[entry("a", 0.0, 16.0)])
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidOptions { .. }));
    }
}
