//! The reference event loop the simulator is checked against: a plain
//! re-implementation of `PipelineSimulator::run` and `StreamSimulator::run`
//! written against the public API of the workspace crates only.
//!
//! It shares no loop logic with `themis-sim`. Every dimension keeps its ready
//! ops in one arrival-ordered `Vec`; the intra-dimension pick is the
//! policy's own linear scan (`IntraDimPolicy::pick`) over the ops of the
//! collective that owns the dimension, or a search for the next op of the
//! enforced order, which it takes from its own healthy run of the
//! collective. Vacancy, per-segment busy and presence accounting and
//! report assembly are all its own, and it has no workspace, telemetry or
//! cancellation. It is written to be read, not to be fast.
//!
//! The model it implements, and the simulator must reproduce bit for bit:
//!
//! * a dimension runs at most `max_concurrent_ops_per_dim` ops, sharing its
//!   bandwidth equally among them, and an op completes once its remaining
//!   work is within [`COMPLETION_EPS`] of zero;
//! * an op pays its fixed delay `A_K` only when its dimension starts cold or
//!   restarts after an idle gap; back-to-back ops pay the transfer only;
//! * a dimension serves the earliest admitted collective that still has
//!   uncompleted ops on it, and waits for that collective's next op rather
//!   than letting a later one in;
//! * with the order enforced, a dimension starts each collective's ops in
//!   the order the collective's healthy run — alone from t = 0, one op per
//!   dimension at a time, no faults — started them there, and waits for the
//!   next one rather than run another out of turn;
//! * ops are priced by the fault epoch they are issued in (SCF keys by the
//!   epoch they become ready in), failed dimensions issue nothing, and no
//!   step crosses an admission or a fault boundary;
//! * a single collective reports in its own frame from t = 0; a stream span
//!   reports from its first op's start.

use themis_collectives::CostModel;
use themis_core::plan::{CostTable, OpCost};
use themis_core::{CollectiveSchedule, CollectiveScheduler};
use themis_net::NetworkTopology;
use themis_sim::stats::OpRecord;
use themis_sim::{
    CollectiveSpan, DimReport, FaultTimeline, SimError, SimOptions, SimReport, StreamEntry,
    StreamReport,
};

/// An op completes once its remaining work is at most this, in ns.
const COMPLETION_EPS: f64 = 1e-6;
/// A dimension idle for longer than this, in ns, pays the fixed delay again.
const IDLE_EPS: f64 = 1e-6;
/// A segment starting within this of the last presence interval's end, in
/// ns, extends that interval instead of opening a new one.
const PRESENCE_EPS: f64 = 1e-6;
/// Consecutive iterations without progress before a run counts as stalled.
const STALL_GUARD: usize = 64;

/// Simulates `schedule` on `topo` the way `PipelineSimulator::run` does.
pub fn run(
    topo: &NetworkTopology,
    options: &SimOptions,
    schedule: &CollectiveSchedule,
) -> Result<SimReport, SimError> {
    let table = CostTable::build(topo, &CostModel::new(), schedule)?;
    options.validate()?;
    schedule.validate(topo)?;
    run_alone(topo, options, schedule, &table)
}

/// Simulates `entries` scheduled by `scheduler` the way
/// `StreamSimulator::run` does, under either overlap policy.
pub fn run_stream(
    topo: &NetworkTopology,
    options: &SimOptions,
    scheduler: &mut dyn CollectiveScheduler,
    entries: &[StreamEntry],
) -> Result<StreamReport, SimError> {
    options.validate()?;
    // Admission order: by clamped issue time, ties by list position (the
    // sort is stable).
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (entries[a].clamped_issue_ns(), entries[b].clamped_issue_ns());
        a.partial_cmp(&b)
            .expect("clamped issue times are never NaN")
    });
    // Schedulers see the faults already active at t = 0, nothing later.
    let initial = options.faults.initial_topology(topo)?;
    let mut schedules = Vec::with_capacity(order.len());
    for &index in &order {
        let schedule =
            scheduler.schedule(&entries[index].request, initial.as_ref().unwrap_or(topo))?;
        schedule.validate(topo)?;
        schedules.push(schedule);
    }
    let tables = schedules
        .iter()
        .map(|schedule| CostTable::build(topo, &CostModel::new(), schedule))
        .collect::<Result<Vec<_>, _>>()?;
    let issue_ns: Vec<f64> = order
        .iter()
        .map(|&index| entries[index].clamped_issue_ns())
        .collect();
    let mut report = StreamReport {
        scheduler_name: schedules
            .first()
            .map_or("", |s| s.scheduler_name())
            .to_string(),
        topology_name: topo.name().to_string(),
        finish_ns: 0.0,
        spans: Vec::new(),
        dims: dim_reports(topo),
        network_busy_ns: 0.0,
        overlap_ns: 0.0,
    };

    if options.cross_collective_overlap {
        let cells: Vec<(&CollectiveSchedule, &CostTable)> = schedules.iter().zip(&tables).collect();
        let run = simulate(topo, options, &cells, &issue_ns)?;
        report.dims = run.dims;
        report.network_busy_ns = run.network_busy_ns;
        report.overlap_ns = run.overlap_ns;
        for (coll, &index) in run.colls.into_iter().zip(&order) {
            report.finish_ns = report.finish_ns.max(coll.finish_ns);
            let start_ns = coll
                .start_ns
                .expect("every collective of a finished run started");
            report.spans.push(CollectiveSpan {
                index,
                label: entries[index].label.clone(),
                issue_ns: coll.issue_ns,
                start_ns,
                finish_ns: coll.finish_ns,
                active_ns: coll.active_ns,
                overlapped_ns: coll.overlapped_ns,
                report: coll.into_report(topo, options, start_ns),
            });
        }
        return Ok(report);
    }

    // Sequential policy: each collective runs alone once it is issued and
    // the network has drained, and the runs are laid end to end.
    let mut free_at = 0.0f64;
    for (slot, &index) in order.iter().enumerate() {
        let start_ns = free_at.max(issue_ns[slot]);
        // Fault times are absolute; a collective running in its own frame
        // sees the plan from its start.
        let options = options
            .clone()
            .with_faults(options.faults.shifted(start_ns));
        let alone = run_alone(topo, &options, &schedules[slot], &tables[slot])?;
        let finish_ns = start_ns + alone.total_time_ns;
        free_at = finish_ns;
        report.network_busy_ns += alone.total_time_ns;
        for (total, own) in report.dims.iter_mut().zip(&alone.dims) {
            total.busy_ns += own.busy_ns;
            total.wire_bytes += own.wire_bytes;
            total.ops_executed += own.ops_executed;
            for &(start, end) in &own.presence_intervals {
                push_presence(
                    &mut total.presence_intervals,
                    start + start_ns,
                    end + start_ns,
                );
            }
        }
        report.spans.push(CollectiveSpan {
            index,
            label: entries[index].label.clone(),
            issue_ns: issue_ns[slot],
            start_ns,
            finish_ns,
            active_ns: alone.total_time_ns,
            overlapped_ns: 0.0,
            report: alone,
        });
    }
    report.finish_ns = free_at;
    Ok(report)
}

/// One collective issued at t = 0, reported in its own frame.
fn run_alone(
    topo: &NetworkTopology,
    options: &SimOptions,
    schedule: &CollectiveSchedule,
    table: &CostTable,
) -> Result<SimReport, SimError> {
    let mut run = simulate(topo, options, &[(schedule, table)], &[0.0])?;
    let coll = run.colls.pop().expect("the one collective ran");
    Ok(coll.into_report(topo, options, 0.0))
}

/// Zeroed statistics for every dimension of `topo`.
fn dim_reports(topo: &NetworkTopology) -> Vec<DimReport> {
    topo.dims()
        .iter()
        .map(|dim| DimReport {
            bandwidth_bytes_per_ns: dim.aggregate_bandwidth().as_bytes_per_ns(),
            ..DimReport::default()
        })
        .collect()
}

/// Appends the segment `[start, end)` to `intervals`, extending the last
/// interval instead when the segment continues it.
fn push_presence(intervals: &mut Vec<(f64, f64)>, start: f64, end: f64) {
    match intervals.last_mut() {
        Some(last) if (last.1 - start).abs() < PRESENCE_EPS => last.1 = end,
        _ => intervals.push((start, end)),
    }
}

/// An op whose predecessor stage has completed, waiting for its dimension.
#[derive(Debug, Clone, Copy)]
struct Ready {
    coll: usize,
    chunk: usize,
    stage: usize,
    /// Global sequence number of the op becoming ready (the FIFO key).
    arrival: u64,
    /// Transfer time in the epoch the op became ready in (the SCF key).
    cost_ns: f64,
}

/// An op executing on its dimension.
#[derive(Debug, Clone, Copy)]
struct Running {
    coll: usize,
    chunk: usize,
    stage: usize,
    remaining_ns: f64,
    start_ns: f64,
}

/// One network dimension during a run.
#[derive(Debug)]
struct Channel {
    /// Ready ops of every admitted collective, in arrival order.
    ready: Vec<Ready>,
    running: Vec<Running>,
    /// When the dimension last completed an op (`-inf` before the first).
    last_end_ns: f64,
}

/// One collective during a run.
#[derive(Debug)]
struct Coll<'a> {
    schedule: &'a CollectiveSchedule,
    issue_ns: f64,
    /// Uncompleted ops per dimension: the collective owns a dimension until
    /// this reaches zero there.
    left: Vec<usize>,
    /// Position in the enforced order per dimension.
    cursor: Vec<usize>,
    outstanding: usize,
    start_ns: Option<f64>,
    finish_ns: f64,
    active_ns: f64,
    overlapped_ns: f64,
    dims: Vec<DimReport>,
    /// Executed ops in completion order, on the run's clock.
    ops: Vec<OpRecord>,
}

impl Coll<'_> {
    /// The collective's own report, with `frame_ns` as its t = 0.
    fn into_report(self, topo: &NetworkTopology, options: &SimOptions, frame_ns: f64) -> SimReport {
        let mut dims = self.dims;
        for interval in dims.iter_mut().flat_map(|dim| &mut dim.presence_intervals) {
            interval.0 -= frame_ns;
            interval.1 -= frame_ns;
        }
        let mut op_log = self.ops;
        for op in &mut op_log {
            op.start_ns -= frame_ns;
            op.end_ns -= frame_ns;
        }
        SimReport {
            scheduler_name: self.schedule.scheduler_name().to_string(),
            topology_name: topo.name().to_string(),
            total_time_ns: (self.finish_ns - frame_ns).max(0.0),
            activity_window_ns: options.activity_window_ns,
            dims,
            op_log,
        }
    }
}

/// What a run hands back for report assembly.
#[derive(Debug)]
struct Run<'a> {
    /// Network-wide statistics, on the run's clock.
    dims: Vec<DimReport>,
    /// Time at least one collective had an op in flight.
    network_busy_ns: f64,
    /// Time at least two collectives had ops in flight.
    overlap_ns: f64,
    colls: Vec<Coll<'a>>,
}

/// The cost of collective `coll`'s op `(chunk, stage)` in fault epoch
/// `epoch`: the epoch's degraded table when it has one, the healthy one
/// otherwise.
fn price(
    cells: &[(&CollectiveSchedule, &CostTable)],
    timelines: &[FaultTimeline],
    coll: usize,
    epoch: usize,
    chunk: usize,
    stage: usize,
) -> OpCost {
    timelines
        .get(coll)
        .and_then(|timeline| timeline.epochs()[epoch].table.as_deref())
        .unwrap_or(cells[coll].1)
        .cost(chunk, stage)
}

/// Runs admission-ordered collectives, `cells[k]` issued at `issue_ns[k]`,
/// through one event loop.
fn simulate<'a>(
    topo: &NetworkTopology,
    options: &SimOptions,
    cells: &[(&'a CollectiveSchedule, &'a CostTable)],
    issue_ns: &[f64],
) -> Result<Run<'a>, SimError> {
    let num_dims = topo.num_dims();
    // One fault plan compiled per schedule: the tables differ, the epoch
    // boundaries and blocked dimensions do not.
    let timelines = if options.faults.is_empty() {
        Vec::new()
    } else {
        cells
            .iter()
            .map(|(schedule, _)| {
                options
                    .faults
                    .compile(topo, &CostModel::new(), schedule, None)
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    // The enforced order (Sec. 4.6.2): per collective and dimension, the
    // `(chunk, stage)` ops in the order the collective's healthy run started
    // them there — this loop on the collective alone, one op per dimension
    // at a time, no faults, nothing enforced.
    let mut orders: Vec<Vec<Vec<(usize, usize)>>> = Vec::new();
    if options.enforce_intra_dim_order {
        for &cell in cells {
            let healthy = simulate(topo, &SimOptions::default(), &[cell], &[0.0])?;
            let mut order = vec![Vec::new(); num_dims];
            for op in &healthy.colls[0].ops {
                order[op.dim].push((op.chunk, op.stage));
            }
            orders.push(order);
        }
    }
    let mut colls: Vec<Coll> = cells
        .iter()
        .zip(issue_ns)
        .map(|(&(schedule, _), &issue_ns)| {
            let mut left = vec![0; num_dims];
            for chunk in schedule.chunks() {
                for stage in &chunk.stages {
                    left[stage.dim] += 1;
                }
            }
            Coll {
                schedule,
                issue_ns,
                outstanding: left.iter().sum(),
                left,
                cursor: vec![0; num_dims],
                start_ns: None,
                finish_ns: 0.0,
                active_ns: 0.0,
                overlapped_ns: 0.0,
                dims: dim_reports(topo),
                ops: Vec::new(),
            }
        })
        .collect();
    let mut channels: Vec<Channel> = (0..num_dims)
        .map(|_| Channel {
            ready: Vec::new(),
            running: Vec::new(),
            last_end_ns: f64::NEG_INFINITY,
        })
        .collect();
    let mut dims = dim_reports(topo);
    let mut network_busy_ns = 0.0f64;
    let mut overlap_ns = 0.0f64;
    let mut now = 0.0f64;
    let mut epoch = 0;
    let mut admitted = 0;
    let mut outstanding = 0;
    let mut arrival = 0u64;
    let mut stuck = 0;

    while admitted < colls.len() || outstanding > 0 {
        let blocked: &[bool] = timelines
            .first()
            .map_or(&[], |timeline| &timeline.epochs()[epoch].blocked);
        let next_fault = timelines
            .first()
            .and_then(|timeline| timeline.epoch_start(epoch + 1));

        // Collectives whose issue time has come: their first stages are
        // ready.
        while admitted < colls.len() && colls[admitted].issue_ns <= now {
            let coll = admitted;
            admitted += 1;
            if colls[coll].outstanding == 0 {
                colls[coll].start_ns = Some(now);
                colls[coll].finish_ns = now;
                continue;
            }
            outstanding += colls[coll].outstanding;
            for (chunk, chunk_schedule) in cells[coll].0.chunks().iter().enumerate() {
                if let Some(first) = chunk_schedule.stages.first() {
                    channels[first.dim].ready.push(Ready {
                        coll,
                        chunk,
                        stage: 0,
                        arrival,
                        cost_ns: price(cells, &timelines, coll, epoch, chunk, 0).transfer_ns,
                    });
                    arrival += 1;
                }
            }
        }

        // Start what the concurrency limit, dimension ownership and the
        // enforced order allow on every healthy dimension.
        for (dim, channel) in channels.iter_mut().enumerate() {
            if blocked.get(dim) == Some(&true) {
                continue;
            }
            while channel.running.len() < options.max_concurrent_ops_per_dim {
                let Some(owner) = (0..admitted).find(|&coll| colls[coll].left[dim] > 0) else {
                    break;
                };
                let candidates: Vec<usize> = (0..channel.ready.len())
                    .filter(|&i| channel.ready[i].coll == owner)
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let index = if orders.is_empty() {
                    let keys: Vec<(u64, f64)> = candidates
                        .iter()
                        .map(|&i| (channel.ready[i].arrival, channel.ready[i].cost_ns))
                        .collect();
                    let policy = cells[owner].0.intra_dim_policy();
                    candidates[policy.pick(&keys).expect("candidates are non-empty")]
                } else {
                    let cursor = colls[owner].cursor[dim];
                    let Some(&(chunk, stage)) = orders[owner][dim].get(cursor) else {
                        break;
                    };
                    let Some(&index) = candidates.iter().find(|&&i| {
                        channel.ready[i].chunk == chunk && channel.ready[i].stage == stage
                    }) else {
                        break;
                    };
                    colls[owner].cursor[dim] += 1;
                    index
                };
                let op = channel.ready.remove(index);
                let cost = price(cells, &timelines, op.coll, epoch, op.chunk, op.stage);
                let restarting = channel.running.is_empty() && now > channel.last_end_ns + IDLE_EPS;
                let cold = channel.last_end_ns == f64::NEG_INFINITY;
                let work_ns = if restarting || cold {
                    cost.work_ns()
                } else {
                    cost.transfer_ns
                };
                colls[op.coll].start_ns.get_or_insert(now);
                channel.running.push(Running {
                    coll: op.coll,
                    chunk: op.chunk,
                    stage: op.stage,
                    remaining_ns: work_ns,
                    start_ns: now,
                });
            }
        }

        let next_admission = colls.get(admitted).map(|coll| coll.issue_ns);
        if channels.iter().all(|channel| channel.running.is_empty()) {
            // Nothing runs: jump to the next admission or fault boundary
            // (the boundary wins a tie), finish, or stall.
            let jump = match (next_admission, next_fault) {
                (Some(admission), Some(fault)) if fault <= admission => Some((fault, true)),
                (Some(admission), _) => Some((admission, false)),
                (None, fault) => fault.map(|fault| (fault, true)),
            };
            match jump {
                Some((at, fault)) => {
                    now = at.max(now);
                    epoch += usize::from(fault);
                    continue;
                }
                None if outstanding == 0 => break,
                None => {
                    return Err(SimError::Stalled {
                        at_ns: now,
                        outstanding_ops: channels.iter().map(|channel| channel.ready.len()).sum(),
                    })
                }
            }
        }

        // Step to the earliest completion under processor sharing (an op
        // with k siblings progresses at rate 1/k), but never across the next
        // admission or fault boundary.
        let mut delta = f64::INFINITY;
        for channel in &channels {
            let k = channel.running.len() as f64;
            for op in &channel.running {
                delta = delta.min(op.remaining_ns * k);
            }
        }
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
                // A strictly earlier boundary defers the admission to the
                // next iteration.
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
        if delta > 0.0 || to_admission || to_fault {
            stuck = 0;
        } else {
            stuck += 1;
            if stuck > STALL_GUARD {
                return Err(SimError::Stalled {
                    at_ns: now,
                    outstanding_ops: outstanding,
                });
            }
        }

        // Charge the segment [now, now + delta): busy where ops run,
        // presence where ops run or wait, per dimension and per collective.
        if delta > 0.0 {
            let mut in_flight = vec![false; colls.len()];
            for (dim, channel) in channels.iter().enumerate() {
                if !channel.running.is_empty() {
                    dims[dim].busy_ns += delta;
                }
                if !channel.running.is_empty() || !channel.ready.is_empty() {
                    push_presence(&mut dims[dim].presence_intervals, now, now + delta);
                }
                for (index, coll) in colls.iter_mut().enumerate() {
                    let running = channel.running.iter().any(|op| op.coll == index);
                    let waiting = channel.ready.iter().any(|op| op.coll == index);
                    if running {
                        coll.dims[dim].busy_ns += delta;
                        in_flight[index] = true;
                    }
                    if running || waiting {
                        push_presence(&mut coll.dims[dim].presence_intervals, now, now + delta);
                    }
                }
            }
            let concurrent = in_flight.iter().filter(|&&flying| flying).count();
            if concurrent >= 1 {
                network_busy_ns += delta;
            }
            if concurrent >= 2 {
                overlap_ns += delta;
            }
            for (coll, &flying) in colls.iter_mut().zip(&in_flight) {
                if flying {
                    coll.active_ns += delta;
                }
                if flying && concurrent >= 2 {
                    coll.overlapped_ns += delta;
                }
            }
        }

        for channel in &mut channels {
            let k = channel.running.len() as f64;
            for op in &mut channel.running {
                op.remaining_ns -= delta / k;
            }
        }
        now = if to_fault {
            epoch += 1;
            next_fault.expect("a boundary was stepped to")
        } else if to_admission {
            next_admission.expect("an admission was stepped to")
        } else {
            now + delta
        };

        // Retire the finished ops in (dimension, collective, chunk) order and
        // make their successors ready, priced in the epoch just entered.
        let mut finished = Vec::new();
        for (dim, channel) in channels.iter_mut().enumerate() {
            channel.running.retain(|op| {
                let done = op.remaining_ns <= COMPLETION_EPS;
                if done {
                    finished.push((dim, *op));
                }
                !done
            });
        }
        finished.sort_by_key(|&(dim, op)| (dim, op.coll, op.chunk));
        for (dim, op) in finished {
            let wire_bytes = cells[op.coll].1.cost(op.chunk, op.stage).wire_bytes;
            dims[dim].wire_bytes += wire_bytes;
            dims[dim].ops_executed += 1;
            channels[dim].last_end_ns = now;
            outstanding -= 1;
            let stages = &cells[op.coll].0.chunks()[op.chunk].stages;
            let coll = &mut colls[op.coll];
            coll.left[dim] -= 1;
            coll.dims[dim].wire_bytes += wire_bytes;
            coll.dims[dim].ops_executed += 1;
            if options.record_op_log {
                coll.ops.push(OpRecord {
                    dim,
                    chunk: op.chunk,
                    stage: op.stage,
                    label: stages[op.stage].to_string(),
                    start_ns: op.start_ns,
                    end_ns: now,
                });
            }
            coll.outstanding -= 1;
            if coll.outstanding == 0 {
                coll.finish_ns = now;
            }
            if let Some(next) = stages.get(op.stage + 1) {
                channels[next.dim].ready.push(Ready {
                    coll: op.coll,
                    chunk: op.chunk,
                    stage: op.stage + 1,
                    arrival,
                    cost_ns: price(cells, &timelines, op.coll, epoch, op.chunk, op.stage + 1)
                        .transfer_ns,
                });
                arrival += 1;
            }
        }
    }

    Ok(Run {
        dims,
        network_busy_ns,
        overlap_ns,
        colls,
    })
}
