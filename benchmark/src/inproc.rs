//! The in-process workloads: `campaign` (the Fig. 8/11 All-Reduce sweep)
//! and `training-stream` (gradient streams of three training workloads).
//!
//! One operation is a cold run (a fresh plan, through `Campaign::run` /
//! `StreamCampaign::run`) followed by a warm run on one suite-warm
//! `SimPlanCache` (`run_with_cache`), both on `Runner::sequential()`. The
//! traced run performs the same two passes cell by cell through the layer
//! functions the runner calls: `ScheduleCache::get_or_schedule`,
//! `CostTableCache::get_or_build`, then `PipelineSimulator::run_planned` or
//! `StreamSimulator::run_planned_cached`.

use crate::stats::{campaign_digest, median, quantile, unperturbed, Digest};
use crate::trace::{Tracer, OP};
use crate::{own_peak_rss_mib, Ctx, Outcome};
use std::sync::Arc;
use std::time::{Duration, Instant};
use themis::core::telemetry;
use themis::prelude::*;
use themis::sim::stream::{StreamEntry, StreamSimulator};
use themis::sim::PipelineSimulator;
use themis::{CostModel, IdealEstimator};

/// Set-ups per run, spread over the measured window; `setup_s` is their
/// unperturbed estimate.
const SETUPS: usize = 20;

/// A cell matrix the in-process workloads can run cold, warm and traced.
pub trait Matrix: Sized {
    type Report: PartialEq;
    /// Name of the event-loop layer the matrix exercises.
    const LOOP: &'static str;

    fn build() -> Result<Self, ThemisError>;
    fn cells(&self) -> usize;
    /// One cold run: a fresh plan, through the public campaign entry point.
    fn cold(&self) -> Result<Self::Report, ThemisError>;
    /// One warm run on a shared plan.
    fn warm(&self, plan: &SimPlanCache) -> Result<Self::Report, ThemisError>;
    /// The reference the runs are checked against: the uncached runner.
    fn oracle(&self) -> Result<Self::Report, ThemisError>;
    /// The same run as [`Matrix::warm`], performed cell by cell through the
    /// layer functions, each call recorded as a span.
    fn traced(
        &self,
        tracer: &mut Tracer,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<Self::Report, ThemisError>;
    /// Simulated chunk operations in a report (sum of `ops_executed`).
    fn chunk_ops(report: &Self::Report) -> usize;
    /// Checks each cell against bounds that do not come from the simulator:
    /// time at least the `IdealEstimator` bound, and executed operations
    /// equal to chunks × stages.
    fn sound(&self, report: &Self::Report) -> bool;
    fn digest(report: &Self::Report) -> String;
}

fn quiet() -> SimOptions {
    SimOptions::default().with_op_log(false)
}

/// `IdealEstimator` bound for `request` on `topology`, ns.
fn ideal_ns(request: &CollectiveRequest, topology: &NetworkTopology) -> f64 {
    IdealEstimator::new()
        .communication_time_ns(request, topology)
        .unwrap_or(f64::INFINITY)
}

fn dim_ops(report: &SimReport) -> usize {
    report.dims.iter().map(|dim| dim.ops_executed).sum()
}

/// One cell, layer by layer, exactly as `Job::run_planned` runs it.
pub fn traced_cell(
    tracer: &mut Tracer,
    spec: &RunSpec,
    plan: &SimPlanCache,
    workspace: &mut SimWorkspace,
) -> Result<RunResult, ThemisError> {
    let (platform, job) = (&spec.platform, &spec.job);
    let topology = platform.scheduling_topology()?;
    let schedule = tracer.span("schedule", |_| {
        plan.schedules().get_or_schedule(
            topology.as_ref(),
            &job.request(),
            job.chunk_count(),
            job.scheduler_kind(),
        )
    })?;
    let simulator = PipelineSimulator::new(platform.topology(), platform.options());
    let table = tracer.span("cost", |_| {
        plan.cost_tables()
            .get_or_build(platform.topology(), simulator.cost_model(), &schedule)
    })?;
    let report = tracer.span("pipeline", |_| {
        simulator.run_planned(&schedule, &table, workspace, Some(plan.cost_tables()))
    })?;
    Ok(RunResult {
        config: job.config_on(platform),
        report,
    })
}

/// One stream cell, layer by layer, exactly as `StreamJob::run_planned`
/// runs it.
pub fn traced_stream_cell(
    tracer: &mut Tracer,
    spec: &StreamSpec,
    plan: &SimPlanCache,
    workspace: &mut SimWorkspace,
) -> Result<StreamRunResult, ThemisError> {
    let (platform, job) = (&spec.platform, &spec.job);
    let entries: Vec<StreamEntry> = job
        .entries()
        .iter()
        .map(|c| StreamEntry::new(c.label().to_string(), c.issue_ns(), c.request()))
        .collect();
    let topology = platform.scheduling_topology()?;
    let simulator = StreamSimulator::new(platform.topology(), platform.options());
    let cost_model = CostModel::new();
    let mut schedules = Vec::with_capacity(entries.len());
    let mut tables = Vec::with_capacity(entries.len());
    for entry in job.entries() {
        let schedule: Arc<CollectiveSchedule> = tracer.span("schedule", |_| {
            plan.schedules().get_or_schedule(
                topology.as_ref(),
                &entry.request(),
                job.chunk_count(),
                job.scheduler_kind(),
            )
        })?;
        tables.push(tracer.span("cost", |_| {
            plan.cost_tables()
                .get_or_build(platform.topology(), &cost_model, &schedule)
        })?);
        schedules.push(schedule);
    }
    let report = tracer.span("stream", |_| {
        simulator.run_planned_cached(
            &entries,
            &schedules,
            &tables,
            workspace,
            Some(plan.cost_tables()),
        )
    })?;
    Ok(StreamRunResult {
        config: job.config_on(platform),
        report,
    })
}

/// The Fig. 8/11 sweep: six next-generation platforms × {64, 256} MiB ×
/// 64 chunks × three schedulers = 36 All-Reduce cells, op log off.
pub struct CampaignMatrix {
    pub campaign: Campaign,
    pub specs: Vec<RunSpec>,
}

pub fn campaign_grid() -> Campaign {
    Campaign::new()
        .topologies(PresetTopology::next_generation())
        .sizes_mib([64.0, 256.0])
        .chunk_counts([64])
        .sim_options(quiet())
}

impl Matrix for CampaignMatrix {
    type Report = CampaignReport;
    const LOOP: &'static str = "pipeline";

    fn build() -> Result<Self, ThemisError> {
        let campaign = campaign_grid();
        let specs = campaign.expand()?;
        Ok(CampaignMatrix { campaign, specs })
    }

    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn cold(&self) -> Result<CampaignReport, ThemisError> {
        self.campaign.run(&Runner::sequential())
    }

    fn warm(&self, plan: &SimPlanCache) -> Result<CampaignReport, ThemisError> {
        self.campaign.run_with_cache(&Runner::sequential(), plan)
    }

    fn oracle(&self) -> Result<CampaignReport, ThemisError> {
        let runner = Runner::sequential().with_schedule_cache(false);
        Ok(CampaignReport::new(runner.execute(&self.specs)?))
    }

    fn traced(
        &self,
        tracer: &mut Tracer,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<CampaignReport, ThemisError> {
        let results = self
            .specs
            .iter()
            .map(|spec| traced_cell(tracer, spec, plan, workspace))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport::new(results))
    }

    fn chunk_ops(report: &CampaignReport) -> usize {
        report.results().iter().map(|r| dim_ops(&r.report)).sum()
    }

    fn sound(&self, report: &CampaignReport) -> bool {
        report.len() == self.specs.len()
            && self
                .specs
                .iter()
                .zip(report.results())
                .all(|(spec, result)| {
                    let dims = spec.platform.topology().num_dims();
                    let stages = spec.job.kind().num_stages(dims);
                    let bound = ideal_ns(&spec.job.request(), spec.platform.topology());
                    result.report.total_time_ns >= bound * (1.0 - 1e-12)
                        && dim_ops(&result.report) == spec.job.chunk_count() * stages
                })
    }

    fn digest(report: &CampaignReport) -> String {
        campaign_digest(report)
    }
}

/// Gradient streams of ResNet-152, GNMT and DLRM on three 3D platforms ×
/// three schedulers = 27 cells; cross-collective overlap on, op log off.
pub struct StreamMatrix {
    campaign: StreamCampaign,
    specs: Vec<StreamSpec>,
}

impl Matrix for StreamMatrix {
    type Report = StreamCampaignReport;
    const LOOP: &'static str = "stream";

    fn build() -> Result<Self, ThemisError> {
        let streams = [Workload::ResNet152, Workload::Gnmt, Workload::Dlrm]
            .into_iter()
            .map(|w| StreamJob::from_training(&TrainingJob::new(w)))
            .collect::<Result<Vec<_>, _>>()?;
        let campaign = StreamCampaign::new()
            .topologies([
                PresetTopology::SwSwSw3dHomo,
                PresetTopology::SwSwSw3dHetero,
                PresetTopology::FcRingSw3d,
            ])
            .streams(streams)
            .sim_options(quiet().with_cross_collective_overlap(true));
        let specs = campaign.expand()?;
        Ok(StreamMatrix { campaign, specs })
    }

    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn cold(&self) -> Result<StreamCampaignReport, ThemisError> {
        self.campaign.run(&Runner::sequential())
    }

    fn warm(&self, plan: &SimPlanCache) -> Result<StreamCampaignReport, ThemisError> {
        self.campaign.run_with_cache(&Runner::sequential(), plan)
    }

    fn oracle(&self) -> Result<StreamCampaignReport, ThemisError> {
        let runner = Runner::sequential().with_schedule_cache(false);
        Ok(StreamCampaignReport::new(
            runner.execute_streams(&self.specs)?,
        ))
    }

    fn traced(
        &self,
        tracer: &mut Tracer,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<StreamCampaignReport, ThemisError> {
        let results = self
            .specs
            .iter()
            .map(|spec| traced_stream_cell(tracer, spec, plan, workspace))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StreamCampaignReport::new(results))
    }

    fn chunk_ops(report: &StreamCampaignReport) -> usize {
        report
            .results()
            .iter()
            .flat_map(|r| &r.report.spans)
            .map(|span| dim_ops(&span.report))
            .sum()
    }

    fn sound(&self, report: &StreamCampaignReport) -> bool {
        report.len() == self.specs.len()
            && self
                .specs
                .iter()
                .zip(report.results())
                .all(|(spec, result)| {
                    let topology = spec.platform.topology();
                    let dims = topology.num_dims();
                    let entries = spec.job.entries();
                    result.report.spans.len() == entries.len()
                        && result.report.spans.iter().all(|span| {
                            let entry = &entries[span.index];
                            let bound = ideal_ns(&entry.request(), topology);
                            span.finish_ns - span.start_ns >= bound * (1.0 - 1e-12)
                                && dim_ops(&span.report)
                                    == spec.job.chunk_count() * entry.kind().num_stages(dims)
                        })
                })
    }

    fn digest(report: &StreamCampaignReport) -> String {
        let mut digest = Digest::default();
        digest.stream(report);
        digest.hex()
    }
}

/// What one set-up produces: the inputs, the oracle, and a warm suite plan.
struct Prepared<M: Matrix> {
    matrix: M,
    oracle: M::Report,
    suite: SimPlanCache,
}

/// One set-up: builds the inputs, the oracle and the warm suite plan, and
/// checks the oracle against the independent bounds.
fn prepare<M: Matrix>() -> Result<Prepared<M>, String> {
    let matrix = M::build().map_err(|e| e.to_string())?;
    let oracle = matrix.oracle().map_err(|e| e.to_string())?;
    if !matrix.sound(&oracle) {
        return Err("the oracle report breaks the ideal or op-count bounds".to_string());
    }
    let suite = SimPlanCache::new();
    matrix.warm(&suite).map_err(|e| e.to_string())?;
    Ok(Prepared {
        matrix,
        oracle,
        suite,
    })
}

fn untraced<M: Matrix>(ctx: &Ctx) -> Result<Outcome, String> {
    let p = prepare::<M>()?;
    println!("digest {}", M::digest(&p.oracle));
    // The first set-up counts from process start; the others are spread
    // over the window, so they meet the machine's phases as operations do.
    let mut setup_s = vec![ctx.started.elapsed().as_secs_f64()];
    let mut outcome = Outcome::default();
    let cells = p.matrix.cells() as f64;
    let (mut cold_s, mut warm_s) = (Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let due = window.mul_f64(setup_s.len() as f64 / SETUPS as f64);
        if setup_s.len() < SETUPS && start.elapsed() >= due {
            let again = Instant::now();
            prepare::<M>()?;
            setup_s.push(again.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let cold = p.matrix.cold();
        cold_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let warm = p.matrix.warm(&p.suite);
        warm_s.push(t.elapsed().as_secs_f64());
        outcome.check(matches!((&cold, &warm), (Ok(c), Ok(w)) if *c == p.oracle && *w == p.oracle));
    }
    println!(
        "operations {} (cold + warm), {cells} cells each; cold median {:.3} ms, p99 {:.3} ms",
        cold_s.len(),
        median(&cold_s) * 1e3,
        quantile(&cold_s, 0.99) * 1e3
    );
    let cold = unperturbed(&cold_s);
    outcome.set("setup_s", unperturbed(&setup_s));
    outcome.set("cells_per_s", cells / cold);
    outcome.set("warm_cells_per_s", cells / unperturbed(&warm_s));
    outcome.set("latency_ms", cold * 1e3);
    outcome.set("max_rps", 1.0 / cold);
    outcome.set("peak_rss_mib", own_peak_rss_mib());
    Ok(outcome)
}

/// Warm-pass pairs with `telemetry::global()` recording on and off; returns
/// the median per-pair on/off slowdown in percent.
fn telemetry_overhead<M: Matrix>(p: &Prepared<M>, until: Instant) -> f64 {
    let registry = telemetry::global();
    let mut ratios = Vec::new();
    let mut round = 0usize;
    while Instant::now() < until || ratios.len() < 5 {
        // Alternate which side runs first, so drift cancels.
        let time = |enabled: bool| {
            registry.set_enabled(enabled);
            let start = Instant::now();
            let _ = p.matrix.warm(&p.suite);
            start.elapsed().as_secs_f64()
        };
        let (on, off) = if round.is_multiple_of(2) {
            let on = time(true);
            (on, time(false))
        } else {
            let off = time(false);
            (time(true), off)
        };
        ratios.push(on / off);
        round += 1;
    }
    registry.set_enabled(true);
    (median(&ratios) - 1.0) * 100.0
}

fn traced<M: Matrix>(ctx: &Ctx) -> Result<Outcome, String> {
    let p = prepare::<M>()?;
    println!("digest {}", M::digest(&p.oracle));
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::default();
    let mut workspace = SimWorkspace::new();
    let (mut schedule_runs, mut cost_builds, mut chunk_ops) = (Vec::new(), Vec::new(), 0usize);
    let mut untraced_s = Vec::new();
    let window = Instant::now();
    let share = if M::LOOP == "pipeline" { 0.75 } else { 1.0 };
    let deadline = window + Duration::from_secs_f64(ctx.seconds * share);
    while Instant::now() < deadline {
        // The untraced operation, for the runner's own share.
        let start = Instant::now();
        let _ = p.matrix.cold();
        let _ = p.matrix.warm(&p.suite);
        untraced_s.push(start.elapsed().as_secs_f64());

        let cold_plan = SimPlanCache::new();
        let (cold, warm) = tracer.op(|t| {
            let cold = p.matrix.traced(t, &cold_plan, &mut workspace);
            let warm = p.matrix.traced(t, &p.suite, &mut workspace);
            (cold, warm)
        });
        schedule_runs.push(cold_plan.schedules().misses() as f64);
        cost_builds.push(cold_plan.cost_tables().misses() as f64);
        let ok = matches!((&cold, &warm), (Ok(c), Ok(w)) if *c == p.oracle && *w == p.oracle);
        if let (Ok(c), Ok(w)) = (&cold, &warm) {
            chunk_ops += M::chunk_ops(c) + M::chunk_ops(w);
        }
        outcome.check(ok);
    }
    let telemetry_pct = if M::LOOP == "pipeline" {
        telemetry_overhead(&p, window + Duration::from_secs_f64(ctx.seconds))
    } else {
        0.0
    };
    let ops = tracer.ops() as f64;
    let layer = |name: &str| median(&tracer.per_op(name));
    let covered: Vec<f64> = {
        let per = |name| tracer.per_op(name);
        let (s, c, l) = (per("schedule"), per("cost"), per(M::LOOP));
        (0..tracer.ops()).map(|i| s[i] + c[i] + l[i]).collect()
    };
    let runner_self: Vec<f64> = untraced_s
        .iter()
        .zip(&covered)
        .map(|(u, c)| u * 1e9 - c)
        .collect();
    outcome.set("schedule.ns", layer("schedule"));
    outcome.set("schedule.runs", median(&schedule_runs));
    outcome.set("cost.ns", layer("cost"));
    outcome.set("cost.builds", median(&cost_builds));
    let (ns_per_op, op_count) = match M::LOOP {
        "pipeline" => ("pipeline.ns_per_op", "pipeline.ops"),
        _ => ("stream.ns_per_op", "stream.ops"),
    };
    outcome.set(ns_per_op, tracer.total(M::LOOP) / chunk_ops.max(1) as f64);
    outcome.set(op_count, chunk_ops as f64 / ops.max(1.0));
    outcome.set("runner.self_ns", median(&runner_self));
    outcome.set("telemetry.overhead_pct", telemetry_pct);
    outcome.set("unattributed_ns", layer(OP));
    outcome.set("trace.overhead_pct", tracer.overhead_pct());
    tracer
        .write_tsv(&ctx.trace_file)
        .map_err(|e| format!("cannot write {}: {e}", ctx.trace_file.display()))?;
    Ok(outcome)
}

pub fn campaign(ctx: &Ctx) -> Result<Outcome, String> {
    untraced::<CampaignMatrix>(ctx)
}

pub fn campaign_traced(ctx: &Ctx) -> Result<Outcome, String> {
    traced::<CampaignMatrix>(ctx)
}

pub fn training_stream(ctx: &Ctx) -> Result<Outcome, String> {
    untraced::<StreamMatrix>(ctx)
}

pub fn training_stream_traced(ctx: &Ctx) -> Result<Outcome, String> {
    traced::<StreamMatrix>(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace ≡ untraced: the traced per-cell decomposition gives reports
    /// bit-identical to `Job::run_planned` / `StreamJob::run_planned`, cold
    /// and warm, for every cell of both in-process workloads.
    #[test]
    fn traced_cells_match_the_planned_entry_points() {
        let mut tracer = Tracer::default();
        let campaign = CampaignMatrix::build().unwrap();
        let streams = StreamMatrix::build().unwrap();
        for _ in 0..2 {
            let (plan, traced_plan) = (SimPlanCache::new(), SimPlanCache::new());
            for pass in 0..2 {
                let mut ws = SimWorkspace::new();
                for spec in &campaign.specs {
                    let direct = spec
                        .job
                        .run_planned(&spec.platform, &plan, &mut ws)
                        .unwrap();
                    let traced = tracer
                        .op(|t| traced_cell(t, spec, &traced_plan, &mut ws))
                        .unwrap();
                    assert_eq!(direct, traced, "pass {pass}: {}", direct.config);
                }
                for spec in &streams.specs {
                    let direct = spec
                        .job
                        .run_planned(&spec.platform, &plan, &mut ws)
                        .unwrap();
                    let traced = tracer
                        .op(|t| traced_stream_cell(t, spec, &traced_plan, &mut ws))
                        .unwrap();
                    assert_eq!(direct, traced, "pass {pass}: {}", direct.config);
                }
            }
            assert_eq!(plan.schedules().misses(), traced_plan.schedules().misses());
            assert_eq!(
                plan.cost_tables().misses(),
                traced_plan.cost_tables().misses()
            );
        }
    }

    #[test]
    fn oracles_meet_the_independent_bounds() {
        let campaign = CampaignMatrix::build().unwrap();
        assert!(campaign.sound(&campaign.oracle().unwrap()));
        let streams = StreamMatrix::build().unwrap();
        assert!(streams.sound(&streams.oracle().unwrap()));
    }
}
