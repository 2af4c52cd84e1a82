//! Integration tests for the fault-event subsystem (`themis_sim::faults`)
//! through the public facade.
//!
//! Two load-bearing contracts:
//!
//! * **Empty plans are free.** A platform carrying `FaultPlan::new()` takes
//!   the exact original float paths: every report is bit-identical to the
//!   fault-free platform, for every scheduler kind, on every preset, through
//!   single-job, stream and sharded execution alike.
//! * **Faulted runs are deterministic.** The same fault plan produces the
//!   same report across runner backends (sequential, parallel), cached and
//!   uncached paths (cold, `ScheduleCache`, warm `SimPlanCache`), the
//!   service's JSON protocol, and the JSON round trip to worker processes.

use themis::api::json::Json;
use themis::api::serve::campaign_cells_to_json;
use themis::api::shard::{merge_reports, ShardPlan, ShardReport, ShardSpec, ShardStrategy};
use themis::prelude::*;

/// The fault plan exercised by the determinism tests: a t = 0 asymmetry the
/// scheduler sees, a mid-stream degradation, and a transient flap.
fn eventful_plan() -> FaultPlan {
    FaultPlan::new()
        .degrade(0.0, 0, 0.75)
        .degrade(400_000.0, 1, 0.5)
        .fail(800_000.0, 0)
        .recover(1_200_000.0, 0)
}

/// Campaign cells over `presets`: every scheduler kind, one platform per
/// preset carrying `plan` (`None` builds the fault-free platform, without
/// even an empty plan installed).
fn specs_with(presets: &[PresetTopology], plan: Option<&FaultPlan>) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &preset in presets {
        let mut platform = Platform::preset(preset);
        if let Some(plan) = plan {
            platform = platform.with_faults(plan.clone());
        }
        for kind in SchedulerKind::all() {
            specs.push(RunSpec::new(
                platform.clone(),
                Job::all_reduce_mib(48.0).chunks(8).scheduler(kind),
            ));
        }
    }
    specs
}

/// A small two-collective stream (one queued mid-flight).
fn stream(kind: SchedulerKind) -> StreamJob {
    StreamJob::named("faulted-pair")
        .push(QueuedCollective::all_reduce_mib("g2", 32.0))
        .push(QueuedCollective::all_reduce_mib("g1", 32.0).issued_at(200_000.0))
        .chunks(4)
        .scheduler(kind)
}

#[test]
fn empty_fault_plan_is_bit_identical_for_every_kind_and_preset() {
    for preset in PresetTopology::all() {
        let plain = Platform::preset(preset);
        let faulted = plain.clone().with_faults(FaultPlan::new());
        // The empty plan folds into no scheduling asymmetry either.
        assert_eq!(
            faulted.scheduling_topology().unwrap().as_ref(),
            plain.topology()
        );
        for kind in SchedulerKind::all() {
            let job = Job::all_reduce_mib(24.0).chunks(4).scheduler(kind);
            assert_eq!(
                job.run_on(&faulted).unwrap(),
                job.run_on(&plain).unwrap(),
                "single job, {kind} on {preset:?}"
            );
            let streamed = stream(kind);
            assert_eq!(
                streamed.run_on(&faulted).unwrap(),
                streamed.run_on(&plain).unwrap(),
                "stream, {kind} on {preset:?}"
            );
        }
    }
}

#[test]
fn empty_fault_plan_is_bit_identical_through_sharded_execution() {
    let presets = [PresetTopology::Sw2d, PresetTopology::FcRingSw3d];
    let plain = specs_with(&presets, None);
    let faulted = specs_with(&presets, Some(&FaultPlan::new()));
    let merge = |specs: &[RunSpec]| {
        let plan = ShardPlan::from_cells(ShardStrategy::CostBalanced, specs, 3);
        let partials: Vec<ShardReport> = ShardSpec::campaign_shards(specs, &plan)
            .unwrap()
            .iter()
            .map(|shard| shard.execute().unwrap())
            .collect();
        merge_reports(&partials).unwrap()
    };
    assert_eq!(
        merge(&faulted).campaign(),
        merge(&plain).campaign(),
        "sharded campaign with an empty fault plan diverged from the fault-free run"
    );
}

#[test]
fn faulted_runs_are_deterministic_across_runner_backends_and_caches() {
    let presets = [PresetTopology::Sw2d, PresetTopology::FcRingSw3d];
    let specs = specs_with(&presets, Some(&eventful_plan()));
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let parallel = CampaignReport::new(Runner::parallel_threads(3).execute(&specs).unwrap());
    assert_eq!(
        parallel, reference,
        "parallel runner diverged on faulted cells"
    );
    // Two passes over one warm plan cache: epoch tables are built once and
    // shared, and the reports stay bit-identical.
    let plan = SimPlanCache::new();
    for pass in 0..2 {
        let cached = CampaignReport::new(
            Runner::sequential()
                .execute_with_cache(&specs, &plan)
                .unwrap(),
        );
        assert_eq!(cached, reference, "warm-plan pass {pass} diverged");
    }
    assert!(plan.cost_tables().hits() > 0);
    // Through the service: fault plans survive the request's JSON, and the
    // cell keys tell faulted platforms apart.
    let request = Json::obj([
        ("id", Json::Num(1.0)),
        ("kind", Json::Str("campaign".to_string())),
        ("cells", campaign_cells_to_json(&specs)),
    ])
    .render();
    let response = Json::parse(&Service::default().handle_line(&request)).unwrap();
    assert_eq!(
        response.field("status").unwrap().as_str().unwrap(),
        "ok",
        "{response:?}"
    );
    let served = CampaignReport::from_json(&response.field("result").unwrap().render()).unwrap();
    assert_eq!(served, reference, "the service diverged on faulted cells");
}

#[test]
fn faulted_job_paths_agree_bit_for_bit() {
    let platform = Platform::preset(PresetTopology::Sw2d).with_faults(eventful_plan());
    let plan = SimPlanCache::new();
    let mut workspace = SimWorkspace::new();
    for kind in SchedulerKind::all() {
        let job = Job::all_reduce_mib(64.0).chunks(16).scheduler(kind);
        let direct = job.run_on(&platform).unwrap();
        assert_eq!(
            job.run_planned(&platform, &plan, &mut workspace).unwrap(),
            direct,
            "{kind}"
        );
        let streamed = stream(kind);
        let stream_direct = streamed.run_on(&platform).unwrap();
        assert_eq!(
            streamed
                .run_planned(&platform, &plan, &mut workspace)
                .unwrap(),
            stream_direct,
            "stream {kind}"
        );
    }
}

#[test]
fn faulted_shards_survive_the_json_round_trip() {
    let specs = specs_with(&[PresetTopology::Sw2d], Some(&eventful_plan()));
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let plan = ShardPlan::round_robin(specs.len(), 2);
    let partials: Vec<ShardReport> = ShardSpec::campaign_shards(&specs, &plan)
        .unwrap()
        .iter()
        .map(|shard| {
            // Fault plans ride inside the platform options JSON of the spec.
            let remote = ShardSpec::from_json(&shard.to_json()).unwrap();
            assert_eq!(&remote, shard);
            let report = remote.execute().unwrap();
            ShardReport::from_json(&report.to_json()).unwrap()
        })
        .collect();
    assert_eq!(
        merge_reports(&partials).unwrap().campaign(),
        Some(&reference)
    );
}

#[test]
fn t_zero_degradation_reschedules_and_mid_stream_does_not() {
    let platform = Platform::preset(PresetTopology::Sw2d);
    let healthy = platform.scheduling_topology().unwrap().into_owned();
    // Mid-stream faults stay invisible to the scheduler.
    let mid = platform
        .clone()
        .with_faults(FaultPlan::new().degrade(500_000.0, 1, 0.5));
    assert_eq!(mid.scheduling_topology().unwrap().as_ref(), &healthy);
    // A t = 0 degrade is static asymmetry: the scheduler sees the scaled
    // dimension and Themis redistributes chunks accordingly.
    let at_zero = platform
        .clone()
        .with_faults(FaultPlan::new().degrade(0.0, 1, 0.5));
    let seen = at_zero.scheduling_topology().unwrap().into_owned();
    assert_ne!(seen, healthy);
    assert_eq!(seen, healthy.with_dim_bandwidth_scaled(1, 0.5).unwrap());
    let job = Job::all_reduce_mib(64.0).chunks(16);
    let blind = job.schedule_on(&platform).unwrap();
    let aware = job.schedule_on(&at_zero).unwrap();
    assert_ne!(blind, aware, "Themis did not adapt to the t = 0 asymmetry");
    assert_eq!(job.schedule_on(&mid).unwrap(), blind);
}
