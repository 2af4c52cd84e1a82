//! Integration tests for cross-process campaign sharding
//! (`themis::api::shard`) and the serializable schedule cache.
//!
//! The load-bearing contract: for any plan — any strategy, any shard count,
//! shards executed by any runner backend, specs round-tripped through JSON
//! or not — merging the partial reports reproduces the unsharded
//! `Runner::execute` / `Runner::execute_streams` report **bit for bit**.

use themis::api::shard::{merge_reports, ShardPlan, ShardReport, ShardSpec, ShardStrategy};
use themis::prelude::*;
use themis::ScheduleCache;
use themis_workloads::Workload;

/// Shard counts exercised everywhere: even, odd, and more shards than some
/// matrices have cells.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// A campaign matrix covering every scheduler kind on every preset topology.
fn campaign() -> Campaign {
    Campaign::new()
        .topologies(PresetTopology::all())
        .schedulers(SchedulerKind::all())
        .sizes_mib([24.0, 96.0])
        .chunk_counts([4])
}

/// A stream campaign mixing a hand-built stream and a training-derived one,
/// over every scheduler kind.
fn stream_campaign() -> StreamCampaign {
    let pair = StreamJob::named("pair")
        .push(QueuedCollective::all_reduce_mib("g2", 48.0))
        .push(QueuedCollective::all_reduce_mib("g1", 48.0).issued_at(2_000.0))
        .chunks(4);
    let resnet = StreamJob::from_training(&TrainingJob::new(Workload::ResNet152))
        .expect("ResNet-152 derives a stream")
        .chunks(2);
    StreamCampaign::new()
        .topologies([PresetTopology::Sw2d, PresetTopology::FcRingSw3d])
        .schedulers(SchedulerKind::all())
        .streams([pair, resnet])
}

#[test]
fn merged_campaign_is_bit_identical_to_unsharded_execute() {
    let specs = campaign().expand().unwrap();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostBalanced] {
        for shard_count in SHARD_COUNTS {
            let plan = strategy.plan(&specs, shard_count);
            let shards = ShardSpec::campaign_shards(&specs, &plan).unwrap();
            let partials: Vec<ShardReport> = shards
                .iter()
                .map(|shard| shard.execute().unwrap())
                .collect();
            let merged = merge_reports(&partials).unwrap();
            assert_eq!(
                merged.campaign(),
                Some(&reference),
                "{strategy:?} x {shard_count} shards"
            );
            assert_eq!(merged.len(), specs.len());
            // Every schedule is computed exactly once *somewhere*: the summed
            // lookups cover each cell of each shard.
            assert_eq!(merged.cache().lookups() as usize, specs.len());
        }
    }
}

#[test]
fn merged_stream_campaign_is_bit_identical_to_unsharded_execute_streams() {
    let specs = stream_campaign().expand().unwrap();
    let reference =
        StreamCampaignReport::new(Runner::sequential().execute_streams(&specs).unwrap());
    for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostBalanced] {
        for shard_count in SHARD_COUNTS {
            let plan = strategy.plan(&specs, shard_count);
            let shards = ShardSpec::stream_shards(&specs, &plan).unwrap();
            let partials: Vec<ShardReport> = shards
                .iter()
                .map(|shard| shard.execute().unwrap())
                .collect();
            let merged = merge_reports(&partials).unwrap();
            assert_eq!(
                merged.stream(),
                Some(&reference),
                "{strategy:?} x {shard_count} shards"
            );
            assert!(merged.campaign().is_none());
        }
    }
}

#[test]
fn sharding_survives_the_json_round_trip_to_worker_processes() {
    // The cross-process story end to end, minus the process boundary: specs
    // travel to workers as JSON, partial reports travel back as JSON, and
    // the merged result still matches the unsharded run bit for bit.
    let specs = campaign().expand().unwrap();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let plan = ShardPlan::from_cells(ShardStrategy::CostBalanced, &specs, 3);
    let shards = ShardSpec::campaign_shards(&specs, &plan).unwrap();
    let partials: Vec<ShardReport> = shards
        .iter()
        .map(|shard| {
            let wire = shard.to_json();
            let remote = ShardSpec::from_json(&wire).unwrap();
            assert_eq!(&remote, shard);
            let report = remote.execute().unwrap();
            ShardReport::from_json(&report.to_json()).unwrap()
        })
        .collect();
    let merged = merge_reports(&partials).unwrap();
    assert_eq!(merged.campaign(), Some(&reference));

    // The merged report itself round-trips too.
    let back = themis::MergedReport::from_json(&merged.to_json()).unwrap();
    assert_eq!(back, merged);
}

#[test]
fn shard_roundtrip_is_lossless_for_every_preset_platform() {
    // One campaign cell per preset platform (including non-default sim
    // options) and a training-derived stream job: encode → decode → equal.
    let specs: Vec<RunSpec> = PresetTopology::all()
        .into_iter()
        .map(|preset| {
            RunSpec::new(
                Platform::preset(preset)
                    .with_options(SimOptions::default().with_op_log(false))
                    .with_enforced_order(true),
                Job::all_reduce_mib(192.0)
                    .chunks(16)
                    .scheduler(SchedulerKind::ThemisFifo),
            )
        })
        .collect();
    let plan = ShardPlan::round_robin(specs.len(), 2);
    for shard in ShardSpec::campaign_shards(&specs, &plan).unwrap() {
        let back = ShardSpec::from_json(&shard.to_json()).unwrap();
        assert_eq!(back, shard);
    }

    let stream =
        StreamJob::from_training(&TrainingJob::new(Workload::Dlrm)).expect("DLRM derives a stream");
    let stream_specs: Vec<StreamSpec> = PresetTopology::all()
        .into_iter()
        .map(|preset| StreamSpec::new(Platform::preset(preset), stream.clone()))
        .collect();
    let plan = ShardPlan::round_robin(stream_specs.len(), 3);
    for shard in ShardSpec::stream_shards(&stream_specs, &plan).unwrap() {
        let back = ShardSpec::from_json(&shard.to_json()).unwrap();
        assert_eq!(back, shard, "stream shard {}", shard.shard_index());
        assert!(back.is_stream());
    }

    // Malformed spec files are rejected.
    assert!(ShardSpec::from_json("{}").is_err());
    assert!(ShardSpec::from_json("{\"version\":1,\"kind\":\"shard-spec\",\"cells\":\"weird\",\"shard_index\":0,\"shard_count\":1,\"entries\":[]}").is_err());
}

#[test]
fn specs_that_still_carry_the_reference_engine_key_execute_bit_identically() {
    // Specs written before the simulator had one event loop carry a
    // `reference_engine` flag in every platform's options; decoders ignore it.
    let specs = campaign().expand().unwrap();
    let plan = ShardPlan::round_robin(specs.len(), 2);
    for shard in ShardSpec::campaign_shards(&specs, &plan).unwrap() {
        let wire = shard.to_json();
        let from = "\"record_op_log\":true,";
        assert!(wire.contains(from), "{from} not in {wire}");
        let old = wire.replace(from, &format!("{from}\"reference_engine\":true,"));
        let decoded = ShardSpec::from_json(&old).unwrap();
        assert_eq!(decoded, shard);
        assert_eq!(decoded.execute().unwrap(), shard.execute().unwrap());
    }
}

#[test]
fn sharded_execution_through_one_warm_plan_matches_the_unsharded_run() {
    // Every shard of both matrix kinds served from one warm `SimPlanCache`
    // (shared schedules + cost tables) must still merge to the bit-exact
    // unsharded report — and a second pass over the same plan is served
    // entirely from it.
    let specs = campaign().expand().unwrap();
    let direct = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let stream_specs = stream_campaign().expand().unwrap();
    let stream_direct =
        StreamCampaignReport::new(Runner::sequential().execute_streams(&stream_specs).unwrap());

    let plan = SimPlanCache::new();
    for strategy in [ShardStrategy::RoundRobin, ShardStrategy::CostBalanced] {
        let shard_plan = ShardPlan::from_cells(strategy, &specs, 3);
        let shards = ShardSpec::campaign_shards(&specs, &shard_plan).unwrap();
        let partials: Vec<ShardReport> = shards
            .iter()
            .map(|shard| shard.execute_with_cache(&plan).unwrap())
            .collect();
        assert_eq!(merge_reports(&partials).unwrap().campaign(), Some(&direct));

        let stream_shard_plan = ShardPlan::from_cells(strategy, &stream_specs, 3);
        let stream_shards = ShardSpec::stream_shards(&stream_specs, &stream_shard_plan).unwrap();
        let stream_partials: Vec<ShardReport> = stream_shards
            .iter()
            .map(|shard| shard.execute_with_cache(&plan).unwrap())
            .collect();
        assert_eq!(
            merge_reports(&stream_partials).unwrap().stream(),
            Some(&stream_direct)
        );
    }
    // The second strategy pass hit the warm plan for every cell.
    assert!(plan.schedules().hits() > 0);
    assert!(plan.cost_tables().hits() > 0);
}

#[test]
fn dumped_cache_warm_starts_a_second_campaign_with_nonzero_hits() {
    let specs = campaign().expand().unwrap();
    let plan = ShardPlan::round_robin(specs.len(), 2);
    let shards = ShardSpec::campaign_shards(&specs, &plan).unwrap();

    // First campaign: cold cache, dump the schedules it built.
    let cold = SimPlanCache::new();
    let first: Vec<ShardReport> = shards
        .iter()
        .map(|shard| shard.execute_with_cache(&cold).unwrap())
        .collect();
    let first_merged = merge_reports(&first).unwrap();
    assert!(first_merged.cache().misses > 0);
    assert_eq!(first_merged.cache().lookups() as usize, specs.len());
    let dump = cold.schedules().dump();

    // Second campaign: load the dump into a fresh cache. Every schedule is
    // served from the file — zero misses, nonzero hits — and the report is
    // unchanged.
    let warm = ScheduleCache::new();
    warm.load(&dump).unwrap();
    let warm = SimPlanCache::with_schedules(warm);
    let second: Vec<ShardReport> = shards
        .iter()
        .map(|shard| shard.execute_with_cache(&warm).unwrap())
        .collect();
    let second_merged = merge_reports(&second).unwrap();
    assert_eq!(second_merged.campaign(), first_merged.campaign());
    assert!(second_merged.cache().hits > 0);
    assert_eq!(second_merged.cache().misses, 0);
    assert_eq!(second_merged.cache().hit_rate(), 1.0);
}

#[test]
fn stream_shards_share_schedules_through_a_dumped_cache() {
    // Training-derived streams repeat gradient sizes heavily; a dumped cache
    // from one stream campaign warm-starts the next.
    let specs = stream_campaign().expand().unwrap();
    let plan = ShardPlan::from_cells(ShardStrategy::CostBalanced, &specs, 3);
    let shards = ShardSpec::stream_shards(&specs, &plan).unwrap();

    let cold = SimPlanCache::new();
    let first: Vec<ShardReport> = shards
        .iter()
        .map(|shard| shard.execute_with_cache(&cold).unwrap())
        .collect();
    let reference = merge_reports(&first).unwrap();

    let warm = ScheduleCache::new();
    assert!(warm.load(&cold.schedules().dump()).unwrap() > 0);
    let warm = SimPlanCache::with_schedules(warm);
    let second: Vec<ShardReport> = shards
        .iter()
        .map(|shard| shard.execute_with_cache(&warm).unwrap())
        .collect();
    let merged = merge_reports(&second).unwrap();
    assert_eq!(merged.stream(), reference.stream());
    assert!(merged.cache().hits > 0);
    assert_eq!(merged.cache().misses, 0);
}

#[test]
fn merge_rejects_mixed_kinds_and_incomplete_matrices() {
    let specs = campaign().expand().unwrap();
    let stream_specs = stream_campaign().expand().unwrap();

    let campaign_plan = ShardPlan::round_robin(specs.len(), 2);
    let campaign_partials: Vec<ShardReport> = ShardSpec::campaign_shards(&specs, &campaign_plan)
        .unwrap()
        .iter()
        .map(|shard| shard.execute().unwrap())
        .collect();

    let stream_plan = ShardPlan::round_robin(stream_specs.len(), 2);
    let stream_partials: Vec<ShardReport> = ShardSpec::stream_shards(&stream_specs, &stream_plan)
        .unwrap()
        .iter()
        .map(|shard| shard.execute().unwrap())
        .collect();

    // Campaign and stream partials cannot merge together.
    assert!(matches!(
        merge_reports(&[campaign_partials[0].clone(), stream_partials[1].clone()]),
        Err(ThemisError::Campaign { .. })
    ));
    // Two copies of the same shard do not cover the matrix.
    assert!(matches!(
        merge_reports(&[campaign_partials[0].clone(), campaign_partials[0].clone()]),
        Err(ThemisError::Campaign { .. })
    ));
    // The valid sets still merge.
    assert!(merge_reports(&campaign_partials).is_ok());
    assert!(merge_reports(&stream_partials).is_ok());
}
