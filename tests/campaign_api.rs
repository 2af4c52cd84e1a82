//! Integration tests of the `themis::api` experiment layer: campaign matrix
//! expansion, sequential/parallel runner determinism, the unified error type,
//! and JSON round-tripping of campaign reports.

use themis::prelude::*;

fn small_campaign() -> Campaign {
    Campaign::new()
        .topologies([PresetTopology::Sw2d, PresetTopology::SwSwSw3dHetero])
        .sizes_mib([64.0, 128.0])
        .chunk_counts([16])
}

#[test]
fn campaign_expansion_counts_match_the_declared_axes() {
    let campaign = Campaign::new()
        .topologies(PresetTopology::next_generation())
        .sizes_mib([100.0, 250.0, 500.0, 750.0, 1024.0])
        .chunk_counts([32, 64]);
    assert_eq!(campaign.matrix_size(), 6 * 5 * 2 * 3);
    let specs = campaign.expand().unwrap();
    assert_eq!(specs.len(), 180);
    // Matrix order: platform -> size -> chunks -> scheduler; the scheduler
    // axis cycles fastest.
    assert_eq!(specs[0].job.scheduler_kind(), SchedulerKind::Baseline);
    assert_eq!(specs[1].job.scheduler_kind(), SchedulerKind::ThemisFifo);
    assert_eq!(specs[2].job.scheduler_kind(), SchedulerKind::ThemisScf);
    assert_eq!(specs[0].job.chunk_count(), 32);
    assert_eq!(specs[3].job.chunk_count(), 64);
    // Each platform block covers sizes x chunks x schedulers cells.
    assert_eq!(specs[0].platform.name(), "2D-SW_SW");
    assert_eq!(specs[5 * 2 * 3].platform.name(), "3D-SW_SW_SW_homo");
}

#[test]
fn parallel_and_sequential_runners_produce_identical_reports() {
    let campaign = small_campaign();
    let sequential = campaign.run(&Runner::sequential()).unwrap();
    assert_eq!(sequential.len(), 2 * 2 * 3); // platforms x sizes x schedulers
    for threads in [1, 2, 4, 8] {
        let parallel = campaign.run(&Runner::parallel_threads(threads)).unwrap();
        // Bit-identical, including matrix order and every float in every report.
        assert_eq!(sequential, parallel, "parallel_threads({threads})");
        for (seq, par) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(seq.total_time_ns().to_bits(), par.total_time_ns().to_bits());
        }
    }
}

#[test]
fn parallel_and_sequential_runners_agree_on_stream_cells() {
    // Stream campaigns go through the same worker-pool backend and must be
    // bit-identical across backends too.
    let stream = StreamJob::named("mp-then-dp")
        .push(QueuedCollective::all_reduce_mib("MP layer", 32.0))
        .push(QueuedCollective::all_reduce_mib("DP grads", 128.0).issued_at(25_000.0))
        .chunks(16);
    let campaign = StreamCampaign::new()
        .topologies([PresetTopology::Sw2d, PresetTopology::SwSwSw3dHetero])
        .stream(stream);
    let sequential = campaign.run(&Runner::sequential()).unwrap();
    let parallel = campaign.run(&Runner::parallel_threads(4)).unwrap();
    assert_eq!(sequential.len(), 6); // 2 platforms x 1 stream x 3 schedulers
    assert_eq!(sequential, parallel);
    for (seq, par) in sequential.iter().zip(parallel.iter()) {
        assert_eq!(seq.makespan_ns().to_bits(), par.makespan_ns().to_bits());
        assert_eq!(
            seq.report.overlap_ns.to_bits(),
            par.report.overlap_ns.to_bits()
        );
    }
}

#[test]
fn cached_and_uncached_campaigns_are_bit_identical_across_all_presets() {
    // The schedule-cache contract: schedulers are deterministic, so serving a
    // cell from the shared cache must not move a single bit of the report.
    // Cover every Table 3 scheduler on every preset topology.
    let campaign = Campaign::new()
        .topologies(PresetTopology::all())
        .sizes_mib([96.0])
        .chunk_counts([16]);
    assert_eq!(campaign.matrix_size(), 7 * 3);
    let cached = campaign.run(&Runner::parallel_threads(4)).unwrap();
    let uncached = campaign
        .run(&Runner::parallel_threads(4).with_schedule_cache(false))
        .unwrap();
    assert_eq!(cached, uncached);
    for (with_cache, without_cache) in cached.iter().zip(uncached.iter()) {
        assert_eq!(
            with_cache.total_time_ns().to_bits(),
            without_cache.total_time_ns().to_bits(),
            "{}",
            with_cache.config
        );
        assert_eq!(with_cache.report.op_log, without_cache.report.op_log);
    }
    // The sequential backend agrees too (cache shared by one worker only).
    let sequential_cached = campaign.run(&Runner::sequential()).unwrap();
    assert_eq!(sequential_cached, cached);
}

#[test]
fn warm_plan_campaigns_are_bit_identical_across_all_presets_and_backends() {
    // The precompiled-plan contract: serving schedules *and* per-op cost
    // tables from one warm `SimPlanCache` — across repeated runs, both
    // runner backends and every Table 3 scheduler on every preset topology —
    // must not move a single bit of any report.
    let campaign = Campaign::new()
        .topologies(PresetTopology::all())
        .sizes_mib([96.0])
        .chunk_counts([16]);
    let reference = campaign
        .run(&Runner::parallel_threads(4).with_schedule_cache(false))
        .unwrap();
    let plan = SimPlanCache::new();
    for runner in [Runner::sequential(), Runner::parallel_threads(4)] {
        for _ in 0..2 {
            let warm = campaign.run_with_cache(&runner, &plan).unwrap();
            assert_eq!(warm, reference);
        }
    }
    assert!(plan.schedules().hits() > 0);
    assert!(plan.cost_tables().hits() > 0);
    // Themis+FIFO and Themis+SCF share one cost table per (topology, size),
    // so the plan holds fewer tables than schedules.
    assert!(plan.cost_tables().len() < plan.schedules().len());

    // The per-cell planned path agrees with the one-shot path too.
    let mut workspace = SimWorkspace::new();
    for spec in campaign.expand().unwrap() {
        let planned = spec
            .job
            .run_planned(&spec.platform, &plan, &mut workspace)
            .unwrap();
        assert_eq!(planned, spec.job.run_on(&spec.platform).unwrap());
    }
}

#[test]
fn disabling_the_op_log_only_drops_the_trace() {
    let campaign = small_campaign();
    let with_log = campaign.run(&Runner::sequential()).unwrap();
    let without_log = campaign
        .clone()
        .sim_options(SimOptions::default().with_op_log(false))
        .run(&Runner::sequential())
        .unwrap();
    for (logged, quiet) in with_log.iter().zip(without_log.iter()) {
        assert!(!logged.report.op_log.is_empty());
        assert!(quiet.report.op_log.is_empty());
        assert_eq!(
            logged.total_time_ns().to_bits(),
            quiet.total_time_ns().to_bits()
        );
        assert_eq!(logged.report.dims, quiet.report.dims);
    }
}

#[test]
fn campaign_cells_match_single_job_runs() {
    let report = small_campaign().run(&Runner::parallel()).unwrap();
    let platform = Platform::preset(PresetTopology::Sw2d);
    let single = Job::all_reduce_mib(64.0)
        .chunks(16)
        .scheduler(SchedulerKind::ThemisScf)
        .run_on(&platform)
        .unwrap();
    let cell = report
        .find_with_chunks(
            "2D-SW_SW",
            SchedulerKind::ThemisScf,
            DataSize::from_mib(64.0),
            16,
        )
        .unwrap();
    assert_eq!(cell, &single);
}

#[test]
fn campaign_report_round_trips_through_json() {
    let report = small_campaign().run(&Runner::parallel()).unwrap();
    let text = report.to_json();
    assert!(text.starts_with('{'));
    let restored = CampaignReport::from_json(&text).unwrap();
    assert_eq!(restored, report);
    // And the restored report supports the same queries.
    let speedup = restored
        .speedup_over_baseline(
            "2D-SW_SW",
            DataSize::from_mib(128.0),
            SchedulerKind::ThemisScf,
        )
        .unwrap();
    assert!(speedup >= 1.0);
}

#[test]
fn themis_error_wraps_every_layer_of_the_stack() {
    // themis-net: unknown preset name.
    let err = Platform::named("9D-everything").unwrap_err();
    assert!(matches!(err, ThemisError::Net(_)), "{err}");

    // themis-core: zero chunks is a scheduling error.
    let platform = Platform::preset(PresetTopology::Sw2d);
    let err = Job::all_reduce_mib(16.0)
        .chunks(0)
        .run_on(&platform)
        .unwrap_err();
    assert!(matches!(err, ThemisError::Schedule(_)), "{err}");

    // themis-sim: invalid simulator options surface from the campaign layer.
    let err = Campaign::new()
        .topologies([PresetTopology::Sw2d])
        .sizes_mib([16.0])
        .sim_options(SimOptions::default().with_max_concurrent_ops(0))
        .run(&Runner::sequential())
        .unwrap_err();
    assert!(matches!(err, ThemisError::Sim(_)), "{err}");

    // themis-workloads: Transformer-1T's 128-NPU model-parallel group cannot
    // be carved out of a 4-NPU platform.
    let tiny = Platform::custom(
        NetworkTopology::builder("tiny-2x2")
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 2, 100.0, 0.0)
                    .unwrap(),
            )
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 2, 100.0, 0.0)
                    .unwrap(),
            )
            .build()
            .unwrap(),
    );
    let err = TrainingJob::new(Workload::Transformer1T)
        .run_on(&tiny)
        .unwrap_err();
    assert!(matches!(err, ThemisError::Workload(_)), "{err}");

    // themis-collectives: errors convert through the shared From impl.
    let collective_err =
        themis::collectives::CollectiveError::TooFewParticipants { participants: 1 };
    let err = ThemisError::from(collective_err);
    assert!(matches!(err, ThemisError::Collective(_)), "{err}");

    // Campaign-level validation has its own variant.
    let err = Campaign::new().run(&Runner::sequential()).unwrap_err();
    assert!(matches!(err, ThemisError::Campaign { .. }), "{err}");

    // And malformed JSON reports too.
    let err = CampaignReport::from_json("[not json").unwrap_err();
    assert!(matches!(err, ThemisError::Json { .. }), "{err}");
}

#[test]
fn errors_propagate_through_both_runner_backends() {
    let campaign = Campaign::new()
        .topologies([PresetTopology::Sw2d])
        .sizes_mib([16.0])
        .chunk_counts([0]);
    for runner in [Runner::sequential(), Runner::parallel()] {
        let err = campaign.run(&runner).unwrap_err();
        assert!(matches!(err, ThemisError::Campaign { .. }), "{err}");
    }
}

#[test]
fn custom_platforms_and_options_flow_through_the_campaign() {
    let topo = NetworkTopology::builder("custom-4x4")
        .dimension(
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 4, 800.0, 0.0).unwrap(),
        )
        .dimension(
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 4, 400.0, 0.0).unwrap(),
        )
        .build()
        .unwrap();
    let report = Campaign::new()
        .platform(Platform::custom(topo).with_enforced_order(true))
        .schedulers([SchedulerKind::ThemisScf])
        .sizes_mib([32.0])
        .chunk_counts([8])
        .run(&Runner::sequential())
        .unwrap();
    assert_eq!(report.len(), 1);
    let run = &report.results()[0];
    assert_eq!(run.config.topology, "custom-4x4");
    assert_eq!(run.config.chunks, 8);
    assert!(run.total_time_ns() > 0.0);
}
