//! Integration tests of the streaming multi-collective queue subsystem:
//! the `themis::api::stream` layer end to end, its degeneration to the
//! sequential timeline, training-derived streams, and JSON round-tripping.

use themis::prelude::*;

fn gradient_stream() -> StreamJob {
    StreamJob::named("grads")
        .push(QueuedCollective::all_reduce_mib("layer-3", 96.0))
        .push(QueuedCollective::all_reduce_mib("layer-2", 64.0).issued_at(50_000.0))
        .push(QueuedCollective::all_reduce_mib("layer-1", 32.0).issued_at(100_000.0))
        .chunks(16)
}

#[test]
fn stream_engine_degenerates_to_the_sequential_timeline_bit_identically() {
    // With cross-collective overlap disabled, every queued collective runs
    // alone: each span is the collective's standalone `Job` run, laid end
    // to end on the stream clock, bit for bit.
    let platform = Platform::preset(PresetTopology::SwSwSw3dHetero)
        .with_options(SimOptions::default().with_cross_collective_overlap(false));
    let stream = gradient_stream().run_on(&platform).unwrap();
    assert_eq!(stream.spans().len(), 3);
    let mut network_free_at = 0.0f64;
    let mut communication_ns = 0.0;
    for (span, queued) in stream.spans().iter().zip(gradient_stream().entries()) {
        let alone = Job::new(queued.kind(), queued.size())
            .chunks(16)
            .run_on(&platform)
            .unwrap()
            .report;
        assert_eq!(span.report, alone, "{}", span.label);
        let start = network_free_at.max(queued.issue_ns());
        assert_eq!(span.start_ns.to_bits(), start.to_bits(), "{}", span.label);
        network_free_at = start + alone.total_time_ns;
        communication_ns += alone.total_time_ns;
        assert_eq!(span.finish_ns.to_bits(), network_free_at.to_bits());
    }
    assert_eq!(stream.report.finish_ns.to_bits(), network_free_at.to_bits());
    assert_eq!(stream.overlap_ns(), 0.0);
    // And the report helpers agree on the derived quantities.
    assert_eq!(
        stream.makespan_ns().to_bits(),
        network_free_at.to_bits(),
        "the first collective is issued at t = 0"
    );
    assert_eq!(
        stream.report.total_communication_ns().to_bits(),
        communication_ns.to_bits()
    );
}

#[test]
fn streaming_beats_or_matches_the_sequential_policy_through_the_api() {
    let platform = Platform::preset(PresetTopology::SwSwSw3dHomo);
    let streamed = gradient_stream().run_on(&platform).unwrap();
    let sequential = gradient_stream()
        .run_on(
            &platform
                .clone()
                .with_options(SimOptions::default().with_cross_collective_overlap(false)),
        )
        .unwrap();
    assert!(streamed.makespan_ns() <= sequential.makespan_ns() + 1e-6);
    assert_eq!(streamed.spans().len(), 3);
    // Spans arrive in issue order with non-decreasing starts.
    let starts: Vec<f64> = streamed.spans().iter().map(|s| s.start_ns).collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn training_streams_expand_run_and_round_trip_through_json() {
    let streams: Vec<StreamJob> = [Workload::ResNet152, Workload::Dlrm]
        .into_iter()
        .map(|w| StreamJob::from_training(&TrainingJob::new(w)).unwrap())
        .collect();
    let campaign = StreamCampaign::new()
        .topologies([PresetTopology::SwSwSw3dHomo, PresetTopology::FcRingSw3d])
        .schedulers([SchedulerKind::Baseline, SchedulerKind::ThemisScf])
        .streams(streams);
    assert_eq!(campaign.matrix_size(), 2 * 2 * 2);
    let report = campaign.run(&Runner::parallel()).unwrap();
    assert_eq!(report.len(), 8);

    let text = report.to_json();
    let back = StreamCampaignReport::from_json(&text).unwrap();
    assert_eq!(back, report);
    let speedup = back
        .makespan_speedup_over_baseline(
            "3D-SW_SW_SW_homo",
            "ResNet-152-iteration",
            SchedulerKind::ThemisScf,
        )
        .unwrap();
    assert!(speedup >= 1.0 - 1e-9, "Themis regressed: {speedup}");
}

#[test]
fn cached_and_uncached_stream_campaigns_are_bit_identical_across_all_presets() {
    // Stream cells schedule every queued collective; with the cache they stop
    // re-scheduling identical ones — and must not move a single bit of any
    // report. Cover every Table 3 scheduler on every preset topology.
    let campaign = StreamCampaign::new()
        .topologies(PresetTopology::all())
        .stream(gradient_stream());
    assert_eq!(campaign.matrix_size(), 7 * 3);
    let cached = campaign.run(&Runner::parallel_threads(4)).unwrap();
    let uncached = campaign
        .run(&Runner::parallel_threads(4).with_schedule_cache(false))
        .unwrap();
    assert_eq!(cached, uncached);
    for (with_cache, without_cache) in cached.iter().zip(uncached.iter()) {
        assert_eq!(
            with_cache.makespan_ns().to_bits(),
            without_cache.makespan_ns().to_bits()
        );
        assert_eq!(
            with_cache.overlap_ns().to_bits(),
            without_cache.overlap_ns().to_bits()
        );
        for (cached_span, uncached_span) in
            with_cache.spans().iter().zip(without_cache.spans().iter())
        {
            assert_eq!(cached_span.report, uncached_span.report);
        }
    }
}

#[test]
fn warm_plan_stream_campaigns_are_bit_identical_across_all_presets() {
    // The precompiled-plan contract for streams: queued collectives served
    // from a warm `SimPlanCache` (shared schedules *and* shared cost tables)
    // across repeated runs and both backends must not move a single bit.
    let campaign = StreamCampaign::new()
        .topologies(PresetTopology::all())
        .stream(gradient_stream());
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
    assert!(plan.cost_tables().hits() > 0);

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
fn cached_stream_jobs_reuse_schedules_for_identical_collectives() {
    // A stream of identical gradients schedules exactly once per
    // (topology, scheduler, size) with the cache — and still matches the
    // uncached run bit for bit.
    let stream = StreamJob::named("identical")
        .collectives((0..6).map(|i| {
            QueuedCollective::all_reduce_mib(format!("g{i}"), 48.0)
                .issued_at(f64::from(i) * 25_000.0)
        }))
        .chunks(16);
    let platform = Platform::preset(PresetTopology::SwSwSw3dHetero);
    let plan = SimPlanCache::new();
    let cached = stream
        .run_planned(&platform, &plan, &mut SimWorkspace::new())
        .unwrap();
    let uncached = stream.run_on(&platform).unwrap();
    assert_eq!(cached, uncached);
    let cache = plan.schedules();
    assert_eq!(cache.misses(), 1, "identical collectives schedule once");
    assert_eq!(cache.hits(), 5);
}

#[test]
fn stream_errors_propagate_through_both_runner_backends() {
    let campaign = StreamCampaign::new()
        .topologies([PresetTopology::Sw2d])
        .stream(gradient_stream().chunks(0));
    for runner in [Runner::sequential(), Runner::parallel_threads(2)] {
        let err = campaign.run(&runner).unwrap_err();
        assert!(matches!(err, ThemisError::Schedule(_)), "{err}");
    }
    // Campaign-shape errors come first.
    let err = StreamCampaign::new()
        .run(&Runner::sequential())
        .unwrap_err();
    assert!(matches!(err, ThemisError::Campaign { .. }), "{err}");
}

#[test]
fn streamed_training_iteration_never_regresses_the_sequential_model() {
    let topo = PresetTopology::SwSwSw3dHetero.build();
    for workload in [Workload::ResNet152, Workload::Gnmt, Workload::Dlrm] {
        let streamed = TrainingSimulator::new(workload.config())
            .simulate_iteration_streamed(&topo, SchedulerKind::ThemisScf)
            .unwrap();
        let sequential = TrainingSimulator::new(workload.config())
            .with_sim_options(SimOptions::default().with_cross_collective_overlap(false))
            .simulate_iteration_streamed(&topo, SchedulerKind::ThemisScf)
            .unwrap();
        assert!(
            streamed.total_ns() <= sequential.total_ns() + 1e-6,
            "{workload:?}: streamed {:.0} ns vs sequential {:.0} ns",
            streamed.total_ns(),
            sequential.total_ns()
        );
        assert!(streamed.exposed_comm_ns <= sequential.exposed_comm_ns + 1e-6);
        assert!(streamed.stream.spans.len() == sequential.stream.spans.len());
    }
}
