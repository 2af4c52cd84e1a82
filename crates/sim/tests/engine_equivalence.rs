//! Simulator-vs-oracle equivalence on a deterministic preset grid: every
//! preset topology × every Table 3 scheduler × single and stream execution,
//! asserting the simulator reproduces the reference loop in `oracle/` bit
//! for bit, plus the edge cases of the single-run frame. The random-cell
//! counterpart lives in `differential.rs`.

mod oracle;

use themis_core::{
    BaselineScheduler, CollectiveRequest, CollectiveSchedule, CollectiveScheduler, IntraDimPolicy,
    SchedulerKind,
};
use themis_net::presets::PresetTopology;
use themis_sim::{FaultPlan, PipelineSimulator, SimOptions, StreamEntry, StreamSimulator};

fn preset_grid_options() -> Vec<SimOptions> {
    vec![
        SimOptions::default(),
        SimOptions::default().with_max_concurrent_ops(4),
        SimOptions::default().with_enforced_order(true),
    ]
}

#[test]
fn every_preset_matches_the_reference_engine_bit_for_bit() {
    let request = CollectiveRequest::all_reduce_mib(192.0);
    for preset in PresetTopology::all() {
        let topo = preset.build();
        for kind in SchedulerKind::all() {
            let schedule = kind.build(16).schedule(&request, &topo).unwrap();
            for options in preset_grid_options() {
                let fast = PipelineSimulator::new(&topo, options.clone())
                    .run(&schedule)
                    .unwrap();
                let reference = oracle::run(&topo, &options, &schedule).unwrap();
                assert_eq!(
                    fast.total_time_ns.to_bits(),
                    reference.total_time_ns.to_bits(),
                    "{}: makespan diverged ({kind})",
                    preset.name()
                );
                assert_eq!(
                    fast,
                    reference,
                    "{}: report diverged ({kind})",
                    preset.name()
                );
            }
        }
    }
}

#[test]
fn every_preset_stream_matches_the_reference_engine_bit_for_bit() {
    let entries = vec![
        StreamEntry::all_reduce_mib("a", 0.0, 96.0),
        StreamEntry::all_reduce_mib("b", 0.0, 64.0),
        StreamEntry::all_reduce_mib("c", 250_000.0, 48.0),
    ];
    for preset in PresetTopology::all() {
        let topo = preset.build();
        for kind in SchedulerKind::all() {
            for options in preset_grid_options() {
                let fast = StreamSimulator::new(&topo, options.clone())
                    .run(&mut *kind.build(8), &entries)
                    .unwrap();
                let reference =
                    oracle::run_stream(&topo, &options, &mut *kind.build(8), &entries).unwrap();
                assert_eq!(
                    fast.finish_ns.to_bits(),
                    reference.finish_ns.to_bits(),
                    "{}: stream finish diverged ({kind})",
                    preset.name()
                );
                assert_eq!(
                    fast,
                    reference,
                    "{}: stream report diverged ({kind})",
                    preset.name()
                );
            }
        }
    }
}

#[test]
fn a_run_with_every_first_stage_blocked_matches_the_reference_engine() {
    // Every Baseline All-Reduce chunk starts with a Reduce-Scatter on dim 0,
    // so failing dim 0 at t = 0 blocks every first stage: the single run
    // keeps t = 0 as its origin, the stream span starts at the recovery.
    let topo = PresetTopology::SwSwSw3dHomo.build();
    let request = CollectiveRequest::all_reduce_mib(64.0);
    let schedule = BaselineScheduler::new(8).schedule(&request, &topo).unwrap();
    let healthy = oracle::run(&topo, &SimOptions::default(), &schedule).unwrap();
    let recover_at = healthy.total_time_ns * 0.5;
    let options =
        SimOptions::default().with_faults(FaultPlan::new().fail(0.0, 0).recover(recover_at, 0));
    let fast = PipelineSimulator::new(&topo, options.clone())
        .run(&schedule)
        .unwrap();
    let reference = oracle::run(&topo, &options, &schedule).unwrap();
    assert!(reference.total_time_ns > recover_at);
    assert_eq!(
        fast.total_time_ns.to_bits(),
        reference.total_time_ns.to_bits()
    );
    assert_eq!(fast, reference);

    let entries = [StreamEntry::new("only", 0.0, request)];
    let fast = StreamSimulator::new(&topo, options.clone())
        .run(&mut BaselineScheduler::new(8), &entries)
        .unwrap();
    let reference =
        oracle::run_stream(&topo, &options, &mut BaselineScheduler::new(8), &entries).unwrap();
    assert!(reference.spans[0].start_ns >= recover_at);
    assert_eq!(fast, reference);
}

#[test]
fn a_schedule_without_chunks_matches_the_reference_engine() {
    let topo = PresetTopology::Sw2d.build();
    let request = CollectiveRequest::all_reduce_mib(64.0);
    let schedule = CollectiveSchedule::new(request, "empty", IntraDimPolicy::Fifo, Vec::new());
    let fast = PipelineSimulator::new(&topo, SimOptions::default())
        .run(&schedule)
        .unwrap();
    let reference = oracle::run(&topo, &SimOptions::default(), &schedule).unwrap();
    assert_eq!(reference.total_time_ns, 0.0);
    assert_eq!(fast, reference);
}
