//! Cross-crate integration tests: scheduling → simulation → reporting on the
//! paper's evaluation platforms (driven through the `themis::api` facade),
//! plus data-level correctness of the schedules the Themis scheduler emits.

use themis::collectives::functional::{hierarchical, reference_all_reduce};
use themis::prelude::*;
use themis::{IdealEstimator, PipelineSimulator};

fn gigabyte_job() -> Job {
    Job::all_reduce(DataSize::from_gib(1.0))
}

#[test]
fn every_scheduler_produces_valid_executable_schedules_on_every_platform() {
    for preset in PresetTopology::all() {
        let platform = Platform::preset(preset);
        for kind in SchedulerKind::all() {
            let job = Job::all_reduce_mib(300.0).chunks(32).scheduler(kind);
            let run = job.run_detailed(&platform).unwrap();
            run.schedule.validate(platform.topology()).unwrap();
            assert!(
                (run.schedule.total_chunk_bytes() - job.size().as_bytes_f64()).abs() < 1.0,
                "{}: chunk bytes do not sum to the collective size",
                preset.name()
            );
            assert!(run.report.total_time_ns > 0.0);
            assert!(run.report.average_bw_utilization() <= 1.0 + 1e-9);
            for util in run.report.per_dim_utilization() {
                assert!((0.0..=1.0 + 1e-9).contains(&util));
            }
        }
    }
}

#[test]
fn themis_never_loses_to_the_baseline_and_never_beats_the_ideal_bound_at_scale() {
    let ideal = IdealEstimator::new();
    for preset in PresetTopology::next_generation() {
        let platform = Platform::preset(preset);
        let baseline = gigabyte_job()
            .scheduler(SchedulerKind::Baseline)
            .run_on(&platform)
            .unwrap();
        let themis = gigabyte_job()
            .scheduler(SchedulerKind::ThemisScf)
            .run_on(&platform)
            .unwrap();
        let bound = ideal
            .communication_time_ns(&gigabyte_job().request(), platform.topology())
            .unwrap();
        assert!(
            themis.total_time_ns() <= baseline.total_time_ns(),
            "{}: Themis slower than baseline",
            preset.name()
        );
        assert!(
            themis.total_time_ns() >= bound,
            "{}: Themis beat the Table 3 ideal bound",
            preset.name()
        );
        // The headline claim: a clear utilisation gap on next-gen platforms.
        assert!(
            themis.average_bw_utilization() > baseline.average_bw_utilization() + 0.1,
            "{}: no utilisation benefit",
            preset.name()
        );
    }
}

#[test]
fn simulated_total_time_respects_per_dimension_transfer_lower_bounds() {
    // No dimension can finish before pushing its scheduled bytes at full BW.
    for preset in [
        PresetTopology::SwSwSw3dHetero,
        PresetTopology::RingFcRingSw4d,
    ] {
        let platform = Platform::preset(preset);
        for kind in SchedulerKind::all() {
            let run = Job::all_reduce_mib(512.0)
                .scheduler(kind)
                .run_detailed(&platform)
                .unwrap();
            let wire = run.schedule.wire_bytes_per_dim(platform.topology());
            for (dim, bytes) in wire.iter().enumerate() {
                let bw = platform
                    .topology()
                    .dim_bandwidth(dim)
                    .unwrap()
                    .as_bytes_per_ns();
                let lower_bound = bytes / bw;
                assert!(
                    run.report.total_time_ns >= lower_bound - 1.0,
                    "{} / {}: dim{} lower bound violated",
                    preset.name(),
                    kind.label(),
                    dim + 1
                );
            }
        }
    }
}

#[test]
fn themis_chunk_schedules_produce_correct_allreduce_results_on_real_data() {
    // Execute the dimension orders chosen by the Themis scheduler with the
    // data-level functional collectives and check the numerical result — the
    // end-to-end version of Observation 1.
    let topo = NetworkTopology::builder("functional-3d")
        .dimension(
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 2, 800.0, 0.0).unwrap(),
        )
        .dimension(
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 4, 400.0, 0.0).unwrap(),
        )
        .dimension(
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 2, 100.0, 0.0).unwrap(),
        )
        .build()
        .unwrap();
    let platform = Platform::custom(topo);
    let schedule = Job::all_reduce_mib(64.0)
        .chunks(8)
        .schedule_on(&platform)
        .unwrap();

    let npus = platform.topology().num_npus();
    let elements = npus * 4;
    let data: Vec<Vec<f64>> = (0..npus)
        .map(|npu| {
            (0..elements)
                .map(|e| (npu * 13 + e * 7) as f64 % 19.0 - 9.0)
                .collect()
        })
        .collect();
    let expected = reference_all_reduce(&data).unwrap();

    let mut seen_non_baseline_order = false;
    for chunk in schedule.chunks() {
        let rs_order = chunk.reduce_scatter_order();
        let ag_order = chunk.all_gather_order();
        if rs_order != vec![0, 1, 2] {
            seen_non_baseline_order = true;
        }
        let result =
            hierarchical::all_reduce(platform.topology(), &data, &rs_order, &ag_order).unwrap();
        for (row, reference) in result.iter().zip(expected.iter()) {
            for (a, b) in row.iter().zip(reference.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
    assert!(
        seen_non_baseline_order,
        "Themis should have diversified at least one chunk's dimension order"
    );
}

#[test]
fn enforced_intra_dimension_order_is_consistent_across_replicas_and_executable() {
    for preset in [PresetTopology::Sw2d, PresetTopology::RingSwSwSw4d] {
        let platform = Platform::preset(preset);
        let job = Job::all_reduce_mib(256.0).chunks(32);
        let enforced_platform = platform.clone().with_enforced_order(true);
        // Two replicas (two NPUs computing locally) run the same order.
        let a = job.run_on(&enforced_platform).unwrap();
        let b = job.run_on(&enforced_platform).unwrap();
        assert!(!a.report.op_log.is_empty());
        assert_eq!(a, b);
        // Enforcing the order does not deadlock the simulator and, on a
        // healthy one-op-per-dimension run, changes nothing: the order is
        // the one that run takes.
        let plain = job.run_on(&platform).unwrap();
        assert_eq!(a.report, plain.report);
    }
}

#[test]
fn intra_dimension_policy_matters_for_themis_but_not_for_the_baseline() {
    // Sec. 4.3: the baseline's utilisation is invariant to the intra-dimension
    // policy (all chunks have identical schedules); Themis+SCF is at least as
    // good as Themis+FIFO on average.
    let platform = Platform::preset(PresetTopology::SwSwSw3dHomo);
    let simulator = PipelineSimulator::new(platform.topology(), platform.options());

    let baseline_schedule = gigabyte_job()
        .scheduler(SchedulerKind::Baseline)
        .schedule_on(&platform)
        .unwrap();
    let base_fifo = simulator
        .run_with_policy(&baseline_schedule, IntraDimPolicy::Fifo)
        .unwrap();
    let base_scf = simulator
        .run_with_policy(&baseline_schedule, IntraDimPolicy::SmallestChunkFirst)
        .unwrap();
    assert!((base_fifo.total_time_ns - base_scf.total_time_ns).abs() < 1.0);

    let fifo = gigabyte_job()
        .scheduler(SchedulerKind::ThemisFifo)
        .run_on(&platform)
        .unwrap();
    let scf = gigabyte_job()
        .scheduler(SchedulerKind::ThemisScf)
        .run_on(&platform)
        .unwrap();
    assert!(scf.total_time_ns() <= fifo.total_time_ns() * 1.01);
}

#[test]
fn sub_topology_collectives_match_the_transformer_partitioning() {
    // The Transformer-1T data-parallel traffic runs on the dimensions outside
    // the 128-NPU model-parallel group; check the split and that collectives
    // execute on both halves.
    let topo = PresetTopology::FcRingSw3d.build();
    let (mp, dp) = topo.split_for_group(128, "mp", "dp").unwrap();
    assert_eq!(mp.num_npus(), 128);
    assert_eq!(dp.num_npus(), 8);
    for part in [mp, dp] {
        let result = Job::all_reduce_mib(64.0)
            .chunks(16)
            .run_on(&Platform::custom(part))
            .unwrap();
        assert!(result.total_time_ns() > 0.0);
    }
}
