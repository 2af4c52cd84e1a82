//! Engine equivalence on a deterministic preset grid: every preset topology
//! × both schedulers × single and stream execution, asserting the
//! data-oriented loop reproduces the reference loop bit for bit. The
//! random-cell counterpart lives in `tests/differential.rs`.

use themis_core::{BaselineScheduler, CollectiveRequest, CollectiveScheduler, ThemisScheduler};
use themis_net::presets::PresetTopology;
use themis_sim::{PipelineSimulator, SimOptions, StreamEntry, StreamSimulator};

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
        for themis in [false, true] {
            let schedule = if themis {
                ThemisScheduler::new(16).schedule(&request, &topo).unwrap()
            } else {
                BaselineScheduler::new(16)
                    .schedule(&request, &topo)
                    .unwrap()
            };
            for options in preset_grid_options() {
                let fast = PipelineSimulator::new(&topo, options.clone())
                    .run(&schedule)
                    .unwrap();
                let reference = PipelineSimulator::new(&topo, options.with_reference_engine(true))
                    .run(&schedule)
                    .unwrap();
                assert_eq!(
                    fast.total_time_ns.to_bits(),
                    reference.total_time_ns.to_bits(),
                    "{}: makespan diverged (themis={themis})",
                    preset.name()
                );
                assert_eq!(fast, reference, "{}: report diverged", preset.name());
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
        for options in preset_grid_options() {
            let fast = StreamSimulator::new(&topo, options.clone())
                .run(&mut ThemisScheduler::new(8), &entries)
                .unwrap();
            let reference = StreamSimulator::new(&topo, options.with_reference_engine(true))
                .run(&mut ThemisScheduler::new(8), &entries)
                .unwrap();
            assert_eq!(
                fast.finish_ns.to_bits(),
                reference.finish_ns.to_bits(),
                "{}: stream finish diverged",
                preset.name()
            );
            assert_eq!(fast, reference, "{}: stream report diverged", preset.name());
        }
    }
}
