//! The experiment implementations, one module per figure/table of the paper.
//!
//! Every experiment is expressed against the facade's campaign layer
//! ([`themis::api`]): sweeps are declared as [`themis::api::Campaign`]s and
//! executed through a parallel [`themis::api::Runner`], so the harness never
//! hand-wires the schedule-then-simulate pipeline.

pub mod fault_sweep;
pub mod fig04;
pub mod fig05;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod sec63;
pub mod stream_overlap;
pub mod summary;
pub mod table2;

use themis::api::{Campaign, CampaignReport, Job, Platform, Runner};
use themis::net::presets::next_generation_suite;
use themis::{DataSize, NetworkTopology, PresetTopology, SchedulerKind, SimPlanCache, SimReport};

/// The six next-generation topologies of Table 2 (the x-axis of most figures).
pub fn evaluation_topologies() -> Vec<NetworkTopology> {
    next_generation_suite()
}

/// The six next-generation Table 2 platforms as campaign-ready [`Platform`]s.
pub fn evaluation_platforms() -> Vec<Platform> {
    PresetTopology::next_generation()
        .into_iter()
        .map(Platform::preset)
        .collect()
}

/// The All-Reduce sizes swept by the microbenchmark figures (Fig. 8 / Fig. 11):
/// 100 MB to 1 GB.
pub fn microbenchmark_sizes() -> Vec<DataSize> {
    vec![
        DataSize::from_mib(100.0),
        DataSize::from_mib(250.0),
        DataSize::from_mib(500.0),
        DataSize::from_mib(750.0),
        DataSize::from_mib(1024.0),
    ]
}

/// A reduced size sweep used by tests.
pub fn quick_sizes() -> Vec<DataSize> {
    vec![DataSize::from_mib(100.0), DataSize::from_mib(1024.0)]
}

/// Runs the shared Fig. 8 / Fig. 11 microbenchmark campaign: the six
/// next-generation topologies x `sizes` x the three Table 3 schedulers at the
/// paper's 64 chunks per collective. One [`CampaignReport`] carries both the
/// completion times (Fig. 8) and the utilisations (Fig. 11).
pub fn microbenchmark_campaign(sizes: &[DataSize]) -> CampaignReport {
    microbenchmark_campaign_cached(sizes, &SimPlanCache::new())
}

/// Like [`microbenchmark_campaign`], but executing through a caller-provided
/// [`SimPlanCache`]: the figure-suite harness shares one warm plan across the
/// fig04/fig08/fig09/fig11 experiments (they sweep overlapping topologies,
/// sizes and schedulers), so overlapping cells schedule and cost once for the
/// whole suite. Reports are bit-identical to the cold path.
pub fn microbenchmark_campaign_cached(sizes: &[DataSize], plan: &SimPlanCache) -> CampaignReport {
    Campaign::new()
        .topologies(PresetTopology::next_generation())
        .sizes(sizes.iter().copied())
        .run_with_cache(&Runner::parallel(), plan)
        .expect("evaluation configurations are valid")
}

/// Runs one All-Reduce with an explicit chunk granularity (sweeps go through
/// [`themis::api::Campaign`] instead; this single-run helper backs ad-hoc
/// checks).
///
/// # Panics
///
/// Panics if scheduling or simulation fails — the evaluation configurations
/// are all statically valid, so a failure indicates a bug worth surfacing
/// loudly in the harness.
pub fn run_allreduce_with_chunks(
    topo: &NetworkTopology,
    kind: SchedulerKind,
    size: DataSize,
    chunks: usize,
) -> SimReport {
    Job::all_reduce(size)
        .chunks(chunks)
        .scheduler(kind)
        .run_on(&Platform::custom(topo.clone()))
        .unwrap_or_else(|err| panic!("experiment run failed on {}: {err}", topo.name()))
        .report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_return_paper_configurations() {
        assert_eq!(evaluation_topologies().len(), 6);
        assert_eq!(evaluation_platforms().len(), 6);
        let sizes = microbenchmark_sizes();
        assert_eq!(sizes.first().unwrap().as_mib().round() as u64, 100);
        assert_eq!(sizes.last().unwrap().as_mib().round() as u64, 1024);
        assert_eq!(quick_sizes().len(), 2);
    }

    #[test]
    fn run_allreduce_produces_a_report() {
        let topo = &evaluation_topologies()[0];
        let report =
            run_allreduce_with_chunks(topo, SchedulerKind::Baseline, DataSize::from_mib(64.0), 8);
        assert!(report.total_time_ns > 0.0);
        assert_eq!(report.num_dims(), topo.num_dims());
    }
}
