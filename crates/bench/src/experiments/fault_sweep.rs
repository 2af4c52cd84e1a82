//! Fault sweep — scheduling under mid-stream link degradation and failure.
//!
//! The paper's evaluation assumes a healthy fabric; this experiment measures
//! how the schedulers cope when the fabric degrades mid-collective. Three
//! scenario families from [`themis::workloads::faults`] run Baseline vs
//! Themis+SCF on the same platform:
//!
//! * **asymmetric degradation** — one dimension permanently slowed (t = 0),
//!   which the bandwidth-aware schedulers get to see (static asymmetry);
//! * **mid-stream degradation** — the slowdown lands while the collective is
//!   in flight, so already-issued operations complete at their original cost
//!   and only later ones pay the degraded price;
//! * **transient flaps** — a link fails and recovers repeatedly; during an
//!   outage the dimension stops issuing new operations.
//!
//! This module's tests assert two properties over the whole standard grid.
//! Makespans degrade *gracefully*: a faulted run is never faster than the
//! healthy run of the same scheduler. And Themis+SCF keeps its advantage
//! (makespan ≤ Baseline) on every cell but one: with dimension 1 at ×0.25
//! from t = 0 (`deg-d1-x0.25`), 16 chunks are too few for Algorithm 1's
//! greedy, load-ordered dimension choice to balance a dimension slowed 4×,
//! and Themis+SCF loses to Baseline by ~14 %.

use crate::report::{Report, Table};
use themis::api::{Job, Platform};
use themis::workloads::faults::{
    asymmetric_degradation, midstream_degradation_grid, transient_flaps, FaultScenario,
};
use themis::{DataSize, PresetTopology, SchedulerKind};

/// One (scenario, scheduler-pair) cell of the fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCell {
    /// Scenario label from the generator (`healthy` for the reference cell).
    pub scenario: String,
    /// Makespan under Baseline scheduling, ns.
    pub baseline_ns: f64,
    /// Makespan under Themis+SCF scheduling, ns.
    pub themis_ns: f64,
}

impl FaultCell {
    /// Themis+SCF speedup over Baseline on this cell.
    pub fn speedup(&self) -> f64 {
        if self.themis_ns <= 0.0 {
            return 1.0;
        }
        self.baseline_ns / self.themis_ns
    }
}

/// The platform every fault scenario runs on (the 2D switch preset — small
/// enough for grids, two dimensions so asymmetry matters).
pub fn fault_platform() -> Platform {
    Platform::preset(PresetTopology::Sw2d)
}

/// The job under test: a 64 MiB All-Reduce in 16 chunks.
pub fn fault_job(scheduler: SchedulerKind) -> Job {
    Job::all_reduce(DataSize::from_mib(64.0))
        .chunks(16)
        .scheduler(scheduler)
}

/// Runs one scenario (Baseline vs Themis+SCF) and returns its cell.
///
/// # Panics
///
/// Panics if scheduling or simulation fails — fault-sweep configurations are
/// statically valid, so a failure is a harness bug worth surfacing loudly.
pub fn run_scenario(scenario: &FaultScenario) -> FaultCell {
    let platform = fault_platform().with_faults(scenario.plan.clone());
    let run = |kind| {
        fault_job(kind)
            .run_on(&platform)
            .unwrap_or_else(|err| panic!("fault scenario {} failed: {err}", scenario.name))
            .report
            .total_time_ns
    };
    FaultCell {
        scenario: scenario.name.clone(),
        baseline_ns: run(SchedulerKind::Baseline),
        themis_ns: run(SchedulerKind::ThemisScf),
    }
}

/// Runs a scenario list, prefixed by the healthy reference cell.
pub fn run_scenarios(scenarios: &[FaultScenario]) -> Vec<FaultCell> {
    let healthy = FaultScenario::new("healthy", themis::FaultPlan::new());
    std::iter::once(&healthy)
        .chain(scenarios.iter())
        .map(run_scenario)
        .collect()
}

/// The standard scenario suite: asymmetric degradation of each dimension to
/// {0.75, 0.5, 0.25}, a mid-stream grid with two onsets, and a 2-flap
/// transient pattern per dimension.
pub fn standard_scenarios() -> Vec<FaultScenario> {
    let num_dims = fault_platform().topology().num_dims();
    let factors = [0.75, 0.5, 0.25];
    // Onsets sit inside the collective: the healthy Sw2d 64 MiB All-Reduce
    // takes a few milliseconds, so 0.5 ms and 1.5 ms land mid-run.
    let onsets = [500_000.0, 1_500_000.0];
    let mut scenarios = asymmetric_degradation(num_dims, &factors);
    scenarios.extend(midstream_degradation_grid(num_dims, &factors, &onsets));
    scenarios.extend(transient_flaps(
        num_dims,
        250_000.0,
        250_000.0,
        1_000_000.0,
        2,
    ));
    scenarios
}

/// Renders the fault-sweep experiment.
pub fn run() -> Report {
    let mut report = Report::new("Fault sweep — scheduling under link degradation and failure");
    report.push_note(
        "64 MiB All-Reduce, 16 chunks, on the 2D-SW platform; faults are cost-table swaps at \
         event boundaries (in-flight operations complete at their issued cost), failed \
         dimensions stop issuing until recovery",
    );
    let cells = run_scenarios(&standard_scenarios());
    let healthy = cells.first().expect("the healthy reference always runs");
    let mut table = Table::new(
        "Makespan under faults (ns)",
        &[
            "Scenario",
            "Baseline",
            "Themis+SCF",
            "Themis speedup",
            "vs healthy Themis",
        ],
    );
    for cell in &cells {
        table.push_row([
            cell.scenario.clone(),
            format!("{:.0}", cell.baseline_ns),
            format!("{:.0}", cell.themis_ns),
            format!("{:.2}x", cell.speedup()),
            format!("{:.2}x", cell.themis_ns / healthy.themis_ns),
        ]);
    }
    report.push_table(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one cell of the standard grid where Themis+SCF loses to
    /// Baseline. Dimension 1 runs at ×0.25 from t = 0, and Algorithm 1 picks
    /// each chunk's dimension order greedily by accumulated load: 16 chunks
    /// are too coarse to balance a dimension slowed 4×. Themis+SCF takes
    /// ~960 µs against Baseline's ~842 µs here; with 64 chunks it takes
    /// ~777 µs and wins.
    const THEMIS_LOSES_ON: &str = "deg-d1-x0.25";

    #[test]
    fn themis_keeps_its_advantage_under_degradation() {
        let cells = run_scenarios(&standard_scenarios());
        let healthy = &cells[0];
        assert_eq!(healthy.scenario, "healthy");
        assert!(cells.iter().any(|cell| cell.scenario == THEMIS_LOSES_ON));
        for cell in &cells {
            // Themis loses to Baseline on the named cell alone, healthy or
            // faulted: a new losing cell fails here, and so does a fix.
            let loses = cell.themis_ns > cell.baseline_ns + 1e-6;
            assert_eq!(
                loses,
                cell.scenario == THEMIS_LOSES_ON,
                "{}: themis {} vs baseline {}",
                cell.scenario,
                cell.themis_ns,
                cell.baseline_ns
            );
            // Graceful degradation: a faulted fabric is never faster.
            assert!(
                cell.themis_ns >= healthy.themis_ns - 1e-6,
                "{}: faulted themis {} beat healthy {}",
                cell.scenario,
                cell.themis_ns,
                healthy.themis_ns
            );
            assert!(
                cell.baseline_ns >= healthy.baseline_ns - 1e-6,
                "{}",
                cell.scenario
            );
        }
    }

    #[test]
    fn stronger_degradation_is_monotonically_slower() {
        let factors = [0.75, 0.5, 0.25];
        let cells: Vec<FaultCell> = asymmetric_degradation(1, &factors)
            .iter()
            .map(run_scenario)
            .collect();
        for pair in cells.windows(2) {
            assert!(
                pair[1].themis_ns >= pair[0].themis_ns - 1e-6,
                "factor order {} vs {}",
                pair[0].scenario,
                pair[1].scenario
            );
        }
    }

    #[test]
    fn report_renders_the_standard_grid() {
        let report = run();
        assert_eq!(report.tables().len(), 1);
        // healthy + 2 dims x (3 asym + 3 factors x 2 onsets) + 2 flap rows.
        assert_eq!(report.tables()[0].num_rows(), 1 + 2 * 9 + 2);
    }
}
