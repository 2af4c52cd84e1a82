//! Fault-scenario generators: deterministic [`FaultPlan`] families for
//! robustness sweeps.
//!
//! The fault engine ([`themis_sim::faults`]) prices operations against
//! degraded cost tables from their activation instant onwards; this module
//! produces the *schedules* worth sweeping. Three families cover the
//! experiments in the fault suite:
//!
//! * [`asymmetric_degradation`] — one dimension degraded from t = 0, the
//!   rest healthy. The static-asymmetry case: how much of Themis's win over
//!   Baseline survives a persistently slow dimension?
//! * [`midstream_degradation_grid`] — a (dimension × factor × onset) grid of
//!   single degradation events landing mid-run, exercising the epoch
//!   boundary: operations issued before the onset complete at their original
//!   cost, later ones pay the degraded price.
//! * [`transient_flaps`] — a link that fails and recovers repeatedly
//!   (fail → recover → fail …), the worst case for schedulers that front-load
//!   a dimension.
//!
//! Every generator is a pure function of its arguments, so scenario lists
//! are bit-stable across runs and processes — a requirement for the
//! determinism tests over faulted runs (`tests/faults_api.rs`, and
//! `crates/bench/tests/serve_e2e.rs` across processes).

use themis_sim::FaultPlan;

/// One named fault scenario: a stable label for reports and cache keys plus
/// the plan itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Deterministic scenario label (e.g. `deg-d0-x0.50`).
    pub name: String,
    /// The fault schedule to install on the platform under test.
    pub plan: FaultPlan,
}

impl FaultScenario {
    /// Creates a named scenario.
    pub fn new(name: impl Into<String>, plan: FaultPlan) -> Self {
        FaultScenario {
            name: name.into(),
            plan,
        }
    }
}

/// Asymmetric bandwidth sweep: for every dimension and every factor, one
/// scenario degrading only that dimension to `factor` from t = 0.
///
/// Factors outside `(0, 1]` would fail [`FaultPlan::validate`] at simulation
/// time; they are the caller's responsibility (the generator itself never
/// filters, so scenario counts stay predictable: `num_dims * factors.len()`).
pub fn asymmetric_degradation(num_dims: usize, factors: &[f64]) -> Vec<FaultScenario> {
    let mut scenarios = Vec::with_capacity(num_dims * factors.len());
    for dim in 0..num_dims {
        for &factor in factors {
            scenarios.push(FaultScenario::new(
                format!("deg-d{dim}-x{factor:.2}"),
                FaultPlan::new().degrade(0.0, dim, factor),
            ));
        }
    }
    scenarios
}

/// Mid-stream degradation grid: every (dimension, factor, onset) triple as
/// one scenario whose single degradation event activates at `onset_ns`.
///
/// Scenario count: `num_dims * factors.len() * onsets_ns.len()`.
pub fn midstream_degradation_grid(
    num_dims: usize,
    factors: &[f64],
    onsets_ns: &[f64],
) -> Vec<FaultScenario> {
    let mut scenarios = Vec::with_capacity(num_dims * factors.len() * onsets_ns.len());
    for dim in 0..num_dims {
        for &factor in factors {
            for &onset in onsets_ns {
                scenarios.push(FaultScenario::new(
                    format!("mid-d{dim}-x{factor:.2}-t{onset:.0}"),
                    FaultPlan::new().degrade(onset, dim, factor),
                ));
            }
        }
    }
    scenarios
}

/// Transient flap patterns: for every dimension, one scenario in which the
/// dimension fails at `onset_ns`, recovers `outage_ns` later, and repeats
/// the fail/recover pair every `period_ns`, `flaps` times in total.
///
/// During an outage the dimension stops *issuing* operations (in-flight ones
/// complete); after each recovery it is fully healthy again. `flaps == 0`
/// produces empty plans (healthy-fabric scenarios named `flap-d<k>-n0`).
pub fn transient_flaps(
    num_dims: usize,
    onset_ns: f64,
    outage_ns: f64,
    period_ns: f64,
    flaps: usize,
) -> Vec<FaultScenario> {
    let mut scenarios = Vec::with_capacity(num_dims);
    for dim in 0..num_dims {
        let mut plan = FaultPlan::new();
        for flap in 0..flaps {
            let start = onset_ns + period_ns * flap as f64;
            plan = plan.fail(start, dim).recover(start + outage_ns, dim);
        }
        scenarios.push(FaultScenario::new(format!("flap-d{dim}-n{flaps}"), plan));
    }
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_sim::{FaultEvent, FaultKind};

    #[test]
    fn asymmetric_sweep_covers_every_dim_factor_pair() {
        let scenarios = asymmetric_degradation(3, &[0.5, 0.25]);
        assert_eq!(scenarios.len(), 6);
        assert_eq!(scenarios[0].name, "deg-d0-x0.50");
        assert_eq!(
            scenarios[0].plan.events(),
            &[FaultEvent {
                at_ns: 0.0,
                dim: 0,
                kind: FaultKind::Degrade { factor: 0.5 },
            }]
        );
        assert_eq!(scenarios[5].name, "deg-d2-x0.25");
        // Every plan touches exactly one dimension.
        for scenario in &scenarios {
            assert_eq!(scenario.plan.len(), 1);
        }
    }

    #[test]
    fn midstream_grid_is_the_full_cartesian_product() {
        let scenarios = midstream_degradation_grid(2, &[0.5], &[1_000.0, 5_000.0]);
        assert_eq!(scenarios.len(), 4);
        assert_eq!(scenarios[1].name, "mid-d0-x0.50-t5000");
        assert_eq!(scenarios[1].plan.events()[0].at_ns, 5_000.0);
    }

    #[test]
    fn flap_patterns_alternate_fail_and_recover() {
        let scenarios = transient_flaps(1, 100.0, 50.0, 200.0, 2);
        assert_eq!(scenarios.len(), 1);
        let events = scenarios[0].plan.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.at_ns).collect::<Vec<_>>(),
            vec![100.0, 150.0, 300.0, 350.0]
        );
        assert!(matches!(events[0].kind, FaultKind::Fail));
        assert!(matches!(events[1].kind, FaultKind::Recover));
        // Zero flaps degenerate to a healthy-fabric plan.
        assert!(transient_flaps(1, 0.0, 1.0, 2.0, 0)[0].plan.is_empty());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            asymmetric_degradation(4, &[0.75, 0.5]),
            asymmetric_degradation(4, &[0.75, 0.5])
        );
        assert_eq!(
            transient_flaps(2, 10.0, 5.0, 20.0, 3),
            transient_flaps(2, 10.0, 5.0, 20.0, 3)
        );
    }
}
