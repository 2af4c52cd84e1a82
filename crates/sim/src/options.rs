//! Simulator configuration.

use crate::error::SimError;
use crate::faults::FaultPlan;

/// Options controlling the chunk-pipeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Maximum number of chunk operations a dimension executes concurrently.
    ///
    /// `1` (the default) matches the pipeline model of Fig. 5: one chunk op at
    /// a time at the dimension's full bandwidth. Values above one enable the
    /// Sec. 4.3 provision of running multiple chunks per dimension in
    /// parallel; concurrent ops share the dimension bandwidth equally
    /// (processor sharing).
    pub max_concurrent_ops_per_dim: usize,
    /// If `true`, the simulator first derives the deterministic intra-dimension
    /// execution order of Sec. 4.6.2 and enforces it during the run: a
    /// dimension never starts an op out of that order even if it is ready
    /// early.
    pub enforce_intra_dim_order: bool,
    /// Width of the windows used for the frontend-activity timeline of Fig. 9,
    /// in nanoseconds (paper: 100 µs).
    pub activity_window_ns: f64,
    /// If `true` (the default), the stream engine ([`crate::stream`]) lets
    /// chunks of a queued collective start on network dimensions that earlier
    /// collectives have vacated, overlapping collectives in flight the way
    /// Sec. 4.3 overlaps chunks within one collective. If `false`, queued
    /// collectives execute strictly back-to-back — the sequential timeline
    /// model. Single-collective simulations ignore this flag.
    pub cross_collective_overlap: bool,
    /// If `true` (the default), the simulator records every executed chunk op
    /// in [`crate::SimReport::op_log`] — the data behind the Fig. 5 pipeline
    /// diagrams and [`crate::SimReport::ascii_timeline`]. Campaign sweeps that
    /// only read completion times and utilisations can turn this off to skip
    /// the per-op bookkeeping entirely (the op log is by far the largest part
    /// of a report); all other report fields are unaffected.
    pub record_op_log: bool,
    /// Deterministic fault schedule applied to the simulated fabric
    /// ([`crate::faults`]): per-dimension bandwidth degradation, link
    /// failure and recovery at fixed simulated times. Empty (the default)
    /// means a healthy fabric, and the engines take their exact original
    /// float paths — reports are bit-identical to a fault-free build.
    pub faults: FaultPlan,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_concurrent_ops_per_dim: 1,
            enforce_intra_dim_order: false,
            activity_window_ns: 100_000.0,
            cross_collective_overlap: true,
            record_op_log: true,
            faults: FaultPlan::new(),
        }
    }
}

impl SimOptions {
    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidOptions`] for zero concurrency or a
    /// non-positive activity window.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.max_concurrent_ops_per_dim == 0 {
            return Err(SimError::InvalidOptions {
                reason: "max_concurrent_ops_per_dim must be at least 1".to_string(),
            });
        }
        if !self.activity_window_ns.is_finite() || self.activity_window_ns <= 0.0 {
            return Err(SimError::InvalidOptions {
                reason: format!(
                    "activity window must be positive, got {}",
                    self.activity_window_ns
                ),
            });
        }
        Ok(())
    }

    /// Builder-style setter for the per-dimension concurrency limit.
    #[must_use]
    pub fn with_max_concurrent_ops(mut self, limit: usize) -> Self {
        self.max_concurrent_ops_per_dim = limit;
        self
    }

    /// Builder-style setter for intra-dimension order enforcement.
    #[must_use]
    pub fn with_enforced_order(mut self, enforce: bool) -> Self {
        self.enforce_intra_dim_order = enforce;
        self
    }

    /// Builder-style setter for the activity window width.
    #[must_use]
    pub fn with_activity_window_ns(mut self, window_ns: f64) -> Self {
        self.activity_window_ns = window_ns;
        self
    }

    /// Builder-style setter for cross-collective overlap in the stream engine.
    #[must_use]
    pub fn with_cross_collective_overlap(mut self, overlap: bool) -> Self {
        self.cross_collective_overlap = overlap;
        self
    }

    /// Builder-style setter for op-log recording.
    #[must_use]
    pub fn with_op_log(mut self, record: bool) -> Self {
        self.record_op_log = record;
        self
    }

    /// Builder-style setter for the fault schedule. Dimension bounds are
    /// checked against the topology when a simulation runs.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_model() {
        let options = SimOptions::default();
        assert_eq!(options.max_concurrent_ops_per_dim, 1);
        assert!(!options.enforce_intra_dim_order);
        assert_eq!(options.activity_window_ns, 100_000.0);
        assert!(options.cross_collective_overlap);
        assert!(options.record_op_log);
        assert!(options.faults.is_empty());
        options.validate().unwrap();
    }

    #[test]
    fn builder_setters() {
        let options = SimOptions::default()
            .with_max_concurrent_ops(4)
            .with_enforced_order(true)
            .with_activity_window_ns(50_000.0)
            .with_cross_collective_overlap(false)
            .with_op_log(false)
            .with_faults(FaultPlan::new().degrade(1_000.0, 0, 0.5));
        assert_eq!(options.max_concurrent_ops_per_dim, 4);
        assert!(options.enforce_intra_dim_order);
        assert_eq!(options.activity_window_ns, 50_000.0);
        assert!(!options.cross_collective_overlap);
        assert!(!options.record_op_log);
        assert_eq!(options.faults.len(), 1);
        options.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(SimOptions::default()
            .with_max_concurrent_ops(0)
            .validate()
            .is_err());
        assert!(SimOptions::default()
            .with_activity_window_ns(0.0)
            .validate()
            .is_err());
        assert!(SimOptions::default()
            .with_activity_window_ns(f64::NAN)
            .validate()
            .is_err());
    }
}
