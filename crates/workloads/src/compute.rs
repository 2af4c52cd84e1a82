//! Roofline FP16 compute-time model.
//!
//! The paper assumes "roofline FP16 performance from the total FLOPS available
//! on current state-of-the-art accelerators" (Sec. 5.1), i.e. compute time is
//! simply FLOPs divided by the accelerator's peak FP16 throughput scaled by an
//! achievable-efficiency factor.

use crate::error::WorkloadError;

/// Roofline FP16 compute model for one NPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    peak_tflops_fp16: f64,
    efficiency: f64,
}

impl ComputeModel {
    /// Peak FP16 throughput of an NVIDIA A100 (the paper's reference
    /// accelerator), in TFLOP/s.
    pub const A100_PEAK_TFLOPS_FP16: f64 = 312.0;

    /// Creates a compute model.
    ///
    /// * `peak_tflops_fp16` — peak dense FP16 throughput of one NPU, TFLOP/s.
    /// * `efficiency` — achievable fraction of peak in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for non-positive or
    /// non-finite values, or an efficiency above 1.
    pub fn new(peak_tflops_fp16: f64, efficiency: f64) -> Result<Self, WorkloadError> {
        if !peak_tflops_fp16.is_finite() || peak_tflops_fp16 <= 0.0 {
            return Err(WorkloadError::InvalidParameter {
                reason: format!("peak throughput must be positive, got {peak_tflops_fp16} TFLOPS"),
            });
        }
        if !efficiency.is_finite() || efficiency <= 0.0 || efficiency > 1.0 {
            return Err(WorkloadError::InvalidParameter {
                reason: format!("efficiency must be in (0, 1], got {efficiency}"),
            });
        }
        Ok(ComputeModel {
            peak_tflops_fp16,
            efficiency,
        })
    }

    /// The A100-like default used by the paper's evaluation: pure roofline at
    /// the accelerator's 312 TFLOPS FP16 peak (Sec. 5.1 assumes "roofline FP16
    /// performance from the total FLOPS available").
    pub fn a100_like() -> Self {
        ComputeModel {
            peak_tflops_fp16: Self::A100_PEAK_TFLOPS_FP16,
            efficiency: 1.0,
        }
    }

    /// Peak FP16 throughput, TFLOP/s.
    pub fn peak_tflops_fp16(&self) -> f64 {
        self.peak_tflops_fp16
    }

    /// Achievable fraction of peak.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Sustained throughput in FLOP per nanosecond.
    pub fn sustained_flops_per_ns(&self) -> f64 {
        // 1 TFLOP/s = 10^12 FLOP/s = 10^3 FLOP/ns.
        self.peak_tflops_fp16 * self.efficiency * 1e3
    }

    /// Time to execute `flops` floating-point operations on one NPU, ns.
    pub fn time_for_flops_ns(&self, flops: f64) -> f64 {
        if flops <= 0.0 {
            return 0.0;
        }
        flops / self.sustained_flops_per_ns()
    }
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel::a100_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_defaults() {
        let model = ComputeModel::default();
        assert_eq!(model.peak_tflops_fp16(), 312.0);
        assert_eq!(model.efficiency(), 1.0);
        assert_eq!(model.sustained_flops_per_ns(), 312_000.0);
    }

    #[test]
    fn time_scales_linearly_with_flops() {
        let model = ComputeModel::new(100.0, 1.0).unwrap();
        // 100 TFLOPS = 1e5 FLOP/ns → 1e8 FLOP takes 1000 ns.
        assert!((model.time_for_flops_ns(1e8) - 1000.0).abs() < 1e-9);
        assert!((model.time_for_flops_ns(2e8) - 2000.0).abs() < 1e-9);
        assert_eq!(model.time_for_flops_ns(0.0), 0.0);
        assert_eq!(model.time_for_flops_ns(-5.0), 0.0);
    }

    #[test]
    fn lower_efficiency_means_longer_compute() {
        let full = ComputeModel::new(312.0, 1.0).unwrap();
        let half = ComputeModel::new(312.0, 0.5).unwrap();
        let flops = 1e12;
        assert!(half.time_for_flops_ns(flops) > full.time_for_flops_ns(flops));
        assert!((half.time_for_flops_ns(flops) / full.time_for_flops_ns(flops) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(ComputeModel::new(0.0, 0.5).is_err());
        assert!(ComputeModel::new(-1.0, 0.5).is_err());
        assert!(ComputeModel::new(f64::NAN, 0.5).is_err());
        assert!(ComputeModel::new(312.0, 0.0).is_err());
        assert!(ComputeModel::new(312.0, 1.5).is_err());
        assert!(ComputeModel::new(312.0, f64::INFINITY).is_err());
    }
}
