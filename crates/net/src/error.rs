//! Error type for topology construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or validating network topologies.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// A dimension was declared with fewer than two participating NPUs.
    DimensionTooSmall {
        /// Index of the offending dimension (0-based).
        dim: usize,
        /// Declared size.
        size: usize,
    },
    /// A bandwidth value was zero, negative, NaN or infinite.
    InvalidBandwidth {
        /// Index of the offending dimension (0-based), if known.
        dim: Option<usize>,
        /// The rejected value in Gbps.
        gbps: f64,
    },
    /// A latency value was negative, NaN or infinite.
    InvalidLatency {
        /// Index of the offending dimension (0-based), if known.
        dim: Option<usize>,
        /// The rejected value in nanoseconds.
        nanos: f64,
    },
    /// The number of links per NPU must be at least one.
    InvalidLinkCount {
        /// Index of the offending dimension (0-based), if known.
        dim: Option<usize>,
    },
    /// A topology was built without any dimensions.
    EmptyTopology,
    /// The product of the dimension sizes, the NPU count, overflows `usize`.
    /// Every dimension has at least two NPUs, so this caps a 64-bit topology
    /// at 63 dimensions.
    TooManyNpus {
        /// The number of dimensions declared.
        num_dims: usize,
    },
    /// A dimension index was out of range for the topology.
    DimensionOutOfRange {
        /// The requested dimension index.
        dim: usize,
        /// The number of dimensions present.
        num_dims: usize,
    },
    /// An NPU identifier was out of range for the topology.
    NpuOutOfRange {
        /// The requested NPU id.
        npu: usize,
        /// The number of NPUs present.
        num_npus: usize,
    },
    /// A switch (halving-doubling) dimension requires a power-of-two size.
    NonPowerOfTwoSwitch {
        /// Index of the offending dimension (0-based).
        dim: usize,
        /// Declared size.
        size: usize,
    },
    /// A preset with the given name does not exist.
    UnknownPreset {
        /// The requested preset name.
        name: String,
    },
    /// A sub-topology was requested with no dimensions or with duplicates.
    InvalidSubTopology {
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::DimensionTooSmall { dim, size } => {
                write!(
                    f,
                    "dimension {dim} has size {size}, but at least 2 NPUs are required"
                )
            }
            NetError::InvalidBandwidth { dim, gbps } => match dim {
                Some(d) => write!(f, "dimension {d} has invalid bandwidth {gbps} Gbps"),
                None => write!(f, "invalid bandwidth {gbps} Gbps"),
            },
            NetError::InvalidLatency { dim, nanos } => match dim {
                Some(d) => write!(f, "dimension {d} has invalid latency {nanos} ns"),
                None => write!(f, "invalid latency {nanos} ns"),
            },
            NetError::InvalidLinkCount { dim } => match dim {
                Some(d) => write!(f, "dimension {d} must have at least one link per NPU"),
                None => write!(f, "at least one link per NPU is required"),
            },
            NetError::EmptyTopology => write!(f, "a topology requires at least one dimension"),
            NetError::TooManyNpus { num_dims } => write!(
                f,
                "the NPU count of a {num_dims}-dimension topology overflows a {}-bit integer",
                usize::BITS
            ),
            NetError::DimensionOutOfRange { dim, num_dims } => {
                write!(
                    f,
                    "dimension index {dim} out of range for topology with {num_dims} dimensions"
                )
            }
            NetError::NpuOutOfRange { npu, num_npus } => {
                write!(
                    f,
                    "NPU id {npu} out of range for topology with {num_npus} NPUs"
                )
            }
            NetError::NonPowerOfTwoSwitch { dim, size } => {
                write!(
                    f,
                    "switch dimension {dim} has size {size}, which is not a power of two"
                )
            }
            NetError::UnknownPreset { name } => write!(f, "unknown preset topology `{name}`"),
            NetError::InvalidSubTopology { reason } => write!(f, "invalid sub-topology: {reason}"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            NetError::DimensionTooSmall { dim: 1, size: 1 },
            NetError::InvalidBandwidth {
                dim: Some(0),
                gbps: -1.0,
            },
            NetError::InvalidBandwidth {
                dim: None,
                gbps: f64::NAN,
            },
            NetError::InvalidLatency {
                dim: Some(2),
                nanos: -5.0,
            },
            NetError::InvalidLatency {
                dim: None,
                nanos: f64::INFINITY,
            },
            NetError::InvalidLinkCount { dim: Some(0) },
            NetError::InvalidLinkCount { dim: None },
            NetError::EmptyTopology,
            NetError::TooManyNpus { num_dims: 64 },
            NetError::DimensionOutOfRange {
                dim: 4,
                num_dims: 2,
            },
            NetError::NpuOutOfRange {
                npu: 1024,
                num_npus: 1024,
            },
            NetError::NonPowerOfTwoSwitch { dim: 1, size: 6 },
            NetError::UnknownPreset {
                name: "nope".to_string(),
            },
            NetError::InvalidSubTopology {
                reason: "empty".to_string(),
            },
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase() || text.starts_with("NPU"));
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<NetError>();
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(NetError::EmptyTopology, NetError::EmptyTopology);
        assert_ne!(
            NetError::EmptyTopology,
            NetError::DimensionTooSmall { dim: 0, size: 1 }
        );
    }
}
