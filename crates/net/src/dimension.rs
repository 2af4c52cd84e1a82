//! Per-dimension network specification.
//!
//! A *dimension* is one level of the training platform's network hierarchy
//! (e.g., chiplet-to-chiplet, package-to-package inside a server node,
//! node-to-node inside a pod, pod-to-pod over NICs). Every NPU is a member of
//! exactly one communicator group per dimension; the group size, physical
//! topology, bandwidth and latency are captured by [`DimensionSpec`].

use crate::bandwidth::Bandwidth;
use crate::error::NetError;
use std::fmt;

/// Physical topology of a single network dimension (Table 1 of the paper).
///
/// The topology determines which contention-free, topology-aware collective
/// algorithm is used for that dimension:
///
/// | Topology        | Collective algorithm |
/// |-----------------|----------------------|
/// | Ring            | Ring                 |
/// | FullyConnected  | Direct               |
/// | Switch          | Halving-Doubling     |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// NPUs connected in a physical ring (e.g., intra-package links).
    Ring,
    /// Every NPU pair is directly connected (e.g., NVSwitch-less full mesh).
    FullyConnected,
    /// NPUs connected through a non-blocking switch (e.g., NIC + ToR switch).
    Switch,
}

impl TopologyKind {
    /// Short lowercase label used in topology names (e.g., `SW`, `Ring`, `FC`).
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Ring => "Ring",
            TopologyKind::FullyConnected => "FC",
            TopologyKind::Switch => "SW",
        }
    }

    /// All topology kinds, in declaration order.
    pub fn all() -> [TopologyKind; 3] {
        [
            TopologyKind::Ring,
            TopologyKind::FullyConnected,
            TopologyKind::Switch,
        ]
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Specification of one network dimension.
///
/// Bandwidths follow the paper's convention: `link_bandwidth` is the
/// uni-directional bandwidth of one physical link and `links_per_npu` is the
/// number of such links each NPU dedicates to this dimension, so the
/// *aggregate* per-NPU bandwidth (the "Aggr BW/NPU" column of Table 2) is
/// their product.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionSpec {
    kind: TopologyKind,
    size: usize,
    link_bandwidth: Bandwidth,
    links_per_npu: usize,
    step_latency_ns: f64,
}

impl DimensionSpec {
    /// Creates a new dimension spec.
    ///
    /// * `kind` — physical topology of the dimension.
    /// * `size` — number of NPUs in one communicator group of this dimension.
    /// * `link_bandwidth_gbps` — uni-directional bandwidth of one link, Gbps.
    /// * `links_per_npu` — number of links each NPU dedicates to this dimension.
    /// * `step_latency_ns` — direct NPU-to-NPU latency for a minimum-size
    ///   message (the `step_latency` of Sec. 4.4), in nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] if `size < 2`, the bandwidth is not finite and
    /// positive, `links_per_npu == 0`, or the latency is negative/not finite.
    pub fn new(
        kind: TopologyKind,
        size: usize,
        link_bandwidth_gbps: f64,
        links_per_npu: usize,
        step_latency_ns: f64,
    ) -> Result<Self, NetError> {
        if size < 2 {
            return Err(NetError::DimensionTooSmall { dim: 0, size });
        }
        let link_bandwidth = Bandwidth::from_gbps(link_bandwidth_gbps);
        if !link_bandwidth.is_valid() {
            return Err(NetError::InvalidBandwidth {
                dim: None,
                gbps: link_bandwidth_gbps,
            });
        }
        if links_per_npu == 0 {
            return Err(NetError::InvalidLinkCount { dim: None });
        }
        if !step_latency_ns.is_finite() || step_latency_ns < 0.0 {
            return Err(NetError::InvalidLatency {
                dim: None,
                nanos: step_latency_ns,
            });
        }
        Ok(DimensionSpec {
            kind,
            size,
            link_bandwidth,
            links_per_npu,
            step_latency_ns,
        })
    }

    /// Convenience constructor taking the aggregate per-NPU bandwidth directly
    /// (a single logical link).
    ///
    /// # Errors
    ///
    /// Same validation rules as [`DimensionSpec::new`].
    pub fn with_aggregate_bandwidth(
        kind: TopologyKind,
        size: usize,
        aggregate_bandwidth_gbps: f64,
        step_latency_ns: f64,
    ) -> Result<Self, NetError> {
        DimensionSpec::new(kind, size, aggregate_bandwidth_gbps, 1, step_latency_ns)
    }

    /// Physical topology of the dimension.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of NPUs participating in one communicator group of this dimension.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Uni-directional bandwidth of a single link.
    pub fn link_bandwidth(&self) -> Bandwidth {
        self.link_bandwidth
    }

    /// Number of links each NPU dedicates to this dimension.
    pub fn links_per_npu(&self) -> usize {
        self.links_per_npu
    }

    /// Aggregate per-NPU bandwidth on this dimension
    /// (`link_bandwidth × links_per_npu`, the "Aggr BW/NPU" of Table 2).
    pub fn aggregate_bandwidth(&self) -> Bandwidth {
        self.link_bandwidth * self.links_per_npu as f64
    }

    /// Step latency: direct NPU-to-NPU latency for a minimum-size message, ns.
    pub fn step_latency_ns(&self) -> f64 {
        self.step_latency_ns
    }

    /// Returns a copy of this spec with a different aggregate bandwidth,
    /// preserving the link count (the link bandwidth is rescaled).
    pub fn with_scaled_bandwidth(&self, factor: f64) -> DimensionSpec {
        DimensionSpec {
            link_bandwidth: self.link_bandwidth * factor,
            ..self.clone()
        }
    }

    /// Validates the spec in the context of dimension index `dim`
    /// (used by the topology builder to attach indices to errors).
    pub(crate) fn validate_at(&self, dim: usize) -> Result<(), NetError> {
        if self.size < 2 {
            return Err(NetError::DimensionTooSmall {
                dim,
                size: self.size,
            });
        }
        if !self.link_bandwidth.is_valid() {
            return Err(NetError::InvalidBandwidth {
                dim: Some(dim),
                gbps: self.link_bandwidth.as_gbps(),
            });
        }
        if self.links_per_npu == 0 {
            return Err(NetError::InvalidLinkCount { dim: Some(dim) });
        }
        if !self.step_latency_ns.is_finite() || self.step_latency_ns < 0.0 {
            return Err(NetError::InvalidLatency {
                dim: Some(dim),
                nanos: self.step_latency_ns,
            });
        }
        Ok(())
    }
}

impl fmt::Display for DimensionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(P={}, {} x{} links, {} ns)",
            self.kind, self.size, self.link_bandwidth, self.links_per_npu, self.step_latency_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_dimension() {
        let dim = DimensionSpec::new(TopologyKind::Switch, 16, 200.0, 6, 700.0).unwrap();
        assert_eq!(dim.size(), 16);
        assert_eq!(dim.kind(), TopologyKind::Switch);
        assert_eq!(dim.aggregate_bandwidth().as_gbps(), 1200.0);
        assert_eq!(dim.step_latency_ns(), 700.0);
        assert_eq!(dim.links_per_npu(), 6);
    }

    #[test]
    fn aggregate_constructor_uses_single_link() {
        let dim =
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Ring, 4, 1000.0, 20.0).unwrap();
        assert_eq!(dim.links_per_npu(), 1);
        assert_eq!(dim.aggregate_bandwidth().as_gbps(), 1000.0);
    }

    #[test]
    fn rejects_size_below_two() {
        let err = DimensionSpec::new(TopologyKind::Ring, 1, 100.0, 1, 0.0).unwrap_err();
        assert!(matches!(err, NetError::DimensionTooSmall { size: 1, .. }));
    }

    #[test]
    fn rejects_invalid_bandwidth() {
        for bw in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = DimensionSpec::new(TopologyKind::Ring, 4, bw, 1, 0.0).unwrap_err();
            assert!(matches!(err, NetError::InvalidBandwidth { .. }), "bw={bw}");
        }
    }

    #[test]
    fn rejects_zero_links() {
        let err = DimensionSpec::new(TopologyKind::Switch, 4, 100.0, 0, 0.0).unwrap_err();
        assert!(matches!(err, NetError::InvalidLinkCount { .. }));
    }

    #[test]
    fn rejects_invalid_latency() {
        for lat in [-1.0, f64::NAN, f64::INFINITY] {
            let err = DimensionSpec::new(TopologyKind::Switch, 4, 100.0, 1, lat).unwrap_err();
            assert!(matches!(err, NetError::InvalidLatency { .. }), "lat={lat}");
        }
    }

    #[test]
    fn scaled_bandwidth() {
        let dim = DimensionSpec::new(TopologyKind::Switch, 8, 400.0, 2, 700.0).unwrap();
        let half = dim.with_scaled_bandwidth(0.5);
        assert_eq!(half.aggregate_bandwidth().as_gbps(), 400.0);
        assert_eq!(half.size(), 8);
    }

    #[test]
    fn topology_kind_labels() {
        assert_eq!(TopologyKind::Ring.to_string(), "Ring");
        assert_eq!(TopologyKind::FullyConnected.to_string(), "FC");
        assert_eq!(TopologyKind::Switch.to_string(), "SW");
        assert_eq!(TopologyKind::all().len(), 3);
    }

    #[test]
    fn display_contains_key_fields() {
        let dim = DimensionSpec::new(TopologyKind::Ring, 4, 1000.0, 2, 20.0).unwrap();
        let text = dim.to_string();
        assert!(text.contains("Ring"));
        assert!(text.contains("P=4"));
        assert!(text.contains("1000 Gbps"));
    }
}
