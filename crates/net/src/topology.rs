//! Multi-dimensional network topology.
//!
//! A [`NetworkTopology`] is an ordered list of [`DimensionSpec`]s. Dimension 0
//! ("dim1" in the paper) is the innermost, usually highest-bandwidth level;
//! the last dimension is the scale-out (NIC) level. The total machine size is
//! the product of the per-dimension sizes, and every NPU is addressed either
//! by a flat [`NpuId`] or a per-dimension [`NpuCoord`].

use crate::bandwidth::Bandwidth;
use crate::dimension::{DimensionSpec, TopologyKind};
use crate::error::NetError;
use std::fmt;

/// Flat identifier of an NPU within a topology (row-major over dimensions,
/// with dimension 0 varying fastest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NpuId(pub usize);

impl fmt::Display for NpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "npu{}", self.0)
    }
}

/// Per-dimension coordinates of an NPU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NpuCoord(pub Vec<usize>);

impl NpuCoord {
    /// Coordinate along dimension `dim`.
    pub fn along(&self, dim: usize) -> Option<usize> {
        self.0.get(dim).copied()
    }
}

impl fmt::Display for NpuCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A multi-dimensional training-platform network (Fig. 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkTopology {
    name: String,
    dims: Vec<DimensionSpec>,
}

impl NetworkTopology {
    /// Starts building a topology with the given display name.
    pub fn builder(name: impl Into<String>) -> NetworkTopologyBuilder {
        NetworkTopologyBuilder {
            name: name.into(),
            dims: Vec::new(),
        }
    }

    /// Creates a topology directly from a list of dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyTopology`] for an empty dimension list or any
    /// per-dimension validation error.
    pub fn new(name: impl Into<String>, dims: Vec<DimensionSpec>) -> Result<Self, NetError> {
        let mut builder = NetworkTopology::builder(name);
        for dim in dims {
            builder = builder.dimension(dim);
        }
        builder.build()
    }

    /// Human-readable topology name (e.g., `3D-SW_SW_SW_homo`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of network dimensions.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of NPUs (product of per-dimension sizes). Building the
    /// topology checked that the product fits in `usize`.
    pub fn num_npus(&self) -> usize {
        self.dims.iter().map(DimensionSpec::size).product()
    }

    /// The dimension specs, innermost first.
    pub fn dims(&self) -> &[DimensionSpec] {
        &self.dims
    }

    /// A single dimension spec.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DimensionOutOfRange`] if `dim` is out of range.
    pub fn dim(&self, dim: usize) -> Result<&DimensionSpec, NetError> {
        self.dims.get(dim).ok_or(NetError::DimensionOutOfRange {
            dim,
            num_dims: self.dims.len(),
        })
    }

    /// Per-dimension sizes `P_1 × P_2 × ... × P_D`.
    pub fn dim_sizes(&self) -> Vec<usize> {
        self.dims.iter().map(DimensionSpec::size).collect()
    }

    /// Aggregate per-NPU bandwidth of one dimension.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DimensionOutOfRange`] if `dim` is out of range.
    pub fn dim_bandwidth(&self, dim: usize) -> Result<Bandwidth, NetError> {
        Ok(self.dim(dim)?.aggregate_bandwidth())
    }

    /// Sum of aggregate per-NPU bandwidth across all dimensions
    /// (the denominator of the paper's "Ideal" latency and of the weighted
    /// average BW utilisation).
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.dims
            .iter()
            .map(DimensionSpec::aggregate_bandwidth)
            .sum()
    }

    /// Converts a flat NPU id into per-dimension coordinates
    /// (dimension 0 varies fastest).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NpuOutOfRange`] if the id is not within the machine.
    pub fn coord_of(&self, npu: NpuId) -> Result<NpuCoord, NetError> {
        let num_npus = self.num_npus();
        if npu.0 >= num_npus {
            return Err(NetError::NpuOutOfRange {
                npu: npu.0,
                num_npus,
            });
        }
        let mut remaining = npu.0;
        let mut coord = Vec::with_capacity(self.dims.len());
        for dim in &self.dims {
            coord.push(remaining % dim.size());
            remaining /= dim.size();
        }
        Ok(NpuCoord(coord))
    }

    /// Converts per-dimension coordinates into a flat NPU id.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSubTopology`] if the coordinate rank does not
    /// match the topology, or [`NetError::NpuOutOfRange`] if a coordinate
    /// exceeds its dimension size.
    pub fn id_of(&self, coord: &NpuCoord) -> Result<NpuId, NetError> {
        if coord.0.len() != self.dims.len() {
            return Err(NetError::InvalidSubTopology {
                reason: format!(
                    "coordinate has {} components but the topology has {} dimensions",
                    coord.0.len(),
                    self.dims.len()
                ),
            });
        }
        let mut id = 0usize;
        let mut stride = 1usize;
        for (c, dim) in coord.0.iter().zip(self.dims.iter()) {
            if *c >= dim.size() {
                return Err(NetError::NpuOutOfRange {
                    npu: *c,
                    num_npus: dim.size(),
                });
            }
            id += c * stride;
            stride *= dim.size();
        }
        Ok(NpuId(id))
    }

    /// The communicator peers of `npu` along dimension `dim`: all NPUs that
    /// share every coordinate with `npu` except the one along `dim`.
    ///
    /// The returned list always includes `npu` itself and has length
    /// `P_dim`, ordered by the coordinate along `dim`.
    ///
    /// # Errors
    ///
    /// Returns an error if `dim` or `npu` are out of range.
    pub fn peers_along(&self, npu: NpuId, dim: usize) -> Result<Vec<NpuId>, NetError> {
        let spec = self.dim(dim)?;
        let coord = self.coord_of(npu)?;
        let mut peers = Vec::with_capacity(spec.size());
        for c in 0..spec.size() {
            let mut peer_coord = coord.clone();
            peer_coord.0[dim] = c;
            peers.push(self.id_of(&peer_coord)?);
        }
        Ok(peers)
    }

    /// Extracts a sub-topology containing only the listed dimensions (in the
    /// listed order). Used to build communicator groups for model-parallel vs
    /// data-parallel traffic.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSubTopology`] for an empty or duplicated
    /// dimension list, or [`NetError::DimensionOutOfRange`] for a bad index.
    pub fn subtopology(&self, dims: &[usize], name: impl Into<String>) -> Result<Self, NetError> {
        if dims.is_empty() {
            return Err(NetError::InvalidSubTopology {
                reason: "a sub-topology requires at least one dimension".to_string(),
            });
        }
        let mut seen = vec![false; self.dims.len()];
        let mut specs = Vec::with_capacity(dims.len());
        for &d in dims {
            let spec = self.dim(d)?;
            if seen[d] {
                return Err(NetError::InvalidSubTopology {
                    reason: format!("dimension {d} listed more than once"),
                });
            }
            seen[d] = true;
            specs.push(spec.clone());
        }
        NetworkTopology::new(name, specs)
    }

    /// Splits the topology into a leading prefix of dimensions whose product
    /// of sizes covers at least `group_size` NPUs and the remaining suffix.
    ///
    /// This models the paper's Transformer-1T partitioning, where the model is
    /// model-parallel "across the first dimensions up to 128 NPUs" and
    /// data-parallel across the remaining dimensions.
    ///
    /// Returns `(prefix_dims, suffix_dims)` as dimension indices.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSubTopology`] if `group_size` cannot be
    /// covered by a prefix of whole dimensions (e.g., 24 on a 16×8×8 machine).
    pub fn split_prefix_covering(
        &self,
        group_size: usize,
    ) -> Result<(Vec<usize>, Vec<usize>), NetError> {
        if group_size <= 1 {
            return Ok((Vec::new(), (0..self.num_dims()).collect()));
        }
        let mut product = 1usize;
        let mut prefix = Vec::new();
        for (i, dim) in self.dims.iter().enumerate() {
            if product >= group_size {
                break;
            }
            product *= dim.size();
            prefix.push(i);
        }
        if product != group_size {
            return Err(NetError::InvalidSubTopology {
                reason: format!(
                    "cannot cover a group of {group_size} NPUs with a whole-dimension prefix \
                     (closest prefix product is {product})"
                ),
            });
        }
        let suffix = (prefix.len()..self.num_dims()).collect();
        Ok((prefix, suffix))
    }

    /// Splits the machine into a *group* topology covering exactly
    /// `group_size` NPUs starting from the innermost dimension, and the
    /// *remainder* topology formed by the NPUs outside the group.
    ///
    /// Unlike [`NetworkTopology::split_prefix_covering`], a dimension may be
    /// factored into two logical sub-dimensions when the group boundary falls
    /// inside it (e.g. a 16×64 machine splits into a 16×8 group and an 8-wide
    /// remainder for a 128-NPU model-parallel group). The factored
    /// sub-dimensions keep the original per-NPU bandwidth and latency, which
    /// is accurate for switch dimensions and a close approximation for rings.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidSubTopology`] if `group_size` does not
    /// evenly factor into the dimension sizes, is zero, or spans the whole
    /// machine (leaving an empty remainder).
    pub fn split_for_group(
        &self,
        group_size: usize,
        group_name: impl Into<String>,
        remainder_name: impl Into<String>,
    ) -> Result<(Self, Self), NetError> {
        if group_size < 2 {
            return Err(NetError::InvalidSubTopology {
                reason: format!("group size must be at least 2, got {group_size}"),
            });
        }
        if group_size >= self.num_npus() {
            return Err(NetError::InvalidSubTopology {
                reason: format!(
                    "group of {group_size} NPUs does not leave a remainder on a machine of {}",
                    self.num_npus()
                ),
            });
        }
        let mut remaining = group_size;
        let mut group_dims: Vec<DimensionSpec> = Vec::new();
        let mut rest_dims: Vec<DimensionSpec> = Vec::new();
        for dim in &self.dims {
            if remaining >= dim.size() {
                if !remaining.is_multiple_of(dim.size()) {
                    return Err(NetError::InvalidSubTopology {
                        reason: format!(
                            "group size {group_size} does not factor across dimension of size {}",
                            dim.size()
                        ),
                    });
                }
                group_dims.push(dim.clone());
                remaining /= dim.size();
            } else if remaining > 1 {
                if dim.size() % remaining != 0 {
                    return Err(NetError::InvalidSubTopology {
                        reason: format!(
                            "group size {group_size} does not factor across dimension of size {}",
                            dim.size()
                        ),
                    });
                }
                let inner = DimensionSpec::new(
                    dim.kind(),
                    remaining,
                    dim.link_bandwidth().as_gbps(),
                    dim.links_per_npu(),
                    dim.step_latency_ns(),
                )?;
                let outer = DimensionSpec::new(
                    dim.kind(),
                    dim.size() / remaining,
                    dim.link_bandwidth().as_gbps(),
                    dim.links_per_npu(),
                    dim.step_latency_ns(),
                )?;
                group_dims.push(inner);
                rest_dims.push(outer);
                remaining = 1;
            } else {
                rest_dims.push(dim.clone());
            }
        }
        if remaining != 1 || group_dims.is_empty() || rest_dims.is_empty() {
            return Err(NetError::InvalidSubTopology {
                reason: format!(
                    "group size {group_size} cannot be carved out of topology {}",
                    self.summary()
                ),
            });
        }
        Ok((
            NetworkTopology::new(group_name, group_dims)?,
            NetworkTopology::new(remainder_name, rest_dims)?,
        ))
    }

    /// Returns a renamed copy of this topology.
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        NetworkTopology {
            name: name.into(),
            dims: self.dims.clone(),
        }
    }

    /// Returns a copy of the topology with dimension `dim`'s bandwidth scaled
    /// by `factor` (used by the Sec. 6.3 provisioning sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::DimensionOutOfRange`] if `dim` is out of range, or a
    /// validation error if the scaled bandwidth is invalid.
    pub fn with_dim_bandwidth_scaled(&self, dim: usize, factor: f64) -> Result<Self, NetError> {
        let _ = self.dim(dim)?;
        let mut dims = self.dims.clone();
        dims[dim] = dims[dim].with_scaled_bandwidth(factor);
        NetworkTopology::new(self.name.clone(), dims)
    }

    /// A cheap structural fingerprint of the topology: a 64-bit FNV-1a hash
    /// over the per-dimension kinds, sizes, bandwidths, link counts and step
    /// latencies.
    ///
    /// The display name is deliberately *excluded*: schedules depend only on
    /// the network structure, so two differently named but structurally
    /// identical topologies produce the same fingerprint and can share cached
    /// schedules (`themis-core`'s `ScheduleCache` keys on this value). The
    /// hash is deterministic across processes and runs.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.dims.len() as u64);
        for dim in &self.dims {
            mix(match dim.kind() {
                TopologyKind::Ring => 0,
                TopologyKind::FullyConnected => 1,
                TopologyKind::Switch => 2,
            });
            mix(dim.size() as u64);
            mix(dim.link_bandwidth().as_gbps().to_bits());
            mix(dim.links_per_npu() as u64);
            mix(dim.step_latency_ns().to_bits());
        }
        hash
    }

    /// Compact per-dimension summary, e.g. `16x64 [SW:1200Gbps, SW:800Gbps]`.
    pub fn summary(&self) -> String {
        let sizes: Vec<String> = self.dims.iter().map(|d| d.size().to_string()).collect();
        let specs: Vec<String> = self
            .dims
            .iter()
            .map(|d| format!("{}:{}Gbps", d.kind(), d.aggregate_bandwidth().as_gbps()))
            .collect();
        format!("{} [{}]", sizes.join("x"), specs.join(", "))
    }
}

impl fmt::Display for NetworkTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.summary())
    }
}

/// Builder for [`NetworkTopology`] (innermost dimension added first).
#[derive(Debug, Clone)]
pub struct NetworkTopologyBuilder {
    name: String,
    dims: Vec<DimensionSpec>,
}

impl NetworkTopologyBuilder {
    /// Appends the next (outer) dimension.
    #[must_use]
    pub fn dimension(mut self, dim: DimensionSpec) -> Self {
        self.dims.push(dim);
        self
    }

    /// Appends a dimension described inline.
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`DimensionSpec::new`].
    pub fn dimension_with(
        self,
        kind: TopologyKind,
        size: usize,
        link_bandwidth_gbps: f64,
        links_per_npu: usize,
        step_latency_ns: f64,
    ) -> Result<Self, NetError> {
        let dim = DimensionSpec::new(
            kind,
            size,
            link_bandwidth_gbps,
            links_per_npu,
            step_latency_ns,
        )?;
        Ok(self.dimension(dim))
    }

    /// Finalises the topology.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyTopology`] when no dimension was added, a
    /// per-dimension validation error (with the dimension index attached),
    /// or [`NetError::TooManyNpus`] when the NPU count overflows `usize`.
    pub fn build(self) -> Result<NetworkTopology, NetError> {
        if self.dims.is_empty() {
            return Err(NetError::EmptyTopology);
        }
        for (i, dim) in self.dims.iter().enumerate() {
            dim.validate_at(i)?;
        }
        let npus = self
            .dims
            .iter()
            .try_fold(1usize, |npus, dim| npus.checked_mul(dim.size()));
        if npus.is_none() {
            return Err(NetError::TooManyNpus {
                num_dims: self.dims.len(),
            });
        }
        Ok(NetworkTopology {
            name: self.name,
            dims: self.dims,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo_4x8() -> NetworkTopology {
        NetworkTopology::builder("test-4x8")
            .dimension(DimensionSpec::new(TopologyKind::Ring, 4, 1000.0, 2, 20.0).unwrap())
            .dimension(DimensionSpec::new(TopologyKind::Switch, 8, 400.0, 1, 700.0).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn basic_properties() {
        let topo = topo_4x8();
        assert_eq!(topo.num_dims(), 2);
        assert_eq!(topo.num_npus(), 32);
        assert_eq!(topo.dim_sizes(), vec![4, 8]);
        assert_eq!(topo.total_bandwidth().as_gbps(), 2400.0);
        assert_eq!(topo.dim_bandwidth(0).unwrap().as_gbps(), 2000.0);
        assert_eq!(topo.dim_bandwidth(1).unwrap().as_gbps(), 400.0);
        assert!(topo.dim_bandwidth(2).is_err());
        assert!(topo.to_string().contains("4x8"));
    }

    #[test]
    fn empty_topology_rejected() {
        let err = NetworkTopology::builder("empty").build().unwrap_err();
        assert_eq!(err, NetError::EmptyTopology);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn npu_count_overflow_rejected() {
        let pairs = |num_dims: usize| {
            let dim = DimensionSpec::new(TopologyKind::Ring, 2, 100.0, 1, 10.0).unwrap();
            (0..num_dims)
                .fold(NetworkTopology::builder("pairs"), |builder, _| {
                    builder.dimension(dim.clone())
                })
                .build()
        };
        let widest = pairs(63).unwrap();
        assert_eq!(widest.num_dims(), 63);
        assert_eq!(widest.num_npus(), 1 << 63);
        assert_eq!(
            pairs(64).unwrap_err(),
            NetError::TooManyNpus { num_dims: 64 }
        );
    }

    #[test]
    fn coordinate_roundtrip() {
        let topo = topo_4x8();
        for id in 0..topo.num_npus() {
            let coord = topo.coord_of(NpuId(id)).unwrap();
            assert_eq!(coord.0.len(), 2);
            let back = topo.id_of(&coord).unwrap();
            assert_eq!(back, NpuId(id));
        }
    }

    #[test]
    fn coordinates_follow_row_major_order() {
        let topo = topo_4x8();
        assert_eq!(topo.coord_of(NpuId(0)).unwrap(), NpuCoord(vec![0, 0]));
        assert_eq!(topo.coord_of(NpuId(1)).unwrap(), NpuCoord(vec![1, 0]));
        assert_eq!(topo.coord_of(NpuId(4)).unwrap(), NpuCoord(vec![0, 1]));
        assert_eq!(topo.coord_of(NpuId(31)).unwrap(), NpuCoord(vec![3, 7]));
    }

    #[test]
    fn out_of_range_npus_rejected() {
        let topo = topo_4x8();
        assert!(topo.coord_of(NpuId(32)).is_err());
        assert!(topo.id_of(&NpuCoord(vec![4, 0])).is_err());
        assert!(topo.id_of(&NpuCoord(vec![0])).is_err());
    }

    #[test]
    fn peers_along_dimension() {
        let topo = topo_4x8();
        let peers0 = topo.peers_along(NpuId(5), 0).unwrap();
        assert_eq!(peers0.len(), 4);
        assert!(peers0.contains(&NpuId(5)));
        // All peers share the dim-1 coordinate.
        let base = topo.coord_of(NpuId(5)).unwrap().along(1).unwrap();
        for p in &peers0 {
            assert_eq!(topo.coord_of(*p).unwrap().along(1).unwrap(), base);
        }

        let peers1 = topo.peers_along(NpuId(5), 1).unwrap();
        assert_eq!(peers1.len(), 8);
        assert!(peers1.contains(&NpuId(5)));
    }

    #[test]
    fn subtopology_extraction() {
        let topo = topo_4x8();
        let sub = topo.subtopology(&[1], "outer-only").unwrap();
        assert_eq!(sub.num_dims(), 1);
        assert_eq!(sub.num_npus(), 8);
        assert_eq!(sub.name(), "outer-only");
        assert!(topo.subtopology(&[], "bad").is_err());
        assert!(topo.subtopology(&[0, 0], "bad").is_err());
        assert!(topo.subtopology(&[3], "bad").is_err());
    }

    #[test]
    fn split_prefix_covering_group() {
        let topo = NetworkTopology::builder("16x8x8")
            .dimension(DimensionSpec::new(TopologyKind::Switch, 16, 200.0, 4, 700.0).unwrap())
            .dimension(DimensionSpec::new(TopologyKind::Switch, 8, 200.0, 4, 700.0).unwrap())
            .dimension(DimensionSpec::new(TopologyKind::Switch, 8, 800.0, 1, 1700.0).unwrap())
            .build()
            .unwrap();
        let (mp, dp) = topo.split_prefix_covering(128).unwrap();
        assert_eq!(mp, vec![0, 1]);
        assert_eq!(dp, vec![2]);
        let (mp, dp) = topo.split_prefix_covering(1).unwrap();
        assert!(mp.is_empty());
        assert_eq!(dp, vec![0, 1, 2]);
        assert!(topo.split_prefix_covering(24).is_err());
        assert!(topo.split_prefix_covering(2048).is_err());
    }

    #[test]
    fn split_for_group_with_whole_dimensions() {
        let topo = NetworkTopology::builder("16x8x8")
            .dimension(DimensionSpec::new(TopologyKind::Switch, 16, 200.0, 4, 700.0).unwrap())
            .dimension(DimensionSpec::new(TopologyKind::Switch, 8, 200.0, 4, 700.0).unwrap())
            .dimension(DimensionSpec::new(TopologyKind::Switch, 8, 800.0, 1, 1700.0).unwrap())
            .build()
            .unwrap();
        let (group, rest) = topo.split_for_group(128, "mp", "dp").unwrap();
        assert_eq!(group.num_npus(), 128);
        assert_eq!(group.dim_sizes(), vec![16, 8]);
        assert_eq!(rest.num_npus(), 8);
        assert_eq!(rest.dim_sizes(), vec![8]);
        assert_eq!(rest.dim_bandwidth(0).unwrap().as_gbps(), 800.0);
    }

    #[test]
    fn split_for_group_factors_a_dimension() {
        // A 16×64 machine with a 128-NPU group: dim 2 is factored into 8×8.
        let topo = NetworkTopology::builder("16x64")
            .dimension(DimensionSpec::new(TopologyKind::Switch, 16, 200.0, 6, 700.0).unwrap())
            .dimension(DimensionSpec::new(TopologyKind::Switch, 64, 800.0, 1, 1700.0).unwrap())
            .build()
            .unwrap();
        let (group, rest) = topo.split_for_group(128, "mp", "dp").unwrap();
        assert_eq!(group.dim_sizes(), vec![16, 8]);
        assert_eq!(rest.dim_sizes(), vec![8]);
        assert_eq!(group.dim_bandwidth(1).unwrap().as_gbps(), 800.0);
        assert_eq!(rest.dim_bandwidth(0).unwrap().as_gbps(), 800.0);
        assert_eq!(group.num_npus() * rest.num_npus(), topo.num_npus());
    }

    #[test]
    fn split_for_group_rejects_bad_sizes() {
        let topo = topo_4x8();
        assert!(topo.split_for_group(0, "a", "b").is_err());
        assert!(topo.split_for_group(1, "a", "b").is_err());
        assert!(topo.split_for_group(32, "a", "b").is_err());
        assert!(topo.split_for_group(3, "a", "b").is_err());
        let (group, rest) = topo.split_for_group(8, "a", "b").unwrap();
        assert_eq!(group.dim_sizes(), vec![4, 2]);
        assert_eq!(rest.dim_sizes(), vec![4]);
    }

    #[test]
    fn bandwidth_scaling() {
        let topo = topo_4x8();
        let scaled = topo.with_dim_bandwidth_scaled(1, 2.0).unwrap();
        assert_eq!(scaled.dim_bandwidth(1).unwrap().as_gbps(), 800.0);
        assert_eq!(scaled.dim_bandwidth(0).unwrap().as_gbps(), 2000.0);
        assert!(topo.with_dim_bandwidth_scaled(5, 2.0).is_err());
    }

    #[test]
    fn fingerprint_reflects_structure_not_name() {
        let topo = topo_4x8();
        // Deterministic across calls.
        assert_eq!(topo.fingerprint(), topo.fingerprint());
        // Renaming keeps the fingerprint: schedules only see the structure.
        assert_eq!(topo.renamed("other-name").fingerprint(), topo.fingerprint());
        // Any structural change moves it.
        let scaled = topo.with_dim_bandwidth_scaled(1, 2.0).unwrap();
        assert_ne!(scaled.fingerprint(), topo.fingerprint());
        let reordered = NetworkTopology::new(
            "reordered",
            vec![topo.dims()[1].clone(), topo.dims()[0].clone()],
        )
        .unwrap();
        assert_ne!(reordered.fingerprint(), topo.fingerprint());
    }

    #[test]
    fn renamed_preserves_structure() {
        let topo = topo_4x8();
        let renamed = topo.renamed("other");
        assert_eq!(renamed.name(), "other");
        assert_eq!(renamed.dims(), topo.dims());
    }
}
