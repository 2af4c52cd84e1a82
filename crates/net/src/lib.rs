//! # themis-net
//!
//! Multi-dimensional network topology substrate used by the Themis (ISCA 2022)
//! reproduction.
//!
//! Distributed-training platforms connect NPUs through a *hierarchy* of network
//! dimensions (package, node, pod, scale-out NIC, ...). Each dimension has its
//! own physical topology (ring, fully-connected, switch), its own per-NPU
//! aggregate bandwidth and its own step latency. This crate models that
//! abstraction (Fig. 1 of the paper) and provides the concrete platforms
//! evaluated in the paper (Table 2) as [`presets`].
//!
//! The central type is [`NetworkTopology`]: an ordered list of
//! [`DimensionSpec`]s together with NPU addressing helpers.
//!
//! ```
//! use themis_net::{NetworkTopology, DimensionSpec, TopologyKind};
//!
//! # fn main() -> Result<(), themis_net::NetError> {
//! let topo = NetworkTopology::builder("example-2d")
//!     .dimension(DimensionSpec::new(TopologyKind::Ring, 4, 100.0, 2, 20.0)?)
//!     .dimension(DimensionSpec::new(TopologyKind::Switch, 8, 400.0, 1, 700.0)?)
//!     .build()?;
//! assert_eq!(topo.num_npus(), 32);
//! assert_eq!(topo.num_dims(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bandwidth;
pub mod dimension;
pub mod error;
pub mod presets;
pub mod provisioning;
pub mod topology;

pub use bandwidth::{Bandwidth, DataSize};
pub use dimension::{DimensionSpec, TopologyKind};
pub use error::NetError;
pub use presets::{current_generation_2d, next_generation_suite, preset_by_name, PresetTopology};
pub use provisioning::{classify_pair, classify_topology, ProvisioningClass, ProvisioningReport};
pub use topology::{NetworkTopology, NetworkTopologyBuilder, NpuCoord, NpuId};
