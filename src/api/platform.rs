//! The [`Platform`] half of a run: a concrete network topology plus the
//! simulator options it is evaluated with.

use crate::error::ThemisError;
use std::borrow::Cow;
use themis_net::presets::{preset_by_name, PresetTopology};
use themis_net::NetworkTopology;
use themis_sim::SimOptions;

/// An evaluation platform: a [`NetworkTopology`] (preset or custom) bundled
/// with the [`SimOptions`] used to execute collectives on it.
///
/// ```
/// use themis::api::Platform;
/// use themis::PresetTopology;
///
/// let platform = Platform::preset(PresetTopology::SwSwSw3dHomo);
/// assert_eq!(platform.name(), "3D-SW_SW_SW_homo");
/// assert_eq!(platform.topology().num_npus(), 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    topology: NetworkTopology,
    options: SimOptions,
}

impl Platform {
    /// Creates a platform from one of the paper's preset topologies
    /// (Table 2 plus the current-generation reference system).
    pub fn preset(preset: PresetTopology) -> Self {
        Platform::custom(preset.build())
    }

    /// Creates a platform from a preset looked up by its paper name
    /// (e.g. `"3D-FC_Ring_SW"`, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Net`] if the name matches no preset.
    pub fn named(name: &str) -> Result<Self, ThemisError> {
        Ok(Platform::custom(preset_by_name(name)?))
    }

    /// Creates a platform from an arbitrary topology.
    pub fn custom(topology: NetworkTopology) -> Self {
        Platform {
            topology,
            options: SimOptions::default(),
        }
    }

    /// Replaces the simulator options.
    #[must_use]
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Convenience: toggles intra-dimension order enforcement (Sec. 4.6.2,
    /// [`SimOptions::enforce_intra_dim_order`]) on the current options.
    #[must_use]
    pub fn with_enforced_order(mut self, enforce: bool) -> Self {
        self.options = self.options.with_enforced_order(enforce);
        self
    }

    /// The platform's topology name.
    pub fn name(&self) -> &str {
        self.topology.name()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &NetworkTopology {
        &self.topology
    }

    /// The fabric as the schedulers see it: fault events active at t = 0 (a
    /// permanently degraded link is *static* asymmetry — exactly what a
    /// bandwidth-aware scheduler exists to exploit) fold into the dimension
    /// bandwidths; later events stay invisible, so mid-stream faults remain
    /// unforeseen. Without t = 0 degradation this borrows the topology
    /// untouched, keeping fault-free scheduling on its exact original path.
    ///
    /// # Errors
    ///
    /// Returns [`ThemisError::Sim`] if the fault plan does not fit the
    /// topology.
    pub fn scheduling_topology(&self) -> Result<Cow<'_, NetworkTopology>, ThemisError> {
        Ok(
            match self.options.faults.initial_topology(&self.topology)? {
                Some(degraded) => Cow::Owned(degraded),
                None => Cow::Borrowed(&self.topology),
            },
        )
    }

    /// The simulator options collectives run with on this platform.
    pub fn options(&self) -> SimOptions {
        self.options.clone()
    }

    /// Convenience: installs a fault schedule ([`themis_sim::FaultPlan`]) on
    /// the current options — mid-stream bandwidth degradation, link failure
    /// and recovery at fixed simulated times.
    #[must_use]
    pub fn with_faults(mut self, faults: themis_sim::FaultPlan) -> Self {
        self.options = self.options.with_faults(faults);
        self
    }
}

impl From<PresetTopology> for Platform {
    fn from(preset: PresetTopology) -> Self {
        Platform::preset(preset)
    }
}

impl From<NetworkTopology> for Platform {
    fn from(topology: NetworkTopology) -> Self {
        Platform::custom(topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_and_named_agree() {
        let by_enum = Platform::preset(PresetTopology::FcRingSw3d);
        let by_name = Platform::named("3D-FC_Ring_SW").unwrap();
        assert_eq!(by_enum, by_name);
        assert!(matches!(
            Platform::named("not-a-platform"),
            Err(ThemisError::Net(_))
        ));
    }

    #[test]
    fn options_are_carried() {
        let platform = Platform::preset(PresetTopology::Sw2d)
            .with_options(SimOptions::default().with_max_concurrent_ops(2))
            .with_enforced_order(true);
        assert_eq!(platform.options().max_concurrent_ops_per_dim, 2);
        assert!(platform.options().enforce_intra_dim_order);
    }
}
