//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is a sorted schedule of [`FaultEvent`]s — per-dimension
//! bandwidth degradation, full link failure, and recovery, each with an
//! activation time in simulated nanoseconds. The event loop applies the plan
//! as **cost-table swaps at event boundaries**: it never advances across a
//! fault time in one step; when it reaches one it switches to the
//! epoch's [`CostTable`] and issues all later ops against it. Two rules keep
//! the model deterministic and cheap:
//!
//! * **In-flight ops complete at their issued cost.** A fault never reprices
//!   or aborts an op that already started; it only affects ops issued after
//!   the boundary.
//! * **Failed dimensions block issuance.** Zero bandwidth is not expressible
//!   in the cost model (and would stall processor sharing), so a failed
//!   dimension simply stops starting ops until a recovery event; ready ops
//!   wait in their queues.
//!
//! Epoch tables are derived data: a degraded topology is rebuilt with
//! [`NetworkTopology::with_dim_bandwidth_scaled`], whose bandwidth change
//! moves [`NetworkTopology::fingerprint`], so each fault epoch keys its own
//! entry in a shared [`CostTableCache`] — built once per (schedule, epoch)
//! and shared across cells, workers and repeated runs. Cached and uncached
//! builds are bit-identical, so fault runs agree bit for bit across every
//! runner backend.
//!
//! An empty plan is guaranteed to leave the event loop on its exact original
//! float path: no boundary exists, no delta is capped, and the base table is
//! used throughout, so reports are bit-identical to a fault-free build.

use crate::error::SimError;
use std::sync::Arc;
use themis_collectives::CostModel;
use themis_core::plan::{CostTable, CostTableCache};
use themis_core::CollectiveSchedule;
use themis_net::NetworkTopology;

/// What happens to a dimension at a fault boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The dimension's link bandwidth drops to `factor` × its healthy value
    /// (absolute with respect to the healthy topology, not compounding).
    Degrade {
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The dimension fails outright: no new op starts on it until a
    /// [`FaultKind::Recover`] event. In-flight ops finish at their issued
    /// cost.
    Fail,
    /// The dimension returns to full health: issuance unblocks and the
    /// bandwidth multiplier resets to 1.
    Recover,
}

/// One scheduled fault: a [`FaultKind`] applied to one dimension at an
/// absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Activation time in simulated nanoseconds (`>= 0`, finite).
    pub at_ns: f64,
    /// The affected topology dimension.
    pub dim: usize,
    /// What happens to the dimension.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, kept sorted by
/// `(activation time, dimension)`.
///
/// ```
/// use themis_sim::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new()
///     .degrade(2_000_000.0, 1, 0.5)
///     .fail(5_000_000.0, 0)
///     .recover(8_000_000.0, 0);
/// assert_eq!(plan.len(), 3);
/// assert!(matches!(
///     plan.events()[0].kind,
///     FaultKind::Degrade { factor } if factor == 0.5
/// ));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan (the fault-free default).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Creates a plan from an event list, sorting it into canonical
    /// `(at_ns, dim)` order (stable: same-key events keep their list order).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| {
            a.at_ns
                .partial_cmp(&b.at_ns)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.dim.cmp(&b.dim))
        });
        FaultPlan { events }
    }

    /// Adds a bandwidth-degradation event and re-sorts.
    #[must_use]
    pub fn degrade(self, at_ns: f64, dim: usize, factor: f64) -> Self {
        self.with_event(FaultEvent {
            at_ns,
            dim,
            kind: FaultKind::Degrade { factor },
        })
    }

    /// Adds a full link-failure event and re-sorts.
    #[must_use]
    pub fn fail(self, at_ns: f64, dim: usize) -> Self {
        self.with_event(FaultEvent {
            at_ns,
            dim,
            kind: FaultKind::Fail,
        })
    }

    /// Adds a recovery event and re-sorts.
    #[must_use]
    pub fn recover(self, at_ns: f64, dim: usize) -> Self {
        self.with_event(FaultEvent {
            at_ns,
            dim,
            kind: FaultKind::Recover,
        })
    }

    /// Adds one event and re-sorts.
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        FaultPlan::from_events(self.events)
    }

    /// The events in canonical order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the plan schedules no fault (the engines take their exact
    /// original float paths).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates every event against a topology with `num_dims` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidOptions`] for non-finite or negative
    /// activation times, out-of-range dimensions, or degradation factors
    /// outside `(0, 1]`.
    pub fn validate(&self, num_dims: usize) -> Result<(), SimError> {
        for event in &self.events {
            if !event.at_ns.is_finite() || event.at_ns < 0.0 {
                return Err(SimError::InvalidOptions {
                    reason: format!(
                        "fault activation time must be finite and non-negative, got {}",
                        event.at_ns
                    ),
                });
            }
            if event.dim >= num_dims {
                return Err(SimError::InvalidOptions {
                    reason: format!(
                        "fault event targets dimension {} but the topology has {num_dims}",
                        event.dim
                    ),
                });
            }
            if let FaultKind::Degrade { factor } = event.kind {
                if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                    return Err(SimError::InvalidOptions {
                        reason: format!("fault degradation factor must be in (0, 1], got {factor}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Re-expresses the plan in a time frame starting `offset_ns` later:
    /// events at or before the offset collapse into state events at time 0
    /// (so a collective starting mid-fault sees the fabric as it is at its
    /// start), later events shift left by the offset. The sequential stream
    /// policy uses this to hand each laid-end-to-end collective the plan as
    /// seen from its own start time.
    #[must_use]
    pub fn shifted(&self, offset_ns: f64) -> Self {
        if self.events.is_empty() || offset_ns <= 0.0 {
            return self.clone();
        }
        let num_dims = self.events.iter().map(|e| e.dim + 1).max().unwrap_or(0);
        let mut state = DimFaultState::healthy(num_dims);
        let mut later = Vec::new();
        for event in &self.events {
            if event.at_ns <= offset_ns {
                state.apply(event);
            } else {
                later.push(FaultEvent {
                    at_ns: event.at_ns - offset_ns,
                    ..*event
                });
            }
        }
        let mut events = Vec::new();
        for dim in 0..num_dims {
            if state.multipliers[dim] != 1.0 {
                events.push(FaultEvent {
                    at_ns: 0.0,
                    dim,
                    kind: FaultKind::Degrade {
                        factor: state.multipliers[dim],
                    },
                });
            }
            if state.blocked[dim] {
                events.push(FaultEvent {
                    at_ns: 0.0,
                    dim,
                    kind: FaultKind::Fail,
                });
            }
        }
        events.extend(later);
        FaultPlan::from_events(events)
    }

    /// The fabric as a scheduler should see it at t = 0: every event active
    /// at or before the start folds into per-dimension bandwidth multipliers
    /// (exactly as [`FaultPlan::compile`] folds them into the initial epoch)
    /// and the degraded topology is rebuilt. A fault that is already active
    /// when the collective starts is *static* asymmetry — precisely what a
    /// bandwidth-aware scheduler exists to exploit — while later events stay
    /// invisible: mid-stream faults are unforeseen by construction.
    ///
    /// Returns `None` when no multiplier differs from 1 (no t = 0 degradation,
    /// or the plan is empty): callers must then schedule against the original
    /// topology object untouched, which keeps fault-free runs on their exact
    /// original float paths. A failed-at-t-0 dimension does not change the
    /// scheduling bandwidths — a collective spans every dimension, so there is
    /// nothing to route around; issuance blocking handles it at simulation
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the plan fails [`FaultPlan::validate`] or the
    /// degraded topology cannot be built.
    pub fn initial_topology(
        &self,
        topo: &NetworkTopology,
    ) -> Result<Option<NetworkTopology>, SimError> {
        if self.events.is_empty() {
            return Ok(None);
        }
        let num_dims = topo.num_dims();
        self.validate(num_dims)?;
        let mut state = DimFaultState::healthy(num_dims);
        for event in self.events.iter().take_while(|e| e.at_ns <= 0.0) {
            state.apply(event);
        }
        if state.multipliers.iter().all(|&m| m == 1.0) {
            return Ok(None);
        }
        let mut degraded = topo.clone();
        for (dim, &multiplier) in state.multipliers.iter().enumerate() {
            if multiplier != 1.0 {
                degraded = degraded.with_dim_bandwidth_scaled(dim, multiplier)?;
            }
        }
        Ok(Some(degraded))
    }

    /// Compiles the plan against one schedule into the sequence of
    /// [`FaultEpoch`]s the event loop walks: for every distinct activation
    /// time, the per-dimension bandwidth multipliers are folded into a
    /// degraded topology and its [`CostTable`] is built (through `plan_cache`
    /// when provided, so repeated cells share one table per epoch — the
    /// degraded topology's fingerprint keys the entry). Epochs whose
    /// multipliers are all 1 carry no table and price against the caller's
    /// base table.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the plan fails [`FaultPlan::validate`] or an
    /// epoch table cannot be built.
    pub fn compile(
        &self,
        topo: &NetworkTopology,
        cost_model: &CostModel,
        schedule: &CollectiveSchedule,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<FaultTimeline, SimError> {
        let num_dims = topo.num_dims();
        self.validate(num_dims)?;
        let mut state = DimFaultState::healthy(num_dims);
        let mut epochs = Vec::new();
        let mut index = 0;
        // Events at exactly t = 0 belong to the initial epoch: the fabric is
        // already degraded before the first op is issued.
        while index < self.events.len() && self.events[index].at_ns <= 0.0 {
            state.apply(&self.events[index]);
            index += 1;
        }
        epochs.push(state.to_epoch(0.0, topo, cost_model, schedule, plan_cache)?);
        while index < self.events.len() {
            let at_ns = self.events[index].at_ns;
            while index < self.events.len() && self.events[index].at_ns == at_ns {
                state.apply(&self.events[index]);
                index += 1;
            }
            epochs.push(state.to_epoch(at_ns, topo, cost_model, schedule, plan_cache)?);
        }
        Ok(FaultTimeline { epochs })
    }
}

/// Per-dimension fault state while walking a plan.
#[derive(Debug)]
struct DimFaultState {
    multipliers: Vec<f64>,
    blocked: Vec<bool>,
}

impl DimFaultState {
    fn healthy(num_dims: usize) -> Self {
        DimFaultState {
            multipliers: vec![1.0; num_dims],
            blocked: vec![false; num_dims],
        }
    }

    fn apply(&mut self, event: &FaultEvent) {
        match event.kind {
            FaultKind::Degrade { factor } => self.multipliers[event.dim] = factor,
            FaultKind::Fail => self.blocked[event.dim] = true,
            FaultKind::Recover => {
                self.blocked[event.dim] = false;
                self.multipliers[event.dim] = 1.0;
            }
        }
    }

    fn to_epoch(
        &self,
        start_ns: f64,
        topo: &NetworkTopology,
        cost_model: &CostModel,
        schedule: &CollectiveSchedule,
        plan_cache: Option<&CostTableCache>,
    ) -> Result<FaultEpoch, SimError> {
        let table = if self.multipliers.iter().all(|&m| m == 1.0) {
            None
        } else {
            let mut degraded = topo.clone();
            for (dim, &multiplier) in self.multipliers.iter().enumerate() {
                if multiplier != 1.0 {
                    degraded = degraded.with_dim_bandwidth_scaled(dim, multiplier)?;
                }
            }
            Some(match plan_cache {
                Some(cache) => cache.get_or_build(&degraded, cost_model, schedule)?,
                None => Arc::new(CostTable::build(&degraded, cost_model, schedule)?),
            })
        };
        Ok(FaultEpoch {
            start_ns,
            table,
            blocked: self.blocked.clone(),
        })
    }
}

/// One epoch of a compiled plan: the fabric state between two fault
/// boundaries.
#[derive(Debug, Clone)]
pub struct FaultEpoch {
    /// Simulated time at which the epoch begins (the first epoch starts
    /// at 0).
    pub start_ns: f64,
    /// The cost table pricing ops issued in this epoch; `None` means every
    /// multiplier is 1 and the caller's base table applies.
    pub table: Option<Arc<CostTable>>,
    /// Per-dimension issuance block: `true` while the dimension is failed.
    pub blocked: Vec<bool>,
}

/// A compiled [`FaultPlan`]: the ordered epochs (with pre-built cost tables)
/// the event loop steps through.
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    epochs: Vec<FaultEpoch>,
}

impl FaultTimeline {
    /// The epochs in time order. Never empty: even a plan with no events
    /// compiles to the single healthy epoch.
    pub fn epochs(&self) -> &[FaultEpoch] {
        &self.epochs
    }

    /// The start time of epoch `index`, if it exists — the engines use
    /// `epoch_start(current + 1)` as the next boundary to cap their time
    /// advance at.
    pub fn epoch_start(&self, index: usize) -> Option<f64> {
        self.epochs.get(index).map(|e| e.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::{CollectiveRequest, CollectiveScheduler, ThemisScheduler};
    use themis_net::presets::PresetTopology;

    fn schedule_on(topo: &NetworkTopology) -> CollectiveSchedule {
        ThemisScheduler::new(8)
            .schedule(&CollectiveRequest::all_reduce_mib(64.0), topo)
            .unwrap()
    }

    #[test]
    fn events_sort_into_canonical_order() {
        let plan = FaultPlan::new()
            .fail(500.0, 1)
            .degrade(100.0, 2, 0.25)
            .recover(500.0, 0);
        let times: Vec<(f64, usize)> = plan.events().iter().map(|e| (e.at_ns, e.dim)).collect();
        assert_eq!(times, vec![(100.0, 2), (500.0, 0), (500.0, 1)]);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn validation_rejects_malformed_events() {
        let topo_dims = 3;
        assert!(FaultPlan::new()
            .degrade(0.0, 0, 0.5)
            .validate(topo_dims)
            .is_ok());
        assert!(FaultPlan::new()
            .degrade(-1.0, 0, 0.5)
            .validate(topo_dims)
            .is_err());
        assert!(FaultPlan::new()
            .degrade(f64::NAN, 0, 0.5)
            .validate(topo_dims)
            .is_err());
        assert!(FaultPlan::new().fail(0.0, 3).validate(topo_dims).is_err());
        assert!(FaultPlan::new()
            .degrade(0.0, 0, 0.0)
            .validate(topo_dims)
            .is_err());
        assert!(FaultPlan::new()
            .degrade(0.0, 0, 1.5)
            .validate(topo_dims)
            .is_err());
    }

    #[test]
    fn compile_builds_one_epoch_per_distinct_time() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let schedule = schedule_on(&topo);
        let model = CostModel::new();
        let plan = FaultPlan::new()
            .degrade(1_000.0, 0, 0.5)
            .fail(1_000.0, 1)
            .recover(2_000.0, 1);
        let timeline = plan.compile(&topo, &model, &schedule, None).unwrap();
        assert_eq!(timeline.epochs().len(), 3);
        // Healthy initial epoch: base table, nothing blocked.
        assert!(timeline.epochs()[0].table.is_none());
        assert!(!timeline.epochs()[0].blocked.iter().any(|&b| b));
        // Degraded + failed epoch.
        assert_eq!(timeline.epochs()[1].start_ns, 1_000.0);
        assert!(timeline.epochs()[1].table.is_some());
        assert!(timeline.epochs()[1].blocked[1]);
        // Recovery unblocks dim 1 but dim 0 stays degraded.
        assert!(!timeline.epochs()[2].blocked[1]);
        assert!(timeline.epochs()[2].table.is_some());
        assert_eq!(timeline.epoch_start(1), Some(1_000.0));
        assert_eq!(timeline.epoch_start(3), None);
    }

    #[test]
    fn events_at_time_zero_fold_into_the_initial_epoch() {
        let topo = PresetTopology::Sw2d.build();
        let schedule = schedule_on(&topo);
        let plan = FaultPlan::new().degrade(0.0, 0, 0.5);
        let timeline = plan
            .compile(&topo, &CostModel::new(), &schedule, None)
            .unwrap();
        assert_eq!(timeline.epochs().len(), 1);
        assert!(timeline.epochs()[0].table.is_some());
    }

    #[test]
    fn epoch_tables_share_through_the_cache() {
        let topo = PresetTopology::Sw2d.build();
        let schedule = schedule_on(&topo);
        let model = CostModel::new();
        let cache = CostTableCache::new();
        let plan = FaultPlan::new().degrade(1_000.0, 0, 0.5);
        let first = plan
            .compile(&topo, &model, &schedule, Some(&cache))
            .unwrap();
        let second = plan
            .compile(&topo, &model, &schedule, Some(&cache))
            .unwrap();
        let a = first.epochs()[1].table.as_ref().unwrap();
        let b = second.epochs()[1].table.as_ref().unwrap();
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // An uncached compile produces the same table contents bit for bit.
        let uncached = plan.compile(&topo, &model, &schedule, None).unwrap();
        assert_eq!(
            uncached.epochs()[1].table.as_deref(),
            Some(a.as_ref() as &CostTable)
        );
    }

    #[test]
    fn initial_topology_folds_only_t_zero_degradation() {
        let topo = PresetTopology::Sw2d.build();
        // Empty plans and plans with only future events see the healthy fabric.
        assert_eq!(FaultPlan::new().initial_topology(&topo).unwrap(), None);
        assert_eq!(
            FaultPlan::new()
                .degrade(1_000.0, 0, 0.5)
                .initial_topology(&topo)
                .unwrap(),
            None
        );
        // A t = 0 failure blocks issuance but does not change the scheduling
        // bandwidths, and a recovery at 0 erases a degrade at 0.
        assert_eq!(
            FaultPlan::new()
                .fail(0.0, 1)
                .initial_topology(&topo)
                .unwrap(),
            None
        );
        assert_eq!(
            FaultPlan::new()
                .degrade(0.0, 1, 0.5)
                .recover(0.0, 1)
                .initial_topology(&topo)
                .unwrap(),
            None
        );
        // A t = 0 degrade is visible: the scheduler sees the scaled dimension.
        let degraded = FaultPlan::new()
            .degrade(0.0, 1, 0.5)
            .initial_topology(&topo)
            .unwrap()
            .unwrap();
        assert_eq!(degraded, topo.with_dim_bandwidth_scaled(1, 0.5).unwrap());
        assert_ne!(degraded.fingerprint(), topo.fingerprint());
        // Invalid plans surface their validation error.
        assert!(FaultPlan::new()
            .degrade(0.0, 7, 0.5)
            .initial_topology(&topo)
            .is_err());
    }

    #[test]
    fn shifted_collapses_past_events_into_state_at_zero() {
        let plan = FaultPlan::new()
            .degrade(1_000.0, 0, 0.5)
            .fail(2_000.0, 1)
            .recover(5_000.0, 1);
        let shifted = plan.shifted(3_000.0);
        // Degrade and fail are in the past: both become state events at 0;
        // the recovery shifts left.
        assert_eq!(shifted.len(), 3);
        assert_eq!(shifted.events()[0].at_ns, 0.0);
        assert_eq!(shifted.events()[1].at_ns, 0.0);
        assert_eq!(shifted.events()[2].at_ns, 2_000.0);
        assert!(matches!(shifted.events()[2].kind, FaultKind::Recover));
        // A recovery in the past erases the failure entirely.
        let fully_past = plan.shifted(6_000.0);
        assert_eq!(fully_past.len(), 1);
        assert!(
            matches!(fully_past.events()[0].kind, FaultKind::Degrade { factor } if factor == 0.5)
        );
        // Zero offset and empty plans are returned unchanged.
        assert_eq!(plan.shifted(0.0), plan);
        assert!(FaultPlan::new().shifted(1_000.0).is_empty());
    }
}
