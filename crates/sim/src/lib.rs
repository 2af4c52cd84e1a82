//! # themis-sim
//!
//! A discrete-event chunk-pipeline simulator for multi-dimensional collective
//! communication, standing in for the ASTRA-sim substrate used by the Themis
//! paper (ISCA 2022).
//!
//! The simulator executes a [`themis_core::CollectiveSchedule`] on a
//! [`themis_net::NetworkTopology`]: every network dimension is a resource that
//! executes chunk phase operations (Reduce-Scatter / All-Gather / All-To-All
//! stages); a chunk moves to the next dimension of its schedule as soon as the
//! previous stage finishes. Because the per-dimension collectives are
//! contention-free and topology-aware (Sec. 5.1 of the paper), the simulator
//! models each dimension as a single shared-bandwidth channel with the
//! `A_K + N_K × B_K` cost model — the same model the scheduler uses, which is
//! what makes the inter-dimension schedule consistency of Sec. 4.6.1 hold.
//! Intra-dimension consistency (Sec. 4.6.2) is
//! [`SimOptions::enforce_intra_dim_order`]: every dimension follows the
//! order the collective's own healthy run takes, derived by the same loop.
//!
//! The main entry points are:
//!
//! * [`PipelineSimulator`] — executes one collective schedule and produces a
//!   [`SimReport`] (completion time, per-dimension busy time and wire bytes,
//!   the paper's weighted average BW utilisation, and the frontend-activity
//!   timeline of Fig. 9). `run_kind` schedules *and* simulates one of the
//!   Table 3 configurations.
//! * [`stream`] — the streaming multi-collective queue engine: executes a
//!   queue of collectives with event-driven admission and per-dimension
//!   in-flight overlap (chunks of collective *k+1* start on dimensions
//!   collective *k* has vacated), or one after another, each collective
//!   alone, when [`SimOptions::cross_collective_overlap`] is off (the
//!   sequential timeline policy).
//!
//! Each has exactly two entry paths. The plain path (`run`, and
//! `PipelineSimulator::run_kind`) schedules and prices everything afresh:
//! it is the cache-free reference. The planned path
//! (`PipelineSimulator::run_planned` / `run_kind_planned`,
//! `StreamSimulator::run_planned_cached`) takes schedules and cost tables
//! served by a [`themis_core::SimPlanCache`] and a reusable
//! [`SimWorkspace`]; it is bit-identical to the plain path.
//!
//! Every simulation runs through one data-oriented event loop in
//! [`stream::engine`]: a single collective is the one-entry, issued-at-zero
//! case of a stream, run by the loop's single-collective instantiation. The
//! crate carries no second loop: the differential suites check this one
//! against a plain reference loop written against the public API in the
//! test tree (`crates/sim/tests/oracle`).
//!
//! ```
//! use themis_core::{CollectiveRequest, CollectiveScheduler, ThemisScheduler};
//! use themis_net::presets::PresetTopology;
//! use themis_sim::{PipelineSimulator, SimOptions};
//!
//! # fn main() -> Result<(), themis_sim::SimError> {
//! let topo = PresetTopology::SwSwSw3dHomo.build();
//! let request = CollectiveRequest::all_reduce_mib(256.0);
//! let schedule = ThemisScheduler::new(64)
//!     .schedule(&request, &topo)
//!     .map_err(themis_sim::SimError::from)?;
//! let report = PipelineSimulator::new(&topo, SimOptions::default()).run(&schedule)?;
//! assert!(report.average_bw_utilization() > 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cancel;
pub mod error;
pub mod faults;
pub mod options;
pub mod pipeline;
pub(crate) mod soa;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workspace;

pub use cancel::CancelToken;
pub use error::SimError;
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultTimeline};
pub use options::SimOptions;
pub use pipeline::PipelineSimulator;
pub use stats::{DimReport, SimReport};
pub use stream::{CollectiveSpan, StreamEntry, StreamReport, StreamSimulator};
pub use trace::{sim_report_trace, stream_report_trace};
pub use workspace::SimWorkspace;
