//! Streaming multi-collective queue engine with overlap-aware scheduling.
//!
//! The training loop issues a *stream* of collectives (per-layer
//! model-parallel All-Reduces, the data-parallel gradient All-Reduce, DLRM's
//! All-To-Alls). On the network these collectives can overlap the way Sec. 4.3
//! overlaps chunks within one collective: a chunk of collective *k+1* may
//! start on a network dimension the moment collective *k* has vacated it, even
//! while *k* is still draining its later phases on other dimensions.
//!
//! This module provides that engine:
//!
//! * [`StreamEntry`] — one queued collective: a label, an issue time and the
//!   [`themis_core::CollectiveRequest`] to execute.
//! * [`StreamSimulator`] — schedules every entry with a shared scheduler and
//!   executes the whole queue with per-dimension in-flight chunk tracking and
//!   event-driven admission. Earlier collectives always have priority on every
//!   dimension, so streaming never delays a collective behind later arrivals;
//!   later collectives only fill bandwidth the earlier ones left idle.
//! * [`StreamReport`] / [`CollectiveSpan`] — per-collective start/finish
//!   spans, exposed-communication and overlap breakdowns, and aggregate
//!   per-dimension statistics.
//!
//! Setting [`crate::SimOptions::cross_collective_overlap`] to `false` selects
//! the strict back-to-back execution of the sequential timeline model: each
//! collective runs alone through the loop's single-collective instantiation,
//! in its own single-run frame, and the runs are laid end to end (the overlap
//! policy runs the merged instantiation instead). The stream engine is the
//! single entry point for collective queues, and
//! [`crate::PipelineSimulator`] runs the same single-collective
//! instantiation, so one event loop executes every simulation.
//!
//! A queue enters through one of two paths: [`StreamSimulator::run`]
//! schedules and prices every entry afresh (the cache-free reference), and
//! [`StreamSimulator::run_planned_cached`] executes schedules and cost
//! tables served by a [`themis_core::SimPlanCache`], bit-identically.
//!
//! ```
//! use themis_core::ThemisScheduler;
//! use themis_net::presets::PresetTopology;
//! use themis_sim::stream::{StreamEntry, StreamSimulator};
//! use themis_sim::SimOptions;
//!
//! # fn main() -> Result<(), themis_sim::SimError> {
//! let topo = PresetTopology::SwSwSw3dHomo.build();
//! let entries = vec![
//!     StreamEntry::all_reduce_mib("layer-3 grads", 0.0, 128.0),
//!     StreamEntry::all_reduce_mib("layer-2 grads", 0.0, 128.0),
//! ];
//! let streamed = StreamSimulator::new(&topo, SimOptions::default())
//!     .run(&mut ThemisScheduler::new(16), &entries)?;
//! let sequential = StreamSimulator::new(
//!     &topo,
//!     SimOptions::default().with_cross_collective_overlap(false),
//! )
//! .run(&mut ThemisScheduler::new(16), &entries)?;
//! assert!(streamed.makespan_ns() <= sequential.makespan_ns());
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod queue;
pub mod report;

pub use engine::StreamSimulator;
pub use queue::StreamEntry;
pub use report::{CollectiveSpan, StreamReport};
