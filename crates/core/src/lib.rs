//! # themis-core
//!
//! The collective *chunk schedulers* of the Themis paper (ISCA 2022) — the
//! primary contribution of the reproduced work — plus the baseline and ideal
//! schedulers it is compared against.
//!
//! A collective operation (e.g. a gradient All-Reduce) issued by the training
//! workload is split into equal-size chunks; each chunk traverses every
//! network dimension once per phase (Reduce-Scatter and/or All-Gather). A
//! *scheduler* decides, per chunk, the **order** in which the dimensions are
//! traversed:
//!
//! * [`BaselineScheduler`] — the multi-rail hierarchical baseline of Sec. 2.3:
//!   every chunk performs Reduce-Scatter from dim 1 to dim D and All-Gather in
//!   the reverse order.
//! * [`ThemisScheduler`] — Algorithm 1: a greedy, per-chunk dynamic ordering
//!   that puts more load on the dimensions that currently have less,
//!   maximising bandwidth utilisation on all dimensions.
//! * [`IdealEstimator`] — the 100 % utilisation bound of Table 3.
//!
//! The produced [`CollectiveSchedule`] is a plain data structure that the
//! `themis-sim` crate executes on a simulated multi-dimensional network.
//!
//! ```
//! use themis_core::{CollectiveRequest, CollectiveScheduler, ThemisScheduler};
//! use themis_collectives::CollectiveKind;
//! use themis_net::{DataSize, presets::PresetTopology};
//!
//! # fn main() -> Result<(), themis_core::ScheduleError> {
//! let topo = PresetTopology::SwSwSw3dHomo.build();
//! let request = CollectiveRequest::new(CollectiveKind::AllReduce, DataSize::from_mib(256.0));
//! let mut scheduler = ThemisScheduler::new(64);
//! let schedule = scheduler.schedule(&request, &topo)?;
//! assert_eq!(schedule.chunks().len(), 64);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod cache;
pub mod durable;
pub mod error;
pub mod ideal;
pub mod intra_dim;
pub mod json;
pub mod latency_model;
pub mod load_tracker;
pub mod plan;
pub mod schedule;
pub mod scheduler;
pub mod splitter;
pub mod telemetry;
pub mod themis;

pub use baseline::BaselineScheduler;
pub use cache::{ScheduleCache, ScheduleKey};
pub use durable::VerifiedRead;
pub use error::ScheduleError;
pub use ideal::IdealEstimator;
pub use intra_dim::IntraDimPolicy;
pub use latency_model::LatencyModel;
pub use load_tracker::DimLoadTracker;
pub use plan::{CostTable, CostTableCache, OpCost, SimPlanCache};
pub use schedule::{ChunkSchedule, CollectiveRequest, CollectiveSchedule, StageOp};
pub use scheduler::{CollectiveScheduler, SchedulerKind};
pub use splitter::Splitter;
pub use telemetry::{CacheStats, Registry, Snapshot};
pub use themis::{ThemisConfig, ThemisScheduler};
