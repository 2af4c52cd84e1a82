//! Reusable per-worker simulation scratch.
//!
//! The event loop is allocation-free per *step*; a [`SimWorkspace`] makes
//! its setup allocation-free per *cell* too. A campaign worker creates one
//! workspace and threads it through every cell it executes: ready lanes,
//! in-flight sets, completion scratch and the raw op-log buffer keep their
//! allocations between runs and are merely re-initialised. Reuse never
//! changes results — every buffer is reset to the exact state a fresh
//! allocation would have — so reports are bit-identical to workspace-free
//! runs (asserted by the integration suites).

use crate::soa;
use crate::stats::{DimReport, RawOp};
use crate::stream::engine as stream_engine;
use std::time::Duration;
use themis_core::telemetry::{self, Counter, Gauge, Histogram, Registry};

/// Pre-registered instrument handles of one workspace: the loop flushes
/// per-run statistics through these without any name lookup on the run path.
#[derive(Debug)]
pub(crate) struct SimTelemetry {
    registry: Registry,
    runs: Counter,
    pipeline_loop: Histogram,
    stream_loop: Histogram,
    phase_schedule: Histogram,
    phase_cost: Histogram,
    events_batched: Counter,
    dims_quiesced: Counter,
    dims: Vec<DimInstruments>,
}

#[derive(Debug)]
struct DimInstruments {
    busy_ns: Counter,
    idle_ns: Counter,
    ops: Counter,
    max_queue_depth: Gauge,
}

/// Per-run tallies the loop accumulates in locals and flushes once:
/// completions retired in same-timestamp batches of two or more
/// (`sim.events.batched`) and dimension-segments skipped outright by the
/// quiescence short-cut (`sim.dims.quiesced`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopCounters {
    pub events_batched: u64,
    pub dims_quiesced: u64,
}

impl Default for SimTelemetry {
    /// Attaches to the process-wide registry
    /// ([`themis_core::telemetry::global`]), so free-standing workspaces are
    /// observable without any wiring.
    fn default() -> Self {
        SimTelemetry::new(telemetry::global().clone())
    }
}

impl SimTelemetry {
    fn new(registry: Registry) -> Self {
        let runs = registry.counter("sim.runs");
        let pipeline_loop = registry.histogram("sim.pipeline.event_loop_ns");
        let stream_loop = registry.histogram("sim.stream.event_loop_ns");
        let phase_schedule = registry.histogram("phase.schedule_ns");
        let phase_cost = registry.histogram("phase.cost_precompute_ns");
        let events_batched = registry.counter("sim.events.batched");
        let dims_quiesced = registry.counter("sim.dims.quiesced");
        SimTelemetry {
            registry,
            runs,
            pipeline_loop,
            stream_loop,
            phase_schedule,
            phase_cost,
            events_batched,
            dims_quiesced,
            dims: Vec::new(),
        }
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// Registers per-dimension instruments up to `num_dims` (idempotent; the
    /// handles persist across runs, so only the first cell of a new width
    /// pays the registration).
    pub(crate) fn ensure_dims(&mut self, num_dims: usize) {
        while self.dims.len() < num_dims {
            let d = self.dims.len();
            self.dims.push(DimInstruments {
                busy_ns: self.registry.counter(format!("sim.dim{d}.busy_ns")),
                idle_ns: self.registry.counter(format!("sim.dim{d}.idle_ns")),
                ops: self.registry.counter(format!("sim.dim{d}.ops")),
                max_queue_depth: self.registry.gauge(format!("sim.dim{d}.max_queue_depth")),
            });
        }
    }

    /// Flushes one finished run: the event-loop wall time into the matching
    /// span histogram, per-dimension busy/idle/op counters plus the
    /// ready-queue high watermark, and the loop's batching / quiescence
    /// tallies (`sim.events.batched` counts completions that drained in a
    /// same-timestamp batch of two or more; `sim.dims.quiesced` counts
    /// dimension-segments the masked loop skipped outright).
    /// Single-collective runs record into `sim.pipeline.event_loop_ns`,
    /// merged stream runs into `sim.stream.event_loop_ns`. Called once per
    /// run, after the loop — the hot path itself never touches an atomic.
    pub(crate) fn flush_run(
        &self,
        dims: &[DimReport],
        makespan_ns: f64,
        depths: &[usize],
        stream: bool,
        loop_elapsed: Duration,
        counters: LoopCounters,
    ) {
        self.runs.inc();
        if counters.events_batched > 0 {
            self.events_batched.add(counters.events_batched);
        }
        if counters.dims_quiesced > 0 {
            self.dims_quiesced.add(counters.dims_quiesced);
        }
        let histogram = if stream {
            &self.stream_loop
        } else {
            &self.pipeline_loop
        };
        histogram.record(u64::try_from(loop_elapsed.as_nanos()).unwrap_or(u64::MAX));
        for (d, report) in dims.iter().enumerate() {
            let Some(instruments) = self.dims.get(d) else {
                break;
            };
            instruments.busy_ns.add(report.busy_ns.max(0.0) as u64);
            instruments
                .idle_ns
                .add((makespan_ns - report.busy_ns).max(0.0) as u64);
            instruments.ops.add(report.ops_executed as u64);
            instruments
                .max_queue_depth
                .record_max(depths.get(d).copied().unwrap_or(0) as u64);
        }
    }
}

/// Reusable scratch buffers for the simulation event loop.
///
/// Create one per worker thread (the buffers are not shared) and pass it to
/// [`crate::PipelineSimulator::run_planned`] /
/// [`crate::StreamSimulator::run_planned_cached`]. A default workspace is empty;
/// buffers grow to the largest cell executed and stay allocated.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    // --- the event loop ---
    /// The flat per-op attribute arrays of the current run.
    pub(crate) ops: soa::OpMatrix,
    /// Memoised op matrices of plan-served cells (see [`soa::MatrixMemo`]).
    pub(crate) matrix_memo: soa::MatrixMemo,
    /// Ready lanes, one per dimension × collective, dimension-major.
    pub(crate) lanes: Vec<soa::Lane>,
    /// In-flight ops per dimension, structure-of-arrays with a cached
    /// `min(remaining)` per dimension.
    pub(crate) active: Vec<soa::ActiveSet>,
    /// Same-timestamp completion batch scratch.
    pub(crate) completions: Vec<soa::Completion>,
    /// Merged stream runs: per-dimension ready collectives and counts.
    pub(crate) ready: soa::ReadyIndex,
    /// Time each dimension last finished executing an op.
    pub(crate) last_busy_end: Vec<f64>,
    /// Single-collective runs: the executed ops, for the op log.
    pub(crate) raw_ops: Vec<RawOp>,
    /// Enforced-order cursor per collective × dimension, collective-major.
    pub(crate) order_ptr: Vec<usize>,
    /// Merged runs: per-collective segment accounting scratch.
    pub(crate) accounts: stream_engine::CollAccounts,
    // --- telemetry ---
    pub(crate) telemetry: SimTelemetry,
    /// Per-dimension ready-queue high watermark of the current run.
    pub(crate) depth_scratch: Vec<usize>,
    // --- cancellation ---
    /// The cooperative cancellation token of the current request, if any.
    /// The loop polls it at iteration boundaries; without a token the
    /// checks reduce to one `Option` test per iteration and results are
    /// bit-identical to a token-free run.
    pub(crate) cancel: Option<crate::cancel::CancelToken>,
}

impl SimWorkspace {
    /// Creates an empty workspace attached to the process-wide telemetry
    /// registry ([`themis_core::telemetry::global`]).
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Creates an empty workspace flushing into `registry` instead of the
    /// process-wide one — how the resident service keeps per-instance
    /// metrics.
    pub fn with_telemetry(registry: Registry) -> Self {
        SimWorkspace {
            telemetry: SimTelemetry::new(registry),
            ..SimWorkspace::default()
        }
    }

    /// The telemetry registry runs through this workspace flush into.
    pub fn telemetry(&self) -> &Registry {
        self.telemetry.registry()
    }

    /// Installs `token` as the cancellation token polled by every subsequent
    /// run through this workspace (until [`SimWorkspace::clear_cancel`]).
    pub fn set_cancel(&mut self, token: crate::cancel::CancelToken) {
        self.cancel = Some(token);
    }

    /// Removes the installed cancellation token, returning the workspace to
    /// the zero-cost uncancellable state. Callers that pool workspaces must
    /// clear the token before checking a workspace back in, or an expired
    /// deadline would leak into an unrelated request.
    pub fn clear_cancel(&mut self) {
        self.cancel = None;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&crate::cancel::CancelToken> {
        self.cancel.as_ref()
    }

    /// Starts a `phase.schedule_ns` span through a pre-registered handle (no
    /// name lookup on the per-cell path); inert when telemetry is disabled.
    pub fn phase_schedule_span(&self) -> telemetry::Span {
        if !self.telemetry.enabled() {
            return telemetry::Span::inert();
        }
        self.telemetry.phase_schedule.span()
    }

    /// Starts a `phase.cost_precompute_ns` span through a pre-registered
    /// handle; inert when telemetry is disabled.
    pub fn phase_cost_span(&self) -> telemetry::Span {
        if !self.telemetry.enabled() {
            return telemetry::Span::inert();
        }
        self.telemetry.phase_cost.span()
    }

    /// Re-initialises the loop's buffers for a run over
    /// `num_dims` dimensions and `num_colls` collectives, reusing
    /// allocations; `multi` also prepares the merged run's per-collective
    /// scratch. The lanes themselves are reset by the loop, which knows each
    /// lane's kind and rank-space size only after building the op matrix.
    pub(crate) fn prepare_fast(&mut self, num_dims: usize, num_colls: usize, multi: bool) {
        let lanes = num_dims * num_colls;
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, soa::Lane::default);
        }
        for active in &mut self.active {
            active.clear();
        }
        self.active.resize_with(num_dims, soa::ActiveSet::default);
        self.last_busy_end.clear();
        self.last_busy_end.resize(num_dims, f64::NEG_INFINITY);
        self.completions.clear();
        self.raw_ops.clear();
        self.order_ptr.clear();
        self.order_ptr.resize(num_dims * num_colls, 0);
        if multi {
            self.ready.reset(num_dims);
            self.accounts.reset(num_colls);
        }
    }
}
