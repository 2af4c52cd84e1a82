//! Differential fuzzing of the data-oriented engines against the reference
//! engines.
//!
//! Every cell draws a random topology, collective, scheduler and option set
//! from a seeded LCG, runs it through both the fast loop (the default path)
//! and the original heap-backed loop ([`SimOptions::reference_engine`]), and
//! asserts the reports are **bit-identical** — full struct equality plus
//! explicit `to_bits` checks on the headline floats. Every successful run
//! also meets analytic bounds that share none of the loops' logic. The
//! seeds are fixed, so every run replays the exact same cells; CI raises
//! the budget through `THEMIS_DIFF_CELLS` (25× per change, 200× nightly).

use themis_collectives::CollectiveKind;
use themis_core::{
    BaselineScheduler, CollectiveRequest, CollectiveSchedule, CollectiveScheduler, IdealEstimator,
    ThemisScheduler,
};
use themis_net::{DataSize, DimensionSpec, NetworkTopology, TopologyKind};
use themis_sim::{
    DimReport, FaultPlan, PipelineSimulator, SimError, SimOptions, SimReport, StreamEntry,
    StreamReport, StreamSimulator,
};

/// Deterministic 64-bit LCG (Knuth's MMIX constants): the whole fuzz corpus
/// is a pure function of the seed.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// Uniform integer in `[0, bound)`.
    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() >> 11) as usize % bound.max(1)
    }

    /// Uniform float in `[lo, hi)`.
    fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Scaling knob for CI: multiplies every tier's cell count.
fn budget_multiplier() -> usize {
    std::env::var("THEMIS_DIFF_CELLS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(1, |v| v.max(1))
}

fn random_topology(rng: &mut Lcg) -> NetworkTopology {
    let num_dims = 1 + rng.below(4);
    let mut builder = NetworkTopology::builder(format!("fuzz-{num_dims}d"));
    for _ in 0..num_dims {
        let kind = match rng.below(3) {
            0 => TopologyKind::Ring,
            1 => TopologyKind::FullyConnected,
            _ => TopologyKind::Switch,
        };
        let size = 2 + rng.below(7);
        let bandwidth_gbps = rng.range_f64(25.0, 800.0);
        let latency_ns = match rng.below(3) {
            0 => 0.0,
            1 => 50.0,
            _ => 700.0,
        };
        builder = builder.dimension(
            DimensionSpec::with_aggregate_bandwidth(kind, size, bandwidth_gbps, latency_ns)
                .expect("generated dimension is valid"),
        );
    }
    builder.build().expect("generated topology is valid")
}

fn random_request(rng: &mut Lcg) -> CollectiveRequest {
    let kind = match rng.below(4) {
        0 => CollectiveKind::AllReduce,
        1 => CollectiveKind::ReduceScatter,
        2 => CollectiveKind::AllGather,
        _ => CollectiveKind::AllToAll,
    };
    CollectiveRequest::new(kind, DataSize::from_mib(rng.range_f64(0.5, 96.0)))
}

fn random_scheduler(rng: &mut Lcg) -> Box<dyn CollectiveScheduler> {
    let chunks = [1, 2, 4, 8, 16][rng.below(5)];
    if rng.chance(50) {
        Box::new(BaselineScheduler::new(chunks))
    } else {
        Box::new(ThemisScheduler::new(chunks))
    }
}

fn random_options(rng: &mut Lcg) -> SimOptions {
    let mut options = SimOptions::default()
        .with_max_concurrent_ops([1, 2, 4][rng.below(3)])
        .with_op_log(rng.chance(50));
    if rng.chance(25) {
        options = options.with_enforced_order(true);
    }
    options
}

/// A fault plan guaranteed to leave the run completable: degradations are
/// always recoverable-by-construction, and every `fail` is paired with a
/// later `recover`.
fn random_fault_plan(rng: &mut Lcg, num_dims: usize, horizon_ns: f64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..=rng.below(3) {
        let dim = rng.below(num_dims);
        let at = rng.range_f64(0.0, horizon_ns);
        if rng.chance(60) {
            plan = plan.degrade(at, dim, rng.range_f64(0.1, 0.95));
        } else {
            plan = plan
                .fail(at, dim)
                .recover(at + rng.range_f64(horizon_ns * 0.05, horizon_ns * 0.8), dim);
        }
    }
    plan
}

/// Asserts two engine outcomes agree exactly: bit-identical reports on
/// success, the same error shape on failure.
fn assert_same_sim(
    cell: &str,
    fast: Result<SimReport, SimError>,
    reference: Result<SimReport, SimError>,
) {
    match (fast, reference) {
        (Ok(fast), Ok(reference)) => {
            assert_eq!(
                fast.total_time_ns.to_bits(),
                reference.total_time_ns.to_bits(),
                "{cell}: makespans diverge: {} vs {}",
                fast.total_time_ns,
                reference.total_time_ns
            );
            for (dim, (f, r)) in fast.dims.iter().zip(reference.dims.iter()).enumerate() {
                assert_eq!(
                    f.busy_ns.to_bits(),
                    r.busy_ns.to_bits(),
                    "{cell}: dim {dim} busy_ns diverges"
                );
                assert_eq!(
                    f.wire_bytes.to_bits(),
                    r.wire_bytes.to_bits(),
                    "{cell}: dim {dim} wire_bytes diverges"
                );
            }
            assert_eq!(fast, reference, "{cell}: reports diverge");
        }
        (fast, reference) => {
            assert_eq!(
                format!("{fast:?}"),
                format!("{reference:?}"),
                "{cell}: outcomes diverge"
            );
        }
    }
}

fn assert_same_stream(
    cell: &str,
    fast: Result<StreamReport, SimError>,
    reference: Result<StreamReport, SimError>,
) {
    match (fast, reference) {
        (Ok(fast), Ok(reference)) => {
            assert_eq!(
                fast.finish_ns.to_bits(),
                reference.finish_ns.to_bits(),
                "{cell}: finish times diverge: {} vs {}",
                fast.finish_ns,
                reference.finish_ns
            );
            assert_eq!(
                fast.network_busy_ns.to_bits(),
                reference.network_busy_ns.to_bits(),
                "{cell}: network busy times diverge"
            );
            assert_eq!(
                fast.overlap_ns.to_bits(),
                reference.overlap_ns.to_bits(),
                "{cell}: overlap times diverge"
            );
            assert_eq!(fast, reference, "{cell}: stream reports diverge");
        }
        (fast, reference) => {
            assert_eq!(
                format!("{fast:?}"),
                format!("{reference:?}"),
                "{cell}: outcomes diverge"
            );
        }
    }
}

fn run_pipeline_cell(
    cell: &str,
    topo: &NetworkTopology,
    options: &SimOptions,
    rng: &mut Lcg,
) -> bool {
    let request = random_request(rng);
    let mut scheduler = random_scheduler(rng);
    let Ok(schedule) = scheduler.schedule(&request, topo) else {
        // Some (kind, chunks, topology) draws are unschedulable; both
        // engines would reject them in the same front-door validation.
        return false;
    };
    let fast = PipelineSimulator::new(topo, options.clone()).run(&schedule);
    if let Ok(report) = &fast {
        let chunks = schedule.chunks().len();
        assert_analytic_bounds(cell, report, report.total_time_ns, &request, chunks, topo);
        assert_late_faults_change_nothing(cell, topo, options, &schedule, report);
    }
    let reference =
        PipelineSimulator::new(topo, options.clone().with_reference_engine(true)).run(&schedule);
    assert_same_sim(cell, fast, reference);
    true
}

/// Oracle: a fault plan whose events all fall after the healthy makespan `T`
/// (dim 0 degraded to half bandwidth at 1.5 `T`, failed for good at 2 `T`)
/// must leave the report bit-identical, since no operation is left to
/// reprice. The plan is derived from the cell and draws no random numbers.
fn assert_late_faults_change_nothing(
    cell: &str,
    topo: &NetworkTopology,
    options: &SimOptions,
    schedule: &CollectiveSchedule,
    healthy: &SimReport,
) {
    let makespan = healthy.total_time_ns;
    let late = FaultPlan::new()
        .degrade(1.5 * makespan, 0, 0.5)
        .fail(2.0 * makespan, 0);
    let faulted = PipelineSimulator::new(topo, options.clone().with_faults(late)).run(schedule);
    assert_same_sim(
        &format!("{cell} under faults after its makespan"),
        faulted,
        Ok(healthy.clone()),
    );
}

/// Oracles that share none of the event loops' logic: every chunk runs each
/// of its stages exactly once, and no All-Reduce takes less than the Ideal
/// bound (size / total bandwidth) over `elapsed_ns`. The bound is an
/// All-Reduce volume, so Reduce-Scatter and All-to-All may legitimately
/// finish below it. Faults only remove bandwidth, so the bound holds for
/// faulted runs too. The bound and the loop sum the same costs in different
/// orders, so the check allows one part in 10^12 of rounding, the tolerance
/// of the benchmark's `sound` check: at `THEMIS_DIFF_CELLS=25`, faulted
/// pipeline cell 616, stream cell 587 and faulted stream cell 171 finish one
/// to three ULPs below the bound, and so does pipeline cell 5611 at 100.
fn assert_analytic_bounds(
    cell: &str,
    report: &SimReport,
    elapsed_ns: f64,
    request: &CollectiveRequest,
    chunks: usize,
    topo: &NetworkTopology,
) {
    let ops: usize = report.dims.iter().map(|dim| dim.ops_executed).sum();
    assert_eq!(
        ops,
        chunks * request.kind().num_stages(topo.num_dims()),
        "{cell}: ops executed != chunks x stages"
    );
    if request.kind() == CollectiveKind::AllReduce {
        let ideal_ns = IdealEstimator::new()
            .communication_time_ns(request, topo)
            .expect("drawn collectives are non-empty");
        assert!(
            elapsed_ns >= ideal_ns * (1.0 - 1e-12),
            "{cell}: All-Reduce took {elapsed_ns} ns, below the Ideal bound of {ideal_ns} ns"
        );
    }
}

/// One drawn stream cell: the queued entries, the scheduler to build for
/// every run, and the options with the drawn overlap policy applied.
struct StreamCell {
    entries: Vec<StreamEntry>,
    chunks: usize,
    themis: bool,
    options: SimOptions,
}

impl StreamCell {
    fn draw(options: &SimOptions, rng: &mut Lcg) -> Self {
        let num_colls = 1 + rng.below(5);
        let entries: Vec<StreamEntry> = (0..num_colls)
            .map(|i| {
                let issue_ns = if rng.chance(40) {
                    0.0
                } else {
                    rng.range_f64(0.0, 3e6)
                };
                StreamEntry::new(format!("coll-{i}"), issue_ns, random_request(rng))
            })
            .collect();
        let chunks = [1, 2, 4, 8][rng.below(4)];
        let themis = rng.chance(50);
        let overlap = rng.chance(80);
        StreamCell {
            entries,
            chunks,
            themis,
            options: options.clone().with_cross_collective_overlap(overlap),
        }
    }

    fn run(&self, topo: &NetworkTopology, options: SimOptions) -> Result<StreamReport, SimError> {
        let mut scheduler: Box<dyn CollectiveScheduler> = if self.themis {
            Box::new(ThemisScheduler::new(self.chunks))
        } else {
            Box::new(BaselineScheduler::new(self.chunks))
        };
        StreamSimulator::new(topo, options).run(&mut *scheduler, &self.entries)
    }
}

fn run_stream_cell(cell: &str, topo: &NetworkTopology, options: &SimOptions, rng: &mut Lcg) {
    let drawn = StreamCell::draw(options, rng);
    let fast = drawn.run(topo, drawn.options.clone());
    if let Ok(report) = &fast {
        for span in &report.spans {
            assert_analytic_bounds(
                &format!("{cell}, {}", span.label),
                &span.report,
                span.finish_ns - span.start_ns,
                &drawn.entries[span.index].request,
                drawn.chunks,
                topo,
            );
        }
    }
    let reference = drawn.run(topo, drawn.options.clone().with_reference_engine(true));
    assert_same_stream(cell, fast, reference);
}

/// Guards against the corpus silently shrinking: at least three quarters of
/// the drawn cells must actually have run both engines.
fn assert_coverage(executed: usize, drawn: usize) {
    assert!(
        executed * 4 >= drawn * 3,
        "only {executed} of {drawn} cells were schedulable"
    );
}

#[test]
fn pipeline_cells_are_bit_identical_across_engines() {
    let cells = 70 * budget_multiplier();
    let mut rng = Lcg::new(0x7E_15);
    let mut executed = 0;
    for index in 0..cells {
        let topo = random_topology(&mut rng);
        let options = random_options(&mut rng);
        if run_pipeline_cell(&format!("pipeline cell {index}"), &topo, &options, &mut rng) {
            executed += 1;
        }
    }
    assert_coverage(executed, cells);
}

#[test]
fn faulted_pipeline_cells_are_bit_identical_across_engines() {
    let cells = 50 * budget_multiplier();
    let mut rng = Lcg::new(0xFA_17);
    let mut executed = 0;
    for index in 0..cells {
        let topo = random_topology(&mut rng);
        let mut options = random_options(&mut rng);
        // Scale fault times to the healthy makespan so boundaries land inside
        // (and after) the run, exercising idle jumps and epoch switches.
        let request = random_request(&mut rng);
        let mut scheduler = random_scheduler(&mut rng);
        let Ok(schedule) = scheduler.schedule(&request, &topo) else {
            continue;
        };
        let Ok(healthy) = PipelineSimulator::new(&topo, options.clone()).run(&schedule) else {
            continue;
        };
        let cell = format!("faulted pipeline cell {index}");
        assert_late_faults_change_nothing(&cell, &topo, &options, &schedule, &healthy);
        options = options.with_faults(random_fault_plan(
            &mut rng,
            topo.num_dims(),
            healthy.total_time_ns.max(1.0),
        ));
        let fast = PipelineSimulator::new(&topo, options.clone()).run(&schedule);
        if let Ok(report) = &fast {
            let chunks = schedule.chunks().len();
            assert_analytic_bounds(&cell, report, report.total_time_ns, &request, chunks, &topo);
        }
        let reference = PipelineSimulator::new(&topo, options.clone().with_reference_engine(true))
            .run(&schedule);
        assert_same_sim(&cell, fast, reference);
        executed += 1;
    }
    assert_coverage(executed, cells);
}

#[test]
fn stream_cells_are_bit_identical_across_engines() {
    let cells = 50 * budget_multiplier();
    let mut rng = Lcg::new(0x57_2E);
    for index in 0..cells {
        let topo = random_topology(&mut rng);
        let options = random_options(&mut rng);
        run_stream_cell(&format!("stream cell {index}"), &topo, &options, &mut rng);
    }
}

#[test]
fn faulted_stream_cells_are_bit_identical_across_engines() {
    let cells = 40 * budget_multiplier();
    let mut rng = Lcg::new(0xFA_57);
    for index in 0..cells {
        let topo = random_topology(&mut rng);
        let options =
            random_options(&mut rng).with_faults(random_fault_plan(&mut rng, topo.num_dims(), 4e6));
        run_stream_cell(
            &format!("faulted stream cell {index}"),
            &topo,
            &options,
            &mut rng,
        );
    }
}

/// FNV-1a over every bit of a report — each float by `to_bits`, each count,
/// each string, the op logs — so a digest pins reports exactly, across
/// commits.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn count(&mut self, value: usize) {
        self.bytes(&(value as u64).to_le_bytes());
    }

    fn float(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.count(text.len());
        self.bytes(text.as_bytes());
    }

    fn dims(&mut self, dims: &[DimReport]) {
        self.count(dims.len());
        for dim in dims {
            self.float(dim.bandwidth_bytes_per_ns);
            self.float(dim.busy_ns);
            self.float(dim.wire_bytes);
            self.count(dim.ops_executed);
            self.count(dim.presence_intervals.len());
            for &(start, end) in &dim.presence_intervals {
                self.float(start);
                self.float(end);
            }
        }
    }

    fn sim(&mut self, report: &SimReport) {
        self.text(&report.scheduler_name);
        self.text(&report.topology_name);
        self.float(report.total_time_ns);
        self.float(report.activity_window_ns);
        self.dims(&report.dims);
        self.count(report.op_log.len());
        for op in &report.op_log {
            self.count(op.dim);
            self.count(op.chunk);
            self.count(op.stage);
            self.text(&op.label);
            self.float(op.start_ns);
            self.float(op.end_ns);
        }
    }

    fn stream(&mut self, report: &StreamReport) {
        self.text(&report.scheduler_name);
        self.text(&report.topology_name);
        self.float(report.finish_ns);
        self.float(report.network_busy_ns);
        self.float(report.overlap_ns);
        self.dims(&report.dims);
        self.count(report.spans.len());
        for span in &report.spans {
            self.count(span.index);
            self.text(&span.label);
            self.float(span.issue_ns);
            self.float(span.start_ns);
            self.float(span.finish_ns);
            self.float(span.active_ns);
            self.float(span.overlapped_ns);
            self.sim(&span.report);
        }
    }

    fn outcome<T>(&mut self, outcome: &Result<T, SimError>, hash: impl FnOnce(&mut Self, &T)) {
        match outcome {
            Ok(report) => {
                self.count(1);
                hash(self, report);
            }
            Err(err) => {
                self.count(0);
                self.text(&format!("{err:?}"));
            }
        }
    }
}

/// The digest of the four fixed-seed corpora above (at the base budget),
/// recorded before the single-collective pipeline loops were folded into
/// the stream engine's loop. A change that moves any bit of any report —
/// not just one that splits the fast and reference loops apart — fails here.
const CORPORA_DIGEST: u64 = 0xdfe6_3d82_e14e_31da;

#[test]
fn fixed_seed_corpora_match_the_recorded_digest() {
    let mut digest = Digest::new();

    let mut rng = Lcg::new(0x7E_15);
    for _ in 0..70 {
        let topo = random_topology(&mut rng);
        let options = random_options(&mut rng);
        let request = random_request(&mut rng);
        let mut scheduler = random_scheduler(&mut rng);
        let Ok(schedule) = scheduler.schedule(&request, &topo) else {
            continue;
        };
        let report = PipelineSimulator::new(&topo, options).run(&schedule);
        digest.outcome(&report, Digest::sim);
    }

    let mut rng = Lcg::new(0xFA_17);
    for _ in 0..50 {
        let topo = random_topology(&mut rng);
        let options = random_options(&mut rng);
        let request = random_request(&mut rng);
        let mut scheduler = random_scheduler(&mut rng);
        let Ok(schedule) = scheduler.schedule(&request, &topo) else {
            continue;
        };
        let Ok(healthy) = PipelineSimulator::new(&topo, options.clone()).run(&schedule) else {
            continue;
        };
        let faults = random_fault_plan(&mut rng, topo.num_dims(), healthy.total_time_ns.max(1.0));
        let report = PipelineSimulator::new(&topo, options.with_faults(faults)).run(&schedule);
        digest.outcome(&report, Digest::sim);
    }

    let mut rng = Lcg::new(0x57_2E);
    for _ in 0..50 {
        let topo = random_topology(&mut rng);
        let options = random_options(&mut rng);
        let cell = StreamCell::draw(&options, &mut rng);
        digest.outcome(&cell.run(&topo, cell.options.clone()), Digest::stream);
    }

    let mut rng = Lcg::new(0xFA_57);
    for _ in 0..40 {
        let topo = random_topology(&mut rng);
        let options =
            random_options(&mut rng).with_faults(random_fault_plan(&mut rng, topo.num_dims(), 4e6));
        let cell = StreamCell::draw(&options, &mut rng);
        digest.outcome(&cell.run(&topo, cell.options.clone()), Digest::stream);
    }

    assert_eq!(
        digest.0, CORPORA_DIGEST,
        "the fixed-seed corpora no longer reproduce the recorded reports: digest {:#018x}",
        digest.0
    );
}
