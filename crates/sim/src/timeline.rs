//! Sequential execution of a series of collectives.
//!
//! The training-loop model issues a sequence of collectives (per-layer
//! model-parallel All-Reduces, the end-of-back-propagation data-parallel
//! gradient All-Reduce, DLRM's All-To-Alls). On a dedicated training cluster
//! (Sec. 5.2: single-tenant platforms) the collectives of one job execute
//! back-to-back on the network, so the timeline simulator runs them
//! sequentially: each collective starts when both its issue time has arrived
//! and the network has finished the previous collective.
//!
//! Since the introduction of the streaming queue engine ([`crate::stream`]),
//! this module is a thin wrapper: it runs the same [`StreamSimulator`] with
//! [`crate::SimOptions::cross_collective_overlap`] forced off (the
//! back-to-back policy) and reshapes the [`StreamReport`] into the historical
//! [`TimelineReport`] layout. The stream engine is the single entry point for
//! collective queues. Both policies run the same event loop: the merged
//! instantiation when overlapping; when sequential, the single-collective
//! instantiation once per collective, each in its own single-run frame, laid
//! end to end.

use crate::error::SimError;
use crate::options::SimOptions;
use crate::stats::SimReport;
use crate::stream::{StreamEntry, StreamReport, StreamSimulator};
use themis_core::{CollectiveRequest, CollectiveScheduler};
use themis_net::NetworkTopology;

/// One collective in a timeline: issued at `issue_ns`, executed on `topo`
/// (which may be a sub-topology of the machine, e.g. the data-parallel
/// dimensions only).
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Label used in reports (e.g. `"DP gradient All-Reduce"`).
    pub label: String,
    /// Time at which the workload issues the collective, ns.
    pub issue_ns: f64,
    /// The collective request.
    pub request: CollectiveRequest,
}

/// The result of simulating a timeline of collectives.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Per-collective reports, in completion order, with their start times.
    pub entries: Vec<(TimelineEntry, f64, SimReport)>,
    /// Time at which the last collective completed, ns.
    pub finish_ns: f64,
}

impl TimelineReport {
    /// Total time the network spent executing collectives, ns. `0.0` for an
    /// empty timeline.
    pub fn total_communication_ns(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, _, report)| report.total_time_ns)
            .sum()
    }

    /// Total time between the first issue and the last completion, ns.
    ///
    /// Issue times are clamped to the simulation clock (negative and NaN
    /// values count as zero, matching how the simulator admits them), entries
    /// need not be in issue order, and an empty timeline has a makespan of
    /// `0.0`. The result is never negative.
    pub fn makespan_ns(&self) -> f64 {
        let first_issue = self
            .entries
            .iter()
            .map(|(e, _, _)| e.issue_ns.max(0.0))
            .fold(f64::INFINITY, f64::min);
        if first_issue.is_finite() {
            (self.finish_ns - first_issue).max(0.0)
        } else {
            0.0
        }
    }
}

/// Executes a sequence of collectives with a shared scheduler on one topology.
#[derive(Debug)]
pub struct TimelineSimulator<'a> {
    topo: &'a NetworkTopology,
    options: SimOptions,
}

impl<'a> TimelineSimulator<'a> {
    /// Creates a timeline simulator.
    pub fn new(topo: &'a NetworkTopology, options: SimOptions) -> Self {
        TimelineSimulator { topo, options }
    }

    /// Simulates `entries` (in issue order) using `scheduler` for every
    /// collective. Returns the per-collective reports and the completion time.
    ///
    /// # Errors
    ///
    /// Propagates scheduling and simulation errors.
    pub fn run(
        &self,
        scheduler: &mut dyn CollectiveScheduler,
        entries: &[TimelineEntry],
    ) -> Result<TimelineReport, SimError> {
        let stream_entries: Vec<StreamEntry> = entries
            .iter()
            .map(|e| StreamEntry::new(e.label.clone(), e.issue_ns, e.request))
            .collect();
        let sequential = StreamSimulator::new(
            self.topo,
            self.options.clone().with_cross_collective_overlap(false),
        )
        .run(scheduler, &stream_entries)?;
        Ok(Self::from_stream(entries, sequential))
    }

    /// Reshapes a sequential [`StreamReport`] into the timeline layout.
    fn from_stream(entries: &[TimelineEntry], report: StreamReport) -> TimelineReport {
        TimelineReport {
            finish_ns: report.finish_ns,
            entries: report
                .spans
                .into_iter()
                .map(|span| (entries[span.index].clone(), span.start_ns, span.report))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::ThemisScheduler;
    use themis_net::presets::PresetTopology;

    fn entry(label: &str, issue_ns: f64, mib: f64) -> TimelineEntry {
        TimelineEntry {
            label: label.to_string(),
            issue_ns,
            request: CollectiveRequest::all_reduce_mib(mib),
        }
    }

    #[test]
    fn collectives_serialize_on_the_network() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let sim = TimelineSimulator::new(&topo, SimOptions::default());
        let mut scheduler = ThemisScheduler::new(16);
        let entries = vec![entry("first", 0.0, 128.0), entry("second", 0.0, 128.0)];
        let report = sim.run(&mut scheduler, &entries).unwrap();
        assert_eq!(report.entries.len(), 2);
        let (_, start0, r0) = &report.entries[0];
        let (_, start1, _r1) = &report.entries[1];
        assert_eq!(*start0, 0.0);
        assert!((start1 - r0.total_time_ns).abs() < 1e-6);
        assert!((report.total_communication_ns() - report.finish_ns).abs() < 1e-6);
    }

    #[test]
    fn late_issue_times_delay_execution() {
        let topo = PresetTopology::Sw2d.build();
        let sim = TimelineSimulator::new(&topo, SimOptions::default());
        let mut scheduler = ThemisScheduler::new(8);
        let late_issue = 50_000_000.0;
        let entries = vec![entry("early", 0.0, 64.0), entry("late", late_issue, 64.0)];
        let report = sim.run(&mut scheduler, &entries).unwrap();
        let (_, start1, _) = &report.entries[1];
        assert!(*start1 >= late_issue);
        assert!(report.makespan_ns() <= report.finish_ns);
        assert!(report.total_communication_ns() < report.finish_ns);
    }

    #[test]
    fn empty_timeline_reports_zero() {
        let topo = PresetTopology::Sw2d.build();
        let sim = TimelineSimulator::new(&topo, SimOptions::default());
        let mut scheduler = ThemisScheduler::new(8);
        let report = sim.run(&mut scheduler, &[]).unwrap();
        assert!(report.entries.is_empty());
        assert_eq!(report.finish_ns, 0.0);
        assert_eq!(report.makespan_ns(), 0.0);
        assert_eq!(report.total_communication_ns(), 0.0);
    }

    #[test]
    fn non_monotone_issue_times_execute_in_issue_order() {
        let topo = PresetTopology::Sw2d.build();
        let sim = TimelineSimulator::new(&topo, SimOptions::default());
        let mut scheduler = ThemisScheduler::new(8);
        // Entries listed out of issue order: the simulator admits by issue
        // time, so the report comes back sorted.
        let entries = vec![
            entry("late", 80_000_000.0, 32.0),
            entry("early", 0.0, 64.0),
            entry("middle", 40_000_000.0, 16.0),
        ];
        let report = sim.run(&mut scheduler, &entries).unwrap();
        let labels: Vec<&str> = report
            .entries
            .iter()
            .map(|(e, _, _)| e.label.as_str())
            .collect();
        assert_eq!(labels, vec!["early", "middle", "late"]);
        let starts: Vec<f64> = report.entries.iter().map(|(_, s, _)| *s).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.makespan_ns() > 0.0);
    }

    #[test]
    fn negative_issue_times_are_clamped_in_the_makespan() {
        let topo = PresetTopology::Sw2d.build();
        let sim = TimelineSimulator::new(&topo, SimOptions::default());
        let mut scheduler = ThemisScheduler::new(8);
        let entries = vec![
            entry("before-time", -1e9, 64.0),
            entry("at-zero", 0.0, 64.0),
        ];
        let report = sim.run(&mut scheduler, &entries).unwrap();
        // A negative issue must not inflate the makespan: both collectives
        // start at 0, so the makespan equals the finish time exactly.
        assert!((report.makespan_ns() - report.finish_ns).abs() < 1e-9);
        assert!(report.makespan_ns() >= 0.0);
    }

    #[test]
    fn makespan_is_zero_for_degenerate_reports() {
        let report = TimelineReport {
            entries: Vec::new(),
            finish_ns: 0.0,
        };
        assert_eq!(report.makespan_ns(), 0.0);
        assert_eq!(report.total_communication_ns(), 0.0);
    }
}
