//! Queue state of the stream engine: the queued-collective description and
//! the per-dimension vacancy tracking behind its admission rule.

use themis_core::CollectiveRequest;

/// One collective in a stream: issued at `issue_ns` (negative or NaN issue
/// times are clamped to zero), identified by `label` in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEntry {
    /// Label used in reports (e.g. `"DP gradient All-Reduce"`).
    pub label: String,
    /// Time at which the workload issues the collective, ns.
    pub issue_ns: f64,
    /// The collective request.
    pub request: CollectiveRequest,
}

impl StreamEntry {
    /// Creates a stream entry.
    pub fn new(label: impl Into<String>, issue_ns: f64, request: CollectiveRequest) -> Self {
        StreamEntry {
            label: label.into(),
            issue_ns,
            request,
        }
    }

    /// Convenience constructor for an All-Reduce of `mib` mebibytes issued at
    /// `issue_ns`.
    pub fn all_reduce_mib(label: impl Into<String>, issue_ns: f64, mib: f64) -> Self {
        StreamEntry::new(label, issue_ns, CollectiveRequest::all_reduce_mib(mib))
    }

    /// The issue time clamped to the simulation clock (non-negative, NaN → 0).
    pub fn clamped_issue_ns(&self) -> f64 {
        self.issue_ns.max(0.0)
    }
}

/// Tracks, for every (collective, dimension) pair, how many chunk operations
/// the collective has not yet completed on the dimension.
///
/// This is the admission rule of the stream engine: a dimension serves the
/// earliest admitted collective that still *owns* work on it, and chunks of
/// collective *k+1* start on a dimension only once every earlier collective
/// has **vacated** it (zero uncompleted ops there). Earlier collectives are
/// therefore never delayed by their queue successors — streaming strictly
/// fills bandwidth the sequential policy would leave idle, so a stream never
/// finishes later than its back-to-back execution.
#[derive(Debug, Clone, Default)]
pub(crate) struct VacancyTracker {
    /// `remaining[coll][dim]`: uncompleted ops of `coll` on `dim`.
    remaining: Vec<Vec<usize>>,
    /// Per-dimension ownership cursor: every collective below the cursor has
    /// permanently vacated the dimension (`remaining` never increases), so
    /// the owner scan resumes here instead of restarting from zero.
    cursor: Vec<usize>,
}

impl VacancyTracker {
    /// Builds the tracker from the per-collective schedules' stage lists.
    pub fn from_stage_dims<I>(per_collective_stage_dims: I, num_dims: usize) -> Self
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = usize>,
    {
        let remaining: Vec<Vec<usize>> = per_collective_stage_dims
            .into_iter()
            .map(|stages| {
                let mut counts = vec![0usize; num_dims];
                for dim in stages {
                    counts[dim] += 1;
                }
                counts
            })
            .collect();
        VacancyTracker {
            remaining,
            cursor: vec![0; num_dims],
        }
    }

    /// The earliest of the first `admitted` collectives that still has
    /// uncompleted ops on `dim`, if any. Only this collective may start ops on
    /// the dimension. Amortised O(1): the cursor only ever moves forward.
    pub fn owner(&mut self, dim: usize, admitted: usize) -> Option<usize> {
        let admitted = admitted.min(self.remaining.len());
        while self.cursor[dim] < admitted && self.remaining[self.cursor[dim]][dim] == 0 {
            self.cursor[dim] += 1;
        }
        (self.cursor[dim] < admitted).then_some(self.cursor[dim])
    }

    /// Records the completion of one op of `coll` on `dim`.
    pub fn complete(&mut self, coll: usize, dim: usize) {
        debug_assert!(self.remaining[coll][dim] > 0);
        self.remaining[coll][dim] = self.remaining[coll][dim].saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_clamps_issue_times() {
        assert_eq!(
            StreamEntry::all_reduce_mib("a", -5.0, 1.0).clamped_issue_ns(),
            0.0
        );
        assert_eq!(
            StreamEntry::all_reduce_mib("a", f64::NAN, 1.0).clamped_issue_ns(),
            0.0
        );
        assert_eq!(
            StreamEntry::all_reduce_mib("a", 7.5, 1.0).clamped_issue_ns(),
            7.5
        );
    }

    #[test]
    fn vacancy_tracker_skips_collectives_with_no_work_on_a_dim() {
        // Collective 0 never touches dim 1: it must not block collective 1
        // there, even before completing anything.
        let mut tracker = VacancyTracker::from_stage_dims([vec![0usize], vec![1usize]], 2);
        assert_eq!(tracker.owner(1, 2), Some(1));
        // An entirely empty dimension has no owner at any admission level.
        let mut empty = VacancyTracker::from_stage_dims(vec![Vec::<usize>::new(); 2], 2);
        assert_eq!(empty.owner(0, 2), None);
        assert_eq!(empty.owner(1, 2), None);
        // Nothing admitted yet: nobody owns anything.
        assert_eq!(tracker.owner(0, 0), None);
        // An admission count beyond the collective list clamps.
        assert_eq!(tracker.owner(0, 99), Some(0));
    }

    #[test]
    fn vacancy_tracker_cursor_advances_through_single_chunk_collectives() {
        // Three single-chunk collectives on one dimension: each completion
        // hands ownership to the next, and the forward-only cursor never
        // revisits a vacated collective.
        let mut tracker =
            VacancyTracker::from_stage_dims([vec![0usize], vec![0usize], vec![0usize]], 1);
        // Only the admitted prefix is eligible even though later collectives
        // have work.
        assert_eq!(tracker.owner(0, 1), Some(0));
        tracker.complete(0, 0);
        assert_eq!(tracker.owner(0, 1), None);
        assert_eq!(tracker.owner(0, 2), Some(1));
        tracker.complete(1, 0);
        tracker.complete(2, 0);
        assert_eq!(tracker.owner(0, 3), None);
    }

    #[test]
    fn vacancy_tracker_hands_dims_to_the_earliest_unfinished_collective() {
        // Collective 0 uses dims {0, 1}; collective 1 uses dims {0, 2}.
        let mut tracker = VacancyTracker::from_stage_dims([vec![0usize, 1, 0], vec![0usize, 2]], 3);
        // Dim 2 is free for collective 1 immediately; dims 0 and 1 belong to
        // collective 0 until it vacates them.
        assert_eq!(tracker.owner(0, 2), Some(0));
        assert_eq!(tracker.owner(1, 2), Some(0));
        assert_eq!(tracker.owner(2, 2), Some(1));
        // A not-yet-admitted collective owns nothing.
        assert_eq!(tracker.owner(2, 1), None);
        // Collective 0 completes both ops on dim 0 → ownership passes on.
        tracker.complete(0, 0);
        assert_eq!(tracker.owner(0, 2), Some(0));
        tracker.complete(0, 0);
        assert_eq!(tracker.owner(0, 2), Some(1));
        tracker.complete(1, 0);
        assert_eq!(tracker.owner(0, 2), None);
    }
}
