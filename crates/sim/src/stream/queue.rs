//! Queue state of the stream engine: the queued-collective description and
//! the per-dimension in-flight chunk tracking used during execution.

use crate::readyq::ReadyQueue;
use themis_core::{CollectiveRequest, IntraDimPolicy};

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

/// A chunk operation waiting in a dimension's ready queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingOp {
    /// Global arrival sequence number (FIFO key).
    pub arrival: u64,
    /// Index of the collective in admission order.
    pub coll: usize,
    /// Chunk index within the collective.
    pub chunk: usize,
    /// Stage index within the chunk's pipeline schedule.
    pub stage: usize,
    /// The op's transfer time on its dimension — the Smallest-Chunk-First
    /// cost key, stored inline at enqueue time so the bucket orders ops
    /// without chasing the cost table.
    pub cost_ns: f64,
}

/// A chunk operation currently executing on a dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ActiveOp {
    pub coll: usize,
    pub chunk: usize,
    pub stage: usize,
    pub remaining_work_ns: f64,
    pub start_ns: f64,
}

/// Per-dimension in-flight tracking: the ready queue, the executing ops and
/// the time the dimension last finished an op (used to decide whether a newly
/// started op pays the fixed per-step delay `A_K`, exactly as in the
/// single-collective pipeline simulator).
///
/// Ready ops are *bucketed by collective*: the admission loop only ever
/// starts ops of the dimension's current owner collective, so bucketing makes
/// the owner-has-work check O(1) and restricts the intra-dimension policy
/// pick to the owner's own ops instead of scanning (and sentinel-keying)
/// every queued chunk of every admitted collective. Each bucket is a
/// [`ReadyQueue`] specialised to its collective's policy, so the pick itself
/// is an O(1)/O(log n) pop rather than a scan.
#[derive(Debug, Clone)]
pub(crate) struct DimQueue {
    /// `ready[coll]` holds the queued ops of collective `coll` on this
    /// dimension, in the collective's pop order.
    ready: Vec<ReadyQueue>,
    /// The collectives whose bucket is currently non-empty (unsorted); lets
    /// the per-segment accounting skip the (mostly empty) buckets.
    ready_colls: Vec<usize>,
    ready_count: usize,
    /// Deepest `ready_count` has been since the last [`DimQueue::reset`]:
    /// maintained unconditionally in [`DimQueue::push_ready`] (one integer
    /// max on a line that already updates the count), so telemetry reads the
    /// run's queue-depth watermark without sampling inside the event loop.
    high_water: usize,
    pub active: Vec<ActiveOp>,
    pub last_busy_end_ns: f64,
}

impl DimQueue {
    /// Creates the queue with one ready bucket per admitted collective;
    /// `bucket_layouts` provides each collective's (policy, enforced-order)
    /// pair.
    pub fn new<I>(bucket_layouts: I) -> Self
    where
        I: IntoIterator<Item = (IntraDimPolicy, bool)>,
    {
        DimQueue {
            ready: bucket_layouts
                .into_iter()
                .map(|(policy, enforced)| ReadyQueue::for_policy(policy, enforced))
                .collect(),
            ready_colls: Vec::new(),
            ready_count: 0,
            high_water: 0,
            active: Vec::new(),
            last_busy_end_ns: f64::NEG_INFINITY,
        }
    }

    /// Re-initialises the queue in place for a new run with the given bucket
    /// layouts, reusing bucket allocations where the layout already matches
    /// (lets a reused [`crate::SimWorkspace`] amortise the per-dimension
    /// bucket vectors across cells).
    pub fn reset<I>(&mut self, bucket_layouts: I)
    where
        I: IntoIterator<Item = (IntraDimPolicy, bool)>,
    {
        let mut len = 0;
        for (policy, enforced) in bucket_layouts {
            if len < self.ready.len() {
                self.ready[len].reshape(policy, enforced);
            } else {
                self.ready.push(ReadyQueue::for_policy(policy, enforced));
            }
            len += 1;
        }
        self.ready.truncate(len);
        self.ready_colls.clear();
        self.ready_count = 0;
        self.high_water = 0;
        self.active.clear();
        self.last_busy_end_ns = f64::NEG_INFINITY;
    }

    /// Enqueues a ready op into its collective's bucket.
    pub fn push_ready(&mut self, op: PendingOp) {
        self.ready_count += 1;
        self.high_water = self.high_water.max(self.ready_count);
        if self.ready[op.coll].is_empty() {
            self.ready_colls.push(op.coll);
        }
        self.ready[op.coll].push(op);
    }

    /// Pops collective `coll`'s next op under its policy (FIFO front or SCF
    /// minimum).
    pub fn pop_next(&mut self, coll: usize) -> Option<PendingOp> {
        let op = self.ready[coll].pop_next()?;
        self.note_removed(coll);
        Some(op)
    }

    /// Removes and returns collective `coll`'s ready op for `(chunk, stage)`,
    /// if queued (enforced-order runs).
    pub fn take_matching(&mut self, coll: usize, chunk: usize, stage: usize) -> Option<PendingOp> {
        let op = self.ready[coll].take_matching(|op| op.chunk == chunk && op.stage == stage)?;
        self.note_removed(coll);
        Some(op)
    }

    fn note_removed(&mut self, coll: usize) {
        self.ready_count -= 1;
        if self.ready[coll].is_empty() {
            let pos = self
                .ready_colls
                .iter()
                .position(|&c| c == coll)
                .expect("a non-empty bucket is tracked in ready_colls");
            self.ready_colls.swap_remove(pos);
        }
    }

    /// Total number of queued ops across all buckets.
    pub fn ready_len(&self) -> usize {
        self.ready_count
    }

    /// The deepest the queue has been since the last [`DimQueue::reset`].
    pub fn ready_high_water(&self) -> usize {
        self.high_water
    }

    /// The collectives with at least one queued op on this dimension, in no
    /// particular order.
    pub fn ready_colls(&self) -> &[usize] {
        &self.ready_colls
    }

    /// `true` if collective `coll` has queued ops on this dimension.
    pub fn has_ready(&self, coll: usize) -> bool {
        self.ready
            .get(coll)
            .is_some_and(|bucket| !bucket.is_empty())
    }

    /// `true` if the dimension has either queued or executing work.
    pub fn occupied(&self) -> bool {
        self.ready_count > 0 || !self.active.is_empty()
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
    fn dim_queue_tracks_occupancy_per_collective() {
        let mut queue = DimQueue::new([
            (IntraDimPolicy::Fifo, false),
            (IntraDimPolicy::SmallestChunkFirst, false),
        ]);
        assert!(!queue.occupied());
        assert_eq!(queue.ready_len(), 0);
        queue.push_ready(PendingOp {
            arrival: 0,
            coll: 1,
            chunk: 0,
            stage: 0,
            cost_ns: 20.0,
        });
        queue.push_ready(PendingOp {
            arrival: 1,
            coll: 1,
            chunk: 1,
            stage: 0,
            cost_ns: 10.0,
        });
        assert!(queue.occupied());
        assert_eq!(queue.ready_len(), 2);
        assert!(queue.has_ready(1));
        assert!(!queue.has_ready(0));
        assert_eq!(queue.ready_colls(), &[1]);
        // Collective 1 uses SCF: the smaller cost pops first.
        let taken = queue.pop_next(1).unwrap();
        assert_eq!((taken.arrival, taken.chunk), (1, 1));
        assert_eq!(queue.ready_len(), 1);
        assert!(queue.pop_next(0).is_none());
        let last = queue.pop_next(1).unwrap();
        assert_eq!(last.chunk, 0);
        assert!(queue.ready_colls().is_empty());
        assert!(!queue.occupied());
    }

    #[test]
    fn dim_queue_enforced_buckets_support_targeted_removal() {
        let mut queue = DimQueue::new([(IntraDimPolicy::SmallestChunkFirst, true)]);
        for (arrival, chunk) in [(0u64, 0usize), (1, 1), (2, 2)] {
            queue.push_ready(PendingOp {
                arrival,
                coll: 0,
                chunk,
                stage: 3,
                cost_ns: 5.0,
            });
        }
        assert!(queue.take_matching(0, 1, 0).is_none());
        let taken = queue.take_matching(0, 1, 3).unwrap();
        assert_eq!(taken.arrival, 1);
        assert_eq!(queue.ready_len(), 2);
        // The remaining ops still pop in arrival order (enforced buckets keep
        // the linear layout).
        assert_eq!(queue.pop_next(0).unwrap().arrival, 0);
        assert_eq!(queue.pop_next(0).unwrap().arrival, 2);
    }

    #[test]
    fn dim_queue_reset_swaps_bucket_layouts_and_clears_watermarks() {
        let mut queue = DimQueue::new([(IntraDimPolicy::SmallestChunkFirst, false)]);
        queue.push_ready(PendingOp {
            arrival: 0,
            coll: 0,
            chunk: 0,
            stage: 0,
            cost_ns: 1.0,
        });
        assert_eq!(queue.ready_high_water(), 1);
        // Reset to an enforced-order layout with an extra bucket: the old
        // bucket reshapes to the linear layout, state and watermark clear.
        queue.reset([
            (IntraDimPolicy::SmallestChunkFirst, true),
            (IntraDimPolicy::Fifo, true),
        ]);
        assert!(!queue.occupied());
        assert_eq!(queue.ready_high_water(), 0);
        assert!(queue.ready_colls().is_empty());
        assert_eq!(queue.last_busy_end_ns, f64::NEG_INFINITY);
        for (arrival, chunk) in [(0u64, 2usize), (1, 0)] {
            queue.push_ready(PendingOp {
                arrival,
                coll: 0,
                chunk,
                stage: 1,
                cost_ns: 9.0,
            });
        }
        // Enforced buckets take a specific (chunk, stage) out of turn.
        assert_eq!(queue.take_matching(0, 0, 1).unwrap().arrival, 1);
        // Shrinking reset drops the extra bucket.
        queue.reset([(IntraDimPolicy::Fifo, false)]);
        assert_eq!(queue.ready_len(), 0);
        assert!(!queue.has_ready(1));
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
