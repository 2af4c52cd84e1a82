//! Policy-specialised ready-op storage for the reference event loop.
//!
//! The rate-based loops used to keep ready chunk ops in a plain `Vec` and run
//! the intra-dimension policy as an O(n) scan plus an O(n) order-preserving
//! `remove` per started op. A [`ReadyQueue`] stores the ops in the shape the
//! policy actually pops them in, making every start O(1) (FIFO front) or
//! O(log n) (Smallest-Chunk-First heap) while producing **exactly** the same
//! pick sequence:
//!
//! * FIFO picks the minimal arrival number — arrivals are assigned from a
//!   monotone counter and pushes happen in arrival order, so the front of a
//!   `VecDeque` *is* the FIFO pick.
//! * SCF picks the minimal `(cost, arrival)` key — arrivals are unique, so
//!   the key is a total order and a binary heap pops the same op the linear
//!   scan found (costs are never NaN: bandwidths are validated positive, so
//!   `total_cmp` and `partial_cmp` agree).
//! * Enforced-order runs (Sec. 4.6.2) bypass the policy and take a specific
//!   (chunk, stage) out of turn, so they keep the linear layout and pay the
//!   search — enforcement is a verification mode, not the hot path.

use crate::stream::queue::PendingOp;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use themis_core::IntraDimPolicy;

/// Wrapper giving [`BinaryHeap`] the *smallest* `(cost, arrival)` at the top.
#[derive(Debug, Clone)]
struct ScfEntry(PendingOp);

impl PartialEq for ScfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ScfEntry {}

impl PartialOrd for ScfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScfEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: the max-heap then yields the smallest (cost, arrival).
        other
            .0
            .cost_ns
            .total_cmp(&self.0.cost_ns)
            .then_with(|| other.0.arrival.cmp(&self.0.arrival))
    }
}

/// Policy-shaped storage of a [`ReadyQueue`].
#[derive(Debug, Clone)]
enum Storage {
    /// Arrival-ordered ops: FIFO pops the front; enforced-order runs search.
    Queue(VecDeque<PendingOp>),
    /// SCF-ordered ops: the heap pops the minimal `(cost, arrival)` key.
    Heap(BinaryHeap<ScfEntry>),
}

/// Ready ops of one collective's bucket on a dimension, stored in the pop
/// order of the owning run's policy.
#[derive(Debug, Clone)]
pub(crate) struct ReadyQueue {
    storage: Storage,
}

impl ReadyQueue {
    /// Creates the storage matching how ops will be popped.
    pub(crate) fn for_policy(policy: IntraDimPolicy, enforced: bool) -> Self {
        let storage = if enforced || policy == IntraDimPolicy::Fifo {
            Storage::Queue(VecDeque::new())
        } else {
            Storage::Heap(BinaryHeap::new())
        };
        ReadyQueue { storage }
    }

    /// Re-shapes the queue in place for a new run: clears it, reusing the
    /// existing allocation when the storage layout already matches the
    /// requested `(policy, enforced)` pair and swapping the variant otherwise.
    /// Lets a reused [`crate::SimWorkspace`] amortise queue allocations across
    /// cells.
    pub(crate) fn reshape(&mut self, policy: IntraDimPolicy, enforced: bool) {
        let wants_queue = enforced || policy == IntraDimPolicy::Fifo;
        match (&mut self.storage, wants_queue) {
            (Storage::Queue(queue), true) => queue.clear(),
            (Storage::Heap(heap), false) => heap.clear(),
            (slot, _) => *slot = ReadyQueue::for_policy(policy, enforced).storage,
        }
    }

    /// Number of queued ops.
    pub(crate) fn len(&self) -> usize {
        match &self.storage {
            Storage::Queue(queue) => queue.len(),
            Storage::Heap(heap) => heap.len(),
        }
    }

    /// `true` if no op is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues an op. Callers push in arrival order (the heap does not care,
    /// the queue relies on it).
    pub(crate) fn push(&mut self, op: PendingOp) {
        match &mut self.storage {
            Storage::Queue(queue) => queue.push_back(op),
            Storage::Heap(heap) => heap.push(ScfEntry(op)),
        }
    }

    /// Pops the policy's next op: FIFO front or SCF minimum.
    pub(crate) fn pop_next(&mut self) -> Option<PendingOp> {
        match &mut self.storage {
            Storage::Queue(queue) => queue.pop_front(),
            Storage::Heap(heap) => heap.pop().map(|entry| entry.0),
        }
    }

    /// Removes and returns the first op matching `matches` (enforced-order
    /// runs only, which always use the linear queue layout).
    pub(crate) fn take_matching(
        &mut self,
        matches: impl Fn(&PendingOp) -> bool,
    ) -> Option<PendingOp> {
        match &mut self.storage {
            Storage::Queue(queue) => {
                let index = queue.iter().position(matches)?;
                queue.remove(index)
            }
            Storage::Heap(_) => {
                unreachable!("enforced-order runs keep the linear queue layout")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(arrival: u64, cost_ns: f64) -> PendingOp {
        PendingOp {
            arrival,
            coll: 0,
            chunk: 0,
            stage: 0,
            cost_ns,
        }
    }

    fn ops() -> [PendingOp; 4] {
        [op(0, 30.0), op(1, 10.0), op(2, 10.0), op(3, 20.0)]
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut queue = ReadyQueue::for_policy(IntraDimPolicy::Fifo, false);
        for op in ops() {
            queue.push(op);
        }
        assert_eq!(queue.len(), 4);
        let popped: Vec<u64> =
            std::iter::from_fn(|| queue.pop_next().map(|op| op.arrival)).collect();
        assert_eq!(popped, vec![0, 1, 2, 3]);
        assert!(queue.is_empty());
    }

    #[test]
    fn scf_pops_by_cost_then_arrival_matching_the_policy_scan() {
        let mut queue = ReadyQueue::for_policy(IntraDimPolicy::SmallestChunkFirst, false);
        for op in ops() {
            queue.push(op);
        }
        let popped: Vec<u64> =
            std::iter::from_fn(|| queue.pop_next().map(|op| op.arrival)).collect();
        // The linear reference: IntraDimPolicy::pick over (arrival, cost).
        let mut remaining: Vec<PendingOp> = ops().to_vec();
        let mut reference = Vec::new();
        while !remaining.is_empty() {
            let keys: Vec<(u64, f64)> = remaining
                .iter()
                .map(|op| (op.arrival, op.cost_ns))
                .collect();
            let picked = IntraDimPolicy::SmallestChunkFirst.pick(&keys).unwrap();
            reference.push(remaining.remove(picked).arrival);
        }
        assert_eq!(popped, reference);
        assert_eq!(popped, vec![1, 2, 3, 0]);
    }

    #[test]
    fn scf_ties_resolve_by_arrival_order() {
        // All costs equal: SCF must degrade to pure FIFO, both against the
        // linear policy scan and across heap sift paths.
        let mut queue = ReadyQueue::for_policy(IntraDimPolicy::SmallestChunkFirst, false);
        for arrival in 0..8u64 {
            queue.push(op(arrival, 42.0));
        }
        let popped: Vec<u64> =
            std::iter::from_fn(|| queue.pop_next().map(|op| op.arrival)).collect();
        assert_eq!(popped, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scf_interleaved_pushes_and_pops_keep_the_cost_arrival_order() {
        // Pops interleaved with pushes: the heap must always yield the
        // minimal (cost, arrival) among the ops queued *at that moment* —
        // the invariant the loop relies on when successors arrive while
        // earlier chunks are still queued.
        let mut queue = ReadyQueue::for_policy(IntraDimPolicy::SmallestChunkFirst, false);
        queue.push(op(0, 50.0));
        queue.push(op(1, 10.0));
        assert_eq!(queue.pop_next().unwrap().arrival, 1);
        // A later arrival with the same cost as an op already queued loses
        // the tie to it.
        queue.push(op(2, 50.0));
        assert_eq!(queue.pop_next().unwrap().arrival, 0);
        queue.push(op(3, 5.0));
        assert_eq!(queue.pop_next().unwrap().arrival, 3);
        assert_eq!(queue.pop_next().unwrap().arrival, 2);
        assert!(queue.pop_next().is_none());
    }

    #[test]
    fn reshape_resets_depth_and_swaps_layout() {
        let mut queue = ReadyQueue::for_policy(IntraDimPolicy::Fifo, false);
        for op in ops() {
            queue.push(op);
        }
        assert_eq!(queue.len(), 4);
        // Same layout: reshape clears but keeps the queue variant usable.
        queue.reshape(IntraDimPolicy::Fifo, false);
        assert!(queue.is_empty());
        // Different layout: FIFO → SCF heap, pops by cost afterwards.
        queue.reshape(IntraDimPolicy::SmallestChunkFirst, false);
        for op in ops() {
            queue.push(op);
        }
        assert_eq!(queue.pop_next().unwrap().arrival, 1);
        // SCF + enforced goes back to the linear layout so take_matching
        // works.
        queue.reshape(IntraDimPolicy::SmallestChunkFirst, true);
        for op in ops() {
            queue.push(op);
        }
        assert_eq!(
            queue.take_matching(|op| op.arrival == 3).unwrap().arrival,
            3
        );
    }

    #[test]
    fn enforced_runs_search_the_linear_queue() {
        let mut queue = ReadyQueue::for_policy(IntraDimPolicy::SmallestChunkFirst, true);
        for op in ops() {
            queue.push(op);
        }
        let taken = queue.take_matching(|op| op.arrival == 2).unwrap();
        assert_eq!(taken.cost_ns, 10.0);
        assert!(queue.take_matching(|op| op.arrival == 2).is_none());
        assert_eq!(queue.len(), 3);
        // Remaining ops keep arrival order.
        assert_eq!(queue.pop_next().unwrap().arrival, 0);
    }
}
