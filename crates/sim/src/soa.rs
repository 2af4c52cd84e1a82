//! Structure-of-arrays state for the data-oriented event loop.
//!
//! The loop keys everything by the dense op ids the [`CostTable`] already
//! assigns — `op = offsets[chunk] + stage`, collectives concatenated — and
//! holds the per-op attributes (dimension, chunk, stage, per-epoch
//! transfer/work costs, wire bytes) in flat arrays built once per run by
//! [`OpMatrix`]. A ready op is then just a `u32`, and the Smallest-Chunk-First
//! pick becomes a calendar-style [`Lane`] of cost buckets: transfer costs
//! come from a small set of `A_K + N_K × B_K` values, so mapping each distinct
//! cost to a dense rank gives O(1) pushes and pops (front of the
//! lowest-occupied bucket) in the policy's `(cost, arrival)` order — pushes
//! happen in global arrival order, so FIFO-within-bucket *is* arrival order,
//! and ranks are assigned by `total_cmp` so bucket order *is* cost order.
//! Enforced-order runs pick nothing: a dimension starts the next op of its
//! enforced order once that op is ready, so their lanes only count ready
//! ops, and every start is O(1) too.
//!
//! Nothing in this module touches the simulated floats: it re-packages the
//! exact values the cost tables hold (`work_ns` is precomputed with the same
//! [`OpCost::work_ns`] addition), which is why the loop stays bit-identical
//! to the test tree's plain reference loop — the property the `differential`
//! suite enforces.

use crate::faults::FaultTimeline;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use themis_core::plan::{CostTable, OpCost};
use themis_core::schedule::CollectiveSchedule;

/// Iterator over the set bit positions of a `u64` mask, ascending — the
/// quiescence short-cut: the loop visits live dimensions only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BitIter(pub u64);

impl Iterator for BitIter {
    type Item = usize;
    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// A grow-only FIFO of op ids: pushes append, pops advance a head cursor.
/// The backing allocation is reused across runs through the workspace.
#[derive(Debug, Clone, Default)]
pub(crate) struct FifoVec {
    items: Vec<u32>,
    head: usize,
}

impl FifoVec {
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.items.len() - self.head
    }

    #[inline(always)]
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
    }

    #[inline(always)]
    pub(crate) fn push_back(&mut self, op: u32) {
        self.items.push(op);
    }

    #[inline(always)]
    pub(crate) fn pop_front(&mut self) -> Option<u32> {
        if self.head == self.items.len() {
            return None;
        }
        let op = self.items[self.head];
        self.head += 1;
        if self.head == self.items.len() {
            self.clear();
        }
        Some(op)
    }
}

/// Shape of one ready lane: how it picks its next op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneKind {
    /// FIFO policy: a plain queue, pop-front is the pick.
    Fifo,
    /// Smallest-Chunk-First: cost-rank buckets with an occupancy bitmask.
    Scf,
    /// Enforced-order runs: the loop starts ops in the enforced order, so
    /// the lane stores none and only counts its ready ops.
    Counted,
}

/// One dimension's (or one collective-on-a-dimension's) ready ops, stored in
/// the pop order of the owning run's policy: a queue for FIFO, calendar-style
/// cost buckets for Smallest-Chunk-First, a bare count for enforced order.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    kind: LaneKind,
    fifo: FifoVec,
    buckets: Vec<FifoVec>,
    /// Bit `r % 64` of word `r / 64` set ⇔ `buckets[r]` is non-empty.
    occupancy: Vec<u64>,
    len: usize,
    high_water: usize,
}

impl Default for Lane {
    fn default() -> Self {
        Lane {
            kind: LaneKind::Fifo,
            fifo: FifoVec::default(),
            buckets: Vec::new(),
            occupancy: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }
}

impl Lane {
    /// Re-initialises the lane for a new run, reusing allocations.
    /// `num_ranks` sizes the bucket array (ignored unless `kind` is SCF).
    pub(crate) fn reset(&mut self, kind: LaneKind, num_ranks: usize) {
        self.kind = kind;
        self.fifo.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        if kind == LaneKind::Scf {
            if self.buckets.len() < num_ranks {
                self.buckets.resize_with(num_ranks, FifoVec::default);
            }
            let words = num_ranks.div_ceil(64);
            self.occupancy.clear();
            self.occupancy.resize(words, 0);
        }
        self.len = 0;
        self.high_water = 0;
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The deepest the lane has been since the last [`Lane::reset`].
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Enqueues `op`. Callers push in global arrival order, so FIFO order
    /// within a bucket is arrival order — the SCF heap's tie-break for free.
    #[inline(always)]
    pub(crate) fn push(&mut self, op: u32, rank: u32) {
        match self.kind {
            LaneKind::Fifo => self.fifo.push_back(op),
            LaneKind::Counted => {}
            LaneKind::Scf => {
                let rank = rank as usize;
                self.buckets[rank].push_back(op);
                self.occupancy[rank / 64] |= 1u64 << (rank % 64);
            }
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Pops the policy's next op: FIFO front, or the front of the lowest
    /// occupied cost bucket (= the heap's minimal `(cost, arrival)` key).
    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<u32> {
        let op = match self.kind {
            LaneKind::Fifo => self.fifo.pop_front()?,
            LaneKind::Counted => return None,
            LaneKind::Scf => {
                let word = self.occupancy.iter().position(|&w| w != 0)?;
                let rank = word * 64 + self.occupancy[word].trailing_zeros() as usize;
                let op = self.buckets[rank].pop_front()?;
                if self.buckets[rank].len() == 0 {
                    self.occupancy[word] &= self.occupancy[word] - 1;
                }
                op
            }
        };
        self.len -= 1;
        Some(op)
    }

    /// Counts out one ready op of a counting lane, which the loop started
    /// from the enforced order.
    #[inline(always)]
    pub(crate) fn count_out(&mut self) {
        debug_assert!(self.kind == LaneKind::Counted && self.len > 0);
        self.len -= 1;
    }
}

/// The flat per-op attribute arrays of one run: everything the inner loop
/// reads about an op, keyed by its dense id. Built once per run (reusing the
/// workspace's allocations) from the run's cost tables — identical values,
/// contiguous layout.
#[derive(Debug, Default)]
pub(crate) struct OpMatrix {
    /// Total op count across all collectives.
    pub num_ops: usize,
    /// Number of fault epochs priced (1 for a fault-free run).
    pub num_epochs: usize,
    /// Executing dimension of each op.
    pub dim: Vec<u32>,
    /// Chunk index of each op (within its collective).
    pub chunk: Vec<u32>,
    /// Stage index of each op within its chunk.
    pub stage: Vec<u32>,
    /// Owning collective of each op (all zeros for single-collective runs).
    pub coll: Vec<u32>,
    /// `true` if the op is its chunk's final stage (no successor).
    pub last_stage: Vec<bool>,
    /// Base-table wire bytes of each op (identical in every epoch table).
    pub wire: Vec<f64>,
    /// Per-epoch transfer cost, epoch-major: `transfer[e * num_ops + op]`.
    pub transfer: Vec<f64>,
    /// Per-epoch full work (`A_K + transfer`), epoch-major like `transfer`.
    pub work: Vec<f64>,
    /// Per-epoch SCF cost rank, epoch-major; empty when no lane needs ranks.
    pub rank: Vec<u32>,
    /// Per-collective rank-space size (bucket count for that collective's
    /// SCF lanes).
    pub num_ranks: Vec<usize>,
    /// `coll_base[k]..coll_base[k + 1]` is collective `k`'s op-id range.
    pub coll_base: Vec<u32>,
    /// Distinct-cost scratch for rank assignment.
    rank_scratch: Vec<f64>,
}

impl OpMatrix {
    fn clear(&mut self) {
        self.num_ops = 0;
        self.num_epochs = 1;
        self.dim.clear();
        self.chunk.clear();
        self.stage.clear();
        self.coll.clear();
        self.last_stage.clear();
        self.wire.clear();
        self.transfer.clear();
        self.work.clear();
        self.rank.clear();
        self.num_ranks.clear();
        self.coll_base.clear();
    }

    /// The epoch-`epoch` transfer cost of `op`: the epoch table's
    /// `cost(chunk, stage).transfer_ns`.
    #[inline(always)]
    pub(crate) fn transfer_at(&self, epoch: usize, op: usize) -> f64 {
        self.transfer[epoch * self.num_ops + op]
    }

    /// The epoch-`epoch` full work of `op` — precomputed with
    /// [`OpCost::work_ns`], so the bits match a per-op `work_ns()` call.
    #[inline(always)]
    pub(crate) fn work_at(&self, epoch: usize, op: usize) -> f64 {
        self.work[epoch * self.num_ops + op]
    }

    /// The epoch-`epoch` SCF cost rank of `op` (0 when ranks are unused).
    #[inline(always)]
    pub(crate) fn rank_at(&self, epoch: usize, op: usize) -> u32 {
        if self.rank.is_empty() {
            0
        } else {
            self.rank[epoch * self.num_ops + op]
        }
    }

    /// Builds the matrix for a run: one op-id block per admitted
    /// collective, in admission order. `timelines[k]` (when faults are
    /// active) carries collective `k`'s per-epoch tables; all collectives
    /// share the same epoch boundaries (one fault plan).
    pub(crate) fn build<S: Borrow<CollectiveSchedule>, T: Borrow<CostTable>>(
        &mut self,
        schedules: &[S],
        tables: &[T],
        timelines: Option<&[FaultTimeline]>,
        need_ranks: bool,
    ) {
        self.clear();
        self.num_epochs = timelines
            .and_then(|t| t.first())
            .map_or(1, |t| t.epochs().len());
        self.coll_base.push(0);
        for (coll, schedule) in schedules.iter().enumerate() {
            for (chunk_index, chunk) in schedule.borrow().chunks().iter().enumerate() {
                let stages = chunk.stages.len();
                for (stage_index, stage) in chunk.stages.iter().enumerate() {
                    self.dim.push(stage.dim as u32);
                    self.chunk.push(chunk_index as u32);
                    self.stage.push(stage_index as u32);
                    self.coll.push(coll as u32);
                    self.last_stage.push(stage_index + 1 == stages);
                }
            }
            self.wire
                .extend(tables[coll].borrow().costs().iter().map(|c| c.wire_bytes));
            self.coll_base.push(self.dim.len() as u32);
        }
        self.num_ops = self.dim.len();
        for epoch in 0..self.num_epochs {
            for (coll, base) in tables.iter().enumerate() {
                let table = epoch_table(base.borrow(), timelines, epoch, coll);
                self.push_epoch_prices(table.costs());
            }
        }
        for coll in 0..schedules.len() {
            let range = self.coll_base[coll] as usize..self.coll_base[coll + 1] as usize;
            if need_ranks {
                self.assign_ranks(range);
            } else {
                self.num_ranks.push(0);
            }
        }
    }

    fn push_epoch_prices(&mut self, costs: &[OpCost]) {
        self.transfer.extend(costs.iter().map(|c| c.transfer_ns));
        self.work.extend(costs.iter().map(OpCost::work_ns));
    }

    /// Assigns dense SCF cost ranks for the ops in `range`, over all epochs:
    /// distinct transfer values (by bit pattern) sorted by `total_cmp`, so
    /// rank order is exactly the heap's cost order.
    fn assign_ranks(&mut self, range: std::ops::Range<usize>) {
        self.rank.resize(self.transfer.len(), 0);
        self.rank_scratch.clear();
        for epoch in 0..self.num_epochs {
            let base = epoch * self.num_ops;
            self.rank_scratch
                .extend_from_slice(&self.transfer[base + range.start..base + range.end]);
        }
        self.rank_scratch.sort_unstable_by(f64::total_cmp);
        self.rank_scratch
            .dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
        for epoch in 0..self.num_epochs {
            let base = epoch * self.num_ops;
            for op in range.clone() {
                let cost = self.transfer[base + op];
                let rank = self
                    .rank_scratch
                    .binary_search_by(|probe| probe.total_cmp(&cost))
                    .expect("every cost is in the distinct set");
                self.rank[base + op] = rank as u32;
            }
        }
        self.num_ranks.push(self.rank_scratch.len());
    }
}

/// How many distinct `(schedules, tables)` cells a [`MatrixMemo`] holds
/// before it evicts everything. Far above any campaign's per-worker working
/// set; the bound only caps a long-lived service that keeps seeing novel
/// cells.
const MATRIX_MEMO_CAP: usize = 256;

/// The identity of one memoised [`OpMatrix`]: the address of every input
/// `Arc` plus the rank flag. Pointer identity is sound because the owning
/// [`MemoEntry`] pins those `Arc`s — an address cannot be reused while the
/// entry holds a strong reference — and both schedule and table are
/// immutable behind their `Arc`s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    idents: Vec<(usize, usize)>,
    need_ranks: bool,
}

impl MemoKey {
    fn new(
        schedules: &[Arc<CollectiveSchedule>],
        tables: &[Arc<CostTable>],
        need_ranks: bool,
    ) -> Self {
        MemoKey {
            idents: schedules
                .iter()
                .zip(tables)
                .map(|(s, t)| (Arc::as_ptr(s) as usize, Arc::as_ptr(t) as usize))
                .collect(),
            need_ranks,
        }
    }
}

#[derive(Debug)]
struct MemoEntry {
    /// Strong references pinning the key's addresses (see [`MemoKey`]).
    _pins: (Vec<Arc<CollectiveSchedule>>, Vec<Arc<CostTable>>),
    matrix: OpMatrix,
}

/// One `(schedule, table)` pair that already passed the run-entry checks
/// (`CollectiveSchedule::validate` + `CostTable::matches`) against a network
/// of `num_dims` dimensions. Both checks are pure functions of the schedule
/// contents, the table shape and the dimension count, so passing once means
/// passing for every later run with the same identities.
#[derive(Debug)]
struct ValidatedEntry {
    num_dims: usize,
    /// Strong references pinning the key's addresses (see [`MemoKey`]).
    _pins: (Arc<CollectiveSchedule>, Arc<CostTable>),
}

/// A per-workspace memo of built [`OpMatrix`]es, keyed by the identity of
/// the plan-cache `Arc`s that fed them. On the suite-warm path every cell's
/// schedule and cost table are served as the *same* `Arc`s run after run, so
/// the flat op arrays (and the SCF rank sort) are built once per cell
/// instead of once per run. Only fault-free runs are memoised — fault
/// timelines are per-run inputs — and `OpMatrix` construction is
/// deterministic, so a memoised matrix is bit-identical to a rebuilt one.
#[derive(Debug, Default)]
pub(crate) struct MatrixMemo {
    entries: HashMap<MemoKey, MemoEntry>,
    validated: HashMap<(usize, usize), ValidatedEntry>,
}

impl MatrixMemo {
    /// The memoised matrix of a run over `schedules` (building and caching
    /// it on first sight of this `(schedules, tables, need_ranks)` identity).
    pub(crate) fn get_or_build(
        &mut self,
        schedules: &[Arc<CollectiveSchedule>],
        tables: &[Arc<CostTable>],
        need_ranks: bool,
    ) -> &OpMatrix {
        let key = MemoKey::new(schedules, tables, need_ranks);
        if !self.entries.contains_key(&key) && self.entries.len() >= MATRIX_MEMO_CAP {
            self.entries.clear();
        }
        &self
            .entries
            .entry(key)
            .or_insert_with(|| {
                let mut matrix = OpMatrix::default();
                matrix.build(schedules, tables, None, need_ranks);
                MemoEntry {
                    _pins: (schedules.to_vec(), tables.to_vec()),
                    matrix,
                }
            })
            .matrix
    }

    /// `true` if this exact `(schedule, table)` identity already passed the
    /// run-entry validation checks against a `num_dims`-dimensional network.
    pub(crate) fn is_validated(
        &self,
        schedule: &Arc<CollectiveSchedule>,
        table: &Arc<CostTable>,
        num_dims: usize,
    ) -> bool {
        let key = (Arc::as_ptr(schedule) as usize, Arc::as_ptr(table) as usize);
        self.validated
            .get(&key)
            .is_some_and(|entry| entry.num_dims == num_dims)
    }

    /// Records that `(schedule, table)` passed the run-entry validation
    /// checks against a `num_dims`-dimensional network.
    pub(crate) fn mark_validated(
        &mut self,
        schedule: &Arc<CollectiveSchedule>,
        table: &Arc<CostTable>,
        num_dims: usize,
    ) {
        let key = (Arc::as_ptr(schedule) as usize, Arc::as_ptr(table) as usize);
        if !self.validated.contains_key(&key) && self.validated.len() >= MATRIX_MEMO_CAP {
            self.validated.clear();
        }
        self.validated.insert(
            key,
            ValidatedEntry {
                num_dims,
                _pins: (Arc::clone(schedule), Arc::clone(table)),
            },
        );
    }
}

/// The table pricing collective `coll`'s ops in `epoch`.
fn epoch_table<'t>(
    base: &'t CostTable,
    timelines: Option<&'t [FaultTimeline]>,
    epoch: usize,
    coll: usize,
) -> &'t CostTable {
    match timelines {
        Some(timelines) => timelines[coll].epochs()[epoch]
            .table
            .as_deref()
            .unwrap_or(base),
        None => base,
    }
}

/// Completion threshold: an op finishes once its remaining work is within
/// this epsilon of zero.
pub(crate) const COMPLETION_EPS: f64 = 1e-6;

/// One finished op, recorded by [`ActiveSet::advance`]: the dense id, the
/// dimension it ran on and its issue timestamp (for the op log).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    pub dim: u32,
    pub op: u32,
    pub start_ns: f64,
}

/// The in-flight ops of one dimension, structure-of-arrays. The only value
/// the inner loop touches every step is each op's remaining work, so it
/// lives in its own densely packed `f64` array, and the set maintains
/// `min(remaining)` incrementally — the per-step earliest-completion scan
/// collapses to one cached read per dimension, and the common
/// no-completion step to one branch-free subtraction sweep.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    /// Remaining work of each in-flight op, parallel to `op` and `start`.
    remaining: Vec<f64>,
    /// Dense op id of each in-flight op.
    op: Vec<u32>,
    /// Issue timestamp of each in-flight op.
    start: Vec<f64>,
    /// `min(remaining)` (`+inf` when empty), maintained by [`Self::push`]
    /// and [`Self::advance`]. Always bitwise equal to a fresh scan: pushes
    /// compare, and subtracting a constant is monotone under rounding, so
    /// `min - share` *is* the post-sweep minimum when no op completes.
    min_remaining: f64,
}

impl Default for ActiveSet {
    fn default() -> Self {
        ActiveSet {
            remaining: Vec::new(),
            op: Vec::new(),
            start: Vec::new(),
            min_remaining: f64::INFINITY,
        }
    }
}

impl ActiveSet {
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.op.len()
    }

    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.op.is_empty()
    }

    /// The dense op ids currently in flight (order is unspecified).
    #[inline(always)]
    pub(crate) fn ops(&self) -> &[u32] {
        &self.op
    }

    /// `min(remaining)` over the in-flight ops; `+inf` when idle.
    #[inline(always)]
    pub(crate) fn min_remaining(&self) -> f64 {
        self.min_remaining
    }

    pub(crate) fn clear(&mut self) {
        self.remaining.clear();
        self.op.clear();
        self.start.clear();
        self.min_remaining = f64::INFINITY;
    }

    #[inline(always)]
    pub(crate) fn push(&mut self, op: u32, remaining_work_ns: f64, start_ns: f64) {
        self.remaining.push(remaining_work_ns);
        self.op.push(op);
        self.start.push(start_ns);
        if remaining_work_ns < self.min_remaining {
            self.min_remaining = remaining_work_ns;
        }
    }

    /// Charges `share` ns of processor-sharing service to every in-flight op
    /// and appends the ops that finish (post-subtraction remaining within
    /// [`COMPLETION_EPS`]) to `completions`. Returns `true` when the set
    /// went idle.
    ///
    /// The per-op subtraction is the plain `remaining - share` of processor
    /// sharing. Because subtracting a constant is monotone,
    /// `min(remaining) - share` exactly predicts whether *any* op completes,
    /// so the common no-completion step takes a branch-free sweep the
    /// compiler can vectorise — and that difference is bitwise the new
    /// minimum.
    #[inline]
    pub(crate) fn advance(
        &mut self,
        share: f64,
        dim: u32,
        completions: &mut Vec<Completion>,
    ) -> bool {
        if self.min_remaining - share > COMPLETION_EPS {
            self.min_remaining -= share;
            for remaining in &mut self.remaining {
                *remaining -= share;
            }
            return false;
        }
        let mut min = f64::INFINITY;
        let mut index = 0;
        while index < self.op.len() {
            let left = self.remaining[index] - share;
            if left <= COMPLETION_EPS {
                completions.push(Completion {
                    dim,
                    op: self.op[index],
                    start_ns: self.start[index],
                });
                self.remaining.swap_remove(index);
                self.op.swap_remove(index);
                self.start.swap_remove(index);
            } else {
                self.remaining[index] = left;
                if left < min {
                    min = left;
                }
                index += 1;
            }
        }
        self.min_remaining = min;
        self.op.is_empty()
    }
}

/// Per-dimension ready bookkeeping of a merged stream run, where each
/// dimension has one lane per collective: which collectives have ready ops on
/// the dimension (unordered; lets the per-segment accounting skip the mostly
/// empty lanes), the dimension's total ready-op count, and that count's high
/// watermark for telemetry. A single-collective run needs none of it — its
/// one lane per dimension is the dimension's whole ready set.
#[derive(Debug, Default)]
pub(crate) struct ReadyIndex {
    pub colls: Vec<Vec<usize>>,
    pub count: Vec<usize>,
    pub high_water: Vec<usize>,
}

impl ReadyIndex {
    pub(crate) fn reset(&mut self, num_dims: usize) {
        for colls in &mut self.colls {
            colls.clear();
        }
        self.colls.resize_with(num_dims, Vec::new);
        self.count.clear();
        self.count.resize(num_dims, 0);
        self.high_water.clear();
        self.high_water.resize(num_dims, 0);
    }

    /// Records one op of `coll` becoming ready on `dim`; `lane_was_empty`
    /// says whether `coll` had no ready op there before.
    #[inline(always)]
    pub(crate) fn push(&mut self, dim: usize, coll: usize, lane_was_empty: bool) {
        if lane_was_empty {
            self.colls[dim].push(coll);
        }
        self.count[dim] += 1;
        self.high_water[dim] = self.high_water[dim].max(self.count[dim]);
    }

    /// Records one op of `coll` leaving `dim`'s ready set; `lane_now_empty`
    /// says whether that drained `coll`'s lane there.
    #[inline(always)]
    pub(crate) fn pop(&mut self, dim: usize, coll: usize, lane_now_empty: bool) {
        self.count[dim] -= 1;
        if lane_now_empty {
            let list = &mut self.colls[dim];
            let position = list
                .iter()
                .position(|&c| c == coll)
                .expect("drained lane is listed");
            list.swap_remove(position);
        }
    }
}

/// Builds a blocked-dimension bitmask from a fault epoch's `blocked` flags.
#[inline(always)]
pub(crate) fn blocked_mask(blocked: &[bool]) -> u64 {
    let mut mask = 0u64;
    for (dim, &flag) in blocked.iter().enumerate() {
        if flag {
            mask |= 1u64 << dim;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_vec_preserves_order_and_reuses_storage() {
        let mut fifo = FifoVec::default();
        for op in 0..5u32 {
            fifo.push_back(op);
        }
        assert_eq!(fifo.len(), 5);
        assert_eq!(fifo.pop_front(), Some(0));
        let rest: Vec<u32> = std::iter::from_fn(|| fifo.pop_front()).collect();
        assert_eq!(rest, vec![1, 2, 3, 4]);
        assert_eq!(fifo.len(), 0);
    }

    #[test]
    fn scf_lane_pops_by_rank_then_arrival() {
        let mut lane = Lane::default();
        lane.reset(LaneKind::Scf, 3);
        // Pushes in arrival order with ranks 2, 0, 0, 1.
        lane.push(10, 2);
        lane.push(11, 0);
        lane.push(12, 0);
        lane.push(13, 1);
        assert_eq!(lane.len(), 4);
        assert_eq!(lane.high_water(), 4);
        let popped: Vec<u32> = std::iter::from_fn(|| lane.pop()).collect();
        assert_eq!(popped, vec![11, 12, 13, 10]);
        assert!(lane.is_empty());
    }

    #[test]
    fn scf_lane_spans_multiple_occupancy_words() {
        let mut lane = Lane::default();
        lane.reset(LaneKind::Scf, 130);
        lane.push(1, 129);
        lane.push(2, 64);
        lane.push(3, 0);
        let popped: Vec<u32> = std::iter::from_fn(|| lane.pop()).collect();
        assert_eq!(popped, vec![3, 2, 1]);
    }

    #[test]
    fn lane_reset_clears_dirty_buckets() {
        let mut lane = Lane::default();
        lane.reset(LaneKind::Scf, 2);
        lane.push(7, 1);
        // Abandon the op (as an error path would) and reset to a FIFO lane.
        lane.reset(LaneKind::Fifo, 0);
        assert!(lane.is_empty());
        lane.push(8, 0);
        assert_eq!(lane.pop(), Some(8));
        // And back to SCF: the old bucket content must not resurface.
        lane.reset(LaneKind::Scf, 2);
        assert_eq!(lane.pop(), None);
    }

    #[test]
    fn active_set_advance_matches_a_naive_sweep() {
        let mut set = ActiveSet::default();
        set.push(0, 30.0, 0.0);
        set.push(1, 10.0, 0.0);
        set.push(2, 20.0, 0.0);
        assert_eq!(set.min_remaining(), 10.0);

        // No completion: the branch-free path subtracts and shifts the min.
        let mut completions = Vec::new();
        assert!(!set.advance(5.0, 7, &mut completions));
        assert!(completions.is_empty());
        assert_eq!(set.min_remaining(), 5.0);
        assert_eq!(set.len(), 3);

        // The minimum op finishes; the min recomputes over the survivors.
        assert!(!set.advance(5.0, 7, &mut completions));
        assert_eq!(completions.len(), 1);
        assert_eq!((completions[0].dim, completions[0].op), (7, 1));
        assert_eq!(set.min_remaining(), 10.0);

        // Draining the rest in one charge empties the set.
        assert!(set.advance(25.0, 7, &mut completions));
        assert_eq!(completions.len(), 3);
        assert!(set.is_empty());
        assert_eq!(set.min_remaining(), f64::INFINITY);
    }

    #[test]
    fn bit_iter_walks_set_bits_ascending() {
        let bits: Vec<usize> = BitIter(0b1010_0110).collect();
        assert_eq!(bits, vec![1, 2, 5, 7]);
        assert_eq!(BitIter(0).count(), 0);
    }
}
