//! Intra-dimension chunk execution policies (Sec. 4.3).
//!
//! When several chunk operations are ready on the same dimension, the policy
//! decides which one the dimension executes first. For the baseline this does
//! not affect utilisation (all chunks have identical schedules); for Themis it
//! matters because chunks have different schedules, so chunks of different
//! sizes compete for a dimension. The paper finds Smallest-Chunk-First (SCF)
//! best: finishing small chunks quickly feeds downstream dimensions sooner and
//! reduces dimension starvation.

use std::fmt;

/// Ordering policy for ready chunk operations within a dimension's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IntraDimPolicy {
    /// First-in first-out: execute chunks in arrival order (baseline default).
    #[default]
    Fifo,
    /// Smallest-Chunk-First: execute the ready chunk op with the smallest
    /// predicted processing cost first (Themis+SCF).
    SmallestChunkFirst,
}

impl IntraDimPolicy {
    /// All policies.
    pub fn all() -> [IntraDimPolicy; 2] {
        [IntraDimPolicy::Fifo, IntraDimPolicy::SmallestChunkFirst]
    }

    /// Picks the index of the next ready entry to execute.
    ///
    /// `ready` provides, for each queued entry, `(arrival_order, cost_key)`
    /// where `cost_key` is the entry's predicted processing cost on the
    /// dimension (its runtime or, equivalently, the bytes it puts on the
    /// wire). Returns `None` when the queue is empty. Ties are broken by
    /// arrival order, then by queue position, so the choice is deterministic —
    /// a requirement for the schedule-consistency guarantee of Sec. 4.6.
    pub fn pick(&self, ready: &[(u64, f64)]) -> Option<usize> {
        if ready.is_empty() {
            return None;
        }
        let index = match self {
            IntraDimPolicy::Fifo => ready
                .iter()
                .enumerate()
                .min_by(|(ia, a), (ib, b)| a.0.cmp(&b.0).then(ia.cmp(ib)))
                .map(|(i, _)| i),
            IntraDimPolicy::SmallestChunkFirst => ready
                .iter()
                .enumerate()
                .min_by(|(ia, a), (ib, b)| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i),
        };
        index
    }
}

impl fmt::Display for IntraDimPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            IntraDimPolicy::Fifo => "FIFO",
            IntraDimPolicy::SmallestChunkFirst => "SCF",
        };
        f.write_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_picks_earliest_arrival() {
        let ready = vec![(5, 100.0), (2, 400.0), (9, 50.0)];
        assert_eq!(IntraDimPolicy::Fifo.pick(&ready), Some(1));
    }

    #[test]
    fn scf_picks_smallest_chunk() {
        let ready = vec![(5, 100.0), (2, 400.0), (9, 50.0)];
        assert_eq!(IntraDimPolicy::SmallestChunkFirst.pick(&ready), Some(2));
    }

    #[test]
    fn scf_breaks_ties_by_arrival() {
        let ready = vec![(5, 100.0), (2, 100.0), (9, 100.0)];
        assert_eq!(IntraDimPolicy::SmallestChunkFirst.pick(&ready), Some(1));
    }

    #[test]
    fn empty_queue_returns_none() {
        for policy in IntraDimPolicy::all() {
            assert_eq!(policy.pick(&[]), None);
        }
    }

    #[test]
    fn default_is_fifo() {
        assert_eq!(IntraDimPolicy::default(), IntraDimPolicy::Fifo);
        assert_eq!(IntraDimPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(IntraDimPolicy::SmallestChunkFirst.to_string(), "SCF");
    }
}
