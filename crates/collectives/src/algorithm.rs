//! Topology-aware collective algorithms (Table 1) and their analytic
//! properties: step counts and bytes-on-wire per NPU.

use crate::kind::PhaseOp;
use std::fmt;
use themis_net::TopologyKind;

/// The basic, contention-free collective algorithm run on a single dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Ring algorithm: `P−1` steps per phase, bandwidth-optimal.
    Ring,
    /// Direct exchange on a fully-connected dimension: a single step.
    Direct,
    /// Recursive halving/doubling on a switch: `log2(P)` steps.
    HalvingDoubling,
}

impl AlgorithmKind {
    /// All algorithm kinds.
    pub fn all() -> [AlgorithmKind; 3] {
        [
            AlgorithmKind::Ring,
            AlgorithmKind::Direct,
            AlgorithmKind::HalvingDoubling,
        ]
    }

    /// Number of communication steps (`number_of_steps` of Sec. 4.4) for one
    /// phase op among `p` participants.
    ///
    /// All-To-All is modelled as a direct personalised exchange on
    /// fully-connected / switch dimensions (one step) and as `p − 1` steps on
    /// a ring.
    pub fn steps(&self, op: PhaseOp, p: usize) -> u64 {
        if p <= 1 {
            return 0;
        }
        let p_u64 = p as u64;
        match (self, op) {
            (AlgorithmKind::Ring, _) => p_u64 - 1,
            (AlgorithmKind::Direct, _) => 1,
            (AlgorithmKind::HalvingDoubling, PhaseOp::AllToAll) => 1,
            (AlgorithmKind::HalvingDoubling, _) => (p as f64).log2().ceil() as u64,
        }
    }

    /// Total bytes each NPU injects into the dimension to run one phase op on
    /// a resident chunk of `chunk_bytes` among `p` participants
    /// (`n^i_K` of Sec. 4.4). `chunk_bytes` is the data resident on each NPU
    /// *before* the stage begins (the paper's chunk-size convention).
    ///
    /// For the bandwidth-optimal algorithms of Table 1:
    ///
    /// * Reduce-Scatter sends `(P−1)/P × chunk_bytes` per NPU (the chunk is
    ///   the full buffer and shrinks to `1/P` of it).
    /// * All-Gather sends `(P−1) × chunk_bytes` per NPU (the chunk is the
    ///   `1/P` shard and grows by `P`), which is why Fig. 5 draws a 16 MB
    ///   All-Gather with the same latency as a 64 MB Reduce-Scatter on a
    ///   size-4 dimension.
    /// * All-To-All sends `(P−1)/P × chunk_bytes` per NPU (size-preserving
    ///   personalised exchange).
    pub fn wire_bytes_per_npu(&self, op: PhaseOp, p: usize, chunk_bytes: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let p_f = p as f64;
        match op {
            PhaseOp::ReduceScatter | PhaseOp::AllToAll => chunk_bytes * (p_f - 1.0) / p_f,
            PhaseOp::AllGather => chunk_bytes * (p_f - 1.0),
        }
    }

    /// `true` if this algorithm can run with `p` participants.
    ///
    /// Halving-doubling requires a power-of-two group; ring and direct accept
    /// any group of at least two.
    pub fn supports(&self, p: usize) -> bool {
        match self {
            AlgorithmKind::Ring | AlgorithmKind::Direct => p >= 2,
            AlgorithmKind::HalvingDoubling => p >= 2 && p.is_power_of_two(),
        }
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            AlgorithmKind::Ring => "ring",
            AlgorithmKind::Direct => "direct",
            AlgorithmKind::HalvingDoubling => "halving-doubling",
        };
        f.write_str(text)
    }
}

/// The Table 1 mapping from a dimension's physical topology to its
/// contention-free, topology-aware collective algorithm.
pub fn algorithm_for(kind: TopologyKind) -> AlgorithmKind {
    match kind {
        TopologyKind::Ring => AlgorithmKind::Ring,
        TopologyKind::FullyConnected => AlgorithmKind::Direct,
        TopologyKind::Switch => AlgorithmKind::HalvingDoubling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mapping() {
        assert_eq!(algorithm_for(TopologyKind::Ring), AlgorithmKind::Ring);
        assert_eq!(
            algorithm_for(TopologyKind::FullyConnected),
            AlgorithmKind::Direct
        );
        assert_eq!(
            algorithm_for(TopologyKind::Switch),
            AlgorithmKind::HalvingDoubling
        );
    }

    #[test]
    fn ring_step_counts() {
        // Sec. 4.4: ring-based All-Reduce requires 2P − 2 steps, i.e. P − 1 per phase.
        assert_eq!(AlgorithmKind::Ring.steps(PhaseOp::ReduceScatter, 4), 3);
        assert_eq!(AlgorithmKind::Ring.steps(PhaseOp::AllGather, 4), 3);
        assert_eq!(AlgorithmKind::Ring.steps(PhaseOp::ReduceScatter, 16), 15);
    }

    #[test]
    fn direct_is_single_step() {
        for p in [2usize, 7, 8, 64] {
            assert_eq!(AlgorithmKind::Direct.steps(PhaseOp::ReduceScatter, p), 1);
            assert_eq!(AlgorithmKind::Direct.steps(PhaseOp::AllGather, p), 1);
        }
    }

    #[test]
    fn halving_doubling_is_logarithmic() {
        assert_eq!(
            AlgorithmKind::HalvingDoubling.steps(PhaseOp::ReduceScatter, 8),
            3
        );
        assert_eq!(
            AlgorithmKind::HalvingDoubling.steps(PhaseOp::AllGather, 16),
            4
        );
        assert_eq!(
            AlgorithmKind::HalvingDoubling.steps(PhaseOp::ReduceScatter, 64),
            6
        );
    }

    #[test]
    fn degenerate_single_participant() {
        for alg in AlgorithmKind::all() {
            assert_eq!(alg.steps(PhaseOp::ReduceScatter, 1), 0);
            assert_eq!(
                alg.wire_bytes_per_npu(PhaseOp::ReduceScatter, 1, 1024.0),
                0.0
            );
        }
    }

    #[test]
    fn reduce_scatter_wire_bytes_follow_p_minus_one_over_p() {
        // Footnote 7 of the paper: a 4 MB chunk on a P_K-size dimension sends
        // (P_K − 1)/P_K × 4 MB per NPU with the ring algorithm.
        let four_mb = 4.0 * 1024.0 * 1024.0;
        let expected = 3.0 / 4.0 * four_mb;
        for alg in AlgorithmKind::all() {
            let bytes = alg.wire_bytes_per_npu(PhaseOp::ReduceScatter, 4, four_mb);
            assert!((bytes - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn fig5_all_gather_matches_reduce_scatter_latency() {
        // Fig. 5: on a size-4 dimension, a 16 MB All-Gather (entry size) moves
        // the same bytes as a 64 MB Reduce-Scatter, so their latencies match.
        let mb = 1024.0 * 1024.0;
        for alg in AlgorithmKind::all() {
            let rs = alg.wire_bytes_per_npu(PhaseOp::ReduceScatter, 4, 64.0 * mb);
            let ag = alg.wire_bytes_per_npu(PhaseOp::AllGather, 4, 16.0 * mb);
            assert!((rs - ag).abs() < 1e-9);
            assert!((rs - 48.0 * mb).abs() < 1e-9);
        }
    }

    #[test]
    fn wire_bytes_monotonic_in_participants() {
        let size = 1e6;
        let mut last = 0.0;
        for p in [2usize, 4, 8, 16, 32] {
            let bytes = AlgorithmKind::Ring.wire_bytes_per_npu(PhaseOp::ReduceScatter, p, size);
            assert!(bytes > last);
            assert!(bytes < size);
            last = bytes;
        }
    }

    #[test]
    fn support_rules() {
        assert!(AlgorithmKind::Ring.supports(3));
        assert!(AlgorithmKind::Direct.supports(7));
        assert!(AlgorithmKind::HalvingDoubling.supports(8));
        assert!(!AlgorithmKind::HalvingDoubling.supports(6));
        assert!(!AlgorithmKind::Ring.supports(1));
    }

    #[test]
    fn display_labels() {
        assert_eq!(AlgorithmKind::Ring.to_string(), "ring");
        assert_eq!(
            AlgorithmKind::HalvingDoubling.to_string(),
            "halving-doubling"
        );
    }
}
