//! Collective communication patterns (Sec. 2.1 of the paper).

use std::fmt;

/// A collective communication pattern requested by the training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Globally reduce data so every NPU ends with the full reduced buffer.
    /// Decomposes into a Reduce-Scatter followed by an All-Gather.
    AllReduce,
    /// Reduce data so each NPU ends with a distinct `1/P` shard of the result.
    ReduceScatter,
    /// Broadcast each NPU's shard so every NPU ends with the concatenation.
    AllGather,
    /// Personalised exchange: NPU `i` sends a distinct block to every NPU `j`.
    AllToAll,
}

impl CollectiveKind {
    /// All collective kinds.
    pub fn all() -> [CollectiveKind; 4] {
        [
            CollectiveKind::AllReduce,
            CollectiveKind::ReduceScatter,
            CollectiveKind::AllGather,
            CollectiveKind::AllToAll,
        ]
    }

    /// The per-dimension phase operations this collective decomposes into on a
    /// `D`-dimensional network (Sec. 2.3): All-Reduce becomes `D` Reduce-Scatter
    /// stages plus `D` All-Gather stages; the others are `D` stages of a single
    /// phase op.
    pub fn phases(&self) -> &'static [PhaseOp] {
        match self {
            CollectiveKind::AllReduce => &[PhaseOp::ReduceScatter, PhaseOp::AllGather],
            CollectiveKind::ReduceScatter => &[PhaseOp::ReduceScatter],
            CollectiveKind::AllGather => &[PhaseOp::AllGather],
            CollectiveKind::AllToAll => &[PhaseOp::AllToAll],
        }
    }

    /// Number of per-dimension stages on a `num_dims`-dimensional network.
    pub fn num_stages(&self, num_dims: usize) -> usize {
        self.phases().len() * num_dims
    }

    /// `true` if scheduling this collective involves a Reduce-Scatter phase.
    pub fn has_reduce_scatter(&self) -> bool {
        self.phases().contains(&PhaseOp::ReduceScatter)
    }

    /// `true` if scheduling this collective involves an All-Gather phase.
    pub fn has_all_gather(&self) -> bool {
        self.phases().contains(&PhaseOp::AllGather)
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            CollectiveKind::AllReduce => "All-Reduce",
            CollectiveKind::ReduceScatter => "Reduce-Scatter",
            CollectiveKind::AllGather => "All-Gather",
            CollectiveKind::AllToAll => "All-To-All",
        };
        f.write_str(text)
    }
}

/// A phase operation executed on a *single* network dimension: one stage of
/// the `2×D`-stage pipeline of Sec. 2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseOp {
    /// Reduce-Scatter stage: the resident chunk size shrinks by the dimension
    /// size `P` after this op.
    ReduceScatter,
    /// All-Gather stage: the resident chunk size grows by the dimension size
    /// `P` after this op.
    AllGather,
    /// All-To-All stage: the resident chunk size is unchanged.
    AllToAll,
}

impl PhaseOp {
    /// Resident per-NPU data size after running this op on a dimension of size
    /// `p`, given the resident size `before` the op (Sec. 2.1/2.3: RS shrinks
    /// by `P`, AG grows by `P`, All-To-All is size-preserving).
    pub fn resident_size_after(&self, before: f64, p: usize) -> f64 {
        match self {
            PhaseOp::ReduceScatter => before / p as f64,
            PhaseOp::AllGather => before * p as f64,
            PhaseOp::AllToAll => before,
        }
    }

    /// Short label used in traces and pipeline diagrams (`RS`, `AG`, `A2A`).
    pub fn label(&self) -> &'static str {
        match self {
            PhaseOp::ReduceScatter => "RS",
            PhaseOp::AllGather => "AG",
            PhaseOp::AllToAll => "A2A",
        }
    }
}

impl fmt::Display for PhaseOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reduce_decomposes_into_rs_then_ag() {
        assert_eq!(
            CollectiveKind::AllReduce.phases(),
            &[PhaseOp::ReduceScatter, PhaseOp::AllGather]
        );
        assert!(CollectiveKind::AllReduce.has_reduce_scatter());
        assert!(CollectiveKind::AllReduce.has_all_gather());
    }

    #[test]
    fn stage_counts_match_2d_pipeline() {
        // Sec. 2.3: All-Reduce on a D-dimensional network is a 2×D-stage pipeline.
        assert_eq!(CollectiveKind::AllReduce.num_stages(3), 6);
        assert_eq!(CollectiveKind::ReduceScatter.num_stages(3), 3);
        assert_eq!(CollectiveKind::AllGather.num_stages(4), 4);
        assert_eq!(CollectiveKind::AllToAll.num_stages(2), 2);
    }

    #[test]
    fn single_phase_collectives() {
        assert!(!CollectiveKind::AllGather.has_reduce_scatter());
        assert!(!CollectiveKind::ReduceScatter.has_all_gather());
        assert!(!CollectiveKind::AllToAll.has_reduce_scatter());
        assert!(!CollectiveKind::AllToAll.has_all_gather());
    }

    #[test]
    fn resident_size_transitions() {
        // Fig. 5: a 64 MB chunk entering a Reduce-Scatter on a size-4 dimension
        // leaves as a 16 MB chunk, and vice versa for All-Gather.
        let mb = 1024.0 * 1024.0;
        assert_eq!(
            PhaseOp::ReduceScatter.resident_size_after(64.0 * mb, 4),
            16.0 * mb
        );
        assert_eq!(
            PhaseOp::AllGather.resident_size_after(16.0 * mb, 4),
            64.0 * mb
        );
        assert_eq!(
            PhaseOp::AllToAll.resident_size_after(64.0 * mb, 4),
            64.0 * mb
        );
    }

    #[test]
    fn rs_then_ag_roundtrips_size() {
        let size = 123456.0;
        for p in [2usize, 4, 8, 16, 64] {
            let after_rs = PhaseOp::ReduceScatter.resident_size_after(size, p);
            let back = PhaseOp::AllGather.resident_size_after(after_rs, p);
            assert!((back - size).abs() < 1e-6);
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(CollectiveKind::AllReduce.to_string(), "All-Reduce");
        assert_eq!(CollectiveKind::AllToAll.to_string(), "All-To-All");
        assert_eq!(PhaseOp::ReduceScatter.to_string(), "RS");
        assert_eq!(PhaseOp::AllGather.to_string(), "AG");
        assert_eq!(PhaseOp::AllToAll.to_string(), "A2A");
        assert_eq!(CollectiveKind::all().len(), 4);
    }
}
