//! The Themis `Dim Load Tracker` component (Fig. 6).
//!
//! Maintains, per network dimension, the total communication time that the
//! chunks scheduled so far are predicted to place on it. The tracker is reset
//! at the start of every collective and initialised with each dimension's
//! fixed delay `A_K` for the target collective type (Sec. 4.4).

use crate::error::ScheduleError;

/// Per-dimension accumulated load in nanoseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DimLoadTracker {
    loads: Vec<f64>,
}

impl DimLoadTracker {
    /// Creates a tracker for `num_dims` dimensions with all loads at zero.
    pub fn new(num_dims: usize) -> Self {
        DimLoadTracker {
            loads: vec![0.0; num_dims],
        }
    }

    /// Resets the tracker to the given initial per-dimension loads (the
    /// `DimLoadTracker.reset(CT)` of Algorithm 1, line 2: the fixed delays
    /// `A_K` of the target collective type).
    pub fn reset(&mut self, initial_loads: Vec<f64>) {
        self.loads = initial_loads;
    }

    /// Number of tracked dimensions.
    pub fn num_dims(&self) -> usize {
        self.loads.len()
    }

    /// Current per-dimension loads (`DimLoadTracker.getLoads()`).
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Adds the per-dimension load of a newly scheduled chunk
    /// (`DimLoadTracker.update(newLoad)`, Algorithm 1 line 30).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidConfig`] if `delta` has a different
    /// number of dimensions than the tracker.
    pub fn add(&mut self, delta: &[f64]) -> Result<(), ScheduleError> {
        if delta.len() != self.loads.len() {
            return Err(ScheduleError::InvalidConfig {
                reason: format!(
                    "load delta has {} dimensions, tracker has {}",
                    delta.len(),
                    self.loads.len()
                ),
            });
        }
        for (load, d) in self.loads.iter_mut().zip(delta) {
            *load += d;
        }
        Ok(())
    }

    /// The maximum current load across dimensions.
    pub fn max_load(&self) -> f64 {
        self.loads.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The minimum current load across dimensions.
    pub fn min_load(&self) -> f64 {
        self.loads.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Difference between the most and least loaded dimension (the quantity
    /// compared against the threshold in Algorithm 1, line 19).
    pub fn load_gap(&self) -> f64 {
        if self.loads.is_empty() {
            0.0
        } else {
            self.max_load() - self.min_load()
        }
    }

    /// Index of the dimension with the smallest current load (ties broken by
    /// the lowest index, for determinism).
    pub fn least_loaded_dim(&self) -> Option<usize> {
        self.loads
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| {
                a.partial_cmp(b)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ia.cmp(ib))
            })
            .map(|(i, _)| i)
    }

    /// Dimension indices sorted by ascending current load
    /// (`getIndexOfSortedList(loads, ascending)` of Algorithm 1). Ties are
    /// broken by the lower dimension index so that all NPUs produce the same
    /// order (Sec. 4.6.1).
    pub fn dims_by_ascending_load(&self) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..self.loads.len()).collect();
        indices.sort_by(|&a, &b| {
            self.loads[a]
                .partial_cmp(&self.loads[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        indices
    }

    /// Dimension indices sorted by descending current load (ties broken by the
    /// lower dimension index).
    pub fn dims_by_descending_load(&self) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..self.loads.len()).collect();
        indices.sort_by(|&a, &b| {
            self.loads[b]
                .partial_cmp(&self.loads[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_and_accumulate() {
        let mut tracker = DimLoadTracker::new(3);
        assert_eq!(tracker.loads(), &[0.0, 0.0, 0.0]);
        tracker.reset(vec![10.0, 20.0, 30.0]);
        tracker.add(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(tracker.loads(), &[11.0, 22.0, 33.0]);
        assert_eq!(tracker.num_dims(), 3);
    }

    #[test]
    fn add_rejects_wrong_rank() {
        let mut tracker = DimLoadTracker::new(2);
        assert!(tracker.add(&[1.0]).is_err());
        assert!(tracker.add(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn gap_and_extremes() {
        let mut tracker = DimLoadTracker::new(3);
        tracker.reset(vec![5.0, 15.0, 10.0]);
        assert_eq!(tracker.max_load(), 15.0);
        assert_eq!(tracker.min_load(), 5.0);
        assert_eq!(tracker.load_gap(), 10.0);
        assert_eq!(tracker.least_loaded_dim(), Some(0));
    }

    #[test]
    fn sorted_orders() {
        let mut tracker = DimLoadTracker::new(4);
        tracker.reset(vec![8.0, 3.0, 12.0, 3.0]);
        assert_eq!(tracker.dims_by_ascending_load(), vec![1, 3, 0, 2]);
        assert_eq!(tracker.dims_by_descending_load(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn ties_resolve_deterministically() {
        let mut tracker = DimLoadTracker::new(3);
        tracker.reset(vec![7.0, 7.0, 7.0]);
        assert_eq!(tracker.dims_by_ascending_load(), vec![0, 1, 2]);
        assert_eq!(tracker.dims_by_descending_load(), vec![0, 1, 2]);
        assert_eq!(tracker.least_loaded_dim(), Some(0));
        assert_eq!(tracker.load_gap(), 0.0);
    }

    #[test]
    fn empty_tracker_is_harmless() {
        let tracker = DimLoadTracker::new(0);
        assert_eq!(tracker.load_gap(), 0.0);
        assert_eq!(tracker.least_loaded_dim(), None);
        assert!(tracker.dims_by_ascending_load().is_empty());
    }
}
