//! A tiny built-in wall-clock benchmark harness.
//!
//! The workspace takes no external dependencies, so there is no criterion;
//! this module provides the small subset the runner-scaling benches need:
//! run a closure a fixed number of times, collect per-iteration wall times,
//! and report min/median/mean/max. No statistics beyond that — the
//! harness exists to catch order-of-magnitude regressions in CI smoke runs
//! and to produce comparable numbers locally, not to replace criterion.

use std::time::Instant;

/// Wall-clock statistics of one measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStat {
    /// Benchmark name.
    pub name: String,
    /// Number of measured iterations.
    pub iterations: usize,
    /// Fastest iteration, ns.
    pub min_ns: f64,
    /// Median iteration, ns.
    pub median_ns: f64,
    /// Mean iteration, ns.
    pub mean_ns: f64,
    /// Slowest iteration, ns.
    pub max_ns: f64,
}

impl BenchStat {
    /// Mean iteration time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }

    /// Median iteration time in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_ns / 1e6
    }

    /// Throughput ratio of this stat over `other` (other mean / this mean):
    /// above `1.0` means this benchmark is faster.
    pub fn speedup_over(&self, other: &BenchStat) -> f64 {
        if self.mean_ns <= 0.0 {
            return f64::INFINITY;
        }
        other.mean_ns / self.mean_ns
    }
}

/// Measures `f` for `iterations` wall-clock samples after `warmup` unmeasured
/// runs. `iterations` is clamped to at least one.
pub fn measure<F: FnMut()>(
    name: impl Into<String>,
    warmup: usize,
    iterations: usize,
    mut f: F,
) -> BenchStat {
    for _ in 0..warmup {
        f();
    }
    let iterations = iterations.max(1);
    let mut samples_ns = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let started = Instant::now();
        f();
        samples_ns.push(started.elapsed().as_nanos() as f64);
    }
    stat_from_samples(name, samples_ns)
}

/// The result of [`measure_paired`]: per-side statistics plus the median of
/// per-round `a`-over-`b` wall-time ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct PairedStat {
    /// Statistics of the first closure's rounds.
    pub a: BenchStat,
    /// Statistics of the second closure's rounds.
    pub b: BenchStat,
    /// Median over rounds of `a_time / b_time`. Each round's two runs are
    /// adjacent in time, so machine-speed drift cancels within the pair, and
    /// the median discards rounds hit by a scheduling spike — far more stable
    /// than comparing the two sides' independent minima.
    pub median_ratio: f64,
}

/// Measures two closures with their iterations interleaved (`a`, `b`, `a`,
/// `b`, ...) rather than back to back. Machine-speed drift between the two
/// measurement windows then hits both sides equally and cancels out of the
/// `a`-vs-`b` comparison instead of folding into it; paired comparisons such
/// as the telemetry-overhead gate need this on noisy shared hardware. The
/// in-round order alternates (`a b`, `b a`, `a b`, ...): whichever side runs
/// second inherits the first side's warmed caches and frequency state, and
/// alternation hands that advantage to each side equally instead of folding
/// it into the ratio.
pub fn measure_paired<A: FnMut(), B: FnMut()>(
    name_a: impl Into<String>,
    name_b: impl Into<String>,
    warmup: usize,
    iterations: usize,
    mut a: A,
    mut b: B,
) -> PairedStat {
    for _ in 0..warmup {
        a();
        b();
    }
    let iterations = iterations.max(1);
    let mut samples_a = Vec::with_capacity(iterations);
    let mut samples_b = Vec::with_capacity(iterations);
    for round in 0..iterations {
        let mut time_a = || {
            let started = Instant::now();
            a();
            samples_a.push(started.elapsed().as_nanos() as f64);
        };
        let mut time_b = || {
            let started = Instant::now();
            b();
            samples_b.push(started.elapsed().as_nanos() as f64);
        };
        if round % 2 == 0 {
            time_a();
            time_b();
        } else {
            time_b();
            time_a();
        }
    }
    let mut ratios: Vec<f64> = samples_a
        .iter()
        .zip(&samples_b)
        .filter(|&(_, &b_ns)| b_ns > 0.0)
        .map(|(&a_ns, &b_ns)| a_ns / b_ns)
        .collect();
    ratios.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let median_ratio = if ratios.is_empty() {
        1.0
    } else if ratios.len() % 2 == 1 {
        ratios[ratios.len() / 2]
    } else {
        (ratios[ratios.len() / 2 - 1] + ratios[ratios.len() / 2]) / 2.0
    };
    PairedStat {
        a: stat_from_samples(name_a, samples_a),
        b: stat_from_samples(name_b, samples_b),
        median_ratio,
    }
}

fn stat_from_samples(name: impl Into<String>, mut samples_ns: Vec<f64>) -> BenchStat {
    samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let iterations = samples_ns.len();
    let min_ns = samples_ns[0];
    let max_ns = samples_ns[iterations - 1];
    let mean_ns = samples_ns.iter().sum::<f64>() / iterations as f64;
    let median_ns = if iterations % 2 == 1 {
        samples_ns[iterations / 2]
    } else {
        (samples_ns[iterations / 2 - 1] + samples_ns[iterations / 2]) / 2.0
    };
    BenchStat {
        name: name.into(),
        iterations,
        min_ns,
        median_ns,
        mean_ns,
        max_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_collects_ordered_statistics() {
        let mut counter = 0u64;
        let stat = measure("spin", 1, 5, || {
            for i in 0..10_000u64 {
                counter = counter.wrapping_add(i);
            }
        });
        assert_eq!(stat.iterations, 5);
        assert!(stat.min_ns > 0.0);
        assert!(stat.min_ns <= stat.median_ns);
        assert!(stat.median_ns <= stat.max_ns);
        assert!(stat.mean_ns >= stat.min_ns && stat.mean_ns <= stat.max_ns);
        assert!(stat.mean_ms() > 0.0);
        assert!(stat.median_ms() > 0.0);
        assert_eq!(stat.name, "spin");
    }

    #[test]
    fn zero_iterations_are_clamped_to_one() {
        let stat = measure("noop", 0, 0, || {});
        assert_eq!(stat.iterations, 1);
    }

    #[test]
    fn paired_measurement_interleaves_and_counts_both_sides() {
        let order = std::cell::RefCell::new(Vec::new());
        let pair = measure_paired(
            "a",
            "b",
            1,
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(pair.a.iterations, 3);
        assert_eq!(pair.b.iterations, 3);
        assert_eq!(pair.a.name, "a");
        assert_eq!(pair.b.name, "b");
        // One warmup round (a b) plus three measured rounds whose in-round
        // order alternates: a b, then b a, then a b.
        assert_eq!(
            order.into_inner(),
            vec!['a', 'b', 'a', 'b', 'b', 'a', 'a', 'b']
        );
        assert!(pair.a.min_ns <= pair.a.median_ns && pair.a.median_ns <= pair.a.max_ns);
        assert!(pair.b.min_ns <= pair.b.median_ns && pair.b.median_ns <= pair.b.max_ns);
        assert!(pair.median_ratio > 0.0);
    }

    #[test]
    fn speedup_compares_means() {
        let fast = BenchStat {
            name: "fast".into(),
            iterations: 1,
            min_ns: 1.0,
            median_ns: 1.0,
            mean_ns: 1.0,
            max_ns: 1.0,
        };
        let slow = BenchStat {
            mean_ns: 2.0,
            name: "slow".into(),
            ..fast.clone()
        };
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.5).abs() < 1e-12);
    }
}
