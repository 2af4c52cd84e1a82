//! The headline numbers of the paper's abstract / Sec. 6, recomputed on the
//! reproduction: All-Reduce speedup, average BW utilisation, and end-to-end
//! training speedups per workload.

use super::{fig11, fig12};
use crate::report::{fmt_pct, fmt_speedup, Report, Table};
use themis::{CommunicationPolicy, DataSize, Workload};

/// The recomputed headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Mean Themis+SCF speedup over the baseline for the microbenchmark
    /// All-Reduces (paper: 1.72×).
    pub allreduce_speedup_mean: f64,
    /// Maximum Themis+SCF speedup over the baseline (paper: 2.70×).
    pub allreduce_speedup_max: f64,
    /// Mean BW utilisation per scheduler (Baseline, Themis+FIFO, Themis+SCF)
    /// (paper: 56.31 %, 87.67 %, 95.14 %).
    pub mean_utilization: [f64; 3],
    /// Mean and maximum training-iteration speedups per workload
    /// (paper: 1.49×/2.25×, 1.30×/1.78×, 1.30×/1.77×, 1.25×/1.53×).
    pub training_speedups: Vec<(Workload, f64, f64)>,
}

/// Computes the headline numbers using the given All-Reduce sizes
/// (use [`super::microbenchmark_sizes`] for the paper's full sweep).
pub fn compute_with(sizes: &[DataSize], workloads: &[Workload]) -> Headline {
    // Microbenchmark: reuse the Fig. 8 / Fig. 11 campaigns.
    let fig08_points = super::fig08::run_with(sizes);
    let speedups: Vec<f64> = fig08_points
        .iter()
        .map(super::fig08::Fig08Point::scf_speedup)
        .collect();
    let allreduce_speedup_mean = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let allreduce_speedup_max = speedups.iter().cloned().fold(f64::MIN, f64::max);

    let fig11_points = fig11::run_with(sizes);
    let mean_utilization = fig11::mean_utilization(&fig11_points);

    // Real workloads: reuse the Fig. 12 sweep.
    let cells = fig12::run_with(workloads);
    let training_speedups = workloads
        .iter()
        .map(|&workload| {
            let (avg, max) =
                fig12::speedup_over_baseline(&cells, workload, CommunicationPolicy::ThemisScf);
            (workload, avg, max)
        })
        .collect();

    Headline {
        allreduce_speedup_mean,
        allreduce_speedup_max,
        mean_utilization,
        training_speedups,
    }
}

/// Renders the headline summary with the paper's reference values.
pub fn run() -> Report {
    let headline = compute_with(&super::microbenchmark_sizes(), &Workload::all());
    let mut report = Report::new("Headline results (abstract / Sec. 6)");
    report.push_note(
        "the reproduction runs on a from-scratch simulator, so absolute values differ from the \
         paper; the comparison below checks that the shape (who wins, by roughly what factor) \
         is preserved",
    );

    let mut micro = Table::new(
        "Single All-Reduce microbenchmark",
        &["Metric", "Measured", "Paper"],
    );
    micro.push_row([
        "Themis+SCF speedup over baseline (mean)".to_string(),
        fmt_speedup(headline.allreduce_speedup_mean),
        "1.72x".to_string(),
    ]);
    micro.push_row([
        "Themis+SCF speedup over baseline (max)".to_string(),
        fmt_speedup(headline.allreduce_speedup_max),
        "2.70x".to_string(),
    ]);
    micro.push_row([
        "Baseline mean BW utilisation".to_string(),
        fmt_pct(headline.mean_utilization[0]),
        "56.3%".to_string(),
    ]);
    micro.push_row([
        "Themis+FIFO mean BW utilisation".to_string(),
        fmt_pct(headline.mean_utilization[1]),
        "87.7%".to_string(),
    ]);
    micro.push_row([
        "Themis+SCF mean BW utilisation".to_string(),
        fmt_pct(headline.mean_utilization[2]),
        "95.1%".to_string(),
    ]);
    report.push_table(micro);

    let paper_training = [
        ("ResNet-152", 1.49, 2.25),
        ("GNMT", 1.30, 1.78),
        ("DLRM", 1.30, 1.77),
        ("Transformer-1T", 1.25, 1.53),
    ];
    let mut training = Table::new(
        "End-to-end training iteration speedup (Themis+SCF over baseline)",
        &[
            "Workload",
            "Measured avg",
            "Measured max",
            "Paper avg",
            "Paper max",
        ],
    );
    for (workload, avg, max) in &headline.training_speedups {
        let reference = paper_training
            .iter()
            .find(|(name, _, _)| *name == workload.name())
            .copied()
            .unwrap_or((workload.name(), f64::NAN, f64::NAN));
        training.push_row([
            workload.name().to_string(),
            fmt_speedup(*avg),
            fmt_speedup(*max),
            fmt_speedup(reference.1),
            fmt_speedup(reference.2),
        ]);
    }
    report.push_table(training);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_shape_matches_the_paper() {
        // A reduced sweep keeps the test fast while still spanning the size
        // range and two workloads.
        let headline = compute_with(
            &[DataSize::from_mib(1024.0)],
            &[Workload::ResNet152, Workload::Gnmt],
        );
        assert!(
            headline.allreduce_speedup_mean > 1.3,
            "{}",
            headline.allreduce_speedup_mean
        );
        assert!(headline.allreduce_speedup_max >= headline.allreduce_speedup_mean);
        assert!(headline.mean_utilization[2] > headline.mean_utilization[0] + 0.2);
        for (workload, avg, max) in &headline.training_speedups {
            assert!(*avg > 1.05, "{workload:?} avg {avg}");
            assert!(max >= avg);
        }
    }

    #[test]
    fn headline_numbers_are_pinned() {
        // The full sweep behind the abstract's numbers, pinned to the
        // reproduction's values: a change to the campaign Runner or the
        // training-iteration path that moves a headline fails here.
        let headline = compute_with(&super::super::microbenchmark_sizes(), &Workload::all());
        let near = |measured: f64, pinned: f64, tolerance: f64| {
            assert!(
                (measured - pinned).abs() <= tolerance,
                "measured {measured}, pinned {pinned} ± {tolerance}"
            );
        };
        near(headline.allreduce_speedup_mean, 1.7985, 0.005);
        near(headline.allreduce_speedup_max, 2.7706, 0.005);
        for (measured, pinned) in headline
            .mean_utilization
            .iter()
            .zip([0.5660, 0.8810, 0.9757])
        {
            near(*measured, pinned, 0.001);
        }
        let pinned = [
            (Workload::ResNet152, 1.1297, 1.3317),
            (Workload::Gnmt, 1.0969, 1.2517),
            (Workload::Dlrm, 1.3951, 2.0124),
            (Workload::Transformer1T, 1.1539, 1.3344),
        ];
        assert_eq!(headline.training_speedups.len(), pinned.len());
        for (&(workload, avg, max), (expected, pinned_avg, pinned_max)) in
            headline.training_speedups.iter().zip(pinned)
        {
            assert_eq!(workload, expected);
            near(avg, pinned_avg, 0.005);
            near(max, pinned_max, 0.005);
        }
    }
}
