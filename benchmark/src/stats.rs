//! Sample statistics, the seeded generator and the result digest.

use themis::prelude::*;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly between
/// the two nearest ranks. Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The quantile of a run's in-process timings that estimates the
/// unperturbed time. Co-tenants of a shared machine slow memory-bound code
/// by up to ~1.6x in phases lasting seconds, so one run's samples are
/// bimodal and their median lands on either mode from run to run: over
/// eight 12 s `campaign` runs the quartile spread of the cold-run median
/// was 41 %, that of its 5th percentile 6 %.
pub const UNPERTURBED: f64 = 0.05;

/// The unperturbed estimate of `samples` (see [`UNPERTURBED`]).
pub fn unperturbed(samples: &[f64]) -> f64 {
    quantile(samples, UNPERTURBED)
}

/// SplitMix64: a small, seedable generator. The same seed always yields the
/// same sequence, which is all the workload generators need.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// FNV-1a over the simulated statistics of a set of results. The digest
/// covers numbers, not their JSON rendering, so it moves only when a
/// simulated value does.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    fn count(&mut self, value: usize) {
        self.bytes(&(value as u64).to_le_bytes());
    }

    fn sim(&mut self, report: &SimReport) {
        self.num(report.total_time_ns);
        self.num(report.activity_window_ns);
        for dim in &report.dims {
            self.num(dim.bandwidth_bytes_per_ns);
            self.num(dim.busy_ns);
            self.num(dim.wire_bytes);
            self.count(dim.ops_executed);
            for &(start, end) in &dim.presence_intervals {
                self.num(start);
                self.num(end);
            }
        }
        self.count(report.op_log.len());
    }

    pub fn campaign(&mut self, report: &CampaignReport) {
        for result in report.results() {
            self.bytes(result.config.topology.as_bytes());
            self.bytes(result.config.scheduler.label().as_bytes());
            self.num(result.config.size.as_bytes_f64());
            self.count(result.config.chunks);
            self.sim(&result.report);
        }
    }

    pub fn stream(&mut self, report: &StreamCampaignReport) {
        for result in report.results() {
            self.bytes(result.config.topology.as_bytes());
            self.bytes(result.config.scheduler.label().as_bytes());
            self.bytes(result.config.stream.as_bytes());
            self.num(result.report.finish_ns);
            self.num(result.report.network_busy_ns);
            self.num(result.report.overlap_ns);
            for span in &result.report.spans {
                self.num(span.issue_ns);
                self.num(span.start_ns);
                self.num(span.finish_ns);
                self.num(span.active_ns);
                self.num(span.overlapped_ns);
                self.sim(&span.report);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of a campaign report's simulated statistics.
pub fn campaign_digest(report: &CampaignReport) -> String {
    let mut digest = Digest::default();
    digest.campaign(report);
    digest.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_generator_repeats_per_seed() {
        let a: Vec<u64> = {
            let mut rng = Rng::new(7);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        let mut rng = Rng::new(7);
        assert!(a.iter().all(|&x| x == rng.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
