//! Bandwidth and data-size units.
//!
//! The paper reports link bandwidths in Gbps (uni-directional) and collective
//! sizes in MB/GB. The simulator internally works in bytes and nanoseconds, so
//! these newtypes centralise the conversions and keep the unit discipline
//! explicit in function signatures.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A uni-directional bandwidth value.
///
/// Stored internally in Gbps, exactly as reported by Table 2 of the paper.
///
/// ```
/// use themis_net::Bandwidth;
/// let bw = Bandwidth::from_gbps(800.0);
/// assert_eq!(bw.as_gbps(), 800.0);
/// assert_eq!(bw.as_bytes_per_ns(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth {
    gbps: f64,
}

impl Bandwidth {
    /// A zero bandwidth value (useful as a fold/`Sum` identity).
    pub const ZERO: Bandwidth = Bandwidth { gbps: 0.0 };

    /// Creates a bandwidth from a Gbps (gigabits per second) value.
    pub fn from_gbps(gbps: f64) -> Self {
        Bandwidth { gbps }
    }

    /// Creates a bandwidth from a GB/s (gigabytes per second) value.
    pub fn from_gigabytes_per_sec(gbs: f64) -> Self {
        Bandwidth { gbps: gbs * 8.0 }
    }

    /// Returns the bandwidth in Gbps.
    pub fn as_gbps(&self) -> f64 {
        self.gbps
    }

    /// Returns the bandwidth in GB/s.
    pub fn as_gigabytes_per_sec(&self) -> f64 {
        self.gbps / 8.0
    }

    /// Returns the bandwidth in bytes per nanosecond.
    ///
    /// `x` Gbps = `x / 8` GB/s = `x / 8` bytes/ns (1 GB/s == 1 byte/ns).
    pub fn as_bytes_per_ns(&self) -> f64 {
        self.gbps / 8.0
    }

    /// Returns `true` if the value is finite and strictly positive.
    pub fn is_valid(&self) -> bool {
        self.gbps.is_finite() && self.gbps > 0.0
    }

    /// Time in nanoseconds needed to transfer `size` at this bandwidth.
    ///
    /// Returns `f64::INFINITY` when the bandwidth is zero.
    pub fn transfer_time_ns(&self, size: DataSize) -> f64 {
        if self.gbps <= 0.0 {
            return f64::INFINITY;
        }
        size.as_bytes_f64() / self.as_bytes_per_ns()
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Gbps", self.gbps)
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth {
            gbps: self.gbps + rhs.gbps,
        }
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.gbps += rhs.gbps;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth {
            gbps: self.gbps - rhs.gbps,
        }
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth {
            gbps: self.gbps * rhs,
        }
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth {
            gbps: self.gbps / rhs,
        }
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |acc, b| acc + b)
    }
}

/// A data size, stored in bytes.
///
/// ```
/// use themis_net::DataSize;
/// let size = DataSize::from_mib(256.0);
/// assert_eq!(size.as_bytes(), 256 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataSize {
    bytes: u64,
}

impl DataSize {
    /// A zero-byte data size.
    pub const ZERO: DataSize = DataSize { bytes: 0 };

    /// Creates a data size from a raw byte count.
    pub fn from_bytes(bytes: u64) -> Self {
        DataSize { bytes }
    }

    /// Creates a data size from kibibytes.
    pub fn from_kib(kib: f64) -> Self {
        DataSize {
            bytes: (kib * 1024.0).round() as u64,
        }
    }

    /// Creates a data size from mebibytes.
    pub fn from_mib(mib: f64) -> Self {
        DataSize {
            bytes: (mib * 1024.0 * 1024.0).round() as u64,
        }
    }

    /// Creates a data size from gibibytes.
    pub fn from_gib(gib: f64) -> Self {
        DataSize {
            bytes: (gib * 1024.0 * 1024.0 * 1024.0).round() as u64,
        }
    }

    /// Returns the size in bytes.
    pub fn as_bytes(&self) -> u64 {
        self.bytes
    }

    /// Returns the size in bytes as `f64` (convenient for cost models).
    pub fn as_bytes_f64(&self) -> f64 {
        self.bytes as f64
    }

    /// Returns the size in mebibytes.
    pub fn as_mib(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }

    /// Returns the size in gibibytes.
    pub fn as_gib(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Returns `true` when the size is zero bytes.
    pub fn is_zero(&self) -> bool {
        self.bytes == 0
    }

    /// Saturating addition of two sizes.
    pub fn saturating_add(self, other: DataSize) -> DataSize {
        DataSize {
            bytes: self.bytes.saturating_add(other.bytes),
        }
    }

    /// Scales the size by a floating-point factor, rounding to the nearest byte.
    pub fn scaled(self, factor: f64) -> DataSize {
        DataSize {
            bytes: (self.bytes as f64 * factor).round().max(0.0) as u64,
        }
    }

    /// Splits the size into `parts` (nearly) equal chunks.
    ///
    /// The first `bytes % parts` chunks receive one extra byte so the chunk
    /// sizes always sum back to the original size.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn split_even(self, parts: usize) -> Vec<DataSize> {
        assert!(parts > 0, "cannot split a data size into zero parts");
        let parts_u64 = parts as u64;
        let base = self.bytes / parts_u64;
        let remainder = self.bytes % parts_u64;
        (0..parts_u64)
            .map(|i| DataSize::from_bytes(base + u64::from(i < remainder)))
            .collect()
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bytes >= 1024 * 1024 * 1024 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if self.bytes >= 1024 * 1024 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if self.bytes >= 1024 {
            write!(f, "{:.2} KiB", self.bytes as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.bytes)
        }
    }
}

impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize {
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for DataSize {
    fn add_assign(&mut self, rhs: DataSize) {
        self.bytes += rhs.bytes;
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> DataSize {
        iter.fold(DataSize::ZERO, |acc, s| acc + s)
    }
}

impl From<u64> for DataSize {
    fn from(bytes: u64) -> Self {
        DataSize::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_to_bytes_per_ns() {
        assert_eq!(Bandwidth::from_gbps(8.0).as_bytes_per_ns(), 1.0);
        assert_eq!(Bandwidth::from_gbps(800.0).as_bytes_per_ns(), 100.0);
        assert_eq!(Bandwidth::from_gbps(1200.0).as_gigabytes_per_sec(), 150.0);
    }

    #[test]
    fn gigabytes_per_sec_roundtrip() {
        let bw = Bandwidth::from_gigabytes_per_sec(25.0);
        assert_eq!(bw.as_gbps(), 200.0);
        assert_eq!(bw.as_gigabytes_per_sec(), 25.0);
    }

    #[test]
    fn bandwidth_arithmetic() {
        let a = Bandwidth::from_gbps(100.0);
        let b = Bandwidth::from_gbps(300.0);
        assert_eq!((a + b).as_gbps(), 400.0);
        assert_eq!((b - a).as_gbps(), 200.0);
        assert_eq!((a * 2.0).as_gbps(), 200.0);
        assert_eq!((b / 3.0).as_gbps(), 100.0);
        let sum: Bandwidth = [a, b, a].into_iter().sum();
        assert_eq!(sum.as_gbps(), 500.0);
    }

    #[test]
    fn bandwidth_validity() {
        assert!(Bandwidth::from_gbps(1.0).is_valid());
        assert!(!Bandwidth::from_gbps(0.0).is_valid());
        assert!(!Bandwidth::from_gbps(-3.0).is_valid());
        assert!(!Bandwidth::from_gbps(f64::NAN).is_valid());
        assert!(!Bandwidth::from_gbps(f64::INFINITY).is_valid());
    }

    #[test]
    fn transfer_time() {
        // 100 bytes at 8 Gbps (= 1 byte/ns) takes 100 ns.
        let bw = Bandwidth::from_gbps(8.0);
        assert_eq!(bw.transfer_time_ns(DataSize::from_bytes(100)), 100.0);
        assert_eq!(
            Bandwidth::ZERO.transfer_time_ns(DataSize::from_bytes(1)),
            f64::INFINITY
        );
    }

    #[test]
    fn data_size_conversions() {
        assert_eq!(DataSize::from_kib(1.0).as_bytes(), 1024);
        assert_eq!(DataSize::from_mib(64.0).as_bytes(), 64 * 1024 * 1024);
        assert_eq!(DataSize::from_gib(1.0).as_bytes(), 1 << 30);
        assert_eq!(DataSize::from_gib(1.0).as_mib(), 1024.0);
        assert!(DataSize::ZERO.is_zero());
    }

    #[test]
    fn data_size_split_even_sums_to_total() {
        let total = DataSize::from_bytes(1001);
        let parts = total.split_even(4);
        assert_eq!(parts.len(), 4);
        let sum: DataSize = parts.iter().copied().sum();
        assert_eq!(sum, total);
        // No chunk deviates from any other by more than one byte.
        let max = parts.iter().map(|p| p.as_bytes()).max().unwrap();
        let min = parts.iter().map(|p| p.as_bytes()).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn data_size_split_zero_panics() {
        DataSize::from_bytes(10).split_even(0);
    }

    #[test]
    fn data_size_scaled() {
        let size = DataSize::from_bytes(1000);
        assert_eq!(size.scaled(0.5).as_bytes(), 500);
        assert_eq!(size.scaled(2.0).as_bytes(), 2000);
        assert_eq!(size.scaled(0.0).as_bytes(), 0);
    }

    #[test]
    fn data_size_display() {
        assert_eq!(DataSize::from_bytes(17).to_string(), "17 B");
        assert_eq!(DataSize::from_kib(2.0).to_string(), "2.00 KiB");
        assert_eq!(DataSize::from_mib(256.0).to_string(), "256.00 MiB");
        assert_eq!(DataSize::from_gib(1.0).to_string(), "1.00 GiB");
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::from_gbps(200.0).to_string(), "200 Gbps");
    }
}
