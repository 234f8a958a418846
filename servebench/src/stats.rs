//! Percentiles, repeat summaries and the host fingerprint.

use lt_runtime::loadgen::percentile;

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A latency percentile together with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pct {
    /// The percentile used (50, 90 or 99).
    pub pct: u32,
    /// Samples it was taken over.
    pub samples: usize,
    /// The nearest-rank value.
    pub value: u64,
}

/// Nearest-rank median of `samples`.
pub fn p50(samples: &[u64]) -> Pct {
    Pct {
        pct: 50,
        samples: samples.len(),
        value: percentile(samples, 50.0),
    }
}

/// The highest of p99 and p90 that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; p90 when neither does.
pub fn tail(samples: &[u64]) -> Pct {
    let n = samples.len();
    let pct = [99u32, 90]
        .into_iter()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= TAIL_MIN_BEYOND)
        .unwrap_or(90);
    Pct {
        pct,
        samples: n,
        value: percentile(samples, pct as f64),
    }
}

/// Min, median and p90 of repeated host measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Number of samples.
    pub n: usize,
}

impl Spread {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let rank = (9 * n).div_ceil(10).clamp(1, n);
        Spread {
            min: sorted[0],
            median,
            p90: sorted[rank - 1],
            n,
        }
    }
}

/// What a host number depends on: cores, SIMD features and compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Detected x86 SIMD features among avx2, avx512f and fma.
    pub simd: Vec<&'static str>,
    /// `rustc -V` of the compiler that built this binary.
    pub rustc: &'static str,
}

impl Fingerprint {
    /// The fingerprint of this host and build.
    pub fn current() -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: simd_features(),
            rustc: env!("SERVEBENCH_RUSTC"),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    if is_x86_feature_detected!("avx2") {
        found.push("avx2");
    }
    if is_x86_feature_detected!("avx512f") {
        found.push("avx512f");
    }
    if is_x86_feature_detected!("fma") {
        found.push("fma");
    }
    found
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> Vec<&'static str> {
    Vec::new()
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&small).pct, 90);
        let large: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&large).pct, 99);
        assert_eq!(tail(&large).value, 990);
    }

    #[test]
    fn spread_reports_min_median_and_p90() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.min, s.median, s.p90, s.n), (1.0, 3.0, 5.0, 5));
        assert_eq!(Spread::of(&[1.0, 2.0]).median, 1.5);
    }
}
