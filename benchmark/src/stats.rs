//! Percentiles and peak-RSS sampling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The fewest samples that must lie strictly beyond a reported
/// percentile. Below that, a tail percentile is one or two outliers, not
/// a measurement, so [`percentile`] declines to answer.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample (`q` in
/// `(0, 1]`). `None` when fewer than [`MIN_TAIL`] samples lie beyond the
/// chosen rank — for p90 that means at least 100 samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// The median of a non-empty sample (mean of the middle pair for an even
/// count). Used for repeated set-up timings, where the tail rule of
/// [`percentile`] does not apply.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of a log2-bucketed registry histogram, interpolated
/// linearly by rank inside its bucket (bucket `k` spans
/// `[2^(k-1), 2^k)`), so it is not pinned to a power of two. `0` when
/// the histogram is empty.
pub fn histogram_quantile(h: &backdroid_obs::HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut below = 0u64;
    for (k, &n) in h.buckets.iter().enumerate() {
        if n > 0 && below + n >= rank {
            let lo = if k == 0 {
                0.0
            } else {
                (1u64 << (k - 1)) as f64
            };
            let hi = if k == 0 { 1.0 } else { lo * 2.0 };
            return lo + (hi - lo) * (rank - below) as f64 / n as f64;
        }
        below += n;
    }
    0.0
}

/// Nanosecond latencies to ascending milliseconds.
pub fn sorted_ms(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the allocator's free memory back to the kernel. Between
/// passes and before a measured phase this keeps the RSS of one phase
/// from carrying the high-water mark of whatever ran before it — golden
/// computation, or another pass's store — so peak RSS measures the phase
/// itself.
pub fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` takes a byte count by value, touches
    // only allocator-internal state under the allocator's own locks, and
    // may be called from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// The process's resident set size in bytes, from `/proc/self/statm`.
pub fn current_rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Samples the process RSS every two milliseconds on a background
/// thread and keeps the peak of each whole second between
/// [`RssSampler::start`] and [`RssSampler::stop`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<u64>>,
}

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut peaks: Vec<u64> = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                if let Some(rss) = current_rss_bytes() {
                    let window = started.elapsed().as_secs() as usize;
                    if peaks.len() <= window {
                        peaks.resize(window + 1, 0);
                    }
                    peaks[window] = peaks[window].max(rss);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            peaks
        });
        RssSampler { stop, handle }
    }

    /// Stops sampling and returns the peak RSS of each whole second, in
    /// bytes (the trailing partial second is dropped when there is more
    /// than one).
    pub fn stop(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        let mut peaks = self.handle.join().expect("RSS sampler panicked");
        if peaks.len() > 1 {
            peaks.pop();
        }
        peaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        for n in 0..400usize {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.5, 0.9, 0.99] {
                match percentile(&sorted, q) {
                    Some(v) => {
                        let beyond = sorted.iter().filter(|&&x| x > v).count();
                        assert!(beyond >= MIN_TAIL, "n={n} q={q}: {beyond} beyond");
                    }
                    None => {
                        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
                        assert!(n == 0 || n - rank < MIN_TAIL, "n={n} q={q} refused");
                    }
                }
            }
        }
        // p90 first answers at 100 samples, p50 at 20.
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(89.0));
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        assert_eq!(percentile(&hundred[..20], 0.5), Some(9.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_its_bucket() {
        let mut h = backdroid_obs::HistogramSnapshot::default();
        // Ten samples in [64, 128) and ten in [128, 256).
        h.buckets[7] = 10;
        h.buckets[8] = 10;
        h.count = 20;
        assert_eq!(histogram_quantile(&h, 0.5), 128.0);
        assert_eq!(histogram_quantile(&h, 0.25), 96.0);
        assert_eq!(histogram_quantile(&h, 1.0), 256.0);
        assert_eq!(histogram_quantile(&Default::default(), 0.9), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
