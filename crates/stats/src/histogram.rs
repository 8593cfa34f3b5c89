//! A concurrent log-bucketed latency histogram.
//!
//! Built for the serving path, which needs tail percentiles
//! (p50/p95/p99/max) from many threads without a lock on the record path.
//! The design is the standard log-linear compromise: values are
//! microseconds, bucket `i` covers `[2^(i-1), 2^i)` µs, and each bucket is
//! one relaxed [`AtomicU64`].
//! Recording is a single `fetch_add` plus a `fetch_max`; reading takes a
//! point-in-time snapshot and reconstructs quantiles from the bucket
//! boundaries.
//!
//! The price of log bucketing is resolution: a reported quantile is the
//! *upper edge* of the bucket the rank falls in, so it can overstate the
//! true latency by at most 2× (one octave). That error model is uniform
//! across PRs, which is what a trajectory scoreboard needs — comparable
//! numbers, not perfect ones. `max` is tracked exactly.

use crate::json::JsonWriter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count: bucket 63 absorbs everything from `2^62` µs up, far
/// beyond any latency this workspace can produce.
const BUCKETS: usize = 64;

/// The bucket a microsecond value lands in: `0` holds zero, bucket `i`
/// holds `[2^(i-1), 2^i)`.
fn bucket_of(micros: u64) -> usize {
    ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The inclusive upper edge of a bucket, the value quantiles report.
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << index
    }
}

/// A lock-free log-bucketed histogram of latencies in microseconds.
///
/// `record` is wait-free (two relaxed atomic ops) and safe from any
/// number of threads; `snapshot` is approximate under concurrent writes
/// (buckets are read one by one), which is fine for stats endpoints and
/// end-of-run reports.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Records one latency.
    pub fn record(&self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one latency given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Recorded samples so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy for quantile reads and rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// A frozen view of a [`LatencyHistogram`]: where quantiles are computed.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    /// Recorded samples.
    pub count: u64,
    /// Sum of all recorded values in microseconds (for the mean).
    pub sum_micros: u64,
    /// The exact largest recorded value in microseconds.
    pub max_micros: u64,
}

impl HistogramSnapshot {
    /// The latency at quantile `q` in `[0, 1]`, in microseconds: the
    /// upper edge of the bucket holding the rank-`⌈q·count⌉` sample
    /// (within 2× of the true value), except the top-most occupied
    /// bucket, which reports the exact tracked maximum. Zero when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The true max never exceeds the bucket edge estimate.
                return bucket_upper(i).min(self.max_micros);
            }
        }
        self.max_micros
    }

    /// Mean latency in microseconds (exact, from the tracked sum).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.checked_div(self.count).unwrap_or(0)
    }

    /// The standard percentile row as a JSON object fragment:
    /// `{"count":…,"p50_us":…,"p95_us":…,"p99_us":…,"max_us":…,"mean_us":…}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("count").uint(self.count);
        w.key("p50_us").uint(self.quantile_micros(0.50));
        w.key("p95_us").uint(self.quantile_micros(0.95));
        w.key("p99_us").uint(self.quantile_micros(0.99));
        w.key("max_us").uint(self.max_micros);
        w.key("mean_us").uint(self.mean_micros());
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_octaves() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value sits at or below its bucket's reported edge.
        for v in [0u64, 1, 2, 3, 7, 100, 4096, 1 << 40] {
            assert!(v <= bucket_upper(bucket_of(v)), "{v}");
        }
    }

    #[test]
    fn quantiles_bound_the_true_values_within_one_octave() {
        let h = LatencyHistogram::new();
        for micros in 1..=1000u64 {
            h.record_micros(micros);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        let p50 = snap.quantile_micros(0.50);
        // True p50 is 500; the estimate is its bucket edge.
        assert!((500..=1000).contains(&p50), "p50={p50}");
        let p99 = snap.quantile_micros(0.99);
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(snap.max_micros, 1000);
        assert_eq!(snap.quantile_micros(1.0), 1000, "top quantile is exact");
        assert_eq!(snap.mean_micros(), 500);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile_micros(0.5), 0);
        assert_eq!(snap.mean_micros(), 0);
        assert_eq!(
            snap.to_json(),
            r#"{"count":0,"p50_us":0,"p95_us":0,"p99_us":0,"max_us":0,"mean_us":0}"#
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_micros(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().max_micros, 3999);
    }
}
