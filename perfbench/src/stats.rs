//! Exact statistics over raw samples: percentiles by sort, per-window
//! medians, and the open loop's due-time arithmetic. No histogram buckets,
//! so two readings differ only when the samples differ.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Lower quartile of `values`: the median of the lower half (of everything,
/// for fewer than two values). `None` for an empty slice.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = (v.len() / 2).max(1).min(v.len());
    median(&v[..half])
}

/// One finished request as the generator thread saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time in nanoseconds since the run's start barrier.
    pub done_ns: u64,
    /// Latency in nanoseconds: completion minus first send (closed loop) or
    /// minus due time (open loop).
    pub latency_ns: u64,
    /// True for a commit, false for a `UserAbort` (completed, not committed).
    pub committed: bool,
}

/// What one measurement window saw.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Commits that completed inside the window.
    pub committed: u64,
    /// Exact p50 of the window's latencies in nanoseconds.
    pub p50_ns: u64,
    /// Exact p99 of the window's latencies in nanoseconds.
    pub p99_ns: u64,
    /// Latency samples in the window (commits plus user aborts).
    pub samples: usize,
}

/// Buckets `samples` into `count` consecutive windows of `window_ns`
/// starting at `start_ns` and summarises each. Samples outside
/// `[start_ns, start_ns + count * window_ns)` belong to warm-up or drain and
/// are left out. Windows without samples are omitted.
pub fn windows(samples: &[Sample], start_ns: u64, window_ns: u64, count: usize) -> Vec<Window> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); count];
    let mut committed = vec![0u64; count];
    for s in samples {
        let Some(offset) = s.done_ns.checked_sub(start_ns) else {
            continue;
        };
        let idx = (offset / window_ns) as usize;
        if idx < count {
            buckets[idx].push(s.latency_ns);
            committed[idx] += u64::from(s.committed);
        }
    }
    buckets
        .into_iter()
        .zip(committed)
        .filter(|(lat, _)| !lat.is_empty())
        .map(|(mut lat, committed)| {
            lat.sort_unstable();
            Window {
                committed,
                p50_ns: percentile(&lat, 0.50).expect("window is not empty"),
                p99_ns: percentile(&lat, 0.99).expect("window is not empty"),
                samples: lat.len(),
            }
        })
        .collect()
}

/// Due time of the `i`-th request of one generator thread, in nanoseconds
/// since the start barrier, when `threads` generators share `rate_per_s`
/// requests per second. Computed from `i` each time, so rounding never
/// accumulates into drift.
pub fn due_ns(i: u64, threads: u64, rate_per_s: u64) -> u64 {
    (i as u128 * 1_000_000_000 * threads as u128 / rate_per_s as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // 4 samples: p50 is the 2nd, p99 the 4th.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.50), Some(20));
        assert_eq!(percentile(&[10, 20, 30, 40], 0.99), Some(40));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lower_quartile_is_the_median_of_the_lower_half() {
        let v: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&v), Some(3.5));
        assert_eq!(lower_quartile(&[5.0, 1.0, 9.0]), Some(1.0));
        assert_eq!(lower_quartile(&[4.0]), Some(4.0));
        assert_eq!(lower_quartile(&[]), None);
        // Five quiet windows and seven disturbed ones: still a quiet value.
        let p99 = [3.2, 8.4, 3.1, 24.7, 8.2, 3.2, 3.9, 6.2, 3.3, 9.9, 8.5, 7.1];
        assert_eq!(lower_quartile(&p99), Some(3.25));
    }

    #[test]
    fn windows_bucket_by_completion_and_skip_warmup_and_drain() {
        let s = |done_ns, latency_ns, committed| Sample {
            done_ns,
            latency_ns,
            committed,
        };
        let samples = [
            s(50, 999, true),  // warm-up
            s(100, 10, true),  // window 0
            s(199, 30, false), // window 0, user abort
            s(150, 20, true),  // window 0
            s(200, 5, true),   // window 1
            s(400, 999, true), // drain
        ];
        let w = windows(&samples, 100, 100, 3);
        assert_eq!(
            w,
            vec![
                Window {
                    committed: 2,
                    p50_ns: 20,
                    p99_ns: 30,
                    samples: 3
                },
                Window {
                    committed: 1,
                    p50_ns: 5,
                    p99_ns: 5,
                    samples: 1
                },
            ]
        );
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let rates = [7000.0, 7010.0, 3000.0, 6990.0, 7005.0, 7002.0];
        assert_eq!(median(&rates), Some(7001.0));
    }

    #[test]
    fn due_times_do_not_drift() {
        // 2 threads sharing 2000 req/s: each sends every millisecond.
        assert_eq!(due_ns(0, 2, 2000), 0);
        assert_eq!(due_ns(1, 2, 2000), 1_000_000);
        assert_eq!(due_ns(30_000, 2, 2000), 30_000_000_000);
        // 3 threads sharing 2000 req/s: 1.5 ms apart, exact at every even i
        // and never more than a nanosecond off in between.
        assert_eq!(due_ns(2, 3, 2000), 3_000_000);
        assert_eq!(due_ns(1_000_001, 3, 2000), 1_500_001_500_000);
        // A rate that does not divide a second still lands exactly on whole
        // seconds.
        assert_eq!(due_ns(7 * 3, 1, 7), 3_000_000_000);
    }
}
