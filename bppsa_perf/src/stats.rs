//! The benchmark's own arithmetic: percentiles, paired ratios, due-time
//! latency and the backlog rule. Pure functions, unit-tested below.

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported percentile. A
/// percentile with fewer samples past it is one or two outliers, not a
/// distribution tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (so `p99` needs at least 1000
/// samples, `p90` at least 100, the median at least 20).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median (no tail rule: the median of a handful of repeated set-up
/// timings is still the robust centre).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median over pairs of `num[i] / den[i]`: two timings taken moments
/// apart on the same input, so that what slows the host at that moment
/// slows both sides of each pair.
pub fn paired_ratio(num: &[f64], den: &[f64]) -> f64 {
    assert_eq!(num.len(), den.len(), "unpaired samples");
    let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
    median(&ratios)
}

/// Open-loop latency of one request, in milliseconds, timed from when it
/// was *due* — not from when the generator got round to sending it — so a
/// stall that delays later sends is charged to the requests it delayed.
/// `None` (refused or failed) misses every limit: it reads as infinite.
pub fn due_latency_ms(due: Instant, done: Option<Instant>) -> f64 {
    match done {
        Some(done) => done.saturating_duration_since(due).as_secs_f64() * 1e3,
        None => f64::INFINITY,
    }
}

/// How late the generator sent a request, in milliseconds.
pub fn lateness_ms(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Whether a rate left a growing backlog. By Little's law a system that
/// keeps up at `rate_rps` with latency under `limit` holds at most
/// `rate × limit` requests in flight, plus one coalesced batch; more than
/// that outstanding when the arrivals stop means the queue was growing.
pub fn backlog_grew(outstanding: usize, rate_rps: f64, limit: Duration, max_batch: usize) -> bool {
    outstanding as f64 > rate_rps * limit.as_secs_f64() + max_batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number of samples [`percentile`] needs before it reports `q`:
    /// the smallest n with n − ⌈q·n⌉ ≥ MIN_BEYOND.
    fn samples_needed(q: f64) -> usize {
        (1..)
            .find(|&n: &usize| n - (q * n as f64).ceil() as usize >= MIN_BEYOND)
            .expect("finite")
    }

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the function must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // 1000 samples 1..=1000: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn infinite_samples_sort_last() {
        let mut s = ramp(1000);
        s[3] = f64::INFINITY;
        assert!(percentile(&s, 0.99).expect("enough").is_finite());
        for v in s.iter_mut().take(11) {
            *v = f64::INFINITY;
        }
        assert_eq!(percentile(&s, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn paired_ratio_is_the_median_of_per_pair_ratios() {
        // A host twice as slow for the last two pairs doubles both sides.
        let num = [2.0, 2.2, 1.8, 4.0, 4.4];
        let den = [1.0, 1.0, 1.0, 2.0, 2.0];
        assert_eq!(paired_ratio(&num, &den), 2.0);
        // Not the ratio of the medians (2.2 / 1.0).
        assert_ne!(paired_ratio(&num, &den), median(&num) / median(&den));
    }

    #[test]
    fn latency_counts_from_due_time_and_refusals_miss_every_limit() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(3);
        let done = sent + Duration::from_millis(2);
        // The 3 ms the generator ran late is charged to the request.
        assert!((due_latency_ms(due, Some(done)) - 5.0).abs() < 1e-9);
        assert!((lateness_ms(due, sent) - 3.0).abs() < 1e-9);
        // Completing "before" the due time (clock granularity) reads 0.
        assert_eq!(due_latency_ms(done, Some(due)), 0.0);
        assert_eq!(due_latency_ms(due, None), f64::INFINITY);
    }

    #[test]
    fn backlog_rule_is_littles_law_plus_one_batch() {
        let limit = Duration::from_millis(20);
        // 500 rps × 20 ms = 10 in flight, + a batch of 8.
        assert!(!backlog_grew(18, 500.0, limit, 8));
        assert!(backlog_grew(19, 500.0, limit, 8));
    }
}
