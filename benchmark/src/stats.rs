//! The benchmark's arithmetic: percentiles, histogram percentiles,
//! self time and failure ratios. Kept free of I/O so the unit tests at
//! the bottom pin every formula the reported numbers rest on.

use crate::host::Stall;
use lantern_obs::{HistogramSnapshot, BOUNDS};

/// The `q`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between the two nearest ranks (the "type 7" rule of R and NumPy).
/// Sorts a copy; returns 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over an already ascending slice.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Which requests were in flight, from due to done (ns), while the
/// host stalled a CPU. `stalls` is sorted by start; a request that only
/// touches a stall's edge is not disturbed.
pub fn disturbed(requests: &[(u64, u64)], stalls: &[Stall]) -> Vec<bool> {
    requests
        .iter()
        .map(|&(due, done)| {
            stalls
                .iter()
                .take_while(|s| s.from_ns < done)
                .any(|s| s.until_ns > due)
        })
        .collect()
}

/// The `q`-quantile of a server histogram in nanoseconds, interpolated
/// linearly inside the bucket that holds the rank. The program's own
/// `HistogramSnapshot::percentile` answers with the bucket's upper
/// bound, which moves in √2 steps; interpolation makes the answer move
/// with the data instead.
pub fn hist_percentile(hist: &HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = hist.buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    for (i, &n) in hist.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= rank {
            let lower = if i == 0 { 0 } else { BOUNDS[i - 1] } as f64;
            // The last bucket is a catch-all; treat it as one more √2 step.
            let upper = if i + 1 == BOUNDS.len() {
                lower * std::f64::consts::SQRT_2
            } else {
                BOUNDS[i] as f64
            };
            let within = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
            return lower + (upper - lower) * within;
        }
        seen += n;
    }
    BOUNDS[BOUNDS.len() - 2] as f64
}

/// Self time of a span: its duration minus the time its child spans
/// cover, never below zero.
pub fn self_time(duration_ns: u64, children_ns: &[u64]) -> u64 {
    duration_ns.saturating_sub(children_ns.iter().sum())
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_of_a_uniform_ramp() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((percentile(&v, 0.5) - 500.5).abs() < 1e-9);
        assert!((percentile(&v, 0.99) - 990.01).abs() < 1e-9);
    }

    /// Deterministic pseudo-random order of `0..n` (an LCG walk).
    fn shuffled(n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.swap(i, (state >> 33) as usize % (i + 1));
        }
        v
    }

    fn stall(from_ns: u64, until_ns: u64) -> Stall {
        Stall { from_ns, until_ns }
    }

    #[test]
    fn disturbed_marks_requests_in_flight_during_a_stall() {
        let requests = [(0, 10), (10, 20), (15, 40), (50, 60), (70, 80)];
        let stalls = [stall(20, 30), stall(55, 58)];
        assert_eq!(
            disturbed(&requests, &stalls),
            [false, false, true, true, false]
        );
        assert_eq!(disturbed(&requests, &[]), [false; 5]);
    }

    #[test]
    fn p99_sees_periodic_server_bursts_but_not_host_stalls() {
        // 69 000 independent latencies, 1 µs apart: the p99 is ~68 310.
        let clean = shuffled(69_000);
        let spans: Vec<(u64, u64)> = (0..clean.len() as u64).map(|i| (i, i + 1)).collect();
        let p99 = |values: &[f64], stalls: &[Stall]| {
            let kept: Vec<f64> = values
                .iter()
                .zip(disturbed(&spans, stalls))
                .filter(|(_, d)| !d)
                .map(|(v, _)| *v)
                .collect();
            percentile(&kept, 0.99)
        };
        assert!((p99(&clean, &[]) - 68_310.0).abs() < 1.0);
        // A slow stretch of the server every 3000 requests (a lock held
        // across a catalog write, say), 70 requests long: it reaches 46
        // of the 1000 69-request windows, far from the half a median of
        // window maxima would need, yet it is 2.3% of the requests, so
        // the p99 must report it.
        let mut bursty = clean.clone();
        for start in (0..bursty.len()).step_by(3000) {
            bursty[start..start + 70].iter_mut().for_each(|x| *x = 1e9);
        }
        assert_eq!(p99(&bursty, &[]), 1e9);
        // The same slowness inside host stalls the probes saw is left out.
        let stalls: Vec<Stall> = (0..bursty.len() as u64)
            .step_by(3000)
            .map(|start| stall(start, start + 70))
            .collect();
        assert!((p99(&bursty, &stalls) - 68_310.0).abs() < 200.0);
    }

    #[test]
    fn hist_percentile_interpolates_inside_a_bucket() {
        let mut hist = HistogramSnapshot::default();
        // Bucket 10 spans (BOUNDS[9], BOUNDS[10]] = (5792, 8192] ns.
        hist.buckets[10] = 100;
        hist.count = 100;
        let p50 = hist_percentile(&hist, 0.5);
        let expect = BOUNDS[9] as f64 + (BOUNDS[10] - BOUNDS[9]) as f64 * 0.5;
        assert!((p50 - expect).abs() < 1e-9, "{p50} vs {expect}");
        // The rank falls into the second of two buckets.
        hist.buckets[12] = 100;
        hist.count = 200;
        let p75 = hist_percentile(&hist, 0.75);
        let expect = BOUNDS[11] as f64 + (BOUNDS[12] - BOUNDS[11]) as f64 * 0.5;
        assert!((p75 - expect).abs() < 1e-9);
        assert_eq!(hist_percentile(&HistogramSnapshot::default(), 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_saturates() {
        assert_eq!(self_time(100, &[30, 20]), 50);
        assert_eq!(self_time(100, &[]), 100);
        assert_eq!(self_time(10, &[30]), 0);
    }

    #[test]
    fn fail_ratio_counts_against_attempts() {
        assert_eq!(fail_ratio(0, 100), 0.0);
        assert_eq!(fail_ratio(5, 100), 0.05);
        assert_eq!(fail_ratio(3, 0), 0.0);
    }
}
