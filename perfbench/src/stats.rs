//! Order statistics used by every workload: nearest-rank percentiles,
//! the tail-percentile rule, and medians.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples:
/// `ceil(p·n/100)`, with a guard so that binary rounding of an exact
/// product (99.9% of 10000) does not round up a whole rank.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice;
/// 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest rank of `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// The smallest sample with at least [`TAIL_MIN_BEYOND`] samples
/// beyond the nearest rank of `p` (1000 for p99, 100 for p90).
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= TAIL_MIN_BEYOND)
        .expect("every percentile below 100 has such a sample")
}

/// Sorts a copy ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median by nearest rank; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A latency tail read segment by segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentTail {
    /// Median over segments of each segment's nearest-rank percentile.
    pub value: f64,
    /// Segments the run was split into.
    pub segments: usize,
    /// Samples in each segment (the last one also takes the remainder).
    pub per_segment: usize,
    /// Samples beyond the percentile's rank in a segment of that size.
    pub beyond: usize,
}

/// Percentile `p` of the latencies, read on segments cut by op count
/// in completion order: `k = n / min_samples(p)` segments of `⌊n/k⌋`
/// ops each, so every segment has at least [`TAIL_MIN_BEYOND`] samples
/// beyond its rank whenever the run has that many, however fast any
/// part of it ran. The median over segments ignores bursts of host
/// interference in a minority of them.
pub fn segment_tail(done_s: &[f64], latency: &[f64], p: f64) -> SegmentTail {
    let n = done_s.len();
    let k = (n / min_samples(p)).max(1);
    let size = n / k;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| done_s[a].total_cmp(&done_s[b]));
    let tails: Vec<f64> = (0..k)
        .map(|j| {
            let end = if j + 1 == k { n } else { (j + 1) * size };
            let part: Vec<f64> = order[j * size..end].iter().map(|&i| latency[i]).collect();
            percentile(&sorted(&part), p)
        })
        .collect();
    SegmentTail {
        value: median(&tails),
        segments: k,
        per_segment: size,
        beyond: beyond(size, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_the_tail() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(95.0), 200);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(beyond(5, 50.0), 2);
    }

    /// 3000 ops over 3 s, one per ms, latency 1.
    fn steady() -> (Vec<f64>, Vec<f64>) {
        (
            (0..3000).map(|i| i as f64 / 1000.0).collect(),
            vec![1.0; 3000],
        )
    }

    #[test]
    fn tail_is_the_median_count_segment() {
        let (done, mut lat) = steady();
        // A stall of 100 in the middle second's last 20 ops.
        for l in &mut lat[1980..2000] {
            *l = 100.0;
        }
        let t = segment_tail(&done, &lat, 99.0);
        assert_eq!((t.segments, t.per_segment, t.beyond), (3, 1000, 10));
        // Only one segment saw the stall: the median segment did not.
        assert_eq!(t.value, 1.0);
        // Too few ops for a split: one segment with fewer beyond.
        let t = segment_tail(&done[..40], &lat[..40], 90.0);
        assert_eq!((t.segments, t.per_segment, t.beyond), (1, 40, 4));
    }

    #[test]
    fn a_slow_segment_does_not_change_the_tail_percentile() {
        // 2500 ops; the middle third of the run is twice as slow, so a
        // time split would leave that segment short of 1000 ops. Cut by
        // count, both segments keep 1250 ops and p99 keeps 12 beyond.
        let done: Vec<f64> = (0..2500)
            .map(|i| {
                let i = i as f64;
                if i < 1000.0 {
                    i
                } else if i < 1500.0 {
                    1000.0 + 2.0 * (i - 1000.0)
                } else {
                    2000.0 + (i - 1500.0)
                }
            })
            .collect();
        let lat: Vec<f64> = (0..2500).map(|i| (i % 100) as f64).collect();
        let t = segment_tail(&done, &lat, 99.0);
        assert_eq!((t.segments, t.per_segment, t.beyond), (2, 1250, 12));
        // Completion order, not submission order, cuts the segments.
        let mut rev_done = done.clone();
        rev_done.reverse();
        let mut rev_lat = lat.clone();
        rev_lat.reverse();
        assert_eq!(segment_tail(&rev_done, &rev_lat, 99.0), t);
    }
}
