//! Summary statistics over per-item latency samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of an ascending-sorted, non-empty
/// sample set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail latency: the percentile reported, its value, and how many samples
/// lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest of p90, p99, p99.9, … that leaves at least
/// [`TAIL_MIN_BEYOND`] of the sorted samples above it; `None` when there are
/// too few samples for even p90.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let mut best = None;
    // `share` = 1 / (fraction of samples beyond the percentile): 10 for p90.
    let mut share = 10usize;
    while n / share >= TAIL_MIN_BEYOND {
        let rank = n - n / share;
        best = Some(Tail {
            percentile: 100.0 - 100.0 / share as f64,
            value: sorted[rank - 1],
            beyond: n - rank,
        });
        share *= 10;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn hundred_samples_give_p90() {
        let t = tail(&ramp(100)).expect("100 samples support p90");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn thousand_samples_give_p99() {
        let t = tail(&ramp(1000)).expect("1000 samples support p99");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn between_decades_keeps_the_lower_percentile() {
        let t = tail(&ramp(999)).expect("999 samples support p90");
        assert_eq!(t.percentile, 90.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 50.0), 3.0);
    }
}
