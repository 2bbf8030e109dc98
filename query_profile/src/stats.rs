//! Order statistics for latency samples and self time of trace spans.

use disco_obs::Span;

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the value is set by a handful of outliers and does not repeat.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The percentile `p`, lowered to the highest one the sample supports
/// (the median when even that has too few samples beyond it). Used only
/// where a run is too short for the rule, such as `--smoke`.
pub fn percentile_or_highest(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "no samples");
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let supported = n.saturating_sub(MIN_BEYOND).max(n.div_ceil(2));
    sorted[rank.min(supported) - 1]
}

/// Median of any non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so spreads printed here match the
/// driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// A span's duration minus the part of its interval its children cover
/// (children clipped to the parent, overlaps counted once).
pub fn self_time_us(span: &Span) -> u64 {
    let (lo, hi) = (span.start_us, span.start_us + span.dur_us);
    let mut intervals: Vec<(u64, u64)> = span
        .children
        .iter()
        .map(|c| {
            (
                c.start_us.clamp(lo, hi),
                (c.start_us + c.dur_us).clamp(lo, hi),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_us - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        // p95 of 199 samples has 9 beyond it; of 200 it has 10.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn lowered_percentile_keeps_ten_beyond() {
        assert_eq!(percentile_or_highest(&ramp(200), 0.95), 190.0);
        // 50 samples support at most the 40th value.
        assert_eq!(percentile_or_highest(&ramp(50), 0.95), 40.0);
        // Too few for any tail: the median.
        assert_eq!(percentile_or_highest(&ramp(5), 0.95), 3.0);
        assert_eq!(percentile_or_highest(&ramp(1), 0.95), 1.0);
    }

    #[test]
    fn median_over_segments_ignores_one_bad_segment() {
        assert_eq!(median(&[10.0, 11.0, 500.0, 9.0, 10.5]), 10.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    fn span(start_us: u64, dur_us: u64, children: Vec<Span>) -> Span {
        Span {
            name: "s".into(),
            start_us,
            dur_us,
            events: vec![],
            children,
        }
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        let leaf = |s, d| span(s, d, vec![]);
        assert_eq!(self_time_us(&leaf(0, 100)), 100);
        // Disjoint children.
        assert_eq!(
            self_time_us(&span(0, 100, vec![leaf(10, 20), leaf(50, 30)])),
            50
        );
        // Overlapping children count their union; one overruns the parent.
        assert_eq!(
            self_time_us(&span(
                0,
                100,
                vec![leaf(10, 40), leaf(30, 40), leaf(90, 50)]
            )),
            30
        );
        // A child covering everything leaves nothing.
        assert_eq!(self_time_us(&span(5, 10, vec![leaf(0, 100)])), 0);
    }
}
