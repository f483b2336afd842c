//! Order statistics for wall-clock samples.
//!
//! Every timing the benchmark prints is a median or a tail percentile of
//! repeated samples, always reported with its sample count. A tail
//! percentile is only trustworthy when at least [`MIN_TAIL`] samples lie
//! beyond it; [`reportable_percentile`] picks the highest one that does.

/// Samples that must lie above a tail percentile before it is reported
/// as meaningful.
pub const MIN_TAIL: usize = 10;

/// Percentiles the report considers, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile with the same definition as
/// Python's `statistics.quantiles(samples, n=4)` (the "exclusive"
/// method), so figures computed here and by external scripts agree.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Smallest sample; 0 when empty.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Host time of an operation repeated identically several times, each
/// repetition cut into the same sequence of segments: the sum over
/// segments of the fastest time any repetition took for that segment.
/// The host's CPU speed switches between states lasting seconds, so one
/// long operation mixes fast and slow stretches; this keeps the fast
/// ones. `None` when there are no repetitions or their segment counts
/// differ.
pub fn fastest_path(runs: &[Vec<f64>]) -> Option<f64> {
    let len = runs.first()?.len();
    if runs.iter().any(|r| r.len() != len) {
        return None;
    }
    Some(
        (0..len)
            .map(|i| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// Nearest-rank percentile `p` (0–100); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples (the
/// epsilon keeps e.g. 99.9% of 1000 at rank 999 despite rounding).
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn samples_above(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`] that has at least [`MIN_TAIL`]
/// samples above it, or `None` when even the median has fewer.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && samples_above(n, p) >= MIN_TAIL)
}

/// `"(n=…)"` annotation, flagging a tail percentile with too few samples
/// above it to be trusted.
pub fn annotate(n: usize, p: Option<f64>) -> String {
    match p {
        Some(p) if p > 50.0 && samples_above(n, p) < MIN_TAIL => format!(
            "(n={n}; only {} above p{p}, highest reportable: {})",
            samples_above(n, p),
            reportable_percentile(n).map_or("none".to_string(), |q| format!("p{q}"))
        ),
        _ => format!("(n={n})"),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Log-linear histogram of nanosecond durations: 16 linear sub-buckets per
/// power of two, so a quantile read back is within 1/16 of the truth.
/// Fixed size, so a run of millions of ticks costs one add per tick and
/// no per-tick allocation.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB: u32 = 16;
const SUB_BITS: u32 = 4;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 * SUB) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < u64::from(SUB) {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & u64::from(SUB - 1);
        ((exp - SUB_BITS + 1) * SUB + sub as u32) as usize
    }

    /// Midpoint of bucket `idx`.
    fn value(idx: usize) -> f64 {
        let idx = idx as u32;
        if idx < SUB {
            return f64::from(idx);
        }
        let exp = idx / SUB + SUB_BITS - 1;
        let sub = u64::from(idx % SUB);
        let width = 1u64 << (exp - SUB_BITS);
        ((1u64 << exp) + sub * width) as f64 + width as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `p` (0–100) in nanoseconds; 0 when empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = rank(self.total as usize, p) as u64;
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(idx);
            }
        }
        Self::value(self.counts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(d, n=4)`.
        let cases: [(&[f64], [f64; 3]); 5] = [
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
            (&[2.5, 1.0], [0.625, 1.75, 2.875]),
            (
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[10.0, 20.0, 30.0], [10.0, 20.0, 30.0]),
        ];
        for (data, want) in cases {
            let got = quartiles(data).expect("two or more samples");
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{data:?}: {got:?} != {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn min_and_fastest_path() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), 0.0);
        let runs = vec![vec![1.0, 5.0, 2.0], vec![2.0, 3.0, 2.5]];
        assert_eq!(fastest_path(&runs), Some(1.0 + 3.0 + 2.0));
        assert_eq!(fastest_path(&runs[..1]), Some(8.0));
        assert_eq!(fastest_path(&[]), None);
        assert_eq!(fastest_path(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_above() {
        assert_eq!(samples_above(200, 95.0), 10);
        assert_eq!(samples_above(199, 95.0), 9);
        assert_eq!(reportable_percentile(200), Some(95.0));
        assert_eq!(reportable_percentile(199), Some(90.0));
        assert_eq!(reportable_percentile(1000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(0), None);
    }

    #[test]
    fn annotations_print_the_sample_count() {
        assert_eq!(annotate(200, Some(95.0)), "(n=200)");
        assert_eq!(annotate(7, Some(50.0)), "(n=7)");
        assert_eq!(
            annotate(100, Some(95.0)),
            "(n=100; only 5 above p95, highest reportable: p90)"
        );
        assert_eq!(
            annotate(12, Some(95.0)),
            "(n=12; only 0 above p95, highest reportable: none)"
        );
    }

    #[test]
    fn histogram_quantiles_are_within_one_sixteenth() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 100_000);
        for p in [50.0, 95.0, 99.0] {
            let exact = p / 100.0 * 100_000.0;
            let got = h.percentile_ns(p);
            assert!(
                (got - exact).abs() <= exact / 16.0,
                "p{p}: {got} vs {exact}"
            );
        }
        // small values are exact
        let mut small = Histogram::default();
        for ns in [3, 3, 7] {
            small.record(ns);
        }
        assert_eq!(small.percentile_ns(50.0), 3.0);
        assert_eq!(small.percentile_ns(100.0), 7.0);
        assert_eq!(Histogram::default().percentile_ns(50.0), 0.0);
    }
}
