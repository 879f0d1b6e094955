//! Estimators: percentiles of one segment's samples, and the median and
//! quartiles over segments (or over runs) that every wall-clock figure is
//! reported as.

/// SplitMix64. The benchmark's only randomness; the same seed yields the
/// same op script on every host.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spreads printed here are the ones the
/// driver computes. Fewer than two values have no spread: all three
/// quartiles are the value itself (0 for none).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// `(max - min) / median` (0 when the median is 0 or there are no values).
pub fn range_share(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // First outputs of the published SplitMix64 for seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn percentiles_by_hand() {
        let s: Vec<u32> = (1..=10).map(|x| x * 10).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.9), 90.0);
        assert_eq!(percentile_sorted(&s, 0.99), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 10.0);
        assert_eq!(percentile_sorted(&[7], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 50, 20, 40, 30], n=4) -> [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 50.0, 20.0, 40.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        // statistics.quantiles([1, 3], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
    }

    #[test]
    fn medians_and_spreads_by_hand() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // quartiles 15 and 45 around a median of 30
        assert_eq!(iqr_share(&[10.0, 50.0, 20.0, 40.0, 30.0]), 1.0);
        assert_eq!(range_share(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }
}
