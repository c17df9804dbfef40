//! Order statistics for the reported timings.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that it is a guess about one or two outliers, and the
//! caller treats the missing value as a problem of the run rather than
//! printing a number.

use std::time::Duration;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `q`-quantile by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (so p99 needs 1000 samples, p90
/// needs 100).
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Arithmetic mean (0 for no samples: used for per-layer averages,
/// where "no calls" is a legitimate reading).
pub fn mean_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Successes and failures of the operations a run attempted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts an extra failure against an operation already attempted
    /// (a verification mismatch found after the fact).
    pub fn fail_one(&mut self) {
        self.failed += 1;
    }

    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly 10 samples above it.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        assert_eq!(percentile(&hundred[..99], 0.90), None);
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
    }

    #[test]
    fn geomean_is_not_dominated_by_one_outlier() {
        let g = geomean(&[1.0, 1.0, 1.0, 1000.0]).unwrap();
        assert!((g - 1000f64.powf(0.25)).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.fail_one();
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        t.record(false);
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert!((t.error_rate() - 0.75).abs() < 1e-12);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
