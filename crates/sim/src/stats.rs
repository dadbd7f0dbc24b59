//! Replication statistics: mean, spread, and confidence intervals for the
//! 30-run averages the paper reports.

use serde::{Deserialize, Serialize};

/// Summary of a sample of replicated measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples that contributed.
    pub n: usize,
    /// Sample mean (0 if no samples).
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95% confidence interval.
    pub ci95: f64,
}

impl Summary {
    /// Summarizes a sample, silently skipping NaN values. A NaN here means
    /// an upstream bug (infeasible runs are represented as `None` and go
    /// through [`Summary::of_feasible`]), but one poisoned replication
    /// should degrade a 30-run average, not abort a whole sweep: skipped
    /// values are visible as a shrunken [`Summary::n`] and counted in the
    /// `stats.nan_rejected` counter. Use [`Summary::of_checked`] to treat
    /// NaN as a hard error instead.
    pub fn of(values: &[f64]) -> Summary {
        match Self::of_checked(values) {
            Ok(s) => s,
            #[expect(
                clippy::expect_used,
                reason = "the slice was just filtered with `!is_nan()`, so the checked path cannot fail"
            )]
            Err(nan_count) => {
                nss_obs::counter!("stats.nan_rejected").add(nan_count as u64);
                let filtered: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
                Self::of_checked(&filtered).expect("filtered sample has no NaN")
            }
        }
    }

    /// Summarizes a sample, or returns the number of NaN values found.
    pub fn of_checked(values: &[f64]) -> Result<Summary, usize> {
        let nan_count = values.iter().filter(|v| v.is_nan()).count();
        if nan_count > 0 {
            return Err(nan_count);
        }
        let n = values.len();
        if n == 0 {
            return Ok(Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                ci95: 0.0,
            });
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            let ss: f64 = values.iter().map(|v| (v - mean) * (v - mean)).sum();
            (ss / (n as f64 - 1.0)).sqrt()
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            1.96 * std_dev / (n as f64).sqrt()
        };
        Ok(Summary {
            n,
            mean,
            std_dev,
            ci95,
        })
    }

    /// Summarizes the feasible subset of optional measurements, returning
    /// the summary and the feasible fraction. Mirrors how the paper's
    /// constrained metrics (e.g. latency to 63% reachability) are averaged
    /// only over runs that satisfy the constraint.
    pub fn of_feasible(values: &[Option<f64>]) -> (Summary, f64) {
        let feasible: Vec<f64> = values.iter().copied().flatten().collect();
        let frac = if values.is_empty() {
            0.0
        } else {
            feasible.len() as f64 / values.len() as f64
        };
        (Summary::of(&feasible), frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Bessel-corrected std of this classic sample is ~2.138.
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn degenerate_sizes() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        let s = Summary::of(&[3.5]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn constant_sample_zero_spread() {
        let s = Summary::of(&[2.0; 30]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn feasible_filtering() {
        let vals = [Some(1.0), None, Some(3.0), None];
        let (s, frac) = Summary::of_feasible(&vals);
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((frac - 0.5).abs() < 1e-12);
        let (s, frac) = Summary::of_feasible(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn nan_rejected() {
        // `of` skips NaN values instead of poisoning the mean...
        let s = Summary::of(&[1.0, f64::NAN, 3.0, f64::NAN]);
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        // ...and `of_checked` reports how many there were.
        assert_eq!(Summary::of_checked(&[1.0, f64::NAN, 3.0, f64::NAN]), Err(2));
        assert!(Summary::of_checked(&[1.0, 3.0]).is_ok());
        #[cfg(feature = "obs")]
        {
            let rejected = nss_obs::registry::Registry::global()
                .counter("stats.nan_rejected")
                .get();
            assert!(rejected >= 2, "nan_rejected counter not bumped");
        }
    }
}
