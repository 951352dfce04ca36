//! Order statistics and regression bounds over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// A tail percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (`100` when there are too few samples for
    /// any percentile to have [`TAIL_SAMPLES_BEYOND`] samples beyond it —
    /// the maximum is reported instead).
    pub percentile: usize,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest whole percentile that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it, by nearest rank: 28 samples
/// give p64, 720 give p98.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return Tail {
            percentile: 100,
            value: v[n - 1],
            samples: n,
        };
    }
    // Nearest rank r = ceil(p * n / 100) leaves n - r samples beyond, so
    // the largest p with n - r >= 10 is floor(100 * (n - 10) / n).
    let percentile = 100 * (n - TAIL_SAMPLES_BEYOND) / n;
    let rank = (percentile * n).div_ceil(100).max(1);
    Tail {
        percentile,
        value: v[rank - 1],
        samples: n,
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better.
    Higher,
}

/// How far a metric may worsen before a change counts as a regression:
/// a share of the old value, but never less than an absolute floor (so a
/// near-zero old value does not make every wobble a regression).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Allowed worsening as a share of the old value.
    pub relative: f64,
    /// Allowed worsening in the metric's own unit, whatever the old value.
    pub absolute: f64,
}

impl Bound {
    /// Whether moving from `old` to `new` worsens the metric by more than
    /// the bound allows.
    #[must_use]
    pub fn regressed(&self, better: Better, old: f64, new: f64) -> bool {
        let worse_by = match better {
            Better::Lower => new - old,
            Better::Higher => old - new,
        };
        worse_by > (self.relative * old.abs()).max(self.absolute)
    }
}

/// The peak resident set (`VmHWM`, in kB) from the text of
/// `/proc/<pid>/status`.
#[must_use]
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let kb = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        let _ = median(&[]);
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let t = tail(&ramp(28));
        assert_eq!((t.percentile, t.samples), (64, 28));
        // Rank ceil(0.64 * 28) = 18: exactly ten samples lie beyond it.
        assert_eq!(t.value, 18.0);
        // Rank ceil(0.98 * 720) = 706 leaves 14 beyond; p99 would leave 7.
        let t = tail(&ramp(720));
        assert_eq!(t.percentile, 98);
        assert_eq!(t.value, 706.0);
        let t = tail(&ramp(11));
        assert_eq!((t.percentile, t.value), (9, 1.0));
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!((t.percentile, t.value, t.samples), (100, 9.0, 3));
        assert_eq!(tail(&ramp(10)).value, 10.0);
    }

    #[test]
    fn relative_bound_with_absolute_floor() {
        let b = Bound {
            relative: 0.10,
            absolute: 0.05,
        };
        // 10% of 2 s is 0.2 s: 2.19 is within, 2.21 is not.
        assert!(!b.regressed(Better::Lower, 2.0, 2.19));
        assert!(b.regressed(Better::Lower, 2.0, 2.21));
        // 10% of 0.1 s is below the 0.05 s floor, which applies instead.
        assert!(!b.regressed(Better::Lower, 0.1, 0.149));
        assert!(b.regressed(Better::Lower, 0.1, 0.151));
        // Improvements never regress; direction flips for higher-better.
        assert!(!b.regressed(Better::Lower, 2.0, 1.0));
        assert!(b.regressed(Better::Higher, 2.0, 1.0));
        assert!(!b.regressed(Better::Higher, 2.0, 3.0));
        // A zero bound is absolute: any worsening counts.
        let exact = Bound {
            relative: 0.0,
            absolute: 0.0,
        };
        assert!(!exact.regressed(Better::Lower, 0.0, 0.0));
        assert!(exact.regressed(Better::Lower, 0.0, 1e-9));
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\ttnpu\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("VmRSS:\t100 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }
}
