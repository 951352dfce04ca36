//! Strongly-typed cycle counts.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A number of clock cycles.
///
/// The whole simulation runs in the NPU clock domain (the paper uses a single
/// frequency for processor and memory in both configurations, Table II), so a
/// single cycle type suffices.
///
/// # Examples
///
/// ```
/// use tnpu_sim::Cycles;
/// let a = Cycles(100) + Cycles(20) * 3;
/// assert_eq!(a, Cycles(160));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating subtraction; clamps at zero.
    #[must_use]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two cycle counts (useful for overlap models).
    #[must_use]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// The smaller of two cycle counts.
    #[must_use]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }

    /// This count as an `f64`, for ratio reporting.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

// Cycle accounting saturates rather than wraps: a saturated count is still
// "astronomically slow" in every report, while a wrapped one silently reads
// as fast (and `u64` overflow is unchecked in release builds).
impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).fold(0, u64::saturating_add))
    }
}

impl std::fmt::Display for Cycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut c = Cycles(10);
        c += Cycles(5);
        assert_eq!(c, Cycles(15));
        c -= Cycles(5);
        assert_eq!(c, Cycles(10));
        assert_eq!(c * 3, Cycles(30));
        assert_eq!(Cycles(3).saturating_sub(Cycles(10)), Cycles::ZERO);
        assert_eq!(Cycles(3).max(Cycles(10)), Cycles(10));
        assert_eq!(Cycles(3).min(Cycles(10)), Cycles(3));
    }

    #[test]
    fn sum_iterator() {
        let total: Cycles = (1..=4).map(Cycles).sum();
        assert_eq!(total, Cycles(10));
    }

    #[test]
    fn display() {
        assert_eq!(Cycles(42).to_string(), "42 cyc");
    }
}
