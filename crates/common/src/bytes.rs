//! Byte-size arithmetic for the cost model.
//!
//! The paper's cost model (§3.3) works in **MB**; the engine measures
//! **bytes**. [`ByteSize`] keeps the two from being confused and provides
//! the MB view the cost formulas consume.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// One megabyte, in bytes. The paper's constants are per-MB costs.
pub const MB: u64 = 1_000_000;

/// A non-negative byte count with MB conversion helpers. Growth saturates
/// at `u64::MAX` — a byte scale far beyond the paper's regime must reach
/// the executor's reduce-task limit as a typed error, not overflow on
/// the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from a raw byte count.
    pub fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Construct from megabytes.
    pub fn mb(n: u64) -> Self {
        ByteSize(n * MB)
    }

    /// Raw byte count.
    pub fn as_bytes(self) -> u64 {
        self.0
    }

    /// Fractional megabytes (the unit of the paper's cost constants).
    pub fn as_mb(self) -> f64 {
        self.0 as f64 / MB as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Scale by an integer factor (used by the data-scale knob that maps
    /// laptop-sized runs onto the paper's 100M-tuple regime).
    pub fn scaled(self, factor: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(factor))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        self.scaled(rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MB {
            write!(f, "{:.2} MB", self.as_mb())
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_conversion_roundtrip() {
        assert_eq!(ByteSize::mb(4).as_bytes(), 4_000_000);
        assert!((ByteSize::bytes(2_500_000).as_mb() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::bytes(10) + ByteSize::bytes(5);
        assert_eq!(a, ByteSize::bytes(15));
        assert_eq!(a - ByteSize::bytes(5), ByteSize::bytes(10));
        assert_eq!(a * 2, ByteSize::bytes(30));
        assert_eq!(
            ByteSize::bytes(3).saturating_sub(ByteSize::bytes(5)),
            ByteSize::ZERO
        );
    }

    #[test]
    fn sum_of_iterator() {
        let total: ByteSize = (1..=4).map(ByteSize::bytes).sum();
        assert_eq!(total, ByteSize::bytes(10));
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(ByteSize::bytes(12).to_string(), "12 B");
        assert_eq!(ByteSize::mb(3).to_string(), "3.00 MB");
    }

    #[test]
    fn scaled_multiplies() {
        assert_eq!(ByteSize::bytes(7).scaled(1000), ByteSize::bytes(7000));
    }
}
