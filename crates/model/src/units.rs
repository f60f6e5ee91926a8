//! Time, frequency, and bandwidth units used throughout the simulator.
//!
//! The analytic models keep time in integer **picoseconds** ([`Ps`]).
//! One Anton 3 core cycle at 2.8 GHz is rounded to [`PS_PER_CORE_CYCLE`]
//! (357 ps, a 0.04% rounding error — far below the precision at which the
//! paper reports latencies). On-chip latencies are expressed in [`Cycles`]
//! and converted at the boundary.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Core clock frequency of the Anton 3 ASIC, in GHz (Table I).
pub const CORE_CLOCK_GHZ: f64 = 2.8;

/// Picoseconds per core clock cycle at [`CORE_CLOCK_GHZ`], rounded to an
/// integer so simulated time stays exact and deterministic.
pub const PS_PER_CORE_CYCLE: u64 = 357;

/// Per-lane SERDES signalling rate, in Gb/s (Table I, Anton 3 column).
pub const SERDES_GBPS: f64 = 29.0;

/// A duration or point in simulated time, in integer picoseconds.
///
/// `Ps` is the native unit of the analytic models. It is a thin newtype over
/// `u64` with saturating-free arithmetic (overflow would indicate a bug, so
/// plain checked-in-debug arithmetic is used).
///
/// ```
/// use anton_model::units::Ps;
/// let t = Ps::from_ns(55.9);
/// assert_eq!(t.as_ps(), 55_900);
/// assert!((t.as_ns() - 55.9).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Ps(pub u64);

impl Ps {
    /// Zero duration.
    pub const ZERO: Ps = Ps(0);

    /// Creates a duration from integer picoseconds.
    pub const fn new(ps: u64) -> Self {
        Ps(ps)
    }

    /// Creates a duration from (possibly fractional) nanoseconds, rounding
    /// to the nearest picosecond.
    ///
    /// # Panics
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid nanosecond value {ns}");
        Ps((ns * 1000.0).round() as u64)
    }

    /// The raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration expressed in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// This duration expressed in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction, clamping at zero.
    pub fn saturating_sub(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, rhs: Ps) -> Ps {
        Ps(self.0.max(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: Ps) -> Ps {
        Ps(self.0.min(rhs.0))
    }
}

impl fmt::Debug for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl Add for Ps {
    type Output = Ps;
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    fn sub_assign(&mut self, rhs: Ps) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        iter.fold(Ps::ZERO, Add::add)
    }
}

/// A duration in core clock cycles at [`CORE_CLOCK_GHZ`].
///
/// ```
/// use anton_model::units::{Cycles, Ps, PS_PER_CORE_CYCLE};
/// assert_eq!(Cycles(2).to_ps(), Ps::new(2 * PS_PER_CORE_CYCLE));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Converts to picoseconds at the core clock rate.
    pub const fn to_ps(self) -> Ps {
        Ps(self.0 * PS_PER_CORE_CYCLE)
    }

    /// The raw cycle count.
    pub const fn count(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl From<Cycles> for Ps {
    fn from(c: Cycles) -> Ps {
        c.to_ps()
    }
}

/// Computes the time to serialize `bits` over `lanes` lanes running at
/// `gbps` Gb/s per lane, rounded up to a whole picosecond.
///
/// ```
/// use anton_model::units::serialization_time;
/// // A 192-bit flit over one channel slice (8 lanes at 29 Gb/s).
/// let t = serialization_time(192, 8, 29.0);
/// assert!((t.as_ns() - 0.827).abs() < 0.01);
/// ```
pub fn serialization_time(bits: u64, lanes: u32, gbps: f64) -> Ps {
    assert!(lanes > 0, "at least one lane required");
    assert!(gbps > 0.0, "lane rate must be positive");
    let ps = bits as f64 * 1000.0 / (lanes as f64 * gbps);
    Ps(ps.ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_roundtrips_ns() {
        let t = Ps::from_ns(34.2);
        assert_eq!(t.as_ps(), 34_200);
        assert!((t.as_ns() - 34.2).abs() < 1e-12);
    }

    #[test]
    fn ps_arithmetic() {
        let a = Ps::new(100);
        let b = Ps::new(40);
        assert_eq!(a + b, Ps::new(140));
        assert_eq!(a - b, Ps::new(60));
        assert_eq!(a * 3, Ps::new(300));
        assert_eq!(a / 4, Ps::new(25));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn ps_sum() {
        let total: Ps = [Ps::new(1), Ps::new(2), Ps::new(3)].into_iter().sum();
        assert_eq!(total, Ps::new(6));
    }

    #[test]
    fn cycle_conversion_is_exact_at_357ps() {
        assert_eq!(Cycles(5).to_ps(), Ps::new(1785));
        let ps: Ps = Cycles(10).into();
        assert_eq!(ps.as_ps(), 3570);
    }

    #[test]
    fn cycle_time_close_to_2p8_ghz() {
        let exact = 1000.0 / CORE_CLOCK_GHZ;
        let err = (PS_PER_CORE_CYCLE as f64 - exact).abs() / exact;
        assert!(err < 0.001, "rounding error {err} too large");
    }

    #[test]
    fn serialization_time_matches_lane_math() {
        // 384 bits (2 flits) over a full 16-lane neighbor link at 29 Gb/s:
        // 384 / 464e9 s = 827.6 ps.
        let t = serialization_time(384, 16, SERDES_GBPS);
        assert_eq!(t.as_ps(), 828);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn serialization_requires_lanes() {
        let _ = serialization_time(1, 0, 29.0);
    }

    #[test]
    #[should_panic(expected = "invalid nanosecond")]
    fn from_ns_rejects_negative() {
        let _ = Ps::from_ns(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Ps::new(500)), "500ps");
        assert_eq!(format!("{}", Ps::new(55_900)), "55.900ns");
        assert_eq!(format!("{}", Ps::new(2_500_000)), "2.500us");
        assert_eq!(format!("{}", Cycles(3)), "3 cycles");
        assert_eq!(format!("{:?}", Cycles(3)), "3cyc");
        assert_eq!(format!("{:?}", Ps::new(3)), "3ps");
    }
}
