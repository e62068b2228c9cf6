//! Physical-unit newtypes.
//!
//! Energy, power, and time are easy to confuse when everything is `f64`;
//! these newtypes make the dimensional algebra explicit:
//! `Power * Time = Energy`, `Energy / Time = Power`.
//!
//! Internal representations: energy in picojoules, power in milliwatts,
//! time in nanoseconds — chosen so cache-scale quantities stay near 1.0.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An amount of energy (internally picojoules).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// From nanojoules.
    pub const fn from_nj(nj: f64) -> Self {
        Energy(nj * 1e3)
    }

    /// In picojoules.
    pub fn pj(&self) -> f64 {
        self.0
    }

    /// In nanojoules.
    pub fn nj(&self) -> f64 {
        self.0 * 1e-3
    }

    /// In joules.
    pub fn joules(&self) -> f64 {
        self.0 * 1e-12
    }

    /// Scales by a dimensionless factor.
    pub fn scaled(&self, k: f64) -> Energy {
        Energy(self.0 * k)
    }

    /// Ratio to another energy.
    ///
    /// Returns `f64::NAN` if `other` is zero.
    pub fn ratio_to(&self, other: Energy) -> f64 {
        self.0 / other.0
    }
}

/// A power (internally milliwatts).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// From milliwatts.
    pub fn from_mw(mw: f64) -> Self {
        Power(mw)
    }

    /// In milliwatts.
    pub fn mw(&self) -> f64 {
        self.0
    }

    /// Scales by a dimensionless factor.
    pub fn scaled(&self, k: f64) -> Power {
        Power(self.0 * k)
    }
}

/// A duration (internally nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Time(f64);

impl Time {
    /// Zero time.
    pub const ZERO: Time = Time(0.0);

    /// From nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        Time(ns)
    }

    /// From microseconds.
    pub fn from_us(us: f64) -> Self {
        Time(us * 1e3)
    }

    /// From milliseconds.
    pub fn from_ms(ms: f64) -> Self {
        Time(ms * 1e6)
    }

    /// From seconds.
    pub fn from_secs(s: f64) -> Self {
        Time(s * 1e9)
    }

    /// From a cycle count at a clock frequency in GHz.
    pub fn from_cycles(cycles: u64, ghz: f64) -> Self {
        Time(cycles as f64 / ghz)
    }

    /// In nanoseconds.
    pub fn ns(&self) -> f64 {
        self.0
    }

    /// In milliseconds.
    pub fn ms(&self) -> f64 {
        self.0 * 1e-6
    }

    /// In seconds.
    pub fn secs(&self) -> f64 {
        self.0 * 1e-9
    }

    /// Number of whole cycles at a clock frequency in GHz.
    pub fn cycles(&self, ghz: f64) -> u64 {
        (self.0 * ghz).round() as u64
    }

    /// Scales by a dimensionless factor.
    pub fn scaled(&self, k: f64) -> Time {
        Time(self.0 * k)
    }
}

macro_rules! impl_linear_ops {
    ($t:ident) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, rhs: $t) -> $t {
                $t(self.0 + rhs.0)
            }
        }
        impl AddAssign for $t {
            fn add_assign(&mut self, rhs: $t) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, rhs: $t) -> $t {
                $t(self.0 - rhs.0)
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            fn mul(self, k: f64) -> $t {
                $t(self.0 * k)
            }
        }
        impl Div<f64> for $t {
            type Output = $t;
            fn div(self, k: f64) -> $t {
                $t(self.0 / k)
            }
        }
        impl Sum for $t {
            fn sum<I: Iterator<Item = $t>>(iter: I) -> $t {
                iter.fold($t(0.0), |a, b| a + b)
            }
        }
    };
}

impl_linear_ops!(Energy);
impl_linear_ops!(Power);
impl_linear_ops!(Time);

impl Mul<Time> for Power {
    type Output = Energy;
    fn mul(self, t: Time) -> Energy {
        // mW * ns = 1e-3 W * 1e-9 s = 1e-12 J = pJ
        Energy(self.0 * t.0)
    }
}

impl Mul<Power> for Time {
    type Output = Energy;
    fn mul(self, p: Power) -> Energy {
        p * self
    }
}

impl Div<Time> for Energy {
    type Output = Power;
    fn div(self, t: Time) -> Power {
        Power(self.0 / t.0)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    fn mul(self, n: u64) -> Energy {
        Energy(self.0 * n as f64)
    }
}

fn fmt_scaled(
    f: &mut fmt::Formatter<'_>,
    value: f64,
    steps: &[(f64, &str)],
    base_unit: &str,
) -> fmt::Result {
    let abs = value.abs();
    for &(scale, unit) in steps {
        if abs >= scale {
            return write!(f, "{:.3} {}", value / scale, unit);
        }
    }
    write!(f, "{value:.3} {base_unit}")
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_scaled(
            f,
            self.0,
            &[(1e12, "J"), (1e9, "mJ"), (1e6, "uJ"), (1e3, "nJ")],
            "pJ",
        )
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_scaled(f, self.0, &[(1e3, "W")], "mW")
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_scaled(f, self.0, &[(1e9, "s"), (1e6, "ms"), (1e3, "us")], "ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_conversions() {
        assert_eq!(Energy::from_nj(1.0).pj(), 1000.0);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_mw(100.0) * Time::from_us(1.0);
        // 100 mW for 1 us = 100 nJ.
        assert!((e.nj() - 100.0).abs() < 1e-9);
        let e2 = Time::from_us(1.0) * Power::from_mw(100.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn energy_over_time_is_power() {
        let p = Energy::from_nj(100.0) / Time::from_us(1.0);
        assert!((p.mw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn time_cycles_roundtrip() {
        let t = Time::from_cycles(1000, 1.0);
        assert_eq!(t.ns(), 1000.0);
        assert_eq!(t.cycles(1.0), 1000);
        // 2 GHz: 1000 cycles = 500 ns.
        assert_eq!(Time::from_cycles(1000, 2.0).ns(), 500.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Energy::from_nj(3.0) + Energy::from_nj(4.0);
        assert_eq!(a.pj(), 7000.0);
        assert_eq!((a - Energy::from_nj(2.0)).pj(), 5000.0);
        assert_eq!((a * 2.0).pj(), 14000.0);
        assert_eq!((a / 7.0).pj(), 1000.0);
        assert_eq!((a * 3u64).pj(), 21000.0);
        let mut b = Energy::ZERO;
        b += a;
        assert_eq!(b.pj(), 7000.0);
    }

    #[test]
    fn sum_iterates() {
        let total: Energy = (1..=4).map(|i| Energy::from_nj(i as f64)).sum();
        assert_eq!(total.pj(), 10000.0);
        let t: Time = vec![Time::from_ns(1.0), Time::from_ns(2.0)]
            .into_iter()
            .sum();
        assert_eq!(t.ns(), 3.0);
    }

    #[test]
    fn ratio_and_scale() {
        let a = Energy::from_nj(2.0);
        let b = Energy::from_nj(8.0);
        assert!((a.ratio_to(b) - 0.25).abs() < 1e-12);
        assert_eq!(a.scaled(4.0), b);
        assert_eq!(Power::from_mw(2.0).scaled(0.5).mw(), 1.0);
        assert_eq!(Time::from_ns(2.0).scaled(3.0).ns(), 6.0);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Energy::from_nj(0.5).to_string(), "500.000 pJ");
        assert_eq!(Energy::from_nj(2.5).to_string(), "2.500 nJ");
        assert_eq!(Energy::from_nj(1.5e9).to_string(), "1.500 J");
        assert_eq!(Power::from_mw(2000.0).to_string(), "2.000 W");
        assert_eq!(Power::from_mw(3.0).to_string(), "3.000 mW");
        assert_eq!(Time::from_ms(12.0).to_string(), "12.000 ms");
        assert_eq!(Time::from_secs(2.0).to_string(), "2.000 s");
    }

    #[test]
    fn time_conversions() {
        assert_eq!(Time::from_secs(1.0).ns(), 1e9);
        assert_eq!(Time::from_ms(1.0).ns(), 1e6);
        assert_eq!(Time::from_us(1.0).ns(), 1e3);
        assert!((Time::from_ms(10.0).secs() - 0.01).abs() < 1e-15);
        assert!((Time::from_secs(0.5).ms() - 500.0).abs() < 1e-9);
    }
}
