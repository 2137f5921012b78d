//! Zero-cost `f64` newtypes for the physical quantities used throughout
//! the simulator, with the physically meaningful cross-unit operators.
//!
//! Each quantity is a transparent tuple struct over `f64` (the field is
//! public — these are passive, C-spirit values in the sense of
//! C-STRUCT-PRIVATE's exception). All quantities support addition,
//! subtraction, negation, scaling by `f64` and division by a same-typed
//! quantity (yielding a dimensionless `f64`). Cross-unit products encode
//! the physics:
//!
//! | expression | result | law |
//! |---|---|---|
//! | `Volts * Amps` | [`Watts`] | P = V·I |
//! | `Watts * Seconds` | [`Joules`] | E = P·t |
//! | `Farads * Volts` | [`Coulombs`] | Q = C·V |
//! | `Coulombs * Volts` | [`Joules`] | E = Q·V |
//! | `Amps * Seconds` | [`Coulombs`] | Q = I·t |
//! | `Volts / Ohms` | [`Amps`] | I = V/R |
//! | `Joules / Volts` | [`Coulombs`] | Q = E/V |
//! | `Coulombs / Farads` | [`Volts`] | V = Q/C |
//! | `1.0 / Seconds` → [`Seconds::recip`] | [`Hertz`] | f = 1/t |
//!
//! # Examples
//!
//! ```
//! use emc_units::{Volts, Amps, Seconds};
//!
//! let p = Volts(1.0) * Amps(2e-6);
//! let e = p * Seconds(1e-3);
//! assert!((e.0 - 2e-9).abs() < 1e-21);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::si::format_si;

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        #[repr(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the raw `f64` magnitude in base SI units.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the element-wise minimum of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the element-wise maximum of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps `self` into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` (propagated from [`f64::clamp`]).
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` if the magnitude is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                format_si(f, self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Division of like quantities yields a dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl From<f64> for $name {
            #[inline]
            fn from(v: f64) -> Self {
                Self(v)
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

quantity!(
    /// Electric potential in volts. Supply rails in this codebase span
    /// 0.2 V (deep sub-threshold) to 1.0 V (nominal for 90 nm CMOS).
    Volts,
    "V"
);
quantity!(
    /// Time in seconds. Gate delays are nanoseconds at nominal Vdd and
    /// grow exponentially towards microseconds in sub-threshold.
    Seconds,
    "s"
);
quantity!(
    /// Energy in joules. Per-transition switching energies are femto- to
    /// picojoules.
    Joules,
    "J"
);
quantity!(
    /// Power in watts. Energy harvesters deliver microwatts.
    Watts,
    "W"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Electric charge in coulombs.
    Coulombs,
    "C"
);
quantity!(
    /// Electric current in amperes.
    Amps,
    "A"
);
quantity!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);
quantity!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Absolute temperature in kelvin.
    Kelvin,
    "K"
);
quantity!(
    /// Temperature in degrees Celsius (display convenience; convert to
    /// [`Kelvin`] for physics).
    Celsius,
    "°C"
);

impl From<Celsius> for Kelvin {
    #[inline]
    fn from(c: Celsius) -> Kelvin {
        Kelvin(c.0 + 273.15)
    }
}

impl From<Kelvin> for Celsius {
    #[inline]
    fn from(k: Kelvin) -> Celsius {
        Celsius(k.0 - 273.15)
    }
}

macro_rules! cross {
    ($a:ty, $b:ty, $out:ty) => {
        impl Mul<$b> for $a {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $b) -> $out {
                <$out>::from(self.0 * rhs.0)
            }
        }

        impl Mul<$a> for $b {
            type Output = $out;
            #[inline]
            fn mul(self, rhs: $a) -> $out {
                <$out>::from(self.0 * rhs.0)
            }
        }

        impl Div<$a> for $out {
            type Output = $b;
            #[inline]
            fn div(self, rhs: $a) -> $b {
                <$b>::from(self.0 / rhs.0)
            }
        }

        impl Div<$b> for $out {
            type Output = $a;
            #[inline]
            fn div(self, rhs: $b) -> $a {
                <$a>::from(self.0 / rhs.0)
            }
        }
    };
}

cross!(Volts, Amps, Watts); // P = V·I, I = P/V, V = P/I
cross!(Watts, Seconds, Joules); // E = P·t, P = E/t, t = E/P
cross!(Farads, Volts, Coulombs); // Q = C·V, C = Q/V, V = Q/C
cross!(Amps, Seconds, Coulombs); // Q = I·t, I = Q/t, t = Q/I
cross!(Coulombs, Volts, Joules); // E = Q·V, Q = E/V, V = E/Q
cross!(Ohms, Amps, Volts); // V = R·I, R = V/I, I = V/R

impl Seconds {
    /// Reciprocal time is frequency: `f = 1/t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use emc_units::{Seconds, Hertz};
    /// assert_eq!(Seconds(1e-6).recip(), Hertz(1e6));
    /// ```
    #[inline]
    pub fn recip(self) -> Hertz {
        Hertz(1.0 / self.0)
    }
}

impl Hertz {
    /// Reciprocal frequency is period: `t = 1/f`.
    #[inline]
    pub fn period(self) -> Seconds {
        Seconds(1.0 / self.0)
    }
}

impl Volts {
    /// Squares the voltage and multiplies by a capacitance:
    /// the `C·V²` switching-energy kernel used everywhere in the device
    /// model.
    ///
    /// # Examples
    ///
    /// ```
    /// use emc_units::{Volts, Farads, Joules};
    /// let e = Volts(1.0).cv2(Farads(1e-15));
    /// assert_eq!(e, Joules(1e-15));
    /// ```
    #[inline]
    pub fn cv2(self, c: Farads) -> Joules {
        Joules(c.0 * self.0 * self.0)
    }
}

impl Farads {
    /// Energy stored on this capacitance at voltage `v`: `E = C·V²/2`.
    #[inline]
    pub fn stored_energy(self, v: Volts) -> Joules {
        Joules(0.5 * self.0 * v.0 * v.0)
    }

    /// Voltage on this capacitance holding charge `q`: `V = Q/C`.
    #[inline]
    pub fn voltage_for_charge(self, q: Coulombs) -> Volts {
        Volts(q.0 / self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law() {
        assert_eq!(Volts(2.0) * Amps(3.0), Watts(6.0));
        assert_eq!(Amps(3.0) * Volts(2.0), Watts(6.0));
        assert_eq!(Watts(6.0) / Volts(2.0), Amps(3.0));
        assert_eq!(Watts(6.0) / Amps(3.0), Volts(2.0));
    }

    #[test]
    fn energy_law() {
        assert_eq!(Watts(2.0) * Seconds(4.0), Joules(8.0));
        assert_eq!(Joules(8.0) / Seconds(4.0), Watts(2.0));
        assert_eq!(Joules(8.0) / Watts(2.0), Seconds(4.0));
    }

    #[test]
    fn charge_laws() {
        assert_eq!(Farads(2e-12) * Volts(0.5), Coulombs(1e-12));
        assert_eq!(Coulombs(1e-12) / Farads(2e-12), Volts(0.5));
        assert_eq!(Amps(1e-6) * Seconds(2.0), Coulombs(2e-6));
        assert_eq!(Coulombs(3.0) * Volts(2.0), Joules(6.0));
        assert_eq!(Joules(6.0) / Volts(2.0), Coulombs(3.0));
    }

    #[test]
    fn ohms_law() {
        assert_eq!(Ohms(1000.0) * Amps(0.001), Volts(1.0));
        assert_eq!(Volts(1.0) / Ohms(1000.0), Amps(0.001));
        assert_eq!(Volts(1.0) / Amps(0.001), Ohms(1000.0));
    }

    #[test]
    fn same_unit_arithmetic() {
        let a = Volts(0.4) + Volts(0.1);
        assert!((a.0 - 0.5).abs() < 1e-15);
        assert_eq!(Volts(1.0) - Volts(0.4), Volts(0.6));
        assert_eq!(-Volts(0.2), Volts(-0.2));
        assert_eq!(Volts(0.5) * 2.0, Volts(1.0));
        assert_eq!(2.0 * Volts(0.5), Volts(1.0));
        assert_eq!(Volts(1.0) / 2.0, Volts(0.5));
        assert_eq!(Volts(1.0) / Volts(0.5), 2.0);
    }

    #[test]
    fn assign_ops() {
        let mut v = Volts(0.2);
        v += Volts(0.1);
        v -= Volts(0.05);
        v *= 4.0;
        v /= 2.0;
        assert!((v.0 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Joules = (0..4).map(|i| Joules(i as f64)).sum();
        assert_eq!(total, Joules(6.0));
    }

    #[test]
    fn min_max_clamp_abs() {
        assert_eq!(Volts(0.2).max(Volts(0.5)), Volts(0.5));
        assert_eq!(Volts(0.2).min(Volts(0.5)), Volts(0.2));
        assert_eq!(Volts(1.4).clamp(Volts(0.2), Volts(1.0)), Volts(1.0));
        assert_eq!(Volts(-0.3).abs(), Volts(0.3));
    }

    #[test]
    fn temperature_conversion() {
        let k: Kelvin = Celsius(26.85).into();
        assert!((k.0 - 300.0).abs() < 1e-9);
        let c: Celsius = Kelvin(273.15).into();
        assert!(c.0.abs() < 1e-9);
    }

    #[test]
    fn frequency_period_roundtrip() {
        let f = Seconds(1e-6).recip();
        assert_eq!(f, Hertz(1e6));
        assert_eq!(f.period(), Seconds(1e-6));
    }

    #[test]
    fn capacitor_helpers() {
        let c = Farads(100e-12);
        let e = c.stored_energy(Volts(1.0));
        assert!((e.0 - 50e-12).abs() < 1e-20);
        let v = c.voltage_for_charge(Coulombs(50e-12));
        assert!((v.0 - 0.5).abs() < 1e-12);
        assert_eq!(Volts(2.0).cv2(Farads(1.0)), Joules(4.0));
    }

    #[test]
    fn display_uses_si_prefixes() {
        assert_eq!(format!("{}", Volts(0.2)), "200 mV");
        assert_eq!(format!("{}", Joules(5.8e-12)), "5.8 pJ");
        assert_eq!(format!("{}", Seconds(0.0)), "0 s");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Volts(0.0)).is_empty());
    }

    mod properties {
        use super::*;
        use emc_prng::{Rng, StdRng};

        const CASES: usize = 512;

        /// Same-unit addition commutes exactly.
        #[test]
        fn addition_commutes() {
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..CASES {
                let a = rng.gen_range(-1e3f64..1e3);
                let b = rng.gen_range(-1e3f64..1e3);
                assert_eq!(Volts(a) + Volts(b), Volts(b) + Volts(a));
            }
        }

        /// The two routes to energy agree: (V·I)·t = (I·t)·V.
        #[test]
        fn energy_routes_agree() {
            let mut rng = StdRng::seed_from_u64(2);
            for _ in 0..CASES {
                let v = rng.gen_range(0.0f64..2.0);
                let i = rng.gen_range(0.0f64..1e-3);
                let t = rng.gen_range(0.0f64..10.0);
                let via_power: Joules = (Volts(v) * Amps(i)) * Seconds(t);
                let via_charge: Joules = (Amps(i) * Seconds(t)) * Volts(v);
                let tol = via_power.0.abs().max(1e-300) * 1e-12;
                assert!((via_power.0 - via_charge.0).abs() <= tol);
            }
        }

        /// Division inverts multiplication for cross-unit products.
        #[test]
        fn div_inverts_mul() {
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..CASES {
                let c = rng.gen_range(1e-15f64..1e-9);
                let v = rng.gen_range(0.01f64..2.0);
                let q = Farads(c) * Volts(v);
                let back = q / Farads(c);
                assert!((back.0 - v).abs() <= v * 1e-12);
            }
        }

        /// cv2 equals charge times voltage.
        #[test]
        fn cv2_consistent() {
            let mut rng = StdRng::seed_from_u64(4);
            for _ in 0..CASES {
                let c = rng.gen_range(1e-15f64..1e-9);
                let v = rng.gen_range(0.0f64..2.0);
                let direct = Volts(v).cv2(Farads(c));
                let via_q = (Farads(c) * Volts(v)) * Volts(v);
                let tol = direct.0.abs().max(1e-300) * 1e-12;
                assert!((direct.0 - via_q.0).abs() <= tol);
            }
        }

        /// Stored energy is half of cv2, always.
        #[test]
        fn stored_energy_half_cv2() {
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..CASES {
                let c = rng.gen_range(1e-15f64..1e-9);
                let v = rng.gen_range(0.0f64..2.0);
                let half = Farads(c).stored_energy(Volts(v));
                let full = Volts(v).cv2(Farads(c));
                let tol = full.0.abs().max(1e-300) * 1e-12;
                assert!((2.0 * half.0 - full.0).abs() <= tol);
            }
        }
    }
}
