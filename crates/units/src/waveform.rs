//! Time-domain signal descriptions.
//!
//! A [`Waveform`] is a total function of time — every supply rail, harvester
//! output and recorded trace in the simulator is one. Waveforms are
//! *analytic where possible* (a 1 MHz AC supply is stored as a sine, not as
//! tens of thousands of samples) and compose structurally: a product gates
//! a rail with an enable schedule, and a clamp models a rectifier.
//!
//! The value axis is a bare `f64` whose unit is fixed by context (a supply
//! waveform is in volts, a power profile in watts); the time axis is always
//! [`Seconds`].
//!
//! # Examples
//!
//! The AC supply from Fig. 4 of the paper — 200 mV ± 100 mV at 1 MHz:
//!
//! ```
//! use emc_units::{Hertz, Seconds, Waveform};
//!
//! let vdd = Waveform::sine(0.2, 0.1, Hertz(1e6), 0.0);
//! assert!((vdd.value_at(Seconds(0.0)) - 0.2).abs() < 1e-12);
//! // Quarter period later the sine is at its crest:
//! assert!((vdd.value_at(Seconds(0.25e-6)) - 0.3).abs() < 1e-9);
//! ```

use core::f64::consts::TAU;

use crate::quantity::{Hertz, Seconds};

/// A total, piecewise-smooth function of time.
///
/// Constructed via [`Waveform::constant`], [`Waveform::sine`],
/// [`Waveform::pwl`], [`Waveform::steps`] or [`Waveform::ramp`], then
/// refined with the [`times`](Waveform::times) and
/// [`clamped`](Waveform::clamped) combinators.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    shape: Shape,
}

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    Constant(f64),
    Sine {
        dc: f64,
        amplitude: f64,
        frequency: f64,
        phase: f64,
    },
    /// Sorted `(time, value)` breakpoints with linear interpolation between
    /// them and end-value hold outside the covered span.
    Pwl(Vec<(f64, f64)>),
    /// Sorted `(time, value)` breakpoints with zero-order hold: the value
    /// jumps at each breakpoint and holds until the next.
    Steps(Vec<(f64, f64)>),
    Product(Box<Shape>, Box<Shape>),
    Clamp {
        min: f64,
        max: f64,
        inner: Box<Shape>,
    },
}

impl Shape {
    fn eval(&self, t: f64) -> f64 {
        match self {
            Shape::Constant(v) => *v,
            Shape::Sine {
                dc,
                amplitude,
                frequency,
                phase,
            } => dc + amplitude * (TAU * frequency * t + phase).sin(),
            Shape::Pwl(points) => eval_pwl(points, t),
            Shape::Steps(points) => eval_steps(points, t),
            Shape::Product(a, b) => a.eval(t) * b.eval(t),
            Shape::Clamp { min, max, inner } => inner.eval(t).clamp(*min, *max),
        }
    }
}

fn eval_pwl(points: &[(f64, f64)], t: f64) -> f64 {
    match points {
        [] => 0.0,
        [(_, v)] => *v,
        _ => {
            let (t0, v0) = points[0];
            if t <= t0 {
                return v0;
            }
            let (tn, vn) = points[points.len() - 1];
            if t >= tn {
                return vn;
            }
            // Index of the first breakpoint strictly after `t`.
            let hi = points.partition_point(|&(pt, _)| pt <= t);
            let (ta, va) = points[hi - 1];
            let (tb, vb) = points[hi];
            if tb == ta {
                vb
            } else {
                va + (vb - va) * (t - ta) / (tb - ta)
            }
        }
    }
}

fn eval_steps(points: &[(f64, f64)], t: f64) -> f64 {
    match points {
        [] => 0.0,
        _ => {
            if t < points[0].0 {
                return points[0].1;
            }
            let hi = points.partition_point(|&(pt, _)| pt <= t);
            points[hi - 1].1
        }
    }
}

impl Waveform {
    /// A waveform holding `value` forever.
    pub fn constant(value: f64) -> Self {
        Self {
            shape: Shape::Constant(value),
        }
    }

    /// A sinusoid `dc + amplitude·sin(2π·f·t + phase)`.
    ///
    /// This is the natural description of an AC-harvester supply such as the
    /// 200 mV ± 100 mV, 1 MHz source of the paper's Fig. 4.
    pub fn sine(dc: f64, amplitude: f64, frequency: Hertz, phase: f64) -> Self {
        Self {
            shape: Shape::Sine {
                dc,
                amplitude,
                frequency: frequency.0,
                phase,
            },
        }
    }

    /// A piecewise-linear waveform through the given `(time, value)`
    /// breakpoints, holding the first/last value outside the covered span.
    ///
    /// # Panics
    ///
    /// Panics if the breakpoint times are not non-decreasing or any
    /// coordinate is non-finite.
    pub fn pwl<I: IntoIterator<Item = (Seconds, f64)>>(points: I) -> Self {
        let points = validate_points(points);
        Self {
            shape: Shape::Pwl(points),
        }
    }

    /// A zero-order-hold (staircase) waveform: at each breakpoint the value
    /// jumps and holds until the next breakpoint.
    ///
    /// # Panics
    ///
    /// Panics if the breakpoint times are not non-decreasing or any
    /// coordinate is non-finite.
    pub fn steps<I: IntoIterator<Item = (Seconds, f64)>>(points: I) -> Self {
        let points = validate_points(points);
        Self {
            shape: Shape::Steps(points),
        }
    }

    /// A linear ramp from `v0` at `t0` to `v1` at `t1`, held flat outside.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    pub fn ramp(v0: f64, v1: f64, t0: Seconds, t1: Seconds) -> Self {
        assert!(t1.0 >= t0.0, "ramp end precedes start");
        Self::pwl([(t0, v0), (t1, v1)])
    }

    /// Pointwise product of two waveforms. The canonical use is **supply
    /// gating**: multiply a rail by a 0/1 enable schedule to model a
    /// power switch (sleep transistor).
    pub fn times(self, other: Waveform) -> Self {
        Self {
            shape: Shape::Product(Box::new(self.shape), Box::new(other.shape)),
        }
    }

    /// Pointwise clamp into `[min, max]`. Useful to model a rectifier or a
    /// rail that cannot go negative.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn clamped(self, min: f64, max: f64) -> Self {
        assert!(min <= max, "clamp bounds inverted");
        Self {
            shape: Shape::Clamp {
                min,
                max,
                inner: Box::new(self.shape),
            },
        }
    }

    /// The value at time `t`.
    pub fn value_at(&self, t: Seconds) -> f64 {
        self.shape.eval(t.0)
    }

    /// Returns the constant value if this waveform is provably constant
    /// in time (structurally — a constant, or constant-preserving
    /// combinators over constants). Lets simulators skip numerical
    /// integration over rails that cannot change.
    pub fn as_constant(&self) -> Option<f64> {
        fn go(s: &Shape) -> Option<f64> {
            match s {
                Shape::Constant(v) => Some(*v),
                Shape::Sine { amplitude, dc, .. } if *amplitude == 0.0 => Some(*dc),
                Shape::Sine { .. } => None,
                Shape::Pwl(points) | Shape::Steps(points) => {
                    let first = points.first()?.1;
                    points.iter().all(|&(_, v)| v == first).then_some(first)
                }
                Shape::Product(a, b) => Some(go(a)? * go(b)?),
                Shape::Clamp { min, max, inner } => Some(go(inner)?.clamp(*min, *max)),
            }
        }
        go(&self.shape)
    }
}

impl Default for Waveform {
    /// The zero waveform.
    fn default() -> Self {
        Self::constant(0.0)
    }
}

fn validate_points<I: IntoIterator<Item = (Seconds, f64)>>(points: I) -> Vec<(f64, f64)> {
    let points: Vec<(f64, f64)> = points.into_iter().map(|(t, v)| (t.0, v)).collect();
    let mut prev = f64::NEG_INFINITY;
    for &(t, v) in &points {
        assert!(t.is_finite() && v.is_finite(), "non-finite breakpoint");
        assert!(t >= prev, "breakpoint times must be non-decreasing");
        prev = t;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(f64) -> Seconds = Seconds;

    #[test]
    fn constant_is_constant() {
        let w = Waveform::constant(0.7);
        for t in [-1.0, 0.0, 1e-9, 5.0] {
            assert_eq!(w.value_at(T(t)), 0.7);
        }
    }

    #[test]
    fn sine_matches_analytic_form() {
        let w = Waveform::sine(0.2, 0.1, Hertz(1e6), 0.0);
        assert!((w.value_at(T(0.0)) - 0.2).abs() < 1e-12);
        assert!((w.value_at(T(0.25e-6)) - 0.3).abs() < 1e-9);
        assert!((w.value_at(T(0.75e-6)) - 0.1).abs() < 1e-9);
        // Periodicity.
        assert!((w.value_at(T(3.25e-6)) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn pwl_interpolates_and_holds_ends() {
        let w = Waveform::pwl([(T(1.0), 0.0), (T(3.0), 1.0)]);
        assert_eq!(w.value_at(T(0.0)), 0.0);
        assert_eq!(w.value_at(T(1.0)), 0.0);
        assert!((w.value_at(T(2.0)) - 0.5).abs() < 1e-12);
        assert_eq!(w.value_at(T(3.0)), 1.0);
        assert_eq!(w.value_at(T(99.0)), 1.0);
    }

    #[test]
    fn pwl_single_point_and_empty() {
        assert_eq!(Waveform::pwl([(T(1.0), 0.4)]).value_at(T(9.0)), 0.4);
        assert_eq!(Waveform::pwl([]).value_at(T(0.0)), 0.0);
    }

    #[test]
    fn pwl_vertical_jump_takes_later_value() {
        let w = Waveform::pwl([(T(0.0), 0.0), (T(1.0), 0.2), (T(1.0), 0.8), (T(2.0), 0.8)]);
        assert!((w.value_at(T(0.999999)) - 0.2).abs() < 1e-3);
        assert_eq!(w.value_at(T(1.0)), 0.8);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn pwl_rejects_unsorted_points() {
        let _ = Waveform::pwl([(T(1.0), 0.0), (T(0.5), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn pwl_rejects_nan() {
        let _ = Waveform::pwl([(T(0.0), f64::NAN)]);
    }

    #[test]
    fn steps_hold_between_breakpoints() {
        let w = Waveform::steps([(T(0.0), 0.2), (T(1.0), 1.0), (T(2.0), 0.4)]);
        assert_eq!(w.value_at(T(-1.0)), 0.2);
        assert_eq!(w.value_at(T(0.5)), 0.2);
        assert_eq!(w.value_at(T(1.0)), 1.0);
        assert_eq!(w.value_at(T(1.999)), 1.0);
        assert_eq!(w.value_at(T(5.0)), 0.4);
    }

    #[test]
    fn ramp_sugar() {
        let w = Waveform::ramp(0.2, 1.0, T(0.0), T(4.0));
        assert!((w.value_at(T(1.0)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn combinators_compose() {
        let w = Waveform::constant(0.75)
            .times(Waveform::constant(2.0))
            .clamped(0.0, 1.2);
        assert!((w.value_at(T(0.0)) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn clamp_models_rectifier() {
        let w = Waveform::sine(0.0, 1.0, Hertz(1.0), 0.0).clamped(0.0, f64::INFINITY);
        assert_eq!(w.value_at(T(0.75)), 0.0);
        assert!((w.value_at(T(0.25)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Waveform::default().value_at(T(1.0)), 0.0);
    }

    #[test]
    fn product_models_supply_gating() {
        // A 1 V rail gated off between t = 1 and t = 2.
        let enable = Waveform::steps([(T(0.0), 1.0), (T(1.0), 0.0), (T(2.0), 1.0)]);
        let rail = Waveform::constant(1.0).times(enable);
        assert_eq!(rail.value_at(T(0.5)), 1.0);
        assert_eq!(rail.value_at(T(1.5)), 0.0);
        assert_eq!(rail.value_at(T(2.5)), 1.0);
        assert_eq!(rail.as_constant(), None);
        // A constant product stays constant.
        let c = Waveform::constant(0.5).times(Waveform::constant(2.0));
        assert_eq!(c.as_constant(), Some(1.0));
    }

    #[test]
    fn as_constant_detects_structural_constants() {
        assert_eq!(Waveform::constant(0.7).as_constant(), Some(0.7));
        assert_eq!(
            Waveform::sine(0.3, 0.0, Hertz(1e6), 0.0).as_constant(),
            Some(0.3)
        );
        assert_eq!(
            Waveform::pwl([(T(0.0), 0.5), (T(1.0), 0.5)]).as_constant(),
            Some(0.5)
        );
        assert_eq!(
            Waveform::steps([(T(0.0), 0.4), (T(2.0), 0.4)]).as_constant(),
            Some(0.4)
        );
        // Combinators preserve constancy.
        let combo = Waveform::constant(0.6)
            .times(Waveform::constant(2.0))
            .clamped(0.0, 1.0);
        assert_eq!(combo.as_constant(), Some(1.0));
    }

    #[test]
    fn as_constant_rejects_varying_waveforms() {
        assert_eq!(
            Waveform::sine(0.2, 0.1, Hertz(1e6), 0.0).as_constant(),
            None
        );
        assert_eq!(Waveform::ramp(0.0, 1.0, T(0.0), T(1.0)).as_constant(), None);
        assert_eq!(
            Waveform::constant(1.0)
                .times(Waveform::ramp(0.0, 1.0, T(0.0), T(1.0)))
                .as_constant(),
            None
        );
    }
}
