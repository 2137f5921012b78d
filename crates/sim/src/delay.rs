//! The work-integral delay solver.
//!
//! A gate that starts switching at `t0` under a time-varying supply
//! completes at the time `t` satisfying
//!
//! ```text
//! ∫_{t0}^{t}  ds / td(V(s))  =  1
//! ```
//!
//! where `td(V)` is the gate's propagation delay at a *constant* supply
//! `V`. The integrand is the instantaneous switching rate; where the
//! supply dips below the operating floor `td = ∞` and the rate is zero —
//! the transition pauses and resumes, which is precisely how the paper's
//! dual-rail counter rides through the troughs of its AC supply (Fig. 4).

use emc_units::Seconds;

/// Result of [`completion_time`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completion {
    /// The transition completes at the contained absolute time.
    At(Seconds),
    /// The transition had accumulated the contained fraction of its work
    /// (in `[0, 1)`) when the integration horizon was reached.
    StalledUntilHorizon {
        /// Work fraction accumulated by the horizon.
        progress: f64,
    },
}

/// Solves the work integral.
///
/// * `t0` — absolute start time of the transition;
/// * `td_at` — closure giving the constant-supply delay `td` at absolute
///   time `t` (i.e. `td(V(t))`); may return `+∞` to indicate a stalled
///   supply;
/// * `max_step` — integration step bound; choose well below the supply
///   waveform's fastest feature (e.g. 1/64 of an AC period). For constant
///   supplies any value works: the solver takes a single exact step;
/// * `horizon` — absolute time beyond which integration gives up.
///
/// The solver is exact for piecewise-constant `td` sampled at `max_step`
/// resolution and exact to first order for smooth waveforms.
///
/// # Panics
///
/// Panics if `max_step` is not strictly positive or `horizon < t0`, and,
/// in every build, if `td_at` returns NaN or a negative delay (the
/// message names the sample time).
pub fn completion_time(
    t0: Seconds,
    td_at: impl Fn(Seconds) -> Seconds,
    max_step: Seconds,
    horizon: Seconds,
) -> Completion {
    assert!(max_step.0 > 0.0, "integration step must be positive");
    assert!(horizon.0 >= t0.0, "horizon precedes start time");
    let mut t = t0.0;
    let mut work = 0.0_f64;
    while t < horizon.0 {
        let td = td_at(Seconds(t)).0;
        // One test keeps finite delays on the fast path: their bit
        // patterns (sign clear) lie below +∞'s, and those of +∞, NaN and
        // negative delays do not.
        if td.to_bits() >= f64::INFINITY.to_bits() {
            if td == f64::INFINITY {
                // Stalled: skip forward one step without accumulating work.
                t += max_step.0;
                continue;
            }
            if td.is_nan() || td < 0.0 {
                bad_delay(td, t);
            }
        }
        debug_assert!(td > 0.0, "delay must be positive, got {td}");
        let remaining = (1.0 - work) * td;
        if remaining <= max_step.0 {
            let finish = t + remaining;
            if finish <= horizon.0 {
                return Completion::At(Seconds(finish));
            }
            work += (horizon.0 - t) / td;
            return Completion::StalledUntilHorizon { progress: work };
        }
        let dt = max_step.0.min(horizon.0 - t);
        work += dt / td;
        t += dt;
    }
    Completion::StalledUntilHorizon {
        progress: work.min(1.0 - f64::EPSILON),
    }
}

/// The panic for a NaN or negative delay sample, kept off the
/// integration loop's path.
#[cold]
#[inline(never)]
fn bad_delay(td: f64, t: f64) -> ! {
    panic!("delay sample at t = {t} s is {td}: not a positive delay or +inf")
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(f64) -> Seconds = Seconds;

    #[test]
    fn constant_delay_is_exact_in_one_step() {
        let c = completion_time(S(10.0), |_| S(2.5), S(1e9), S(1e12));
        assert_eq!(c, Completion::At(S(12.5)));
    }

    #[test]
    fn constant_delay_many_steps_matches() {
        let c = completion_time(S(0.0), |_| S(1.0), S(0.01), S(10.0));
        match c {
            Completion::At(t) => assert!((t.0 - 1.0).abs() < 1e-9, "t = {t}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn piecewise_delay_accumulates_work() {
        // td = 1 for t < 0.5, then td = 2: work(0.5) = 0.5, remaining
        // work 0.5 at rate 1/2 takes 1.0 more → completes at 1.5.
        let td = |t: Seconds| if t.0 < 0.5 { S(1.0) } else { S(2.0) };
        let c = completion_time(S(0.0), td, S(1e-3), S(10.0));
        match c {
            Completion::At(t) => assert!((t.0 - 1.5).abs() < 5e-3, "t = {t}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stall_window_pauses_and_resumes() {
        // td = 1 except stalled (∞) during t ∈ [0.2, 0.7): the transition
        // does 0.2 of its work, waits 0.5, then finishes the remaining
        // 0.8 → completes at 1.5.
        let td = |t: Seconds| {
            if (0.2..0.7).contains(&t.0) {
                S(f64::INFINITY)
            } else {
                S(1.0)
            }
        };
        let c = completion_time(S(0.0), td, S(1e-3), S(10.0));
        match c {
            Completion::At(t) => assert!((t.0 - 1.5).abs() < 5e-3, "t = {t}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn permanent_stall_reports_progress() {
        let td = |t: Seconds| if t.0 < 0.3 { S(1.0) } else { S(f64::INFINITY) };
        let c = completion_time(S(0.0), td, S(1e-3), S(5.0));
        match c {
            Completion::StalledUntilHorizon { progress } => {
                assert!((progress - 0.3).abs() < 5e-3, "progress = {progress}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn horizon_cuts_off_slow_transition() {
        let c = completion_time(S(0.0), |_| S(100.0), S(0.5), S(10.0));
        match c {
            Completion::StalledUntilHorizon { progress } => {
                assert!((progress - 0.1).abs() < 0.01, "progress = {progress}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn completion_exactly_at_horizon_counts() {
        let c = completion_time(S(0.0), |_| S(1.0), S(10.0), S(1.0));
        assert_eq!(c, Completion::At(S(1.0)));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = completion_time(S(0.0), |_| S(1.0), S(0.0), S(1.0));
    }

    #[test]
    #[should_panic(expected = "horizon precedes")]
    fn horizon_before_start_panics() {
        let _ = completion_time(S(1.0), |_| S(1.0), S(0.1), S(0.0));
    }

    #[test]
    #[should_panic(expected = "delay sample at t = 0.5 s is NaN")]
    fn nan_delay_sample_panics_with_its_time() {
        // A NaN sample must not integrate NaN work until the horizon,
        // in release builds as in debug ones.
        let td = |t: Seconds| if t.0 < 0.5 { S(1e3) } else { S(f64::NAN) };
        let _ = completion_time(S(0.0), td, S(0.25), S(10.0));
    }

    #[test]
    #[should_panic(expected = "is -1: not a positive delay")]
    fn negative_delay_sample_panics() {
        let _ = completion_time(S(0.0), |_| S(-1.0), S(0.25), S(10.0));
    }

    #[test]
    fn varying_delay_from_sine_supply_is_bounded_by_extremes() {
        // td oscillating in [1, 3]: completion must land between the
        // all-fast and all-slow bounds.
        let td = |t: Seconds| S(2.0 + (t.0 * 20.0).sin());
        let c = completion_time(S(0.0), td, S(1e-4), S(100.0));
        match c {
            Completion::At(t) => assert!(t.0 >= 1.0 && t.0 <= 3.0, "t = {t}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
