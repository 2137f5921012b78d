//! Calibration of the SRAM-vs-logic delay-scaling mismatch (paper Fig. 5).
//!
//! The paper's key quantitative observation is that an SRAM bit-line
//! transient and an inverter chain *scale differently* with Vdd: a read
//! that costs 50 inverter delays at Vdd = 1 V costs 158 inverter delays at
//! 190 mV. The physical cause is that the cell read current flows through
//! a stack of transistors (access + driver) whose effective threshold is
//! higher than a logic gate's, so in sub-threshold — where current is
//! exponential in `(V − Vt)` — the SRAM loses current faster than logic
//! does.
//!
//! [`SramLogicCalibration::solve`] inverts that model: given the device
//! model and the two published anchor points it finds the effective
//! threshold elevation `ΔVt` and the capacitance/drive scale `κ` such that
//!
//! ```text
//! ratio(V) = κ · I_on(V; Vt) / I_on(V; Vt + ΔVt)
//! ```
//!
//! passes through both anchors exactly. Everything downstream — the SI
//! SRAM timing, the bundled-data baseline's failure, the reference-free
//! voltage sensor — reads delay ratios from this curve.

use emc_units::{Seconds, Volts};

use crate::model::DeviceModel;

/// One `(Vdd, sram-delay-in-inverter-units)` anchor point.
pub(crate) type Anchor = (Volts, f64);

/// The paper's anchor at nominal supply: 50 inverter delays at 1.0 V.
pub(crate) const ANCHOR_NOMINAL: Anchor = (Volts(1.0), 50.0);

/// The paper's anchor in sub-threshold: 158 inverter delays at 190 mV.
pub(crate) const ANCHOR_SUBTHRESHOLD: Anchor = (Volts(0.19), 158.0);

/// Errors from [`SramLogicCalibration::solve_with_anchors`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SolveCalibrationError {
    /// Anchors must be at two distinct voltages with positive ratios.
    DegenerateAnchors,
    /// The required mismatch growth cannot be produced by any `ΔVt` in the
    /// physical search window (0 – 0.3 V).
    OutOfRange {
        /// Growth factor `r_lo / r_hi` the anchors demand.
        required_growth: f64,
    },
}

impl core::fmt::Display for SolveCalibrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolveCalibrationError::DegenerateAnchors => {
                write!(f, "calibration anchors are degenerate")
            }
            SolveCalibrationError::OutOfRange { required_growth } => write!(
                f,
                "no threshold elevation in [0, 0.3] V yields mismatch growth {required_growth}"
            ),
        }
    }
}

impl std::error::Error for SolveCalibrationError {}

/// A solved SRAM-vs-logic mismatch curve.
///
/// # Examples
///
/// ```
/// use emc_device::{DeviceModel, SramLogicCalibration};
/// use emc_units::Volts;
///
/// let cal = SramLogicCalibration::solve(DeviceModel::umc90());
/// // The two published anchors are met exactly (to solver tolerance):
/// assert!((cal.delay_ratio(Volts(1.0)) - 50.0).abs() < 0.5);
/// assert!((cal.delay_ratio(Volts(0.19)) - 158.0).abs() < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SramLogicCalibration {
    model: DeviceModel,
    delta_vt: Volts,
    cap_scale: f64,
}

impl SramLogicCalibration {
    /// Solves the calibration against the paper's published anchors
    /// (50× at 1.0 V, 158× at 190 mV).
    ///
    /// # Panics
    ///
    /// Panics if the default anchors are unsolvable for `model` — which
    /// would indicate a broken device model, not bad user input.
    pub fn solve(model: DeviceModel) -> Self {
        Self::solve_with_anchors(model, ANCHOR_NOMINAL, ANCHOR_SUBTHRESHOLD)
            .expect("paper anchors must be solvable for the default device model")
    }

    /// Solves the calibration against explicit anchors.
    ///
    /// `hi` should be the high-voltage anchor and `lo` the low-voltage one;
    /// they may be passed in either order.
    ///
    /// # Errors
    ///
    /// Returns [`SolveCalibrationError`] if the anchors coincide, have
    /// non-positive ratios, or demand a mismatch growth no physical
    /// threshold elevation can produce.
    pub(crate) fn solve_with_anchors(
        model: DeviceModel,
        hi: Anchor,
        lo: Anchor,
    ) -> Result<Self, SolveCalibrationError> {
        let (lo, hi) = if lo.0 < hi.0 { (lo, hi) } else { (hi, lo) };
        let ((v_lo, r_lo), (v_hi, r_hi)) = (lo, hi);
        if v_lo == v_hi || r_lo <= 0.0 || r_hi <= 0.0 {
            return Err(SolveCalibrationError::DegenerateAnchors);
        }
        let required_growth = r_lo / r_hi;

        // g(Δ) = mismatch growth between the two anchor voltages; strictly
        // increasing in Δ, g(0) = 1.
        let growth = |delta: f64| -> f64 {
            let vt = model.params().vt;
            let raised = Volts(vt.0 + delta);
            let g_hi = model.on_current(v_hi).0 / model.on_current_with_vt(v_hi, raised).0;
            let g_lo = model.on_current(v_lo).0 / model.on_current_with_vt(v_lo, raised).0;
            g_lo / g_hi
        };

        let (mut a, mut b) = (0.0_f64, 0.3_f64);
        if required_growth < 1.0 || growth(b) < required_growth {
            return Err(SolveCalibrationError::OutOfRange { required_growth });
        }
        for _ in 0..200 {
            let mid = 0.5 * (a + b);
            if growth(mid) < required_growth {
                a = mid;
            } else {
                b = mid;
            }
        }
        let delta_vt = Volts(0.5 * (a + b));

        let raised = Volts(model.params().vt.0 + delta_vt.0);
        let g_hi = model.on_current(v_hi).0 / model.on_current_with_vt(v_hi, raised).0;
        let cap_scale = r_hi / g_hi;

        Ok(Self {
            model,
            delta_vt,
            cap_scale,
        })
    }

    /// The effective threshold elevation of the SRAM read path over a
    /// logic gate (the stack effect), found by the solver.
    pub fn delta_vt(&self) -> Volts {
        self.delta_vt
    }

    /// The capacitance/drive scale `κ` (how much heavier the bit line is
    /// than an inverter load, normalised by cell drive).
    pub fn cap_scale(&self) -> f64 {
        self.cap_scale
    }

    /// The effective SRAM read-path threshold (`Vt + ΔVt`).
    pub fn sram_vt(&self) -> Volts {
        Volts(self.model.params().vt.0 + self.delta_vt.0)
    }

    /// SRAM read delay expressed in inverter delays at supply `vdd` —
    /// the y-axis of the paper's Fig. 5.
    pub fn delay_ratio(&self, vdd: Volts) -> f64 {
        let logic = self.model.on_current(vdd).0;
        let sram = self.model.on_current_with_vt(vdd, self.sram_vt()).0;
        self.cap_scale * logic / sram
    }

    /// Absolute SRAM read (bit-line transient) delay at supply `vdd`.
    ///
    /// Infinite below the device operating floor, like any gate delay.
    pub fn sram_read_delay(&self, vdd: Volts) -> Seconds {
        let inv = self.model.inverter_delay(vdd);
        Seconds(inv.0 * self.delay_ratio(vdd))
    }

    /// Sweeps the mismatch curve over `[v_min, v_max]` with `n` points,
    /// returning `(vdd, ratio)` pairs — the data series of Fig. 5.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the interval is inverted.
    pub fn mismatch_series(&self, v_min: Volts, v_max: Volts, n: usize) -> Vec<(Volts, f64)> {
        assert!(n >= 2, "need at least two sweep points");
        assert!(v_max > v_min, "sweep interval inverted");
        (0..n)
            .map(|i| {
                let v = Volts(v_min.0 + (v_max.0 - v_min.0) * i as f64 / (n - 1) as f64);
                (v, self.delay_ratio(v))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_prng::{Rng, StdRng};

    fn cal() -> SramLogicCalibration {
        SramLogicCalibration::solve(DeviceModel::umc90())
    }

    #[test]
    fn anchors_are_reproduced() {
        let c = cal();
        assert!(
            (c.delay_ratio(Volts(1.0)) - 50.0).abs() < 0.1,
            "nominal ratio {}",
            c.delay_ratio(Volts(1.0))
        );
        assert!(
            (c.delay_ratio(Volts(0.19)) - 158.0).abs() < 0.5,
            "sub-vt ratio {}",
            c.delay_ratio(Volts(0.19))
        );
    }

    #[test]
    fn delta_vt_is_physically_plausible_stack_effect() {
        let dv = cal().delta_vt().0;
        assert!((0.01..0.15).contains(&dv), "ΔVt = {dv} V");
    }

    #[test]
    fn ratio_monotone_decreasing_in_vdd() {
        let c = cal();
        let series = c.mismatch_series(Volts(0.15), Volts(1.0), 50);
        for w in series.windows(2) {
            assert!(
                w[0].1 > w[1].1,
                "ratio not decreasing between {} and {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn absolute_read_delay_reasonable_at_nominal() {
        let c = cal();
        let t = c.sram_read_delay(Volts(1.0));
        // 50 inverter delays at ~25 ps each → ~1.2 ns.
        assert!(t.0 > 0.3e-9 && t.0 < 5e-9, "t = {t}");
    }

    #[test]
    fn read_delay_infinite_below_floor() {
        assert!(cal().sram_read_delay(Volts(0.05)).0.is_infinite());
    }

    #[test]
    fn degenerate_anchors_rejected() {
        let m = DeviceModel::umc90();
        let e = SramLogicCalibration::solve_with_anchors(
            m.clone(),
            (Volts(1.0), 50.0),
            (Volts(1.0), 60.0),
        );
        assert_eq!(e.unwrap_err(), SolveCalibrationError::DegenerateAnchors);
        let e = SramLogicCalibration::solve_with_anchors(m, (Volts(1.0), 0.0), (Volts(0.2), 60.0));
        assert_eq!(e.unwrap_err(), SolveCalibrationError::DegenerateAnchors);
    }

    #[test]
    fn impossible_growth_rejected() {
        let m = DeviceModel::umc90();
        // Ratio *decreasing* towards low Vdd is unphysical for this model.
        let e = SramLogicCalibration::solve_with_anchors(
            m.clone(),
            (Volts(1.0), 50.0),
            (Volts(0.19), 10.0),
        );
        assert!(matches!(e, Err(SolveCalibrationError::OutOfRange { .. })));
        // Growth too large for any ΔVt ≤ 0.3 V.
        let e = SramLogicCalibration::solve_with_anchors(m, (Volts(1.0), 1.0), (Volts(0.19), 1e9));
        assert!(matches!(e, Err(SolveCalibrationError::OutOfRange { .. })));
    }

    #[test]
    fn anchor_order_does_not_matter() {
        let m = DeviceModel::umc90();
        let a = SramLogicCalibration::solve_with_anchors(
            m.clone(),
            ANCHOR_NOMINAL,
            ANCHOR_SUBTHRESHOLD,
        )
        .unwrap();
        let b = SramLogicCalibration::solve_with_anchors(m, ANCHOR_SUBTHRESHOLD, ANCHOR_NOMINAL)
            .unwrap();
        assert!((a.delta_vt().0 - b.delta_vt().0).abs() < 1e-12);
    }

    #[test]
    fn error_display_is_informative() {
        let msg = SolveCalibrationError::OutOfRange {
            required_growth: 9.0,
        }
        .to_string();
        assert!(msg.contains("9"));
        assert!(!SolveCalibrationError::DegenerateAnchors
            .to_string()
            .is_empty());
    }

    /// The solved curve interpolates monotonically for arbitrary
    /// voltages between the anchors.
    #[test]
    fn ratio_between_anchor_values() {
        let c = cal();
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..256 {
            let v = rng.gen_range(0.19f64..1.0);
            let r = c.delay_ratio(Volts(v));
            assert!((49.9..158.2).contains(&r), "ratio {r} at {v} V");
        }
    }
}
