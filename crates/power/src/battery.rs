//! A primary-cell battery model — the supply the paper contrasts
//! harvesters against in §II-B: "Battery can supply finite energy …
//! but while it is still operational the available power can be very
//! large. Supply characteristics are stable and known in advance."

use emc_units::{Joules, Seconds, Watts};

/// A battery with finite capacity: it delivers whatever power is asked
/// until its energy runs out.
///
/// # Examples
///
/// ```
/// use emc_power::Battery;
/// use emc_units::{Joules, Seconds, Watts};
///
/// let mut batt = Battery::coin_cell();
/// let delivered = batt.draw(Watts(1e-3), Seconds(10.0));
/// assert!((delivered.0 - 1e-2).abs() < 1e-9);
/// assert!(batt.state_of_charge() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity: Joules,
    remaining: Joules,
}

impl Battery {
    /// A battery with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is strictly positive.
    pub fn new(capacity: Joules) -> Self {
        assert!(capacity.0 > 0.0, "capacity must be positive");
        Self {
            capacity,
            remaining: capacity,
        }
    }

    /// A 3 V lithium coin cell: 225 mAh ≈ 2.4 kJ.
    pub fn coin_cell() -> Self {
        Self::new(Joules(2430.0))
    }

    /// Rated capacity.
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Remaining fraction in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.remaining.0 / self.capacity.0
    }

    /// `true` once the cell is exhausted.
    pub fn empty(&self) -> bool {
        self.remaining.0 <= 0.0
    }

    /// Draws `load` for `dt`; returns the energy actually delivered
    /// (truncated when the cell runs out mid-interval).
    ///
    /// # Panics
    ///
    /// Panics if `load` is negative or `dt` non-positive.
    pub fn draw(&mut self, load: Watts, dt: Seconds) -> Joules {
        assert!(load.0 >= 0.0, "negative load");
        assert!(dt.0 > 0.0, "non-positive interval");
        let wanted = load * dt;
        let granted = Joules(wanted.0.min(self.remaining.0));
        self.remaining -= granted;
        self.remaining = self.remaining.max(Joules(0.0));
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_depletes_and_truncates() {
        let mut b = Battery::new(Joules(1.0));
        assert_eq!(b.draw(Watts(0.4), Seconds(1.0)), Joules(0.4));
        assert!((b.state_of_charge() - 0.6).abs() < 1e-12);
        // Asking for more than remains delivers only the remainder.
        let last = b.draw(Watts(1.0), Seconds(1.0));
        assert!((last.0 - 0.6).abs() < 1e-12);
        assert!(b.empty());
        assert_eq!(b.draw(Watts(1.0), Seconds(1.0)), Joules(0.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Battery::new(Joules(0.0));
    }
}
