//! SI-prefix formatting shared by every quantity's `Display` impl.

use core::fmt;

/// (multiplier, prefix) pairs from yotta down to yocto.
const PREFIXES: &[(f64, &str)] = &[
    (1e24, "Y"),
    (1e21, "Z"),
    (1e18, "E"),
    (1e15, "P"),
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "µ"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
    (1e-21, "z"),
    (1e-24, "y"),
];

/// Writes `value` with the SI prefix that leaves a mantissa in `[1, 1000)`,
/// followed by `unit`, e.g. `5.8 pJ` or `200 mV`.
///
/// Exact zero prints as `0 <unit>`; non-finite values fall back to plain
/// float formatting.
pub(crate) fn format_si(f: &mut fmt::Formatter<'_>, value: f64, unit: &str) -> fmt::Result {
    if value == 0.0 {
        return write!(f, "0 {unit}");
    }
    if !value.is_finite() {
        return write!(f, "{value} {unit}");
    }
    let magnitude = value.abs();
    let (scale, prefix) = PREFIXES
        .iter()
        .find(|(s, _)| magnitude >= *s)
        .copied()
        .unwrap_or((1e-24, "y"));
    let mantissa = value / scale;
    // Up to 4 significant digits, trailing zeros trimmed by `{}` on the
    // rounded value.
    let rounded = (mantissa * 1000.0).round() / 1000.0;
    write!(f, "{rounded} {prefix}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::fmt::Display;

    struct Wrap(f64, &'static str);

    impl Display for Wrap {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            format_si(f, self.0, self.1)
        }
    }

    #[test]
    fn prefixes_cover_common_ranges() {
        assert_eq!(Wrap(1.0, "V").to_string(), "1 V");
        assert_eq!(Wrap(0.19, "V").to_string(), "190 mV");
        assert_eq!(Wrap(103e6, "W").to_string(), "103 MW");
        assert_eq!(Wrap(4.1e-9, "W").to_string(), "4.1 nW");
        assert_eq!(Wrap(1.9e-12, "J").to_string(), "1.9 pJ");
        assert_eq!(Wrap(2.5e-15, "J").to_string(), "2.5 fJ");
    }

    #[test]
    fn negative_values_keep_sign() {
        assert_eq!(Wrap(-0.1, "V").to_string(), "-100 mV");
    }

    #[test]
    fn extreme_values_clamp_to_last_prefix() {
        assert_eq!(Wrap(1e-27, "J").to_string(), "0.001 yJ");
    }

    #[test]
    fn non_finite_does_not_panic() {
        assert_eq!(Wrap(f64::INFINITY, "V").to_string(), "inf V");
        assert!(Wrap(f64::NAN, "V").to_string().starts_with("NaN"));
    }
}
