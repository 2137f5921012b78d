//! Gate primitives and their next-state functions.

use core::fmt;

use crate::graph::NetId;

/// The primitive gate alphabet.
///
/// Most kinds are ordinary combinational gates; [`GateKind::CElement`] and
/// [`GateKind::SrLatch`] are *state-holding*: their next output depends on
/// the present output, which is what lets hazard-free speed-independent
/// circuits remember where they are in a handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// External input, driven by the test bench / environment.
    Input,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Inv,
    /// N-input AND (≥ 2 inputs).
    And,
    /// N-input NAND (≥ 2 inputs).
    Nand,
    /// N-input OR (≥ 2 inputs).
    Or,
    /// N-input NOR (≥ 2 inputs).
    Nor,
    /// N-input XOR — parity (≥ 2 inputs).
    Xor,
    /// N-input XNOR — complement of parity (≥ 2 inputs).
    Xnor,
    /// Muller C-element (≥ 2 inputs): output rises when *all* inputs are 1,
    /// falls when *all* are 0, otherwise holds its state. The fundamental
    /// synchronisation gate of self-timed logic.
    CElement,
    /// 3-input majority gate.
    Majority3,
    /// Set/reset latch with inputs `[set, reset]`: set wins over hold,
    /// reset wins over set (reset-dominant).
    SrLatch,
    /// Toggle flip-flop (1 input): the output inverts on each **rising**
    /// input edge. This is the paper's Fig. 10 toggle \[3\] modelled as a
    /// primitive, with delay/load factors budgeted for its internal
    /// gate count; a full toggle cycle needs two input pulses, so a chain
    /// of toggles ripples a binary count exactly as in the
    /// charge-to-digital converter of Fig. 9.
    Toggle,
    /// Rising-edge D flip-flop with inputs `[clk, d]` — the synchronous
    /// baseline primitive ("Design 2" style circuits).
    Dff,
}

impl GateKind {
    /// Permitted input count for this kind: `(min, max)` inclusive, with
    /// `usize::MAX` meaning unbounded.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Inv => (1, 1),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
            | GateKind::CElement => (2, usize::MAX),
            GateKind::Majority3 => (3, 3),
            GateKind::SrLatch => (2, 2),
            GateKind::Toggle => (1, 1),
            GateKind::Dff => (2, 2),
        }
    }

    /// `true` for gates whose next output depends on the current output.
    pub(crate) fn is_state_holding(self) -> bool {
        matches!(
            self,
            GateKind::CElement | GateKind::SrLatch | GateKind::Toggle | GateKind::Dff
        )
    }

    /// `true` for external inputs and constants (no driving logic).
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// The next-state function: new output for the given `inputs`, where
    /// `current` is the present output (only consulted by state-holding
    /// kinds).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` violates [`Self::arity`] (netlist
    /// construction enforces arity, so this indicates internal misuse).
    pub fn eval(self, inputs: &[bool], current: bool) -> bool {
        self.eval_indexed(inputs.len(), |i| inputs[i], current)
    }

    /// Next-state function over an indexed input reader — the shared core
    /// of [`Self::eval`] and [`Self::eval_map`]. Taking a getter instead
    /// of a slice lets callers that hold input *net ids* plus a value
    /// table evaluate in place, without collecting the input levels into
    /// a temporary `Vec<bool>` per event.
    fn eval_indexed(self, n: usize, get: impl Fn(usize) -> bool, current: bool) -> bool {
        let (lo, hi) = self.arity();
        assert!(
            n >= lo && n <= hi,
            "{self} expects between {lo} and {hi} inputs, got {n}"
        );
        match self {
            GateKind::Input => current,
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => get(0),
            GateKind::Inv => !get(0),
            GateKind::And => (0..n).all(&get),
            GateKind::Nand => !(0..n).all(&get),
            GateKind::Or => (0..n).any(&get),
            GateKind::Nor => !(0..n).any(&get),
            GateKind::Xor => (0..n).filter(|&i| get(i)).count() % 2 == 1,
            GateKind::Xnor => (0..n).filter(|&i| get(i)).count() % 2 == 0,
            GateKind::CElement => {
                if (0..n).all(&get) {
                    true
                } else if !(0..n).any(&get) {
                    false
                } else {
                    current
                }
            }
            GateKind::Majority3 => (0..n).filter(|&i| get(i)).count() >= 2,
            GateKind::SrLatch => {
                let (set, reset) = (get(0), get(1));
                if reset {
                    false
                } else if set {
                    true
                } else {
                    current
                }
            }
            // Edge-triggered kinds hold their state under pure level
            // evaluation; edges arrive through `eval_map_with_edge`.
            GateKind::Toggle | GateKind::Dff => current,
        }
    }

    /// [`Self::eval`] reading input levels through `read` instead of a
    /// pre-collected slice — the allocation-free form used by the
    /// simulator and verifier hot loops, which hold a value table indexed
    /// by net.
    ///
    /// # Panics
    ///
    /// Panics on arity violations, like [`Self::eval`].
    pub fn eval_map(self, inputs: &[NetId], read: impl Fn(NetId) -> bool, current: bool) -> bool {
        self.eval_indexed(inputs.len(), |i| read(inputs[i]), current)
    }

    /// Next-state function with edge information, reading input levels
    /// like [`Self::eval_map`]: `edge`, when present, names the input
    /// position that just changed and its new level.
    ///
    /// Level-sensitive kinds ignore the edge and defer to
    /// [`Self::eval_map`]; [`GateKind::Toggle`] inverts its output on a
    /// rising edge of its input, and [`GateKind::Dff`] captures `d` on a
    /// rising edge of `clk`.
    ///
    /// # Panics
    ///
    /// Panics on arity violations, like [`Self::eval`].
    pub fn eval_map_with_edge(
        self,
        inputs: &[NetId],
        read: impl Fn(NetId) -> bool,
        current: bool,
        edge: Option<(usize, bool)>,
    ) -> bool {
        match self {
            GateKind::Toggle => match edge {
                Some((0, true)) => !current,
                _ => current,
            },
            GateKind::Dff => match edge {
                Some((0, true)) => read(inputs[1]),
                _ => current,
            },
            _ => self.eval_map(inputs, read, current),
        }
    }

    /// [`Self::eval_map_with_edge`] over a pre-collected slice of input
    /// levels, deferring to [`Self::eval`]: the reference the unit tests
    /// check the simulator's form against.
    ///
    /// # Panics
    ///
    /// Panics on arity violations, like [`Self::eval`].
    #[cfg(test)]
    pub(crate) fn eval_with_edge(
        self,
        inputs: &[bool],
        current: bool,
        edge: Option<(usize, bool)>,
    ) -> bool {
        match self {
            GateKind::Toggle => match edge {
                Some((0, true)) => !current,
                _ => current,
            },
            GateKind::Dff => match edge {
                Some((0, true)) => inputs[1],
                _ => current,
            },
            _ => self.eval(inputs, current),
        }
    }

    /// Relative input load of this gate in unit-inverter gate capacitances
    /// (series stacks and state-holders present more capacitance).
    pub fn input_load_factor(self) -> f64 {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0.0,
            GateKind::Buf | GateKind::Inv => 1.0,
            GateKind::And | GateKind::Or => 1.3,
            GateKind::Nand | GateKind::Nor => 1.2,
            GateKind::Xor | GateKind::Xnor => 2.0,
            GateKind::CElement => 1.8,
            GateKind::Majority3 => 1.6,
            GateKind::SrLatch => 1.5,
            GateKind::Toggle => 2.2,
            GateKind::Dff => 2.5,
        }
    }

    /// Intrinsic (logical-effort style) delay factor relative to an
    /// inverter.
    pub fn delay_factor(self) -> f64 {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0.0,
            GateKind::Buf => 2.0, // two stages
            GateKind::Inv => 1.0,
            GateKind::And | GateKind::Or => 1.8,
            GateKind::Nand | GateKind::Nor => 1.4,
            GateKind::Xor | GateKind::Xnor => 2.4,
            GateKind::CElement => 2.0,
            GateKind::Majority3 => 2.0,
            GateKind::SrLatch => 1.8,
            GateKind::Toggle => 3.0,
            GateKind::Dff => 3.5,
        }
    }
}

/// Error returned when parsing an unknown gate-kind name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateKindError(String);

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind '{}'", self.0)
    }
}

impl std::error::Error for ParseGateKindError {}

impl core::str::FromStr for GateKind {
    type Err = ParseGateKindError;

    /// Parses the upper-case mnemonic produced by the [`fmt::Display`]
    /// impl (`INPUT`, `C`, `MAJ3`, …) — the vocabulary of the `emcnet`
    /// text format.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "INPUT" => GateKind::Input,
            "CONST0" => GateKind::Const0,
            "CONST1" => GateKind::Const1,
            "BUF" => GateKind::Buf,
            "INV" => GateKind::Inv,
            "AND" => GateKind::And,
            "NAND" => GateKind::Nand,
            "OR" => GateKind::Or,
            "NOR" => GateKind::Nor,
            "XOR" => GateKind::Xor,
            "XNOR" => GateKind::Xnor,
            "C" => GateKind::CElement,
            "MAJ3" => GateKind::Majority3,
            "SR" => GateKind::SrLatch,
            "TGL" => GateKind::Toggle,
            "DFF" => GateKind::Dff,
            other => return Err(ParseGateKindError(other.to_owned())),
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Inv => "INV",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::CElement => "C",
            GateKind::Majority3 => "MAJ3",
            GateKind::SrLatch => "SR",
            GateKind::Toggle => "TGL",
            GateKind::Dff => "DFF",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_prng::{Rng, StdRng};

    /// Random bit vector with length in `[lo, hi)`.
    fn bit_vec(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<bool> {
        let n = rng.gen_range(lo..hi);
        (0..n).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn two_input_truth_tables() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for (a, b) in cases {
            let v = [a, b];
            assert_eq!(GateKind::And.eval(&v, false), a & b);
            assert_eq!(GateKind::Nand.eval(&v, false), !(a & b));
            assert_eq!(GateKind::Or.eval(&v, false), a | b);
            assert_eq!(GateKind::Nor.eval(&v, false), !(a | b));
            assert_eq!(GateKind::Xor.eval(&v, false), a ^ b);
            assert_eq!(GateKind::Xnor.eval(&v, false), !(a ^ b));
        }
    }

    #[test]
    fn inverter_and_buffer() {
        assert!(GateKind::Inv.eval(&[false], false));
        assert!(!GateKind::Inv.eval(&[true], true));
        assert!(GateKind::Buf.eval(&[true], false));
    }

    #[test]
    fn constants_ignore_state() {
        assert!(!GateKind::Const0.eval(&[], true));
        assert!(GateKind::Const1.eval(&[], false));
    }

    #[test]
    fn c_element_holds_on_disagreement() {
        let c = GateKind::CElement;
        assert!(c.eval(&[true, true], false)); // all 1 → rise
        assert!(!c.eval(&[false, false], true)); // all 0 → fall
        assert!(c.eval(&[true, false], true)); // hold 1
        assert!(!c.eval(&[true, false], false)); // hold 0
                                                 // Wide C-element.
        assert!(c.eval(&[true, true, true, true], false));
        assert!(c.eval(&[true, true, false, true], true));
    }

    #[test]
    fn majority3() {
        let m = GateKind::Majority3;
        assert!(!m.eval(&[true, false, false], false));
        assert!(m.eval(&[true, true, false], false));
        assert!(m.eval(&[true, true, true], false));
    }

    #[test]
    fn sr_latch_reset_dominant() {
        let sr = GateKind::SrLatch;
        assert!(sr.eval(&[true, false], false)); // set
        assert!(!sr.eval(&[false, true], true)); // reset
        assert!(sr.eval(&[false, false], true)); // hold
        assert!(!sr.eval(&[true, true], true)); // reset dominates
    }

    #[test]
    fn input_holds_externally_driven_value() {
        assert!(GateKind::Input.eval(&[], true));
        assert!(!GateKind::Input.eval(&[], false));
    }

    #[test]
    #[should_panic(expected = "expects between")]
    fn arity_violation_panics() {
        let _ = GateKind::Inv.eval(&[true, false], false);
    }

    #[test]
    fn state_holding_classification() {
        assert!(GateKind::CElement.is_state_holding());
        assert!(GateKind::SrLatch.is_state_holding());
        assert!(!GateKind::Nand.is_state_holding());
        assert!(GateKind::Input.is_source());
        assert!(GateKind::Const1.is_source());
        assert!(!GateKind::Inv.is_source());
    }

    #[test]
    fn toggle_flips_on_rising_edge_only() {
        let t = GateKind::Toggle;
        // Rising edge inverts.
        assert!(t.eval_with_edge(&[true], false, Some((0, true))));
        assert!(!t.eval_with_edge(&[true], true, Some((0, true))));
        // Falling edge holds.
        assert!(t.eval_with_edge(&[false], true, Some((0, false))));
        // Level evaluation (no edge) holds.
        assert!(t.eval_with_edge(&[true], true, None));
        assert!(t.eval(&[true], true));
    }

    #[test]
    fn dff_captures_d_on_clock_rise() {
        let d = GateKind::Dff;
        // clk rise with d = 1 captures 1; with d = 0 captures 0.
        assert!(d.eval_with_edge(&[true, true], false, Some((0, true))));
        assert!(!d.eval_with_edge(&[true, false], true, Some((0, true))));
        // d changing (position 1) never captures.
        assert!(d.eval_with_edge(&[true, true], true, Some((1, true))));
        assert!(!d.eval_with_edge(&[false, true], false, Some((1, true))));
        // clk fall holds.
        assert!(d.eval_with_edge(&[false, false], true, Some((0, false))));
    }

    #[test]
    fn level_gates_ignore_edge_information() {
        assert_eq!(
            GateKind::Nand.eval_with_edge(&[true, true], false, Some((0, true))),
            GateKind::Nand.eval(&[true, true], false)
        );
        assert_eq!(
            GateKind::CElement.eval_with_edge(&[true, false], true, Some((1, false))),
            GateKind::CElement.eval(&[true, false], true)
        );
    }

    #[test]
    fn display_nonempty_for_all_kinds() {
        for k in [
            GateKind::Input,
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Inv,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::CElement,
            GateKind::Majority3,
            GateKind::SrLatch,
            GateKind::Toggle,
            GateKind::Dff,
        ] {
            assert!(!k.to_string().is_empty());
            assert!(k.delay_factor() >= 0.0);
            assert!(k.input_load_factor() >= 0.0);
            // Display ↔ FromStr round-trips for the whole alphabet.
            assert_eq!(k.to_string().parse::<GateKind>(), Ok(k));
        }
        let err = "MYSTERY".parse::<GateKind>().unwrap_err();
        assert_eq!(err.to_string(), "unknown gate kind 'MYSTERY'");
    }

    /// The allocation-free `eval_map`/`eval_map_with_edge` forms must
    /// agree with the slice forms on every kind, width and state.
    #[test]
    fn eval_map_agrees_with_slice_eval() {
        let mut nl = crate::graph::Netlist::new();
        let nets: Vec<NetId> = (0..6).map(|i| nl.input(&format!("n{i}"))).collect();
        let mut rng = StdRng::seed_from_u64(0xe7a1);
        let widths = |k: GateKind| match k {
            GateKind::Buf | GateKind::Inv | GateKind::Toggle => 1,
            GateKind::SrLatch | GateKind::Dff => 2,
            GateKind::Majority3 => 3,
            _ => 0, // randomised 2..=6 below
        };
        for kind in [
            GateKind::Buf,
            GateKind::Inv,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::CElement,
            GateKind::Majority3,
            GateKind::SrLatch,
            GateKind::Toggle,
            GateKind::Dff,
        ] {
            for _ in 0..128 {
                let w = match widths(kind) {
                    0 => rng.gen_range(2..7usize),
                    w => w,
                };
                let vals: Vec<bool> = (0..6).map(|_| rng.gen::<bool>()).collect();
                let levels: Vec<bool> = nets[..w].iter().map(|n| vals[n.index()]).collect();
                let cur = rng.gen::<bool>();
                let read = |n: NetId| vals[n.index()];
                assert_eq!(
                    kind.eval_map(&nets[..w], read, cur),
                    kind.eval(&levels, cur),
                    "{kind} w={w} vals={levels:?} cur={cur}"
                );
                let edge = if rng.gen::<bool>() {
                    Some((rng.gen_range(0..w), rng.gen::<bool>()))
                } else {
                    None
                };
                assert_eq!(
                    kind.eval_map_with_edge(&nets[..w], read, cur, edge),
                    kind.eval_with_edge(&levels, cur, edge),
                    "{kind} w={w} vals={levels:?} cur={cur} edge={edge:?}"
                );
            }
        }
    }

    /// De Morgan: NAND(a, b, …) == INV(AND(a, b, …)).
    #[test]
    fn de_morgan_nand() {
        let mut rng = StdRng::seed_from_u64(0xde);
        for _ in 0..512 {
            let bits = bit_vec(&mut rng, 2, 8);
            let via_nand = GateKind::Nand.eval(&bits, false);
            let via_and_inv = GateKind::Inv.eval(&[GateKind::And.eval(&bits, false)], false);
            assert_eq!(via_nand, via_and_inv, "bits {bits:?}");
        }
    }

    /// XOR and XNOR are complementary for any width.
    #[test]
    fn xor_xnor_complementary() {
        let mut rng = StdRng::seed_from_u64(0xd0);
        for _ in 0..512 {
            let bits = bit_vec(&mut rng, 2, 8);
            assert_ne!(
                GateKind::Xor.eval(&bits, false),
                GateKind::Xnor.eval(&bits, false),
                "bits {bits:?}"
            );
        }
    }

    /// A C-element never glitches: if inputs are unanimous the output
    /// follows them, otherwise it equals `current`.
    #[test]
    fn c_element_monotonic() {
        let mut rng = StdRng::seed_from_u64(0xce);
        for _ in 0..512 {
            let bits = bit_vec(&mut rng, 2, 6);
            let cur = rng.gen::<bool>();
            let out = GateKind::CElement.eval(&bits, cur);
            if bits.iter().all(|&b| b) {
                assert!(out, "bits {bits:?}");
            } else if bits.iter().all(|&b| !b) {
                assert!(!out, "bits {bits:?}");
            } else {
                assert_eq!(out, cur, "bits {bits:?}");
            }
        }
    }
}
