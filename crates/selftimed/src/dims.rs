//! DIMS (Delay-Insensitive Minterm Synthesis) dual-rail logic.
//!
//! Design 1 of the paper is not just pipelines: *computation* itself is
//! done in dual-rail with completion detection. DIMS is the classical
//! recipe: for a two-input Boolean function, build one C-element per
//! minterm (it fires when both input bits have arrived with the matching
//! polarity) and OR the minterms into the output rails:
//!
//! ```text
//! f(a,b):   t-rail = ∨ { C(a.r, b.s) | f(r,s) = 1 }
//!           f-rail = ∨ { C(a.r, b.s) | f(r,s) = 0 }
//! ```
//!
//! The output becomes valid only after **both** inputs are valid — input
//! completion is free — and returns to spacer only after both inputs
//! have; the result is delay-insensitive by construction. On top of the
//! gate, [`DualRailAdder`] assembles a completion-detected ripple-carry
//! adder, the kind of block the paper's Design 1 counter/SRAM controller
//! world is made of.

use emc_netlist::{completion_detector, DualRail, GateKind, NetId, Netlist};
use emc_sim::Simulator;
use emc_units::Seconds;

/// Builds the DIMS implementation of an arbitrary 2-input Boolean
/// function over dual-rail operands; returns the dual-rail result.
///
/// `f` is sampled at the four input combinations at *construction* time,
/// so any `Fn(bool, bool) -> bool` works (AND, OR, XOR, NAND, …).
pub fn dims_gate2(
    netlist: &mut Netlist,
    f: impl Fn(bool, bool) -> bool,
    a: DualRail,
    b: DualRail,
    name: &str,
) -> DualRail {
    let rail_of = |bit: DualRail, v: bool| if v { bit.t } else { bit.f };
    let mut t_minterms = Vec::new();
    let mut f_minterms = Vec::new();
    for (i, (ra, rb)) in [(false, false), (false, true), (true, false), (true, true)]
        .into_iter()
        .enumerate()
    {
        let m = netlist.gate(
            GateKind::CElement,
            &[rail_of(a, ra), rail_of(b, rb)],
            &format!("{name}.m{i}"),
        );
        if f(ra, rb) {
            t_minterms.push(m);
        } else {
            f_minterms.push(m);
        }
    }
    let or_rail = |netlist: &mut Netlist, minterms: &[NetId], rail: &str| -> NetId {
        match minterms {
            [] => netlist.constant(false, &format!("{name}.{rail}.const")),
            [single] => *single,
            _ => netlist.gate(GateKind::Or, minterms, &format!("{name}.{rail}")),
        }
    };
    let t = or_rail(netlist, &t_minterms, "t");
    let f_ = or_rail(netlist, &f_minterms, "f");
    DualRail { t, f: f_ }
}

/// A one-bit dual-rail full adder: `(sum, carry)` from `(a, b, cin)`,
/// built from two layers of DIMS gates.
pub(crate) fn dims_full_adder(
    netlist: &mut Netlist,
    a: DualRail,
    b: DualRail,
    cin: DualRail,
    name: &str,
) -> (DualRail, DualRail) {
    // sum = a ⊕ b ⊕ cin; carry = majority(a, b, cin).
    let axb = dims_gate2(netlist, |x, y| x ^ y, a, b, &format!("{name}.axb"));
    let sum = dims_gate2(netlist, |x, y| x ^ y, axb, cin, &format!("{name}.sum"));
    let ab = dims_gate2(netlist, |x, y| x & y, a, b, &format!("{name}.ab"));
    let cin_axb = dims_gate2(netlist, |x, y| x & y, axb, cin, &format!("{name}.cin_axb"));
    let carry = dims_gate2(netlist, |x, y| x | y, ab, cin_axb, &format!("{name}.carry"));
    (sum, carry)
}

/// An N-bit completion-detected dual-rail ripple-carry adder.
#[derive(Debug, Clone)]
pub struct DualRailAdder {
    a: Vec<DualRail>,
    b: Vec<DualRail>,
    sum: Vec<DualRail>,
    carry_out: DualRail,
    done: NetId,
    width: usize,
}

impl DualRailAdder {
    /// Appends an `width`-bit adder to `netlist`: dual-rail inputs
    /// `a`/`b` (environment-driven), dual-rail sum and carry-out, and a
    /// word-level completion detector over the sum.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=63`.
    pub fn build(netlist: &mut Netlist, width: usize, name: &str) -> Self {
        assert!((1..=63).contains(&width), "width must be in 1..=63");
        let a: Vec<DualRail> = (0..width)
            .map(|i| DualRail::input(netlist, &format!("{name}.a{i}")))
            .collect();
        let b: Vec<DualRail> = (0..width)
            .map(|i| DualRail::input(netlist, &format!("{name}.b{i}")))
            .collect();
        // Constant-0 carry-in encoded dual-rail: f-rail follows input
        // validity so the spacer phase propagates. Simplest correct
        // choice: cin.f = validity of bit 0 of both operands (valid 0
        // when operands arrive, spacer when they leave); cin.t = const 0.
        let va0 = netlist_validity(netlist, a[0], &format!("{name}.va0"));
        let vb0 = netlist_validity(netlist, b[0], &format!("{name}.vb0"));
        let v0 = netlist.gate(GateKind::CElement, &[va0, vb0], &format!("{name}.cin_f"));
        let zero = netlist.constant(false, &format!("{name}.cin_t"));
        let mut carry = DualRail { t: zero, f: v0 };

        let mut sum = Vec::with_capacity(width);
        for i in 0..width {
            let (s, c) = dims_full_adder(netlist, a[i], b[i], carry, &format!("{name}.fa{i}"));
            sum.push(s);
            carry = c;
        }
        // Completion must cover the carry-out too: the top sum bit can
        // settle before the final carry has rippled out.
        let mut detected = sum.clone();
        detected.push(carry);
        let done = completion_detector(netlist, &detected, &format!("{name}.cd"));
        for s in &sum {
            netlist.mark_output(s.t);
            netlist.mark_output(s.f);
        }
        netlist.mark_output(carry.t);
        netlist.mark_output(carry.f);
        netlist.mark_output(done);
        Self {
            a,
            b,
            sum,
            carry_out: carry,
            done,
            width,
        }
    }

    /// The completion ("sum valid") net.
    pub fn done(&self) -> NetId {
        self.done
    }

    /// The carry-out rails.
    pub fn carry_out(&self) -> DualRail {
        self.carry_out
    }

    /// Performs one four-phase addition on a live simulator: drives the
    /// operand rails, waits for completion, reads the sum, returns to
    /// spacer, waits for completion to clear. Returns `None` if the
    /// deadline passes first.
    ///
    /// # Panics
    ///
    /// Panics if an operand exceeds the adder width.
    pub fn add(&self, sim: &mut Simulator, x: u64, y: u64, deadline: Seconds) -> Option<u64> {
        let max = if self.width == 63 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        };
        assert!(x <= max && y <= max, "operand exceeds adder width");
        self.set_operands(sim, x, y, true);
        let mut sum = None;
        let done = sim.drive_until(deadline, |sim| match sum {
            None => {
                if sim.value(self.done) {
                    sum = Some(self.read_sum(sim));
                    self.set_operands(sim, x, y, false);
                }
                false
            }
            Some(_) => !sim.value(self.done),
        });
        if !done {
            return None;
        }
        // Let the spacer drain fully so back-to-back adds are clean.
        sim.run_to_quiescence(1_000_000);
        sum
    }

    /// Schedules, at the current time, the rail that encodes each operand
    /// bit (`x`'s, then `y`'s) to `level`.
    fn set_operands(&self, sim: &mut Simulator, x: u64, y: u64, level: bool) {
        for (rails, v) in [(&self.a, x), (&self.b, y)] {
            for (i, r) in rails.iter().enumerate() {
                let net = if (v >> i) & 1 == 1 { r.t } else { r.f };
                sim.schedule_input(net, sim.now(), level);
            }
        }
    }

    /// The completed sum, carry-out as the top bit.
    fn read_sum(&self, sim: &Simulator) -> u64 {
        let mut out = 0u64;
        for (i, s) in self.sum.iter().enumerate() {
            let t = sim.value(s.t);
            debug_assert!(
                t ^ sim.value(s.f),
                "sum bit {i} not a codeword at completion"
            );
            if t {
                out |= 1 << i;
            }
        }
        if sim.value(self.carry_out.t) {
            out |= 1 << self.width;
        }
        out
    }
}

/// Per-bit validity OR (free function to appease the borrow checker in
/// `build`).
fn netlist_validity(netlist: &mut Netlist, bit: DualRail, name: &str) -> NetId {
    netlist.gate(GateKind::Or, &[bit.t, bit.f], name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use emc_device::DeviceModel;
    use emc_prng::Rng;
    use emc_prng::StdRng;
    use emc_sim::SupplyKind;
    use emc_units::Waveform;

    /// A started adder on a `vdd` rail, not yet settled.
    fn adder_on(width: usize, vdd: Waveform) -> (Simulator, DualRailAdder) {
        let mut nl = Netlist::new();
        let adder = DualRailAdder::build(&mut nl, width, "add");
        nl.check().expect("adder netlist well-formed");
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(vdd));
        sim.assign_all(d);
        sim.start();
        (sim, adder)
    }

    fn adder_rig(width: usize, vdd: f64) -> (Simulator, DualRailAdder) {
        let (mut sim, adder) = adder_on(width, Waveform::constant(vdd));
        sim.run_to_quiescence(100_000);
        (sim, adder)
    }

    #[test]
    fn dims_gate_truth_tables() {
        // Exercise AND/OR/XOR/NAND through the simulator.
        for (f, name) in [
            ((|x, y| x & y) as fn(bool, bool) -> bool, "and"),
            (|x, y| x | y, "or"),
            (|x, y| x ^ y, "xor"),
            (|x, y| !(x & y), "nand"),
        ] {
            for (a_val, b_val) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut nl = Netlist::new();
                let a = DualRail::input(&mut nl, "a");
                let b = DualRail::input(&mut nl, "b");
                let y = dims_gate2(&mut nl, f, a, b, "g");
                nl.mark_output(y.t);
                nl.mark_output(y.f);
                let mut sim = Simulator::new(nl, DeviceModel::umc90());
                let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
                sim.assign_all(d);
                sim.start();
                sim.schedule_input(if a_val { a.t } else { a.f }, Seconds(0.0), true);
                sim.schedule_input(if b_val { b.t } else { b.f }, Seconds(0.0), true);
                sim.run_until(Seconds(1e-6));
                let expect = f(a_val, b_val);
                assert_eq!(
                    sim.value(y.t),
                    expect,
                    "{name}({a_val},{b_val}) t-rail wrong"
                );
                assert_eq!(
                    sim.value(y.f),
                    !expect,
                    "{name}({a_val},{b_val}) f-rail wrong"
                );
                assert!(sim.hazards().is_empty());
            }
        }
    }

    #[test]
    fn dims_gate_waits_for_both_inputs() {
        let mut nl = Netlist::new();
        let a = DualRail::input(&mut nl, "a");
        let b = DualRail::input(&mut nl, "b");
        let y = dims_gate2(&mut nl, |x, z| x | z, a, b, "g");
        nl.mark_output(y.t);
        nl.mark_output(y.f);
        let mut sim = Simulator::new(nl, DeviceModel::umc90());
        let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(1.0)));
        sim.assign_all(d);
        sim.start();
        // Only `a` arrives: the output must stay spacer (input completion).
        sim.schedule_input(a.t, Seconds(0.0), true);
        sim.run_until(Seconds(1e-6));
        assert!(!sim.value(y.t) && !sim.value(y.f), "fired with one input");
        sim.schedule_input(b.f, sim.now(), true);
        sim.run_until(Seconds(2e-6));
        assert!(sim.value(y.t), "1 | 0 must be 1");
    }

    #[test]
    fn adder_exhaustive_3_bit() {
        let (mut sim, adder) = adder_rig(3, 1.0);
        for x in 0..8u64 {
            for y in 0..8u64 {
                let deadline = Seconds(sim.now().0 + 1e-3);
                let got = adder
                    .add(&mut sim, x, y, deadline)
                    .expect("addition completed");
                assert_eq!(got, x + y, "{x} + {y}");
            }
        }
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn adder_random_8_bit_at_low_vdd() {
        let (mut sim, adder) = adder_rig(8, 0.3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..12 {
            let x = rng.gen_range(0..256);
            let y = rng.gen_range(0..256);
            let deadline = Seconds(sim.now().0 + 1.0);
            let got = adder
                .add(&mut sim, x, y, deadline)
                .expect("addition completed");
            assert_eq!(got, x + y, "{x} + {y} at 0.3 V");
        }
        assert!(sim.hazards().is_empty());
    }

    #[test]
    fn adder_delay_insensitive_under_random_scaling() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..4 {
            let mut nl = Netlist::new();
            let adder = DualRailAdder::build(&mut nl, 4, "add");
            let mut sim = Simulator::new(nl, DeviceModel::umc90());
            let d = sim.add_domain("vdd", SupplyKind::ideal(Waveform::constant(0.5)));
            sim.assign_all(d);
            for i in 0..sim.netlist().gate_count() {
                let id = sim.netlist().gate_id(i);
                sim.set_delay_scale(id, rng.gen_range(0.05..20.0));
            }
            sim.start();
            sim.run_to_quiescence(100_000);
            for (x, y) in [(5, 9), (15, 15), (0, 0), (7, 8)] {
                let deadline = Seconds(sim.now().0 + 10.0);
                let got = adder.add(&mut sim, x, y, deadline).expect("completed");
                assert_eq!(got, x + y, "trial {trial}: {x}+{y}");
            }
            assert!(sim.hazards().is_empty(), "trial {trial} hazards");
        }
    }

    #[test]
    fn completion_tracks_vdd() {
        // The adder's completion time is the natural "done" signal —
        // measure it at two voltages.
        let latency = |vdd: f64| {
            let (mut sim, adder) = adder_rig(4, vdd);
            let t0 = sim.now();
            let deadline = Seconds(t0.0 + 10.0);
            adder.add(&mut sim, 11, 6, deadline).expect("completed");
            sim.now().0 - t0.0
        };
        let fast = latency(1.0);
        let slow = latency(0.25);
        assert!(slow / fast > 50.0, "ratio {}", slow / fast);
    }

    #[test]
    fn add_below_the_floor_gives_up_instead_of_hanging() {
        // 0.05 V is half the operating floor: no gate can switch, so the
        // addition never completes and `add` must say so.
        let (mut sim, adder) = adder_rig(2, 0.05);
        let deadline = Seconds(sim.now().0 + 1e-3);
        assert_eq!(adder.add(&mut sim, 1, 2, deadline), None);
        sim.run_to_quiescence(10);
        assert!(sim.now() <= deadline, "now {}", sim.now());
        let d = sim.domain_id(0);
        assert!(sim.energy_drawn(d).0.is_finite());

        // A ramp that never climbs to the floor: each integration window
        // comes up short, and `add` must stop at its deadline instead of
        // re-integrating forever.
        let ramp = Waveform::ramp(0.08, 0.05, Seconds(0.0), Seconds(1e-9));
        let (mut sim, adder) = adder_on(2, ramp);
        sim.run_until(Seconds(100e-9));
        let deadline = Seconds(sim.now().0 + 1e-3);
        assert_eq!(adder.add(&mut sim, 1, 2, deadline), None);
        assert!(sim.now() <= deadline, "now {}", sim.now());
        assert!(sim.energy_drawn(d).0.is_finite());
    }

    #[test]
    #[should_panic(expected = "operand exceeds")]
    fn oversized_operand_panics() {
        let (mut sim, adder) = adder_rig(3, 1.0);
        let _ = adder.add(&mut sim, 9, 0, Seconds(1.0));
    }
}
