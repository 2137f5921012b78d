//! `ac_counter`: the Fig. 4 rig — a self-timed oscillator driving an
//! 8-bit ripple counter on the 0.2 V ± 0.1 V, 1 MHz rail — advanced one
//! supply period per `Simulator::run_until` call.

use emc_async::{SelfTimedOscillator, ToggleRippleCounter};
use emc_device::DeviceModel;
use emc_netlist::{GateKind, NetId, Netlist};
use emc_power::chain::ac_supply;
use emc_prng::{Rng, StdRng};
use emc_sim::{Simulator, SupplyKind, TraceEntry};
use emc_units::{Hertz, Seconds, Volts};

use super::med;
use crate::check::{Checks, Expect};
use crate::pins::AcOut;
use crate::span::Recorder;
use crate::{Bench, Size};

/// Supply frequency of the Fig. 4 rail.
const FREQ_HZ: f64 = 1e6;
/// Counter width.
const BITS: usize = 8;
/// Seeded process variation: every gate's delay is scaled by a factor
/// drawn uniformly from `1 ± VARIATION`.
const VARIATION: f64 = 0.02;

/// The workload state across iterations.
pub struct AcCounter {
    periods: usize,
    seed: u64,
    expect: Expect<AcOut>,
}

impl AcCounter {
    /// Supply periods per drive at each size.
    pub fn new(size: Size, seed: u64, pin: Option<AcOut>) -> Self {
        let periods = match size {
            Size::Full => 2000,
            Size::Smoke => 20,
        };
        Self {
            periods,
            seed,
            expect: Expect::new(pin),
        }
    }
}

/// Whether `bit` toggles exactly once per transition of `clock.0` to
/// `clock.1`: from its first toggle on (before it, start-up settles the
/// chain), clock edges and toggles must alternate. A final clock edge
/// may still be waiting for its toggle.
fn toggles_once_per_edge(trace: &[TraceEntry], clock: (NetId, bool), bit: NetId) -> bool {
    let mut want_toggle = None;
    for e in trace {
        let edge = e.net == clock.0 && e.value == clock.1;
        want_toggle = match (edge, e.net == bit, want_toggle) {
            (false, true, None | Some(true)) => Some(false),
            (true, false, Some(false)) => Some(true),
            (false, true, Some(false)) | (true, false, Some(true)) => return false,
            _ => want_toggle,
        };
    }
    true
}

impl Bench for AcCounter {
    fn work(&self) -> String {
        format!(
            "{} supply periods of the Fig. 4 rail per drive, {BITS}-bit counter, \
             delay variation ±{}% from the seed",
            self.periods,
            VARIATION * 100.0
        )
    }

    fn iteration(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        let (periods, seed) = (self.periods, self.seed);
        let expect = &mut self.expect;
        let out = checks.op(rec, "ac_counter drive", |rec| {
            let (nl, osc, counter) = rec.setup("async.build", |_| {
                let mut nl = Netlist::new();
                let osc = SelfTimedOscillator::build(&mut nl, "osc");
                let counter = ToggleRippleCounter::build(&mut nl, BITS, osc.output(), "cnt");
                (nl, osc, counter)
            });
            let (mut sim, domain) = rec.setup("sim.new", |_| {
                let gates: Vec<_> = nl
                    .iter_gates()
                    .filter(|(_, g)| g.kind() != GateKind::Input)
                    .map(|(id, _)| id)
                    .collect();
                let mut sim = Simulator::new(nl, DeviceModel::umc90());
                let supply = ac_supply(Volts(0.2), Volts(0.1), Hertz(FREQ_HZ));
                let resolution = Seconds(1.0 / FREQ_HZ / 128.0);
                let d = sim.add_domain("ac", SupplyKind::ideal_with_resolution(supply, resolution));
                sim.assign_all(d);
                let mut rng = StdRng::seed_from_u64(seed);
                for g in gates {
                    let u: f64 = rng.gen_range(-1.0..1.0);
                    sim.set_delay_scale(g, 1.0 + VARIATION * u);
                }
                counter.watch(&mut sim);
                sim.watch(osc.output());
                osc.prime(&mut sim);
                sim.start();
                (sim, d)
            });
            if rec.tracing() {
                sim.enable_obs();
            }
            let fired = rec.run("bench.drive", |rec| {
                let mut fired = 0;
                for k in 1..=periods {
                    let t = Seconds(k as f64 / FREQ_HZ);
                    fired += rec.span("sim.run_until", |_| sim.run_until(t)).fired;
                }
                fired
            });
            let digest = rec.run("sim.digest", |_| sim.trace().canonical_digest());
            rec.count("sim.events", fired as f64);
            rec.count("sim.trace_entries", sim.trace().len() as f64);
            if rec.tracing() {
                let hw = sim.telemetry().metrics.gauge_value("sim.queue.high_water");
                rec.count("sim.queue_high_water", hw.unwrap_or(0.0));
            }

            if !sim.hazards().is_empty() {
                return Err(format!("{} hazards", sim.hazards().len()));
            }
            // Fig. 4's claim: the count never corrupts, so every stage
            // toggles exactly once per edge of its clock.
            let mut clock = (osc.output(), true);
            for (i, &bit) in counter.bits().iter().enumerate() {
                if !toggles_once_per_edge(sim.trace().entries(), clock, bit) {
                    return Err(format!("counter bit {i} lost or invented a toggle"));
                }
                clock = (bit, false);
            }
            if sim.trace().transition_count(counter.bits()[BITS - 1]) == 0 {
                return Err("the counter never reached its top bit".to_owned());
            }
            let got = AcOut {
                digest,
                fired,
                energy_bits: sim.energy_drawn(domain).0.to_bits(),
            };
            expect.check(&got)?;
            Ok(got)
        });
        if let Some(o) = out {
            checks.observed(format!("ac_counter outputs {o:?}"));
        }
    }

    fn per_layer(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let run_until = med(rec.span_totals("sim.run_until"));
        let events = med(rec.count_totals("sim.events"));
        vec![
            ("sim.run_until_s", run_until),
            ("sim.ns_per_event", run_until / events.max(1.0) * 1e9),
            ("sim.events", events),
            (
                "sim.trace_entries",
                med(rec.count_totals("sim.trace_entries")),
            ),
            (
                "sim.queue_high_water",
                med(rec.count_totals("sim.queue_high_water")),
            ),
            ("sim.digest_s", med(rec.span_totals("sim.digest"))),
            ("async.build_s", med(rec.span_totals("async.build"))),
            ("sim.new_s", med(rec.span_totals("sim.new"))),
            ("driver_s", super::driver_self_s(rec)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lost_or_invented_toggle_is_caught() {
        let mut nl = Netlist::new();
        let (clk, q) = (nl.input("clk"), nl.input("q"));
        let at = |t: f64, net: NetId, value: bool| TraceEntry {
            time: Seconds(t),
            net,
            value,
        };
        // Start-up toggle, then one toggle per rising clock edge, and a
        // last edge whose toggle is still in flight.
        let good = [
            at(0.0, q, true),
            at(1.0, clk, true),
            at(1.5, q, false),
            at(2.0, clk, false),
            at(3.0, clk, true),
            at(3.5, q, true),
            at(4.0, clk, false),
            at(5.0, clk, true),
        ];
        assert!(toggles_once_per_edge(&good, (clk, true), q));
        let mut lost = good.to_vec();
        lost.remove(5);
        assert!(!toggles_once_per_edge(&lost, (clk, true), q));
        let mut invented = good.to_vec();
        invented.insert(3, at(1.7, q, true));
        assert!(!toggles_once_per_edge(&invented, (clk, true), q));
    }
}
