//! `wchb_array`: the PDES rig of `emc-perf`/`emc-stats` — independent
//! dual-rail WCHB rows in 8 Vdd domains at 1.0/0.8/0.6 V — driven first
//! on a sequential `Simulator`, then on a `PdesSimulator`, with the same
//! seeded token stream. Both runs must fire the same events and produce
//! the same canonical trace digest.

use emc_bench::{pdes_array, pdes_parallel, pdes_sequential, DriveSim, PdesArray, PDES_STEP};
use emc_prng::SplitMix64;
use emc_units::Seconds;

use super::med;
use crate::check::{Checks, Expect};
use crate::pins::WchbOut;
use crate::span::Recorder;
use crate::{Bench, Size};

/// Vdd domains (partitions) of the rig.
const PARTS: usize = 8;

/// The workload state across iterations.
pub struct WchbArray {
    rows: usize,
    cols: usize,
    ticks: usize,
    threads: usize,
    seed: u64,
    expect: Expect<WchbOut>,
}

impl WchbArray {
    /// Array shape and drive length at each size.
    pub fn new(size: Size, seed: u64, threads: usize, pin: Option<WchbOut>) -> Self {
        let (rows, cols, ticks) = match size {
            Size::Full => (128, 500, 12),
            Size::Smoke => (8, 6, 7),
        };
        Self {
            rows,
            cols,
            ticks,
            threads,
            seed,
            expect: Expect::new(pin),
        }
    }
}

/// The data rail row `row` offers at driver tick `tick`: a seeded bit.
fn token_is_true(seed: u64, tick: usize, row: usize) -> bool {
    SplitMix64::mix(seed, ((tick as u64) << 32) | row as u64) & 1 == 1
}

/// Pumps `ticks` driver rounds through every row, like
/// `emc_bench::drive_array`, but with the token data drawn from the
/// seed. Each engine advance is a span named `advance`; the rest of the
/// enclosing span is the benchmark's own stimulus.
fn drive<S: DriveSim>(
    rec: &mut Recorder,
    sim: &mut S,
    rig: &PdesArray,
    ticks: usize,
    seed: u64,
    advance: &'static str,
) -> u64 {
    let mut fired = 0u64;
    for k in 0..ticks {
        let t = Seconds(PDES_STEP * (k + 1) as f64);
        fired += rec.span(advance, |_| sim.advance(t));
        for (r, p) in rig.rows.iter().enumerate() {
            // Sender: spacer + ack low → offer the seeded token; valid +
            // ack high → return to spacer.
            let rail = p.inputs()[0];
            let (in_t, in_f) = (sim.net_value(rail.t), sim.net_value(rail.f));
            let ack = sim.net_value(p.sender_ack());
            if !in_t && !in_f && !ack {
                let net = if token_is_true(seed, k, r) {
                    rail.t
                } else {
                    rail.f
                };
                sim.inject(net, t, true);
            } else if (in_t || in_f) && ack {
                sim.inject(if in_t { rail.t } else { rail.f }, t, false);
            }
            // Receiver: mirror output completion onto the sink ack.
            let out = p.outputs()[0];
            let (ot, of) = (sim.net_value(out.t), sim.net_value(out.f));
            let sink = sim.net_value(p.sink_ack());
            if (ot ^ of) && !sink {
                sim.inject(p.sink_ack(), t, true);
            } else if !ot && !of && sink {
                sim.inject(p.sink_ack(), t, false);
            }
        }
    }
    let t_end = Seconds(PDES_STEP * (ticks + 1) as f64);
    fired + rec.span(advance, |_| sim.advance(t_end))
}

impl Bench for WchbArray {
    fn work(&self) -> String {
        format!(
            "{}x{} WCHB array ({} Vdd domains), {} driver ticks, sequential then PDES at {} threads",
            self.rows, self.cols, PARTS, self.ticks, self.threads
        )
    }

    fn iteration(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        let (rows, cols, ticks, threads, seed) =
            (self.rows, self.cols, self.ticks, self.threads, self.seed);
        let Some(rig) = checks.prerequisite(rec, "wchb_array build", 2, |rec| {
            let mut rig = rec.setup("async.build", |_| pdes_array(rows, cols, PARTS));
            rec.setup("netlist.freeze", |_| rig.netlist.freeze());
            rig
        }) else {
            return;
        };

        let expect = &mut self.expect;
        let seq = checks.op(rec, "wchb_array sequential drive", |rec| {
            let mut sim = rec.setup("sim.new", |_| pdes_sequential(&rig));
            if rec.tracing() {
                sim.enable_obs();
            }
            let fired = rec.run("bench.drive", |rec| {
                drive(rec, &mut sim, &rig, ticks, seed, "sim.run_until")
            });
            let digest = rec.run("sim.digest", |_| sim.trace().canonical_digest());
            rec.count("sim.events", fired as f64);
            rec.count("sim.trace_entries", sim.trace().len() as f64);
            if rec.tracing() {
                let hw = sim.telemetry().metrics.gauge_value("sim.queue.high_water");
                rec.count("sim.queue_high_water", hw.unwrap_or(0.0));
            }
            if sim.hazard_count() != 0 {
                return Err(format!("{} hazards", sim.hazard_count()));
            }
            let got = WchbOut { fired, digest };
            expect.check(&got)?;
            Ok(got)
        });
        if let Some(o) = &seq {
            checks.observed(format!("wchb_array outputs {o:?}"));
        }

        checks.op(rec, "wchb_array PDES drive", |rec| {
            let mut par = rec.setup("sim.pdes.new", |_| pdes_parallel(&rig, threads, false));
            let fired = rec.run("bench.drive", |rec| {
                drive(rec, &mut par, &rig, ticks, seed, "sim.pdes.run_until")
            });
            let trace = rec.run("sim.pdes.trace_merge", |_| par.trace());
            let digest = rec.run("sim.pdes.digest", |_| trace.digest());
            let stats = par.stats();
            rec.count("sim.pdes.events", fired as f64);
            rec.count("sim.pdes.sync_rounds", stats.sync_rounds as f64);
            rec.count("sim.pdes.crossing_events", stats.crossing_events as f64);
            rec.count("sim.pdes.stalled_epochs", stats.stalled_epochs as f64);
            if par.hazard_count() != 0 {
                return Err(format!("{} hazards", par.hazard_count()));
            }
            let got = WchbOut { fired, digest };
            match &seq {
                Some(s) if *s != got => Err(format!("sequential gave {s:?}, PDES {got:?}")),
                Some(_) => Ok(()),
                None => expect.check(&got),
            }
        });
    }

    fn per_layer(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let seq = med(rec.span_totals("sim.run_until"));
        let par = med(rec.span_totals("sim.pdes.run_until"));
        let events = med(rec.count_totals("sim.events"));
        let pdes_events = med(rec.count_totals("sim.pdes.events"));
        let count = |name: &str| med(rec.count_totals(name));
        vec![
            ("sim.run_until_s", seq),
            ("sim.ns_per_event", seq / events.max(1.0) * 1e9),
            ("sim.events", events),
            ("sim.trace_entries", count("sim.trace_entries")),
            ("sim.queue_high_water", count("sim.queue_high_water")),
            ("sim.digest_s", med(rec.span_totals("sim.digest"))),
            ("async.build_s", med(rec.span_totals("async.build"))),
            ("netlist.freeze_s", med(rec.span_totals("netlist.freeze"))),
            ("sim.new_s", med(rec.span_totals("sim.new"))),
            ("sim.pdes.new_s", med(rec.span_totals("sim.pdes.new"))),
            ("sim.pdes.run_until_s", par),
            ("sim.pdes.ns_per_event", par / pdes_events.max(1.0) * 1e9),
            (
                "sim.pdes.trace_merge_s",
                med(rec.span_totals("sim.pdes.trace_merge")),
            ),
            ("sim.pdes.speedup", if par > 0.0 { seq / par } else { 0.0 }),
            ("sim.pdes.sync_rounds", count("sim.pdes.sync_rounds")),
            (
                "sim.pdes.crossing_events",
                count("sim.pdes.crossing_events"),
            ),
            ("sim.pdes.stalled_epochs", count("sim.pdes.stalled_epochs")),
            ("driver_s", super::driver_self_s(rec)),
        ]
    }
}
