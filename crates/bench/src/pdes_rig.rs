//! The shared PDES benchmark workload: an R×C array of independent
//! dual-rail WCHB pipeline rows, split into row-cyclic Vdd domains that
//! share no net, plus the deterministic reactive driver that pumps
//! tokens through every row at a fixed cadence.
//!
//! `perfbench`'s `wchb_array` workload times this rig sequentially on
//! one [`Simulator`] and in parallel on a [`PdesSimulator`] and checks
//! that the canonical trace digests agree; `tests/golden_equivalence.rs`
//! pins the digests of a deep-queue instance, and `emc-stats` runs the
//! same rig with observability enabled to export the `sim.pdes.*`
//! telemetry.
//!
//! The driver is *stateless and symmetric*: at each tick it reads the
//! row's protocol nets from whichever engine it is driving and injects
//! the enabled 4-phase actions (raise one data rail chosen by
//! `(tick ^ row) & 1`, lower it on acknowledge, mirror the sink
//! acknowledge off output validity). Both engines therefore receive
//! bit-identical stimulus exactly when they agree on every net value at
//! every tick — which the digest comparison then certifies end-to-end.

use emc_async::DualRailPipeline;
use emc_device::DeviceModel;
use emc_netlist::{GateKind, NetId, Netlist};
use emc_sim::{PdesPartitionSpec, PdesSimulator, Simulator, SupplyKind};
use emc_units::{Seconds, Waveform};

/// Domain rail voltages, cycled over partitions: a genuinely
/// multi-voltage split, so cross-domain delays differ.
pub const PDES_VOLTS: [f64; 3] = [1.0, 0.8, 0.6];

/// Driver cadence. Generous enough that even a 500-stage row at the
/// lowest rail voltage is quiescent when the driver samples it, so
/// every tick advances each row by one protocol phase.
pub const PDES_STEP: f64 = 1e-3;

/// The benchmark netlist plus everything needed to drive and split it.
pub struct PdesArray {
    /// The whole array in one netlist.
    pub netlist: Netlist,
    /// Per-row pipeline handles (inputs, acknowledges, outputs).
    pub rows: Vec<DualRailPipeline>,
    /// Per-gate partition assignment: row `r`, its inputs included, →
    /// partition `r % parts`.
    pub assignment: Vec<u32>,
    /// Partition count (clamped to the row count).
    pub parts: usize,
}

/// Builds `rows` independent 1-bit, `cols`-stage WCHB pipeline rows and
/// assigns row `r` to partition `r % parts` — the same decomposition as
/// `emc_gen::pipelined_array_domains`, with the row handles retained so
/// the driver can address each row's protocol nets directly.
///
/// # Panics
///
/// Panics if `rows == 0`, `cols == 0`, or `parts == 0`.
pub fn pdes_array(rows: usize, cols: usize, parts: usize) -> PdesArray {
    assert!(rows >= 1 && parts >= 1, "need at least one row and part");
    let parts = parts.min(rows);
    let mut netlist = Netlist::new();
    let mut pipes = Vec::with_capacity(rows);
    let mut assignment = Vec::new();
    for r in 0..rows {
        let p = DualRailPipeline::build(&mut netlist, cols, &format!("pd.r{r}"));
        // Gates are appended contiguously, so everything new since the
        // last row belongs to this one.
        assignment.resize(netlist.gate_count(), (r % parts) as u32);
        pipes.push(p);
    }
    PdesArray {
        netlist,
        rows: pipes,
        assignment,
        parts,
    }
}

/// One ideal-constant supply spec per partition, voltages cycled from
/// [`PDES_VOLTS`].
pub fn pdes_specs(parts: usize) -> Vec<PdesPartitionSpec> {
    (0..parts)
        .map(|d| PdesPartitionSpec {
            name: format!("vdd{d}"),
            supply: SupplyKind::ideal(Waveform::constant(PDES_VOLTS[d % PDES_VOLTS.len()])),
        })
        .collect()
}

/// The nets whose transitions enter the compared trace: each row's
/// output rails and sender acknowledge. A deliberate subset — watching
/// all nets of a million-gate array would make trace memory, not the
/// event kernel, the measured quantity.
pub fn pdes_watched(rig: &PdesArray) -> Vec<NetId> {
    rig.rows
        .iter()
        .flat_map(|p| {
            let o = p.outputs()[0];
            [o.t, o.f, p.sender_ack()]
        })
        .collect()
}

/// A started sequential oracle over the rig: same domains, same
/// per-gate assignment, same watch set as the PDES runs.
pub fn pdes_sequential(rig: &PdesArray) -> Simulator {
    let mut sim = Simulator::new(rig.netlist.clone(), DeviceModel::umc90());
    let doms: Vec<_> = pdes_specs(rig.parts)
        .iter()
        .map(|s| sim.add_domain(&s.name, s.supply.clone()))
        .collect();
    for (gid, g) in rig.netlist.iter_gates() {
        if g.kind() == GateKind::Input {
            continue;
        }
        sim.assign_domain(gid, doms[rig.assignment[gid.index()] as usize]);
    }
    for net in pdes_watched(rig) {
        sim.watch(net);
    }
    sim.start();
    sim
}

/// A started parallel simulator over the rig at `threads` worker
/// threads (0 = one per core). `obs` enables per-partition observability before start (for
/// `emc-stats`; `perfbench` measures with it off).
///
/// # Panics
///
/// Panics if `rig.assignment` leaves a net read outside the partition
/// that drives it, which no [`pdes_array`] rig does.
pub fn pdes_parallel(rig: &PdesArray, threads: usize, obs: bool) -> PdesSimulator {
    let mut sim = PdesSimulator::new(
        rig.netlist.clone(),
        DeviceModel::umc90(),
        &pdes_specs(rig.parts),
        &rig.assignment,
    )
    .expect("rows share no net");
    sim.set_threads(threads);
    if obs {
        sim.enable_obs();
    }
    for net in pdes_watched(rig) {
        sim.watch(net);
    }
    sim.start();
    sim
}

/// The engine surface the driver needs — implemented by both the
/// sequential and the parallel simulator so one driver serves both.
pub trait DriveSim {
    /// Current value of a net.
    fn net_value(&self, net: NetId) -> bool;
    /// Schedules an environment transition.
    fn inject(&mut self, net: NetId, time: Seconds, value: bool);
    /// Runs to `t` and returns how many events fired.
    fn advance(&mut self, t: Seconds) -> u64;
    /// Number of hazards observed so far.
    fn hazard_count(&self) -> usize;
}

impl DriveSim for Simulator {
    fn net_value(&self, net: NetId) -> bool {
        self.value(net)
    }
    fn inject(&mut self, net: NetId, time: Seconds, value: bool) {
        self.schedule_input(net, time, value);
    }
    fn advance(&mut self, t: Seconds) -> u64 {
        self.run_until(t).fired
    }
    fn hazard_count(&self) -> usize {
        self.hazards().len()
    }
}

impl DriveSim for PdesSimulator {
    fn net_value(&self, net: NetId) -> bool {
        self.value(net)
    }
    fn inject(&mut self, net: NetId, time: Seconds, value: bool) {
        self.schedule_input(net, time, value);
    }
    fn advance(&mut self, t: Seconds) -> u64 {
        self.run_until(t).fired
    }
    fn hazard_count(&self) -> usize {
        self.hazards().len()
    }
}

/// Pumps `ticks` driver rounds through every row and returns the total
/// fired-event count. Panics if the run was not hazard-free or fired
/// nothing.
pub fn drive_array(sim: &mut impl DriveSim, rig: &PdesArray, ticks: usize) -> u64 {
    let mut fired = 0u64;
    for k in 0..ticks {
        let t = Seconds(PDES_STEP * (k + 1) as f64);
        fired += sim.advance(t);
        for (r, p) in rig.rows.iter().enumerate() {
            let rail = p.inputs()[0];
            let (in_t, in_f) = (sim.net_value(rail.t), sim.net_value(rail.f));
            let ack = sim.net_value(p.sender_ack());
            // Sender: spacer + ack low → offer the next token on the
            // rail picked by (tick ^ row); valid + ack high → return to
            // spacer.
            if !in_t && !in_f && !ack {
                let net = if (k ^ r) & 1 == 1 { rail.t } else { rail.f };
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
    fired += sim.advance(Seconds(PDES_STEP * (ticks + 1) as f64));
    assert_eq!(sim.hazard_count(), 0, "PDES rig run must be hazard-free");
    assert!(fired > 0, "PDES rig fired no events");
    fired
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_on_a_small_array() {
        let rig = pdes_array(4, 3, 2);
        let mut seq = pdes_sequential(&rig);
        let fired = drive_array(&mut seq, &rig, 7);
        let digest = seq.trace().canonical_digest();
        for threads in [1, 2] {
            let mut par = pdes_parallel(&rig, threads, false);
            assert_eq!(fired, drive_array(&mut par, &rig, 7));
            assert_eq!(digest, par.trace().digest());
        }
    }

    #[test]
    fn every_row_moves_tokens() {
        let rig = pdes_array(3, 2, 3);
        let mut seq = pdes_sequential(&rig);
        drive_array(&mut seq, &rig, 7);
        for p in &rig.rows {
            // 7 ticks ≈ two full 4-phase cycles: every row's output
            // must have gone valid at least once.
            let t = p.outputs()[0];
            let entries = seq
                .trace()
                .entries()
                .iter()
                .filter(|e| e.net == t.t || e.net == t.f)
                .count();
            assert!(entries > 0, "a row's output never switched");
        }
    }
}
