//! Seeded differential checking: verifier vs. simulator, across Vdd
//! schedules.
//!
//! The check exploits the semimodularity of speed-independent circuits.
//! A semimodular transition system has the diamond property, so from any
//! state the quiescent state it settles to is *unique* — independent of
//! gate delays, and therefore of the supply voltage shaping those
//! delays. Driving the simulator with one environment action at a time
//! (chosen by a seeded PRNG from the enabled set *at quiescence*) then
//! yields, for a fixed driver seed, the **same** sequence of chosen
//! actions and quiescent states under every Vdd schedule. The FNV-1a
//! digest of that sequence is the cross-schedule differential oracle:
//! equal digests are the paper's thesis ("energy modulates throughput,
//! not function"); a mismatch is a concrete counterexample.
//!
//! Independently, every state the simulator passes through — including
//! transient, non-quiescent ones — must appear in the verifier's
//! exhaustively explored reachable set, because applying one
//! environment action at quiescence is a particular interleaving the
//! explorer also covers. [`ReachableStates`] holds that set projected
//! to net values; [`run_differential`] asserts membership after every
//! fired event when the set is available.

use std::collections::HashSet;
use std::sync::Arc;

use emc_device::DeviceModel;
use emc_netlist::{NetId, Netlist};
use emc_prng::{Rng, StdRng};
use emc_sim::{Fnv64, Simulator, SupplyKind};
use emc_units::{Hertz, Seconds, Waveform};
use emc_verify::{Explorer, State, Verifier};

use crate::env::{to_environment, SimView};
use crate::GeneratedCircuit;

/// Packs per-net boolean values into words, one bit per net index —
/// the common projection of verifier states and simulator snapshots.
fn project(nl: &Netlist, value: impl Fn(NetId) -> bool) -> Box<[u64]> {
    let mut words = vec![0u64; nl.net_count().div_ceil(64)];
    for n in nl.iter_nets() {
        if value(n) {
            words[n.index() / 64] |= 1 << (n.index() % 64);
        }
    }
    words.into_boxed_slice()
}

/// The verifier's reachable set, projected to net values (the level
/// gates of the generated families carry no hidden state, so the
/// projection loses nothing the simulator can observe).
pub struct ReachableStates {
    projections: HashSet<Box<[u64]>>,
    /// Distinct full states visited.
    pub states: usize,
    /// `false` if the walk hit `cap` before exhausting the state space.
    pub exhaustive: bool,
}

impl ReachableStates {
    /// Depth-first reachability over the closed circuit–environment
    /// system, via the verifier's own [`Explorer`] semantics. Caps at
    /// `cap` distinct states.
    pub fn compute(gc: &GeneratedCircuit, cap: usize) -> Self {
        let env = to_environment(Arc::clone(&gc.env));
        let explorer = Explorer::new(&gc.netlist, &env, &gc.initial, cap);
        let mut visited: HashSet<State> = HashSet::new();
        let mut projections: HashSet<Box<[u64]>> = HashSet::new();
        let initial = explorer.initial_state();
        visited.insert(initial.clone());
        let mut frontier = vec![initial];
        let mut exhaustive = true;
        while let Some(s) = frontier.pop() {
            projections.insert(project(&gc.netlist, |n| s.value(n)));
            let internal = explorer.internal_enabled(&s);
            let quiescent = internal.is_empty();
            let env_ts = explorer.env_enabled(&s, quiescent);
            for t in internal.iter().chain(env_ts.iter()) {
                let (next, _overruns) = explorer.apply(&s, t);
                if visited.contains(&next) {
                    continue;
                }
                if visited.len() >= cap {
                    exhaustive = false;
                    continue;
                }
                visited.insert(next.clone());
                frontier.push(next);
            }
        }
        ReachableStates {
            projections,
            states: visited.len(),
            exhaustive,
        }
    }

    /// Whether a net-value projection is a reachable state's.
    pub fn contains(&self, projection: &[u64]) -> bool {
        self.projections.contains(projection)
    }
}

/// A supply-voltage schedule for the differential sweep: the same
/// circuit and driver seed must produce identical digests under all of
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Nominal constant 1.0 V.
    Nominal,
    /// Sub-threshold constant 0.3 V — delays grow by orders of
    /// magnitude, outcomes must not.
    SubThreshold,
    /// A harvested-style rectified AC rail: 1 MHz sine swinging
    /// 0.3–0.9 V, sampled finely enough that every event sees a fresh
    /// voltage.
    AcSine,
}

impl Schedule {
    /// All schedules, in sweep order.
    pub const ALL: [Schedule; 3] = [Schedule::Nominal, Schedule::SubThreshold, Schedule::AcSine];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Schedule::Nominal => "nominal-1.0V",
            Schedule::SubThreshold => "subthreshold-0.3V",
            Schedule::AcSine => "ac-sine-0.3..0.9V",
        }
    }

    /// The supply this schedule puts on the single power domain.
    pub fn supply(&self) -> SupplyKind {
        match self {
            Schedule::Nominal => SupplyKind::ideal(Waveform::constant(1.0)),
            Schedule::SubThreshold => SupplyKind::ideal(Waveform::constant(0.3)),
            Schedule::AcSine => SupplyKind::ideal_with_resolution(
                Waveform::sine(0.6, 0.3, Hertz(1.0e6), 0.0).clamped(0.3, 0.9),
                Seconds(1.0e-6 / 64.0),
            ),
        }
    }
}

/// The outcome of one schedule's differential run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The schedule simulated.
    pub schedule: Schedule,
    /// Environment actions applied before quiescence or the round
    /// budget ended the run.
    pub rounds: usize,
    /// Total simulator events fired.
    pub fired: u64,
    /// FNV-1a digest of the quiescent-state/action trace.
    pub digest: u64,
    /// Hazard count reported by the simulator (a semimodular circuit
    /// driven at quiescence must report zero).
    pub hazards: usize,
    /// The first soundness violation observed, if any: a simulated
    /// state outside the verifier's reachable set, or a settle that
    /// exceeded the event budget.
    pub violation: Option<String>,
}

fn settle(
    sim: &mut Simulator,
    reachable: Option<&ReachableStates>,
    fired: &mut u64,
    budget: u64,
) -> Option<String> {
    let mut spent = 0u64;
    while sim.step().is_some() {
        *fired += 1;
        spent += 1;
        if let Some(reach) = reachable {
            let proj = project(sim.netlist(), |n| sim.value(n));
            if !reach.contains(&proj) {
                let nl = sim.netlist();
                let high: Vec<&str> = nl
                    .iter_nets()
                    .filter(|&n| sim.value(n))
                    .map(|n| nl.net_name(n))
                    .collect();
                return Some(format!(
                    "simulated state outside verifier reachable set (high nets: {})",
                    high.join(", ")
                ));
            }
        }
        if spent > budget {
            return Some(format!("did not settle within {budget} events"));
        }
    }
    None
}

/// Runs one seeded differential simulation of `gc` under `schedule`:
/// settle, then up to `rounds` environment actions each chosen by the
/// `driver_seed` PRNG from the enabled set at quiescence. Returns the
/// trace digest; when `reachable` is given (exhaustive exploration),
/// additionally asserts every intermediate simulator state is
/// verifier-reachable.
pub fn run_differential(
    gc: &GeneratedCircuit,
    schedule: Schedule,
    driver_seed: u64,
    rounds: usize,
    reachable: Option<&ReachableStates>,
) -> DiffReport {
    let mut sim = Simulator::new(gc.netlist.clone(), DeviceModel::umc90());
    let vdd = sim.add_domain("vdd", schedule.supply());
    sim.assign_all(vdd);
    for &(net, v) in &gc.initial {
        sim.set_initial(net, v);
    }
    sim.start();

    let budget = 10_000 + 64 * gc.netlist.net_count() as u64;
    let mut fired = 0u64;
    let mut digest = Fnv64::new();
    let mut violation = settle(&mut sim, reachable, &mut fired, budget);
    let mut env_state = gc.env.initial();
    let mut rng = StdRng::seed_from_u64(driver_seed);
    let mut applied = 0usize;

    while violation.is_none() && applied < rounds {
        // Fold the quiescent state the circuit settled to.
        for w in project(sim.netlist(), |n| sim.value(n)).iter() {
            digest.write_u64(*w);
        }
        let mut acts = gc.env.step(env_state, &SimView(&sim));
        acts.retain(|a| sim.value(a.net) != a.value);
        if acts.is_empty() {
            break;
        }
        let a = acts[rng.gen_range(0..acts.len())].clone();
        digest.write_u64(a.net.index() as u64);
        digest.write_u64(u64::from(a.value));
        sim.schedule_input(a.net, sim.now(), a.value);
        env_state = a.next;
        applied += 1;
        violation = settle(&mut sim, reachable, &mut fired, budget);
    }
    // Fold the final quiescent state.
    for w in project(sim.netlist(), |n| sim.value(n)).iter() {
        digest.write_u64(*w);
    }

    DiffReport {
        schedule,
        rounds: applied,
        fired,
        digest: digest.finish(),
        hazards: sim.hazards().len(),
        violation,
    }
}

/// Knobs for [`check_generated`].
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// State cap for verification and reachability (membership checking
    /// is skipped when exploration caps out).
    pub state_cap: usize,
    /// Environment actions per schedule.
    pub rounds: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self {
            state_cap: 200_000,
            rounds: 12,
        }
    }
}

/// The full check's outcome for one generated circuit.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The circuit's display name.
    pub name: String,
    /// Gate count of the generated netlist.
    pub gates: usize,
    /// Net count of the generated netlist.
    pub nets: usize,
    /// Distinct states the verifier explored.
    pub verify_states: usize,
    /// Whether exploration was exhaustive (membership checked).
    pub verify_exhaustive: bool,
    /// Combined FNV-1a digest over the per-schedule trace digests
    /// (schedule-independent by construction, so this is itself a
    /// deterministic function of the plan and driver seed).
    pub digest: u64,
    /// Total simulator events fired across all schedules.
    pub fired_total: u64,
    /// `None` on success; otherwise the first failed stage's
    /// description.
    pub failure: Option<String>,
}

impl CheckOutcome {
    /// `true` when every stage passed.
    pub fn is_ok(&self) -> bool {
        self.failure.is_none()
    }

    fn fail(gc: &GeneratedCircuit, message: String) -> Self {
        CheckOutcome {
            name: gc.name.clone(),
            gates: gc.netlist.gate_count(),
            nets: gc.netlist.net_count(),
            verify_states: 0,
            verify_exhaustive: false,
            digest: 0,
            fired_total: 0,
            failure: Some(message),
        }
    }
}

/// Runs the complete pipeline over a generated circuit:
///
/// 1. structural validation ([`Netlist::validate`]);
/// 2. exhaustive verification (semimodularity, output persistency,
///    dual-rail protocol, completion coverage) — must be error-free;
/// 3. reachable-set computation (when exploration stayed under the
///    cap);
/// 4. seeded differential simulation under every [`Schedule`], with
///    per-event reachability membership and cross-schedule digest
///    equality;
/// 5. text round-trip: export → import → export must be byte-stable,
///    and the re-imported netlist must reproduce the nominal digest.
pub fn check_generated(
    gc: &GeneratedCircuit,
    driver_seed: u64,
    opts: &CheckOptions,
) -> CheckOutcome {
    let diags = gc.netlist.validate();
    if !diags.is_empty() {
        return CheckOutcome::fail(
            gc,
            format!(
                "structural validation: {} diagnostics, first: {}",
                diags.len(),
                diags[0]
            ),
        );
    }

    let report = Verifier::new()
        .with_state_cap(opts.state_cap)
        .verify(&gc.verify_circuit());
    if !report.is_clean() {
        return CheckOutcome::fail(
            gc,
            format!(
                "verifier: {} errors, rules {:?}",
                report.errors(),
                report.distinct_rules()
            ),
        );
    }

    let reachable = if report.exhaustive {
        let r = ReachableStates::compute(gc, opts.state_cap);
        r.exhaustive.then_some(r)
    } else {
        None
    };

    let mut digest = Fnv64::new();
    let mut fired_total = 0u64;
    let mut nominal_digest = 0u64;
    for schedule in Schedule::ALL {
        let diff = run_differential(gc, schedule, driver_seed, opts.rounds, reachable.as_ref());
        if let Some(v) = diff.violation {
            return CheckOutcome::fail(gc, format!("schedule {}: {v}", schedule.label()));
        }
        if diff.hazards != 0 {
            return CheckOutcome::fail(
                gc,
                format!("schedule {}: {} hazards", schedule.label(), diff.hazards),
            );
        }
        fired_total += diff.fired;
        if schedule == Schedule::Nominal {
            nominal_digest = diff.digest;
        } else if diff.digest != nominal_digest {
            return CheckOutcome::fail(
                gc,
                format!(
                    "digest mismatch: {} produced {:#018x}, nominal produced {:#018x}",
                    schedule.label(),
                    diff.digest,
                    nominal_digest
                ),
            );
        }
        digest.write_u64(diff.digest);
    }

    let text = emc_netlist::to_text(&gc.netlist);
    let imported = match emc_netlist::from_text(&text) {
        Ok(nl) => nl,
        Err(e) => return CheckOutcome::fail(gc, format!("text import: {e}")),
    };
    if emc_netlist::to_text(&imported) != text {
        return CheckOutcome::fail(gc, "text round-trip not byte-stable".to_string());
    }
    let reimported = GeneratedCircuit {
        name: gc.name.clone(),
        netlist: imported,
        initial: gc.initial.clone(),
        env: Arc::clone(&gc.env),
        domains: gc.domains.clone(),
    };
    let rediff = run_differential(
        &reimported,
        Schedule::Nominal,
        driver_seed,
        opts.rounds,
        reachable.as_ref(),
    );
    if rediff.digest != nominal_digest {
        return CheckOutcome::fail(
            gc,
            format!(
                "re-imported netlist diverged: {:#018x} vs {:#018x}",
                rediff.digest, nominal_digest
            ),
        );
    }

    CheckOutcome {
        name: gc.name.clone(),
        gates: gc.netlist.gate_count(),
        nets: gc.netlist.net_count(),
        verify_states: report.states,
        verify_exhaustive: report.exhaustive,
        digest: digest.finish(),
        fired_total,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{EnvModel, NetView};
    use crate::families::{completion_tree, dims_adder, micropipeline, wchb_datapath};
    use emc_netlist::DualRail;
    use emc_verify::EnvAction;

    #[test]
    fn digests_agree_across_schedules_for_wchb() {
        let gc = wchb_datapath(2, 1, "p");
        let reach = ReachableStates::compute(&gc, 100_000);
        assert!(reach.exhaustive);
        let nominal = run_differential(&gc, Schedule::Nominal, 11, 8, Some(&reach));
        assert!(nominal.violation.is_none(), "{:?}", nominal.violation);
        assert_eq!(nominal.rounds, 8);
        for schedule in [Schedule::SubThreshold, Schedule::AcSine] {
            let d = run_differential(&gc, schedule, 11, 8, Some(&reach));
            assert!(d.violation.is_none(), "{:?}", d.violation);
            assert_eq!(d.digest, nominal.digest, "{}", schedule.label());
        }
    }

    #[test]
    fn different_driver_seeds_usually_diverge() {
        // Width 2 gives the sender a free codeword choice, so eight
        // seeds that pick differently must produce several traces.
        let gc = wchb_datapath(1, 2, "p");
        let digests: std::collections::HashSet<u64> = (0..8)
            .map(|seed| run_differential(&gc, Schedule::Nominal, seed, 8, None).digest)
            .collect();
        assert!(digests.len() > 1, "eight seeds all produced one trace");
    }

    #[test]
    fn check_passes_on_representative_families() {
        let opts = CheckOptions {
            state_cap: 100_000,
            rounds: 6,
        };
        for gc in [
            completion_tree(3, "t"),
            wchb_datapath(2, 1, "p"),
            dims_adder(1, "a"),
            micropipeline(3, "m"),
        ] {
            let out = check_generated(&gc, 42, &opts);
            assert!(out.is_ok(), "{}: {:?}", out.name, out.failure);
            assert!(out.verify_exhaustive, "{}", out.name);
            assert!(out.fired_total > 0, "{}", out.name);
        }
    }

    #[test]
    fn check_is_deterministic() {
        let gc = dims_adder(1, "a");
        let opts = CheckOptions::default();
        let a = check_generated(&gc, 9, &opts);
        let b = check_generated(&gc, 9, &opts);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.fired_total, b.fired_total);
    }

    /// A deliberately non-SI closure: toggles input rails without ever
    /// consulting the completion signal, disabling excited gates.
    struct ImpatientEnv {
        pairs: Vec<DualRail>,
    }

    impl EnvModel for ImpatientEnv {
        fn step(&self, _state: u8, view: &dyn NetView) -> Vec<EnvAction> {
            self.pairs
                .iter()
                .flat_map(|p| [p.t, p.f])
                .map(|rail| EnvAction {
                    net: rail,
                    value: !view.value(rail),
                    next: 0,
                })
                .collect()
        }
    }

    #[test]
    fn check_rejects_a_non_si_closure() {
        let gc = completion_tree(2, "t");
        let pairs = (0..2)
            .map(|i| DualRail {
                t: gc.netlist.find_net(&format!("t.w{i}.t")).unwrap(),
                f: gc.netlist.find_net(&format!("t.w{i}.f")).unwrap(),
            })
            .collect();
        let bad = GeneratedCircuit {
            name: "t-impatient".into(),
            netlist: gc.netlist.clone(),
            initial: Vec::new(),
            env: Arc::new(ImpatientEnv { pairs }),
            domains: Vec::new(),
        };
        let out = check_generated(&bad, 1, &CheckOptions::default());
        assert!(!out.is_ok(), "non-SI closure must fail");
        assert!(
            out.failure.as_deref().unwrap().starts_with("verifier"),
            "{:?}",
            out.failure
        );
    }
}
