//! Golden pin of `PowerChain` arithmetic: a seeded interleaving of
//! `tick` and `draw_quantum` whose every report field and stored energy
//! is pinned bit-for-bit. The sensor loop, the holistic system, the
//! fleet and the figures that drive a chain all inherit these floats, so
//! a refactor of the chain, the reservoir or the converter that moves a
//! single rounding fails here.

use emc_power::{DcDcConverter, PowerChain, StorageCap, VibrationHarvester};
use emc_prng::{Rng, StdRng};
use emc_units::{Farads, Hertz, Joules, Seconds, Volts, Watts, Waveform};

/// FNV-1a over 64-bit words (kept local: `emc-power` sits below the
/// crate that owns the workspace's hasher).
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What the run saw, so the pin cannot pass on a run that skipped a
/// corner it claims to cover.
#[derive(Default)]
struct Coverage {
    empty_refusals: u32,
    floor_grants: u32,
    zero_grants: u32,
}

/// A 1 µF reservoir that starts empty, a vibration source switched on
/// and off by a clamped sine envelope (droughts drain it, bursts spill
/// at the 1.2 V clamp) and a steep converter whose efficiency sits at
/// its 0.05 floor above about 0.77 V.
fn chain() -> PowerChain {
    let envelope = Waveform::sine(0.5, 1.0, Hertz(5.0), 0.0).clamped(0.0, 1.0);
    let source = VibrationHarvester::new(Hertz(120.0), Watts(400e-6), 8.0)
        .with_envelope(envelope)
        .into_source(Hertz(121.0));
    PowerChain::new(
        source,
        StorageCap::new(Farads(1e-6), Volts(0.0), Volts(1.2)),
        DcDcConverter::new(Volts(0.4)).with_efficiency(0.9, 2.0),
    )
}

fn run(seed: u64, steps: u32) -> (PowerChain, u64, Coverage) {
    let mut c = chain();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut seen = Coverage::default();
    for _ in 0..steps {
        if rng.gen_bool(0.4) {
            let dt = Seconds(rng.gen_range(1e-5..2e-3));
            let load = Watts([0.0, 2e-6, 40e-6][rng.gen_range(0..3usize)]);
            h.write(c.tick(dt, load).0.to_bits());
        } else {
            let demand = if rng.gen_bool(0.2) {
                Joules(0.0)
            } else {
                Joules(rng.gen_range(5e-9..150e-9))
            };
            let dt = Seconds(rng.gen_range(1e-7..1e-5));
            let empty = c.storage().stored_energy().0 == 0.0;
            let eta = c.converter().efficiency(c.storage().voltage());
            let granted = c.draw_quantum(demand, dt);
            seen.empty_refusals += u32::from(empty && !granted);
            seen.floor_grants += u32::from(granted && eta == 0.05);
            seen.zero_grants += u32::from(granted && demand.0 == 0.0);
            h.write(u64::from(granted));
        }
        let r = c.report();
        for v in [
            r.harvested,
            r.spilled,
            r.delivered,
            r.conversion_loss,
            r.deficit,
            c.storage().stored_energy(),
        ] {
            h.write(v.0.to_bits());
        }
    }
    (c, h.0, seen)
}

#[test]
fn seeded_tick_and_draw_interleaving_is_pinned() {
    let (c, digest, seen) = run(2011, 4_000);
    assert!(seen.empty_refusals > 0, "no refusal on an empty reservoir");
    assert!(
        seen.floor_grants > 0,
        "no grant at the 0.05 efficiency floor"
    );
    assert!(seen.zero_grants > 0, "no zero quantum granted");
    assert!(c.report().spilled.0 > 0.0, "the clamp never spilled");
    let r = c.report();
    let got = [
        r.harvested.0.to_bits(),
        r.spilled.0.to_bits(),
        r.delivered.0.to_bits(),
        r.conversion_loss.0.to_bits(),
        r.deficit.0.to_bits(),
        c.storage().stored_energy().0.to_bits(),
        digest,
    ];
    let pinned: [u64; 7] = [
        0x3f34_c5c1_6f31_de3f,
        0x3f1c_bcb0_e883_a217,
        0x3ef3_dc27_7f05_e7bb,
        0x3f28_b1a5_7a41_2e78,
        0x3f23_caa4_548c_fe7a,
        0x0000_0000_0000_0000,
        0x3b57_50ad_55e0_1e71,
    ];
    assert_eq!(got, pinned, "chain floats moved: {got:#018x?}");
}
