//! Pinned simulated outputs. A run whose seed and size have a pin must
//! reproduce it on every checked operation; other seeds are checked for
//! invariants and for agreement with their own first iteration.
//!
//! The values were recorded at benchmark size for the default seed and
//! for a held-out seed, and at smoke size for the default seed (used by
//! the tests). Speed-independence verdicts and state counts do not
//! depend on the seed, so they are pinned for every seed.

use crate::{Size, DEFAULT_SEED, HELD_OUT_SEED};

/// `ac_counter`'s checked output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcOut {
    /// Canonical digest of the watched counter bits and oscillator.
    pub digest: u64,
    /// Events fired over the drive.
    pub fired: u64,
    /// Bit pattern of the energy drawn from the AC rail, joules.
    pub energy_bits: u64,
}

/// `wchb_array`'s checked output, equal on both engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WchbOut {
    /// Events fired over the drive.
    pub fired: u64,
    /// Canonical digest of the watched output rails and acknowledges.
    pub digest: u64,
}

/// `si_verify`'s checked output for one circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOut {
    /// Sorted distinct rules reported, or `clean`.
    pub verdict: String,
    /// Whether the exploration finished below the state cap.
    pub exhaustive: bool,
    /// Distinct states visited.
    pub states: usize,
}

/// One pinned exploration.
#[derive(Debug, Clone, Copy)]
pub struct VerifyPin {
    /// Circuit name.
    pub circuit: &'static str,
    /// Explored with POR and orbit reduction.
    pub reduced: bool,
    /// Expected verdict.
    pub verdict: &'static str,
    /// Expected state count.
    pub states: usize,
}

impl VerifyPin {
    /// The output this pin expects.
    pub fn out(&self) -> VerifyOut {
        VerifyOut {
            verdict: self.verdict.to_owned(),
            exhaustive: true,
            states: self.states,
        }
    }
}

/// `fleet`'s checked output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOut {
    /// The fleet report digest.
    pub digest: u64,
}

/// The references one run checks against.
#[derive(Debug, Clone, Copy)]
pub struct Pins {
    /// `ac_counter` reference, if pinned.
    pub ac: Option<AcOut>,
    /// `wchb_array` reference, if pinned.
    pub wchb: Option<WchbOut>,
    /// `si_verify` references.
    pub verify: &'static [VerifyPin],
    /// `fleet` reference, if pinned.
    pub fleet: Option<FleetOut>,
}

const fn verify(circuit: &'static str, reduced: bool, states: usize) -> VerifyPin {
    VerifyPin {
        circuit,
        reduced,
        verdict: "clean",
        states,
    }
}

/// Benchmark-size explorations. The 3×2 array's full verdict comes from
/// a one-off unreduced exploration (2,299,968 states, clean); the
/// workload explores it only with reduction.
const VERIFY_FULL: &[VerifyPin] = &[
    verify("counter", false, 42),
    verify("wchb", false, 132),
    verify("micropipeline", false, 108),
    verify("bundled", false, 188),
    verify("sram", false, 12),
    verify("adder", false, 603),
    verify("pa-array2x3", false, 338_724),
    verify("pa-array3x2", false, 2_299_968),
    verify("pa-array2x3", true, 168_235),
    verify("pa-array3x2", true, 391_805),
];

/// Smoke-size explorations.
const VERIFY_SMOKE: &[VerifyPin] = &[
    verify("counter", false, 18),
    verify("wchb", false, 30),
    verify("micropipeline", false, 36),
    verify("bundled", false, 34),
    verify("sram", false, 12),
    verify("adder", false, 603),
    verify("pa-array2x1", false, 900),
    verify("pa-array2x1", true, 429),
    verify("pa-array2x2", true, 8_531),
];

/// The pins for one size and seed.
pub fn pins_for(size: Size, seed: u64) -> Pins {
    let ac = match (size, seed) {
        (Size::Full, DEFAULT_SEED) => Some(AcOut {
            digest: 112_529_479_186_755_304,
            fired: 281_339,
            energy_bits: 4_450_958_915_837_560_307,
        }),
        (Size::Full, HELD_OUT_SEED) => Some(AcOut {
            digest: 15_629_358_360_421_944_197,
            fired: 278_144,
            energy_bits: 4_450_892_721_222_740_916,
        }),
        (Size::Smoke, DEFAULT_SEED) => Some(AcOut {
            digest: 15_219_300_853_935_950_153,
            fired: 2_831,
            energy_bits: 4_421_131_059_633_123_384,
        }),
        _ => None,
    };
    let wchb = match (size, seed) {
        (Size::Full, DEFAULT_SEED) => Some(WchbOut {
            fired: 2_370_816,
            digest: 4_180_596_921_943_607_717,
        }),
        (Size::Full, HELD_OUT_SEED) => Some(WchbOut {
            fired: 2_370_816,
            digest: 4_437_617_019_049_897_113,
        }),
        (Size::Smoke, DEFAULT_SEED) => Some(WchbOut {
            fired: 1_152,
            digest: 6_368_791_153_430_823_573,
        }),
        _ => None,
    };
    // Fleet digests agree with the `emc-fleet` tool at the same size,
    // seed and thread count.
    let fleet = match (size, seed) {
        (Size::Full, DEFAULT_SEED) => Some(8_271_206_336_615_776_052),
        (Size::Full, HELD_OUT_SEED) => Some(17_000_338_775_094_155_870),
        (Size::Smoke, DEFAULT_SEED) => Some(10_049_066_591_660_740_545),
        _ => None,
    }
    .map(|digest| FleetOut { digest });
    Pins {
        ac,
        wchb,
        verify: match size {
            Size::Full => VERIFY_FULL,
            Size::Smoke => VERIFY_SMOKE,
        },
        fleet,
    }
}
