//! `si_verify`: exhaustive speed-independence exploration, as `emc-lint`
//! runs it — the built-in suite and a generated 2×3 pipelined array
//! without reduction, then the 2×3 and 3×2 arrays with partial-order
//! and orbit reduction justified by their declared footprints.

use std::collections::BTreeMap;

use emc_gen::pipelined_array;
use emc_prng::{Rng, StdRng};
use emc_verify::builtin::builtin_suite;
use emc_verify::{Circuit, ExploreOutcome, Explorer};

use super::med;
use crate::check::{Checks, Expect};
use crate::host::{peak_rss_mb, reset_peak_rss};
use crate::pins::{VerifyOut, VerifyPin};
use crate::span::Recorder;
use crate::{Bench, Size};

/// Exact state cap; every exploration here must finish below it.
const STATE_CAP: usize = 2_000_000;

/// The workload state across iterations.
pub struct SiVerify {
    smoke: bool,
    /// Arrays explored without reduction, `(rows, cols)`.
    full_arrays: Vec<(usize, usize)>,
    /// Arrays explored with reduction.
    reduced_arrays: Vec<(usize, usize)>,
    rng: StdRng,
    pins: &'static [VerifyPin],
    /// Per `(circuit, reduced)`: the reference output.
    expect: BTreeMap<(String, bool), Expect<VerifyOut>>,
    /// Highest `VmHWM` seen in each phase, MiB.
    full_peak_mb: f64,
    reduced_peak_mb: f64,
}

impl SiVerify {
    /// The circuits at each size; `pins` hold their verdicts.
    pub fn new(size: Size, seed: u64, pins: &'static [VerifyPin]) -> Self {
        let (full_arrays, reduced_arrays) = match size {
            Size::Full => (vec![(2, 3)], vec![(2, 3), (3, 2)]),
            Size::Smoke => (vec![(2, 1)], vec![(2, 1), (2, 2)]),
        };
        Self {
            smoke: size == Size::Smoke,
            full_arrays,
            reduced_arrays,
            rng: StdRng::seed_from_u64(seed),
            pins,
            expect: BTreeMap::new(),
            full_peak_mb: 0.0,
            reduced_peak_mb: 0.0,
        }
    }

    /// Explores one circuit as one checked operation.
    fn explore(&mut self, rec: &mut Recorder, checks: &mut Checks, c: &Circuit<'_>, reduced: bool) {
        let pins = self.pins;
        let expect = self
            .expect
            .entry((c.name.clone(), reduced))
            .or_insert_with(|| {
                let pin = pins
                    .iter()
                    .find(|p| p.circuit == c.name && p.reduced == reduced);
                Expect::new(pin.map(VerifyPin::out))
            });
        let phase = if reduced { "reduced" } else { "full" };
        let out = checks.op(rec, &format!("si_verify {phase} {}", c.name), |rec| {
            let mut ex = rec.setup("verify.new", |_| {
                Explorer::new(&c.netlist, &c.env, &c.initial, STATE_CAP)
            });
            let (span, prefix) = if reduced {
                let fp = c
                    .footprint
                    .as_ref()
                    .ok_or_else(|| format!("{} declares no footprint", c.name))?;
                ex = rec.setup("verify.reduce.build", |_| ex.with_reduction(fp));
                ("verify.reduce.explore", "verify.reduced")
            } else {
                ("verify.explore", "verify.full")
            };
            let outcome = if rec.tracing() {
                let (o, t) = rec.run(span, |_| ex.explore_with_telemetry());
                let counter = |id: &str| t.metrics.counter_value(id).unwrap_or(0) as f64;
                let transitions = counter("verify.transitions_applied");
                if reduced {
                    rec.count("verify.reduced_transitions", transitions);
                    rec.count("verify.reduced_states", o.states as f64);
                    let skipped = counter("verify.reduce.skipped_transitions");
                    rec.count("verify.reduce.skipped_transitions", skipped);
                    let proviso = counter("verify.reduce.proviso_expansions");
                    rec.count("verify.reduce.proviso_expansions", proviso);
                } else {
                    rec.count("verify.full_transitions", transitions);
                    rec.count("verify.full_states", o.states as f64);
                }
                o
            } else {
                rec.run(span, |_| ex.explore())
            };
            let got = verdict(&outcome);
            if !got.exhaustive {
                return Err(format!(
                    "{prefix} exploration hit the {STATE_CAP}-state cap"
                ));
            }
            // A reduced run must reach the full run's verdict.
            let full_verdict = pins
                .iter()
                .find(|p| p.circuit == c.name && !p.reduced)
                .map(|p| p.verdict);
            if reduced && full_verdict.is_some_and(|v| v != got.verdict) {
                return Err(format!(
                    "reduced verdict {} differs from the full verdict {}",
                    got.verdict,
                    full_verdict.unwrap_or_default()
                ));
            }
            expect.check(&got)?;
            Ok(got)
        });
        if let Some(o) = out {
            checks.observed(format!("si_verify {phase} {} {o:?}", c.name));
            if c.name == RATIO_CIRCUIT {
                rec.count(
                    if reduced {
                        "verify.reduced_states_2x3"
                    } else {
                        "verify.full_states_2x3"
                    },
                    o.states as f64,
                );
            }
        }
    }
}

/// An exploration's checked output: the sorted distinct rules it
/// reported (`clean` for none), exhaustiveness and the state count.
fn verdict(o: &ExploreOutcome) -> VerifyOut {
    let mut rules: Vec<&str> = o.diagnostics.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    VerifyOut {
        verdict: if rules.is_empty() {
            "clean".to_owned()
        } else {
            rules.join(",")
        },
        exhaustive: o.exhaustive,
        states: o.states,
    }
}

/// Generated arrays are named `pa-array{rows}x{cols}`.
fn array(rows: usize, cols: usize) -> Circuit<'static> {
    pipelined_array(rows, cols, "pa").verify_circuit()
}

/// The array whose reduced-to-full state ratio is reported.
const RATIO_CIRCUIT: &str = "pa-array2x3";

/// Fisher–Yates shuffle driven by the workload seed.
fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

impl Bench for SiVerify {
    fn work(&self) -> String {
        format!(
            "built-in suite ({}) and arrays {:?} explored in full, arrays {:?} with POR and \
             orbit reduction, in a seeded order",
            if self.smoke { "smoke" } else { "full" },
            self.full_arrays,
            self.reduced_arrays
        )
    }

    fn iteration(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        let (smoke, full_arrays, reduced_arrays) = (
            self.smoke,
            self.full_arrays.clone(),
            self.reduced_arrays.clone(),
        );
        let ops = (6 + full_arrays.len() + reduced_arrays.len()) as u64;
        let Some((mut full, mut reduce)) =
            checks.prerequisite(rec, "si_verify build", ops, |rec| {
                let mut full = rec.setup("verify.builtin_suite", |_| builtin_suite(smoke));
                let (arrays, reduce) = rec.setup("gen.build", |_| {
                    let a: Vec<_> = full_arrays.iter().map(|&(r, c)| array(r, c)).collect();
                    let b: Vec<_> = reduced_arrays.iter().map(|&(r, c)| array(r, c)).collect();
                    (a, b)
                });
                full.extend(arrays);
                (full, reduce)
            })
        else {
            return;
        };
        shuffle(&mut self.rng, &mut full);
        shuffle(&mut self.rng, &mut reduce);

        reset_peak_rss();
        for c in &full {
            self.explore(rec, checks, c, false);
        }
        self.full_peak_mb = self.full_peak_mb.max(peak_rss_mb().unwrap_or(0.0));
        // Drop the full phase's circuits before measuring the reduced one.
        drop(full);
        reset_peak_rss();
        for c in &reduce {
            self.explore(rec, checks, c, true);
        }
        self.reduced_peak_mb = self.reduced_peak_mb.max(peak_rss_mb().unwrap_or(0.0));
    }

    fn per_layer(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let count = |name: &str| med(rec.count_totals(name));
        let full_s = med(rec.span_totals("verify.explore"));
        let reduced_s = med(rec.span_totals("verify.reduce.explore"));
        let full_states = count("verify.full_states");
        let reduced_states = count("verify.reduced_states");
        let full_2x3 = count("verify.full_states_2x3");
        vec![
            ("gen.build_s", med(rec.span_totals("gen.build"))),
            ("verify.new_s", med(rec.span_totals("verify.new"))),
            ("verify.full_explore_s", full_s),
            (
                "verify.full_ns_per_state",
                full_s / full_states.max(1.0) * 1e9,
            ),
            ("verify.full_states", full_states),
            ("verify.full_transitions", count("verify.full_transitions")),
            ("verify.full_peak_rss_mb", self.full_peak_mb),
            (
                "verify.reduce_build_s",
                med(rec.span_totals("verify.reduce.build")),
            ),
            ("verify.reduced_explore_s", reduced_s),
            (
                "verify.reduced_ns_per_state",
                reduced_s / reduced_states.max(1.0) * 1e9,
            ),
            ("verify.reduced_states", reduced_states),
            (
                "verify.reduced_transitions",
                count("verify.reduced_transitions"),
            ),
            ("verify.reduced_peak_rss_mb", self.reduced_peak_mb),
            (
                "verify.state_ratio_2x3",
                if full_2x3 > 0.0 {
                    count("verify.reduced_states_2x3") / full_2x3
                } else {
                    0.0
                },
            ),
            (
                "verify.reduce.skipped_transitions",
                count("verify.reduce.skipped_transitions"),
            ),
            (
                "verify.reduce.proviso_expansions",
                count("verify.reduce.proviso_expansions"),
            ),
        ]
    }

    fn peak_rss_mb(&self) -> f64 {
        // `VmHWM` is reset between phases, so the process peak is the
        // highest phase peak.
        self.full_peak_mb
            .max(self.reduced_peak_mb)
            .max(peak_rss_mb().unwrap_or(0.0))
    }
}
