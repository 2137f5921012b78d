//! The benchmark's own checks: every workload passes at smoke size, a
//! wrong pin is reported as a failure, and `BENCHMARK.json` lists what
//! the program prints.

use perfbench::pins::{pins_for, Pins, VerifyPin};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Config, Outcome, Size, Workload, DEFAULT_SEED};

fn smoke(workload: Workload, trace: bool, pins: &Pins) -> Outcome {
    let config = Config {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        threads: 1,
        min_iterations: 2,
    };
    run(&config, pins)
}

#[test]
fn a_smoke_run_of_every_workload_passes_its_checks() {
    let pins = pins_for(Size::Smoke, DEFAULT_SEED);
    for w in Workload::ALL {
        let o = smoke(w, true, &pins);
        assert!(o.checks.attempted > 0, "{}: nothing checked", w.name());
        assert_eq!(o.checks.failed, 0, "{}: {:?}", w.name(), o.checks.failures);
        assert!(
            o.recorder.iterations().iter().any(|t| t.traced) && !o.per_layer.is_empty(),
            "{}: no traced iteration",
            w.name()
        );
        assert!(o
            .per_layer
            .iter()
            .all(|(n, _)| PER_LAYER.iter().any(|p| p.0 == *n)));
    }
}

#[test]
fn one_wrong_pin_makes_the_fail_ratio_positive() {
    let good = pins_for(Size::Smoke, DEFAULT_SEED);
    let mut verify: Vec<VerifyPin> = good.verify.to_vec();
    verify[0].states += 1;
    let bad = [
        (
            Workload::AcCounter,
            Pins {
                ac: good.ac.map(|mut p| {
                    p.energy_bits ^= 1;
                    p
                }),
                ..good
            },
        ),
        (
            Workload::WchbArray,
            Pins {
                wchb: good.wchb.map(|mut p| {
                    p.digest ^= 1;
                    p
                }),
                ..good
            },
        ),
        (
            Workload::SiVerify,
            Pins {
                verify: Vec::leak(verify),
                ..good
            },
        ),
        (
            Workload::Fleet,
            Pins {
                fleet: good.fleet.map(|mut p| {
                    p.digest ^= 1;
                    p
                }),
                ..good
            },
        ),
    ];
    for (w, pins) in bad {
        let o = smoke(w, false, &pins);
        assert!(o.checks.failed > 0, "{}: a wrong pin passed", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = text.matches("\"name\":").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
