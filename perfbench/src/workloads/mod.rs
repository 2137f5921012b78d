//! The four workloads.

pub mod ac_counter;
pub mod fleet;
pub mod si_verify;
pub mod wchb_array;

use crate::pins::Pins;
use crate::span::Recorder;
use crate::{stats, Bench, Config, Workload};

/// Builds the configured workload with its pinned references.
pub fn make(config: &Config, pins: &Pins) -> Box<dyn Bench> {
    let (size, seed, threads) = (config.size, config.seed, config.threads);
    match config.workload {
        Workload::AcCounter => Box::new(ac_counter::AcCounter::new(size, seed, pins.ac)),
        Workload::WchbArray => Box::new(wchb_array::WchbArray::new(size, seed, threads, pins.wchb)),
        Workload::SiVerify => Box::new(si_verify::SiVerify::new(size, seed, pins.verify)),
        Workload::Fleet => Box::new(fleet::Fleet::new(size, seed, threads, pins.fleet)),
    }
}

fn med(values: Vec<f64>) -> f64 {
    stats::median(&values)
}

/// The benchmark's own stimulus: self time of its drive loops.
fn driver_self_s(rec: &Recorder) -> f64 {
    med(rec.self_totals("bench.drive"))
}
