//! `fleet`: one `emc_fleet::run_fleet` over a ring of harvester-powered
//! nodes, seeded by the benchmark's seed, as the `emc-fleet` tool runs it.

use std::hint::black_box;

use emc_fleet::{
    run_fleet, shard_count, CalibDepth, FleetConfig, IslandModel, SensorModel, Topology,
};

use super::med;
use crate::check::{Checks, Expect};
use crate::pins::FleetOut;
use crate::span::Recorder;
use crate::{Bench, Size};

/// The workload state across iterations.
pub struct Fleet {
    config: FleetConfig,
    threads: usize,
    expect: Expect<FleetOut>,
}

impl Fleet {
    /// Fleet size at each benchmark size.
    pub fn new(size: Size, seed: u64, threads: usize, pin: Option<FleetOut>) -> Self {
        let config = match size {
            Size::Full => FleetConfig::new(100_000, 25, seed),
            Size::Smoke => FleetConfig {
                calib: CalibDepth::Smoke,
                ..FleetConfig::new(400, 6, seed)
            },
        };
        Self {
            config,
            threads,
            expect: Expect::new(pin),
        }
    }
}

impl Bench for Fleet {
    fn work(&self) -> String {
        format!(
            "{} nodes x {} epochs on a ring ({} shards), {} worker threads",
            self.config.nodes,
            self.config.epochs,
            shard_count(self.config.nodes),
            self.threads
        )
    }

    fn iteration(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        let (config, threads) = (&self.config, self.threads);
        let expect = &mut self.expect;
        let out = checks.op(rec, "fleet run", |rec| {
            // `run_fleet` calibrates and builds its topology internally;
            // the standalone calls time that construction on its own.
            rec.setup("fleet.calibrate", |_| {
                black_box((
                    IslandModel::calibrate(config.calib),
                    SensorModel::calibrate(config.calib),
                ))
            });
            rec.setup("fleet.topology", |_| {
                black_box(Topology::build(
                    config.topology,
                    config.nodes,
                    config.epoch,
                    config.seed,
                ))
            });
            let report = rec.run("fleet.run_fleet", |_| run_fleet(config, threads));
            rec.count("fleet.events", report.events() as f64);
            rec.count("fleet.wakes", report.wakes as f64);
            rec.count("fleet.deliveries", report.deliveries as f64);
            rec.count("fleet.inflight", report.inflight as f64);
            rec.count("fleet.shards", report.shards as f64);
            let s = &report.summary;
            if s.sent != s.received + s.dropped + report.inflight {
                return Err(format!(
                    "messages not conserved: sent {} != received {} + dropped {} + in flight {}",
                    s.sent, s.received, s.dropped, report.inflight
                ));
            }
            if s.completed == 0 {
                return Err("no task completed".to_owned());
            }
            let got = FleetOut {
                digest: report.digest,
            };
            expect.check(&got)?;
            Ok(got)
        });
        if let Some(o) = out {
            checks.observed(format!("fleet outputs {o:?}"));
        }
    }

    fn per_layer(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let run = med(rec.span_totals("fleet.run_fleet"));
        let node_epochs = f64::from(self.config.nodes) * self.config.epochs as f64;
        let count = |name: &str| med(rec.count_totals(name));
        vec![
            ("fleet.run_fleet_s", run),
            ("fleet.ns_per_node_epoch", run / node_epochs * 1e9),
            ("fleet.calibrate_s", med(rec.span_totals("fleet.calibrate"))),
            ("fleet.topology_s", med(rec.span_totals("fleet.topology"))),
            ("fleet.events", count("fleet.events")),
            ("fleet.wakes", count("fleet.wakes")),
            ("fleet.deliveries", count("fleet.deliveries")),
            ("fleet.inflight", count("fleet.inflight")),
            ("fleet.shards", count("fleet.shards")),
        ]
    }
}
