//! `capacity_1500` and `capacity_contested`: the Sect. VIII capacity
//! scenario on `uwb_worldsim`, one world per `run_capacity` call with
//! several rounds each, one shard worker thread. World `i` of a run is
//! seeded `derive_seed(seed, i)`.

use std::time::Instant;

use uwb_campaign::derive_seed;
use uwb_worldsim::{run_capacity, CapacityConfig, CapacityOutcome};

use crate::measure::{ns_since, Pass};
use crate::Workload;

/// Every set-up runs the same world, so set-up does the same work at
/// every `--seed` and on every repeat.
const SETUP_SEED: u64 = 0;

/// Per-world counters the traced run reports for the worldsim layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorldCounters {
    pub wall_ns: u64,
    pub events: u64,
    pub deliveries: u64,
    pub cross_in: u64,
    pub queue_hwm: u64,
    pub epochs: u64,
    pub deferrals: u64,
    pub interference_frames: u64,
    pub evicted: u64,
}

pub struct Capacity {
    config: CapacityConfig,
    seed: u64,
    world: WorldCounters,
}

impl Capacity {
    /// `n` responders per cell, `cells` cells in a row, `rounds` rounds
    /// per world. Set-up is the cold first call: one single-round world.
    pub fn setup(seed: u64, (n, cells, rounds): (usize, usize, u32)) -> Self {
        let config = CapacityConfig::paper(n)
            .with_cells(cells)
            .with_rounds(rounds)
            .with_threads(1);
        let first = config
            .clone()
            .with_rounds(1)
            .with_seed(derive_seed(SETUP_SEED, 0));
        std::hint::black_box(run_capacity(&first));
        Capacity {
            config,
            seed,
            world: WorldCounters::default(),
        }
    }

    fn absorb_world(&mut self, out: &CapacityOutcome) {
        let w = &mut self.world;
        w.wall_ns += out.telemetry.wall_ns_total();
        for record in out.telemetry.records() {
            w.events += record.events();
            w.deliveries += record.deliveries();
            w.cross_in += record.cross_in();
            w.queue_hwm = w.queue_hwm.max(record.queue_hwm());
        }
        w.epochs += out.epochs;
        w.deferrals += out.deferrals;
        w.interference_frames += out.stats.interference_frames;
        w.evicted += out.telemetry.evicted();
    }
}

impl Workload for Capacity {
    fn step(&mut self, unit: u64, pass: &mut Pass) {
        let config = self.config.clone().with_seed(derive_seed(self.seed, unit));
        let start = Instant::now();
        let out = run_capacity(&config);
        let ns = ns_since(start);
        let stats = &out.stats;
        pass.add_unit(ns, stats.rounds);
        pass.rounds += stats.rounds;
        pass.rounds_ok += stats.rounds_ok;
        pass.resolvable += stats.frames_observed;
        pass.resolved += stats.identified;
        pass.resolved_responses += stats.identified;
        pass.err_sum_m += stats.sum_abs_error_m;
        pass.err_n += stats.error_samples;
        self.absorb_world(&out);
        pass.absorb_output(&(
            stats,
            &out.fault_stats,
            out.deferrals,
            out.epochs,
            out.shards,
            out.nodes,
            out.telemetry.records().collect::<Vec<_>>(),
            out.telemetry.totals(),
            out.telemetry.evicted(),
        ));
    }

    fn world(&self) -> WorldCounters {
        self.world
    }
}
