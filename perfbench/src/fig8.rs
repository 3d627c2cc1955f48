//! `fig8_engine`: the Fig. 8 deployment — nine responders, 4 RPM slots
//! × 3 pulse shapes, MPC guard, free space — as full protocol rounds of
//! `ConcurrentEngine` on a `uwb_netsim::Simulator`, advanced by
//! `run_more` so that each round is timed on its own.

use std::time::Instant;

use concurrent_ranging::{
    CombinedScheme, ConcurrentConfig, ConcurrentEngine, RangingMessage, SlotPlan,
};
use uwb_channel::{ChannelModel, Point2};
use uwb_netsim::{NodeConfig, SimConfig, Simulator};

use crate::measure::{ns_since, Pass};
use crate::Workload;

/// Simulated time per `run_more` call; a round period is about 2.4 ms.
const STEP_S: f64 = 0.5e-3;
/// A round that has not finished after this much simulated time is a
/// stalled simulation, not a slow one.
const ROUND_LIMIT_S: f64 = 50e-3;
/// The paper's recovery criterion (the 8 ns TX-grid budget).
const RECOVERED_WITHIN_M: f64 = 1.3;

pub struct Fig8 {
    sim: Simulator<RangingMessage>,
    engine: ConcurrentEngine,
    /// True distance of responder `id`, m.
    truth_m: Vec<f64>,
    until_s: f64,
}

impl Fig8 {
    /// Builds the Fig. 8 deployment (nine responders on the paper's
    /// spiral) and runs one warm-up round. The seed drives the
    /// simulator's and the engine's random streams: clocks, channel
    /// noise, sub-tap phases.
    pub fn setup(seed: u64, count: u32) -> Self {
        let scheme = CombinedScheme::new(SlotPlan::new(4).expect("4 slots"), 3).expect("3 shapes");
        let mut sim: Simulator<RangingMessage> =
            Simulator::new(ChannelModel::free_space(), SimConfig::default(), seed);
        let initiator = sim.add_node(NodeConfig::at(0.0, 0.0));
        let mut responders = Vec::new();
        let mut truth_m = Vec::new();
        for id in 0..count {
            let angle = 0.7 * f64::from(id);
            let radius = 3.0 + 0.9 * f64::from(id);
            let pos = Point2::new(radius * angle.cos(), radius * angle.sin());
            let register = scheme.assign(id).expect("id fits the scheme").register;
            let node = sim.add_node(NodeConfig::at(pos.x, pos.y).with_pulse_shape(register));
            responders.push((node, id));
            truth_m.push(pos.distance_to(Point2::new(0.0, 0.0)));
        }
        let config = ConcurrentConfig::new(scheme)
            .with_mpc_guard()
            .with_rounds(u32::MAX);
        let mut engine = ConcurrentEngine::new(initiator, responders, config, seed)
            .expect("the Fig. 8 deployment is valid");
        sim.run(&mut engine, 0.0);
        let mut w = Fig8 {
            sim,
            engine,
            truth_m,
            until_s: 0.0,
        };
        w.step(0, &mut Pass::default());
        w
    }
}

impl Workload for Fig8 {
    fn step(&mut self, _unit: u64, pass: &mut Pass) {
        let deadline_s = self.until_s + ROUND_LIMIT_S;
        let mut round_ns = 0;
        while (self.engine.outcomes.len() + self.engine.failed_rounds.len()) == 0 {
            assert!(self.until_s < deadline_s, "fig8: round did not finish");
            self.until_s += STEP_S;
            let start = Instant::now();
            self.sim.run_more(&mut self.engine, self.until_s);
            round_ns += ns_since(start);
        }
        pass.add_unit(round_ns, 1);
        pass.rounds += 1;
        for (round, error) in self.engine.failed_rounds.drain(..) {
            pass.failed += 1;
            pass.absorb_output(&(round, error.to_string()));
        }
        for outcome in self.engine.outcomes.drain(..) {
            pass.rounds_ok += 1;
            pass.resolvable += self.truth_m.len() as u64;
            for (id, &d) in self.truth_m.iter().enumerate() {
                let Some(est) = outcome.estimate_for(id as u32) else {
                    continue;
                };
                let err = (est.distance_m - d).abs();
                if err < RECOVERED_WITHIN_M {
                    pass.resolved += 1;
                    pass.resolved_responses += 1;
                    pass.err_sum_m += err;
                    pass.err_n += 1;
                }
            }
            pass.absorb_output(&(
                outcome.round,
                outcome.anchor_id,
                outcome.d_twr_m,
                &outcome.estimates,
                &outcome.responder_status,
                outcome.attempts,
            ));
        }
    }
}
