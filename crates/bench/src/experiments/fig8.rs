//! Fig. 8 — the combined scheme: response position modulation × pulse
//! shaping. Nine responders share one round using N_RPM = 4 slots and
//! N_PS = 3 shapes (capacity 12); the initiator recovers every responder's
//! identity and distance from a single CIR.

use crate::scenarios::Deployment;
use crate::table::{fmt_f, Table};
use concurrent_ranging::{CombinedScheme, ConcurrentConfig, RoundOutcome, SlotPlan};
use std::fmt;
use uwb_channel::{ChannelModel, Point2};

/// Result of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8Report {
    /// The round outcome.
    pub outcome: RoundOutcome,
    /// `(id, slot, shape, true distance)` for every deployed responder.
    pub truth: Vec<(u32, usize, usize, f64)>,
    /// Number of responders whose ID and distance were both recovered.
    pub recovered: usize,
}

/// The Fig. 8 deployment: nine responders spread over a ~12 m area (well
/// within one slot's round-trip budget) on a spiral around the initiator
/// at the origin, 4 RPM slots × 3 pulse shapes, free space.
pub fn deployment() -> Deployment {
    let scheme = CombinedScheme::new(SlotPlan::new(4).expect("4 slots"), 3).expect("3 shapes");
    let responders: Vec<(Point2, u32)> = (0..9u32)
        .map(|id| {
            let angle = 0.7 * f64::from(id);
            let radius = 3.0 + 0.9 * f64::from(id);
            (Point2::new(radius * angle.cos(), radius * angle.sin()), id)
        })
        .collect();
    Deployment {
        initiator: Point2::new(0.0, 0.0),
        responders,
        scheme,
        channel: ChannelModel::free_space(),
    }
}

/// Runs the nine-responder combined round.
///
/// # Panics
///
/// Panics if the round fails to complete (a regression).
pub fn run(seed: u64) -> Fig8Report {
    let deployment = deployment();
    let scheme = deployment.scheme.clone();
    let truth: Vec<(u32, usize, usize, f64)> = deployment
        .responders
        .iter()
        .map(|&(p, id)| {
            let a = scheme.assign(id).expect("id fits");
            (id, a.slot, a.shape, p.distance_to(deployment.initiator))
        })
        .collect();

    let config = ConcurrentConfig::new(scheme).with_mpc_guard();
    let outcomes = deployment.run(config, 1, seed);
    let outcome = outcomes.into_iter().next().expect("round must complete");

    let recovered = truth
        .iter()
        .filter(|&&(id, _, _, d)| {
            outcome
                .estimate_for(id)
                .is_some_and(|e| (e.distance_m - d).abs() < 1.3)
        })
        .count();

    Fig8Report {
        outcome,
        truth,
        recovered,
    }
}

impl fmt::Display for Fig8Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 8 — combined RPM × pulse shaping: 9 responders, 4 slots × 3 shapes"
        )?;
        let mut t = Table::new(vec![
            "ID".into(),
            "slot".into(),
            "shape".into(),
            "true d [m]".into(),
            "est d [m]".into(),
            "error [m]".into(),
        ]);
        for &(id, slot, shape, d) in &self.truth {
            let (est, err) = match self.outcome.estimate_for(id) {
                Some(e) => (fmt_f(e.distance_m, 2), fmt_f(e.distance_m - d, 2)),
                None => ("missed".into(), "-".into()),
            };
            t.push(vec![
                id.to_string(),
                slot.to_string(),
                format!("s{}", shape + 1),
                fmt_f(d, 2),
                est,
                err,
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "recovered {}/{} responders in a single round (anchor id {}, d_TWR {:.2} m)",
            self.recovered,
            self.truth.len(),
            self.outcome.anchor_id,
            self.outcome.d_twr_m
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_at_least_eight_of_nine() {
        let report = run(21);
        assert!(
            report.recovered >= 8,
            "only {}/9 recovered:\n{report}",
            report.recovered
        );
    }

    #[test]
    fn slot_and_shape_assignments_cover_fig8_pattern() {
        let report = run(21);
        // 9 IDs over 4 slots: occupancy 3/2/2/2 with our bijection.
        let mut per_slot = [0usize; 4];
        for &(_, slot, _, _) in &report.truth {
            per_slot[slot] += 1;
        }
        assert_eq!(per_slot.iter().sum::<usize>(), 9);
        assert!(per_slot.iter().all(|&c| c >= 2));
    }
}
