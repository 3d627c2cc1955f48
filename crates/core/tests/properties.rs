//! Property-based tests for the concurrent-ranging core: estimator math,
//! slot/shape assignment, detection and aggregation invariants.

use concurrent_ranging::detection::{
    template_bank, Detector, DetectorContext, PulseMemo, SearchSubtractConfig,
    SearchSubtractDetector, ThresholdConfig, ThresholdDetector,
};
use concurrent_ranging::{
    concurrent_distance_m, concurrent_distance_with_rpm_m, multilaterate, CombinedScheme,
    RangeToAnchor, RangingError, SlotPlan, TwrTimestamps,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uwb_channel::{Arrival, CirSynthesizer, Point2};
use uwb_dsp::{Complex64, DspBackend};
use uwb_radio::{
    meters_to_seconds, Channel, Cir, DeviceTime, Prf, PulseShape, RadioConfig, TcPgDelay,
    CIR_SAMPLE_PERIOD_S,
};

/// Runs `detector` on `cir` under every DSP backend and returns the
/// per-backend results, error variants included.
fn on_every_backend<D: Detector>(
    detector: &D,
    cir: &Cir,
    count: usize,
) -> Vec<Result<D::Output, RangingError>> {
    DspBackend::ALL
        .into_iter()
        .map(|backend| {
            detector.detect_with(&mut DetectorContext::with_backend(backend), cir, count)
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn twr_estimator_is_exact_for_noise_free_exchanges(
        distance_m in 0.5f64..150.0,
        reply_us in 100.0f64..2000.0,
        init_offset in 0.0f64..10.0,
        resp_offset in 0.0f64..10.0,
    ) {
        let tof = meters_to_seconds(distance_m);
        let reply = reply_us * 1e-6;
        let ts = TwrTimestamps {
            init_tx: DeviceTime::from_seconds(init_offset).unwrap(),
            resp_rx: DeviceTime::from_seconds(resp_offset).unwrap(),
            resp_tx: DeviceTime::from_seconds(resp_offset + reply).unwrap(),
            init_rx: DeviceTime::from_seconds(init_offset + 2.0 * tof + reply).unwrap(),
        };
        // Exact up to DTU rounding (±2 ticks ≈ ±1 cm).
        prop_assert!((ts.distance_m() - distance_m).abs() < 0.01);
    }

    #[test]
    fn cfo_corrected_estimator_cancels_drift(
        distance_m in 0.5f64..100.0,
        drift_ppm in -40.0f64..40.0,
    ) {
        let tof = meters_to_seconds(distance_m);
        let rate = 1.0 + drift_ppm * 1e-6;
        let reply_local = 290e-6;
        let reply_true = reply_local / rate;
        let ts = TwrTimestamps {
            init_tx: DeviceTime::from_seconds(1.0).unwrap(),
            resp_rx: DeviceTime::from_seconds(3.0).unwrap(),
            resp_tx: DeviceTime::from_seconds(3.0 + reply_local).unwrap(),
            init_rx: DeviceTime::from_seconds(1.0 + 2.0 * tof + reply_true).unwrap(),
        };
        let corrected = ts.distance_cfo_corrected_m(drift_ppm);
        prop_assert!((corrected - distance_m).abs() < 0.02, "corrected {corrected}");
    }

    #[test]
    fn eq4_rpm_compensation_is_consistent(
        d_twr in 0.5f64..50.0,
        extra_m in 0.0f64..30.0,
        anchor_slot in 0usize..4,
        slot in 0usize..4,
    ) {
        // Construct the observed delay a responder `extra_m` farther than
        // the anchor would produce in `slot`, then invert it.
        let plan = SlotPlan::new(4).unwrap();
        let delta = plan.slot_spacing_s();
        let tau_anchor = 100e-9;
        let tau = tau_anchor
            + 2.0 * meters_to_seconds(extra_m)
            + (slot as f64 - anchor_slot as f64) * delta;
        let d = concurrent_distance_with_rpm_m(d_twr, tau, tau_anchor, slot, anchor_slot, delta);
        prop_assert!((d - (d_twr + extra_m)).abs() < 1e-9);
        // With equal slots it must agree with plain Eq. 4.
        if slot == anchor_slot {
            prop_assert!((d - concurrent_distance_m(d_twr, tau, tau_anchor)).abs() < 1e-12);
        }
    }

    #[test]
    fn assignment_bijection_for_any_scheme(
        slots in 1usize..16,
        shapes in 1usize..16,
    ) {
        let scheme = CombinedScheme::new(SlotPlan::new(slots).unwrap(), shapes).unwrap();
        let mut seen = std::collections::HashSet::new();
        for id in 0..scheme.capacity() {
            let a = scheme.assign(id).unwrap();
            prop_assert!(a.slot < slots);
            prop_assert!(a.shape < shapes);
            prop_assert!(seen.insert((a.slot, a.shape)));
            prop_assert_eq!(scheme.id_from(a.slot, a.shape), Some(id));
        }
        prop_assert!(scheme.assign(scheme.capacity()).is_err());
    }

    #[test]
    fn slot_decoding_inverts_slot_delays(
        slots in 2usize..8,
        anchor_slot in 0usize..8,
        slot in 0usize..8,
        d_anchor in 0.5f64..30.0,
        d_k_frac in 0.0f64..0.9,
    ) {
        // Any responder within the plan's absolute range budget decodes
        // correctly — including responders closer than the anchor.
        prop_assume!(anchor_slot < slots && slot < slots);
        let plan = SlotPlan::new(slots).unwrap();
        let budget = plan.max_range_m(SlotPlan::DECODE_GUARD_S);
        prop_assume!(d_anchor < budget);
        let d_k = d_k_frac * budget;
        let c = 299_792_458.0;
        let offset = (slot as f64 - anchor_slot as f64) * plan.slot_spacing_s()
            + 2.0 * (d_k - d_anchor) / c;
        prop_assert_eq!(plan.decode_slot(offset, anchor_slot, d_anchor), Some(slot));
    }

    #[test]
    fn detectors_reject_non_finite_taps(
        seed in 0u64..500,
        tap in 0usize..1016,
        kind in 0usize..4,
    ) {
        // One NaN or infinite tap (in either component) next to a real
        // pulse: both detectors must name it with a typed error on every
        // backend instead of returning an empty detection.
        let mut rng = StdRng::seed_from_u64(seed);
        let pulse = PulseShape::from_config(&RadioConfig::default());
        let arrivals = [Arrival {
            delay_s: 100e-9,
            amplitude: Complex64::from_polar(1.0, 0.3),
            pulse,
        }];
        let mut cir = CirSynthesizer::new(Prf::Mhz64)
            .with_noise_sigma(0.002)
            .render(&arrivals, &mut rng);
        let search_subtract = SearchSubtractDetector::from_registers(
            &[TcPgDelay::DEFAULT],
            Channel::Ch7,
            SearchSubtractConfig::default(),
        )
        .unwrap();
        let threshold = ThresholdDetector::new(ThresholdConfig::default()).unwrap();
        for result in on_every_backend(&search_subtract, &cir, 1) {
            prop_assert_eq!(result.unwrap().responses.len(), 1);
        }
        for result in on_every_backend(&threshold, &cir, 1) {
            prop_assert_eq!(result.unwrap().len(), 1);
        }

        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][kind];
        let z = &mut cir.taps_mut()[tap];
        if kind == 3 {
            z.im = bad;
        } else {
            z.re = bad;
        }
        let expected = RangingError::NonFiniteCir { tap };
        for result in on_every_backend(&search_subtract, &cir, 1) {
            prop_assert_eq!(result.unwrap_err(), expected.clone());
        }
        for result in on_every_backend(&threshold, &cir, 1) {
            prop_assert_eq!(result.unwrap_err(), expected.clone());
        }
    }

    #[test]
    fn score_window_equals_per_delay_score_at_bit_for_bit(
        seed in 0u64..1000,
        lens in (1usize..1200, 1usize..1200),
        lo in 0usize..1300,
        width in 0usize..32,
    ) {
        // Every shape of a four-shape bank, with one memo reused dirty
        // across templates of different lengths and across two random
        // signals, over windows anywhere, clipped at either edge and
        // wholly past the end: each window score must be the per-delay
        // analytic score to the bit, and analytic evaluations plus memo
        // hits must add up to what the per-delay calls count as
        // `template.eval`.
        use rand::Rng;
        let period = CIR_SAMPLE_PERIOD_S / 8.0;
        let bank = template_bank(&TcPgDelay::spread(4).unwrap(), Channel::Ch7, period);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut memo = PulseMemo::new();
        let mut out = Vec::new();
        uwb_obs::profile::enable();
        for len in [lens.0, lens.1] {
            let signal: Vec<Complex64> = (0..len)
                .map(|_| Complex64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5))
                .collect();
            let windows = [
                (lo, lo + width),
                (0, width),
                (len.saturating_sub(width + 1), len - 1 + width),
                (len, len + width),
            ];
            for template in &bank {
                for (w_lo, w_hi) in windows {
                    let ((), window_work) = uwb_obs::profile::scoped(|| {
                        template.score_window_into(&signal, w_lo, w_hi, period, &mut out, &mut memo);
                    });
                    let (expected, delay_work) = uwb_obs::profile::scoped(|| {
                        (w_lo..=w_hi.min(len - 1))
                            .map(|l| template.score_at(&signal, l as f64 * period))
                            .collect::<Vec<f64>>()
                    });
                    if w_lo >= len {
                        prop_assert!(out.is_empty(), "window past the end scored {:?}", out);
                    }
                    prop_assert_eq!(
                        bits(&out),
                        bits(&expected),
                        "shape {} window {}..={} of {} samples",
                        template.shape_index,
                        w_lo,
                        w_hi,
                        len
                    );
                    // The dirty memo must count exactly what a fresh one
                    // does: work profiles never depend on earlier calls.
                    let ((), fresh_work) = uwb_obs::profile::scoped(|| {
                        let mut fresh = PulseMemo::new();
                        template.score_window_into(&signal, w_lo, w_hi, period, &mut out, &mut fresh);
                    });
                    prop_assert_eq!(&window_work, &fresh_work);
                    let work = |kind| window_work.work.get(kind).copied().unwrap_or(0);
                    prop_assert_eq!(
                        work("template.eval") + work("template.memo_hit"),
                        delay_work.work.get("template.eval").copied().unwrap_or(0)
                    );
                }
            }
        }
        uwb_obs::profile::disable();
    }

    #[test]
    fn detector_finds_well_separated_pulses(
        seed in 0u64..500,
        k in 1usize..5,
    ) {
        // K pulses ≥ 40 ns apart with amplitudes within 20 dB: all found
        // within 1 ns.
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let pulse = PulseShape::from_config(&RadioConfig::default());
        let mut delays = Vec::new();
        let mut arrivals = Vec::new();
        let mut t = 60.0 + rng.random::<f64>() * 30.0;
        for _ in 0..k {
            let amp = 0.1 + 0.9 * rng.random::<f64>();
            arrivals.push(Arrival {
                delay_s: t * 1e-9,
                amplitude: Complex64::from_polar(amp, rng.random::<f64>() * std::f64::consts::TAU),
                pulse,
            });
            delays.push(t);
            t += 40.0 + rng.random::<f64>() * 100.0;
        }
        prop_assume!(t < 1000.0);
        let cir = CirSynthesizer::new(Prf::Mhz64)
            .with_noise_sigma(0.002)
            .render(&arrivals, &mut rng);
        let detector = SearchSubtractDetector::from_registers(
            &[TcPgDelay::DEFAULT],
            Channel::Ch7,
            SearchSubtractConfig::default(),
        )
        .unwrap();
        let out = detector.detect(&cir, k).unwrap();
        prop_assert_eq!(out.responses.len(), k);
        for (resp, truth) in out.responses.iter().zip(&delays) {
            prop_assert!(
                (resp.tau_s * 1e9 - truth).abs() < 1.0,
                "found {} expected {}",
                resp.tau_s * 1e9,
                truth
            );
        }
    }

    #[test]
    fn multilateration_recovers_position_from_exact_ranges(
        x in 1.0f64..14.0,
        y in 1.0f64..9.0,
    ) {
        let truth = Point2::new(x, y);
        let anchors = [
            Point2::new(0.0, 0.0),
            Point2::new(15.0, 0.0),
            Point2::new(15.0, 10.0),
            Point2::new(0.0, 10.0),
        ];
        let ranges: Vec<RangeToAnchor> = anchors
            .iter()
            .map(|&a| RangeToAnchor {
                anchor: a,
                distance_m: a.distance_to(truth),
            })
            .collect();
        let fix = multilaterate(&ranges).unwrap();
        prop_assert!(fix.position.distance_to(truth) < 1e-5);
    }

    #[test]
    fn plan_for_always_covers_requested_users(
        n_users in 1u32..200,
        range_m in 5.0f64..60.0,
    ) {
        if let Ok(scheme) = CombinedScheme::plan_for(n_users, range_m, 20e-9) {
            prop_assert!(scheme.capacity() >= n_users);
            prop_assert!(scheme.plan().max_range_m(20e-9) >= range_m - 1e-9);
        }
    }
}
