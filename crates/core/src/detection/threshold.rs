//! The threshold-based baseline detector (Falsi et al.), as described in
//! the paper's Sect. VI.
//!
//! "The threshold-based algorithm compares the channel impulse response
//! with a defined threshold. If the CIR crosses this threshold, the maximum
//! of the following N_p samples, i.e., the pulse duration, is derived.
//! This operation is repeated until N − 1 peaks are detected."
//!
//! The baseline exists to quantify what search-and-subtract buys: when two
//! responses overlap within a pulse duration, the threshold scan merges
//! them into one window and finds a single peak (the 48 % vs 92.6 %
//! comparison of Sect. VI).

use crate::detection::context::DetectorContext;
use crate::detection::shape_scores::ShapeScores;
use crate::detection::DetectedResponse;
use crate::error::RangingError;
use uwb_dsp::Kernels;
use uwb_radio::Cir;

/// Configuration of the threshold detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdConfig {
    /// FFT upsampling factor (kept equal to the search-and-subtract
    /// detector's for a fair comparison).
    pub upsample: usize,
    /// Threshold as a fraction of the global CIR peak — note this makes the
    /// baseline amplitude-*dependent*, one of the weaknesses the paper
    /// calls out.
    pub threshold_fraction: f64,
    /// Pulse duration `T_p` in seconds (the window scanned after each
    /// threshold crossing).
    pub pulse_duration_s: f64,
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        Self {
            upsample: 8,
            threshold_fraction: 0.25,
            // The scan window is the *effective* pulse duration — main
            // lobe plus first side lobes ("the maximum of the following
            // N_p samples, i.e., the pulse duration", Sect. VI). The full
            // truncated support includes −50 dB tails that no practical
            // threshold scan would treat as one pulse.
            pulse_duration_s: 2.0
                * uwb_radio::PulseShape::from_config(&uwb_radio::RadioConfig::default())
                    .main_lobe_s(),
        }
    }
}

/// The threshold-crossing baseline detector.
///
/// # Examples
///
/// ```
/// use concurrent_ranging::detection::{ThresholdConfig, ThresholdDetector};
///
/// let detector = ThresholdDetector::new(ThresholdConfig::default())?;
/// assert_eq!(detector.config().upsample, 8);
/// # Ok::<(), concurrent_ranging::RangingError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdDetector {
    config: ThresholdConfig,
}

impl ThresholdDetector {
    /// Validates the configuration and builds the detector.
    ///
    /// # Errors
    ///
    /// Returns [`RangingError::InvalidUpsampling`] for a zero factor and
    /// [`RangingError::InvalidSchemeParameters`] for a non-positive
    /// threshold fraction or pulse duration.
    pub fn new(config: ThresholdConfig) -> Result<Self, RangingError> {
        if config.upsample == 0 {
            return Err(RangingError::InvalidUpsampling { factor: 0 });
        }
        // NaN parameters must be rejected too, so the bounds are written
        // as positive requirements on each field.
        let fraction_ok = config.threshold_fraction > 0.0 && config.threshold_fraction < 1.0;
        let duration_ok = config.pulse_duration_s > 0.0;
        if !fraction_ok || !duration_ok {
            return Err(RangingError::InvalidSchemeParameters);
        }
        Ok(Self { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ThresholdConfig {
        &self.config
    }

    /// Scans the CIR for up to `count` peaks.
    ///
    /// Unlike search-and-subtract, the scan can return *fewer* than
    /// `count` responses — exactly the failure mode the paper measures —
    /// so the caller inspects the length.
    ///
    /// # Errors
    ///
    /// Returns [`RangingError::NoResponsesRequested`] when `count` is zero
    /// and [`RangingError::NonFiniteCir`] when a CIR tap is NaN or
    /// infinite.
    pub fn detect(&self, cir: &Cir, count: usize) -> Result<Vec<DetectedResponse>, RangingError> {
        let mut ctx = DetectorContext::new();
        self.detect_with(&mut ctx, cir, count)
    }

    /// [`ThresholdDetector::detect`] reusing the plans and buffers in
    /// `ctx`. Bit-identical outputs; the scan itself allocates nothing
    /// in steady state beyond the returned responses.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThresholdDetector::detect`].
    pub fn detect_with(
        &self,
        ctx: &mut DetectorContext,
        cir: &Cir,
        count: usize,
    ) -> Result<Vec<DetectedResponse>, RangingError> {
        if count == 0 {
            return Err(RangingError::NoResponsesRequested);
        }
        crate::detection::check_finite(cir)?;
        let DetectorContext {
            dsp,
            residual: up,
            mags,
            ..
        } = ctx;
        dsp.upsample_into(cir.taps(), self.config.upsample, up)?;
        dsp.magnitudes_into(up, mags);
        let sample_period_s = cir.sample_period_s() / self.config.upsample as f64;
        let np = (self.config.pulse_duration_s / sample_period_s).ceil() as usize;
        let peak = mags.iter().cloned().fold(0.0, f64::max);
        let threshold = self.config.threshold_fraction * peak;
        if peak <= 0.0 {
            return Ok(Vec::new());
        }

        let mut responses = Vec::new();
        let mut i = 0;
        while i < mags.len() && responses.len() < count {
            if mags[i] >= threshold {
                // Maximum of the following N_p samples.
                let end = (i + np).min(mags.len());
                let (local_max, _) = uwb_dsp::argmax(&mags[i..end]).expect("non-empty window");
                let idx = i + local_max;
                responses.push(DetectedResponse {
                    tau_s: idx as f64 * sample_period_s,
                    amplitude: up[idx],
                    shape_index: 0,
                    shape_scores: ShapeScores::from_slice(&[mags[idx]]),
                });
                i = end;
            } else {
                i += 1;
            }
        }
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uwb_channel::{Arrival, CirSynthesizer};
    use uwb_dsp::Complex64;
    use uwb_radio::{Prf, PulseShape, RadioConfig};

    fn arrival(delay_ns: f64, amp: f64) -> Arrival {
        Arrival {
            delay_s: delay_ns * 1e-9,
            amplitude: Complex64::from_polar(amp, 0.7 * delay_ns),
            pulse: PulseShape::from_config(&RadioConfig::default()),
        }
    }

    fn render(arrivals: &[Arrival], noise: f64, seed: u64) -> Cir {
        let mut rng = StdRng::seed_from_u64(seed);
        CirSynthesizer::new(Prf::Mhz64)
            .with_noise_sigma(noise)
            .render(arrivals, &mut rng)
    }

    fn detector() -> ThresholdDetector {
        ThresholdDetector::new(ThresholdConfig::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ThresholdDetector::new(ThresholdConfig {
            upsample: 0,
            ..ThresholdConfig::default()
        })
        .is_err());
        assert!(ThresholdDetector::new(ThresholdConfig {
            threshold_fraction: 1.5,
            ..ThresholdConfig::default()
        })
        .is_err());
        assert!(ThresholdDetector::new(ThresholdConfig {
            pulse_duration_s: 0.0,
            ..ThresholdConfig::default()
        })
        .is_err());
    }

    #[test]
    fn finds_well_separated_peaks() {
        let d = detector();
        let cir = render(&[arrival(100.0, 1.0), arrival(200.0, 0.8)], 0.002, 1);
        let out = d.detect(&cir, 2).unwrap();
        assert_eq!(out.len(), 2);
        assert!((out[0].tau_s * 1e9 - 100.0).abs() < 1.0);
        assert!((out[1].tau_s * 1e9 - 200.0).abs() < 1.0);
    }

    #[test]
    fn merges_overlapping_responses_into_one_peak() {
        // The failure mode of Sect. VI: two responses 1.5 ns apart (within
        // the pulse window) collapse into one detection.
        let d = detector();
        let cir = render(&[arrival(150.0, 1.0), arrival(151.5, 0.9)], 0.002, 2);
        let out = d.detect(&cir, 2).unwrap();
        // Either only one peak was found, or the "second" is a spurious
        // late crossing — not the true second response.
        let near_both = out
            .iter()
            .filter(|r| (r.tau_s * 1e9 - 150.0).abs() < 0.8 || (r.tau_s * 1e9 - 151.5).abs() < 0.8)
            .count();
        assert!(near_both <= 1, "baseline should merge overlapping pulses");
    }

    #[test]
    fn empty_cir_returns_no_peaks() {
        let d = detector();
        let cir = render(&[], 0.0, 3);
        assert!(d.detect(&cir, 2).unwrap().is_empty());
    }

    #[test]
    fn zero_count_is_an_error() {
        let d = detector();
        let cir = render(&[arrival(100.0, 1.0)], 0.0, 4);
        assert!(matches!(
            d.detect(&cir, 0),
            Err(RangingError::NoResponsesRequested)
        ));
    }

    #[test]
    fn weak_second_path_below_threshold_is_missed() {
        // Amplitude dependence (challenge IV): a second response 20 dB below
        // the first falls under the relative threshold and is missed —
        // search-and-subtract finds it (see its tests).
        let d = detector();
        let cir = render(&[arrival(100.0, 1.0), arrival(300.0, 0.05)], 0.001, 5);
        let out = d.detect(&cir, 2).unwrap();
        let found_weak = out.iter().any(|r| (r.tau_s * 1e9 - 300.0).abs() < 2.0);
        assert!(!found_weak, "threshold baseline should miss the weak path");
    }

    #[test]
    fn reused_context_is_bit_identical_to_fresh_detection() {
        let d = detector();
        let mut ctx = DetectorContext::new();
        for seed in 0..3u64 {
            let cir = render(&[arrival(100.0, 1.0), arrival(210.0, 0.7)], 0.002, seed);
            assert_eq!(
                d.detect(&cir, 2).unwrap(),
                d.detect_with(&mut ctx, &cir, 2).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn respects_requested_count() {
        let d = detector();
        let cir = render(
            &[
                arrival(100.0, 1.0),
                arrival(200.0, 0.9),
                arrival(300.0, 0.8),
            ],
            0.002,
            6,
        );
        let out = d.detect(&cir, 2).unwrap();
        assert_eq!(out.len(), 2);
    }
}
