//! The search-and-subtract response detector — the paper's Sect. IV
//! algorithm (after Falsi et al.), extended with the pulse-shape template
//! bank of Sect. V.
//!
//! Per iteration: run a matched filter for every candidate pulse shape,
//! take the global maximum across shapes and delays (the strongest
//! remaining path), estimate its complex amplitude, and subtract the
//! fitted pulse from the residual. Repeat until `N − 1` responses are
//! found, then sort by delay. Identification is free: the shape whose
//! filter scored highest *is* the responder's pulse shape.
//!
//! The detector is amplitude-independent by construction — it never
//! compares against absolute power bounds, addressing the paper's
//! challenge IV.

use crate::detection::context::DetectorContext;
use crate::detection::shape_scores::ShapeScores;
use crate::detection::templates::DetectionTemplate;
use crate::detection::DetectedResponse;
use crate::error::RangingError;
use uwb_dsp::{parabolic_interpolation, Kernels};
use uwb_radio::Cir;

/// Configuration of the search-and-subtract detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSubtractConfig {
    /// FFT upsampling factor applied to the raw CIR (step 1 of the
    /// algorithm). 1 disables upsampling.
    pub upsample: usize,
    /// Refine peak positions to sub-sample precision with parabolic
    /// interpolation before subtracting (improves subtraction residuals).
    pub refine: bool,
    /// SAGE-style joint refinement passes after the greedy search: each
    /// pass re-estimates every response with all *others* subtracted,
    /// which untangles the biased estimates the greedy pass produces for
    /// overlapping pulses (successive interference cancellation with
    /// re-estimation, à la Fleury et al.). 0 reproduces the paper's plain
    /// algorithm.
    pub refinement_passes: usize,
    /// Capture the intermediate signals in [`DetectionDiagnostics`]
    /// (Fig. 4 stages, residual matched-filter magnitudes). Disable on
    /// allocation-sensitive hot paths that only consume `responses`;
    /// the detected responses themselves are unaffected.
    pub capture_diagnostics: bool,
}

impl Default for SearchSubtractConfig {
    fn default() -> Self {
        Self {
            upsample: 8,
            refine: true,
            refinement_passes: 1,
            capture_diagnostics: true,
        }
    }
}

impl SearchSubtractConfig {
    /// The paper's plain Sect. IV algorithm: greedy search-and-subtract
    /// with no joint refinement.
    pub fn paper() -> Self {
        Self {
            refinement_passes: 0,
            ..Self::default()
        }
    }
}

/// Diagnostics captured during a detection run, used to regenerate the
/// paper's Fig. 4 (CIR → matched filter → subtraction stages).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionDiagnostics {
    /// Upsampled CIR magnitude before detection.
    pub upsampled_magnitude: Vec<f64>,
    /// Matched-filter magnitude of the *first* iteration, per template.
    pub first_mf_magnitude: Vec<Vec<f64>>,
    /// Residual matched-filter magnitude (best template) after each
    /// subtraction.
    pub residual_mf_magnitude: Vec<Vec<f64>>,
}

impl DetectionDiagnostics {
    /// Streaming statistics over the post-subtraction residual energies,
    /// one observation per iteration — the summary the observability
    /// layer reports instead of keeping bespoke detection counters (the
    /// accumulator type is shared with the campaign engine).
    #[must_use]
    pub fn residual_energy_stats(&self) -> uwb_obs::ScalarStats {
        let mut stats = uwb_obs::ScalarStats::new();
        for residual in &self.residual_mf_magnitude {
            stats.record(residual.iter().map(|m| m * m).sum());
        }
        stats
    }
}

/// Result of a detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionOutcome {
    /// Detected responses, sorted by ascending delay (step 7).
    pub responses: Vec<DetectedResponse>,
    /// Detection sample period (CIR period / upsampling factor).
    pub sample_period_s: f64,
    /// Captured intermediate signals.
    pub diagnostics: DetectionDiagnostics,
}

/// The search-and-subtract detector.
///
/// # Examples
///
/// ```
/// use concurrent_ranging::detection::{SearchSubtractConfig, SearchSubtractDetector};
/// use uwb_radio::{Channel, TcPgDelay};
///
/// let detector = SearchSubtractDetector::from_registers(
///     &[TcPgDelay::DEFAULT],
///     Channel::Ch7,
///     SearchSubtractConfig::default(),
/// )?;
/// assert_eq!(detector.template_count(), 1);
/// # Ok::<(), concurrent_ranging::RangingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SearchSubtractDetector {
    templates: Vec<DetectionTemplate>,
    config: SearchSubtractConfig,
}

impl SearchSubtractDetector {
    /// Builds a detector from prepared templates.
    ///
    /// # Errors
    ///
    /// Returns [`RangingError::EmptyTemplateBank`] for an empty bank and
    /// [`RangingError::InvalidUpsampling`] for a zero upsampling factor.
    pub fn new(
        templates: Vec<DetectionTemplate>,
        config: SearchSubtractConfig,
    ) -> Result<Self, RangingError> {
        if templates.is_empty() {
            return Err(RangingError::EmptyTemplateBank);
        }
        if config.upsample == 0 {
            return Err(RangingError::InvalidUpsampling { factor: 0 });
        }
        Ok(Self { templates, config })
    }

    /// Builds a detector with templates for the given register values on a
    /// channel, sampled at the upsampled CIR rate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SearchSubtractDetector::new`].
    pub fn from_registers(
        registers: &[uwb_radio::TcPgDelay],
        channel: uwb_radio::Channel,
        config: SearchSubtractConfig,
    ) -> Result<Self, RangingError> {
        if config.upsample == 0 {
            return Err(RangingError::InvalidUpsampling { factor: 0 });
        }
        let period = uwb_radio::CIR_SAMPLE_PERIOD_S / config.upsample as f64;
        let templates = crate::detection::templates::template_bank(registers, channel, period);
        Self::new(templates, config)
    }

    /// Number of pulse-shape templates in the bank (`N_PS`).
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// The configuration.
    pub fn config(&self) -> &SearchSubtractConfig {
        &self.config
    }

    /// Runs detection for the `count` strongest responses in the CIR.
    ///
    /// Convenience wrapper around [`SearchSubtractDetector::detect_with`]
    /// that builds a throwaway [`DetectorContext`] per call. Hot callers
    /// should hold a context and call `detect_with` instead.
    ///
    /// # Errors
    ///
    /// - [`RangingError::NoResponsesRequested`] when `count` is zero.
    /// - [`RangingError::NonFiniteCir`] when a CIR tap is NaN or infinite.
    /// - [`RangingError::Dsp`] if the CIR cannot be upsampled (cannot occur
    ///   for valid [`Cir`] buffers).
    pub fn detect(&self, cir: &Cir, count: usize) -> Result<DetectionOutcome, RangingError> {
        let mut ctx = DetectorContext::new();
        self.detect_with(&mut ctx, cir, count)
    }

    /// Runs detection reusing the plans and working buffers in `ctx`.
    /// Bit-identical to [`SearchSubtractDetector::detect`]; in steady
    /// state the search loop itself allocates nothing (the returned
    /// outcome owns its `responses` vector, and diagnostics are captured
    /// only when [`SearchSubtractConfig::capture_diagnostics`] is set).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SearchSubtractDetector::detect`].
    pub fn detect_with(
        &self,
        ctx: &mut DetectorContext,
        cir: &Cir,
        count: usize,
    ) -> Result<DetectionOutcome, RangingError> {
        let _work_scope = uwb_obs::profile::scope("detect");
        uwb_obs::timed("detect", || self.detect_inner(ctx, cir, count))
    }

    fn detect_inner(
        &self,
        ctx: &mut DetectorContext,
        cir: &Cir,
        count: usize,
    ) -> Result<DetectionOutcome, RangingError> {
        if count == 0 {
            return Err(RangingError::NoResponsesRequested);
        }
        crate::detection::check_finite(cir)?;
        uwb_obs::counter("detect.calls", 1);
        let sample_period_s = cir.sample_period_s() / self.config.upsample as f64;
        let DetectorContext {
            dsp,
            residual,
            mf_mags,
            scores,
            best_scores,
            memo,
            ..
        } = ctx;
        let capture = self.config.capture_diagnostics;

        // Step 1: upsample via FFT for a smoother signal (dispatched to
        // the context's DSP backend).
        dsp.upsample_into(cir.taps(), self.config.upsample, residual)?;
        let mut diagnostics = DetectionDiagnostics::default();
        if capture {
            diagnostics.upsampled_magnitude = residual.iter().map(|z| z.abs()).collect();
        }

        let mut responses = Vec::with_capacity(count);
        for iteration in 0..count {
            // Steps 2–3: matched filter per template; global maximum across
            // shapes and delays marks the strongest path. One bank call
            // per iteration: the kernel fuses convolution and magnitudes,
            // and on the scalar backend transforms the residual once for
            // every template.
            dsp.matched_filter_bank_mags_into(&self.templates, residual, mf_mags)?;
            if capture && iteration == 0 {
                diagnostics.first_mf_magnitude = mf_mags.clone();
            }
            // The first template whose maximum is strictly greater wins.
            let mut best: Option<(usize, usize, f64)> = None; // (template, index, magnitude)
            for (ti, mags) in mf_mags.iter().enumerate() {
                if let Some((idx, val)) = uwb_dsp::argmax(mags) {
                    if best.is_none_or(|(_, _, b)| val > b) {
                        best = Some((ti, idx, val));
                    }
                }
            }
            let Some((ti, idx, _)) = best else { break };
            // Deterministic work accounting; deliberately independent of
            // both the trace recorder and `capture_diagnostics`, so work
            // totals are invariant to every observability toggle.
            uwb_obs::profile::work("detect.iteration", 1);
            let template = &self.templates[ti];

            // Optional sub-sample refinement of the peak position.
            let idx_frac = if self.config.refine {
                parabolic_interpolation(&mf_mags[ti], idx)
            } else {
                idx as f64
            };
            let tau_s = template.center_delay_s(idx_frac);

            // Sect. V: identification scores for every template at this
            // delay, *before* subtraction.
            let shape_scores: ShapeScores = self
                .templates
                .iter()
                .map(|t| t.score_at(residual, tau_s))
                .collect();
            let shape_index = argmax_f64(&shape_scores).unwrap_or(ti);

            // Step 4: amplitude of the strongest path (projection onto
            // the shifted pulse) — estimated and subtracted with the SAME
            // template the response is recorded under, so that a later
            // refinement pass can add exactly what was removed.
            let chosen = &self.templates[shape_index];
            let amplitude = chosen.amplitude_at(residual, tau_s);

            // Step 5: subtract the estimated response from the residual.
            chosen.subtract(residual, tau_s, amplitude);
            if uwb_obs::enabled() {
                uwb_obs::counter("detect.iterations", 1);
                uwb_obs::event("detect.iter", || {
                    vec![
                        ("iteration", iteration.into()),
                        ("peak_index", idx.into()),
                        ("tau_s", tau_s.into()),
                        ("amplitude", amplitude.abs().into()),
                        ("template", ti.into()),
                        ("shape", shape_index.into()),
                        (
                            "residual_energy",
                            residual
                                .iter()
                                .map(|z| {
                                    let m = z.abs();
                                    m * m
                                })
                                .sum::<f64>()
                                .into(),
                        ),
                        ("shape_scores", shape_scores.to_vec().into()),
                    ]
                });
            }
            if capture {
                diagnostics
                    .residual_mf_magnitude
                    .push(residual.iter().map(|z| z.abs()).collect());
            }

            responses.push(DetectedResponse {
                tau_s,
                amplitude,
                shape_index,
                shape_scores,
            });
        }

        // Joint refinement: re-estimate each response with all others
        // removed, fixing the biased fits the greedy pass leaves on
        // overlapping pulses. Every backend re-searches with the analytic
        // template score at each grid delay of a ±main-lobe window; the
        // context's pulse memo lets the delays of one window share pulse
        // evaluations without changing a bit of the scores.
        let _refine_scope =
            (self.config.refinement_passes > 0).then(|| uwb_obs::profile::scope("refine"));
        for _ in 0..self.config.refinement_passes {
            for response in responses.iter_mut() {
                let old = response.clone();
                // Add the current estimate back into the residual.
                self.templates[old.shape_index].subtract(residual, old.tau_s, -old.amplitude);

                // Local re-search around the previous delay, at the fine
                // sample grid, over every template.
                let window_s = self.templates[old.shape_index].pulse().main_lobe_s();
                let lo = ((old.tau_s - window_s) / sample_period_s).floor().max(0.0) as usize;
                let hi = (((old.tau_s + window_s) / sample_period_s).ceil() as usize)
                    .min(residual.len().saturating_sub(1));
                let mut best: Option<(usize, usize, f64)> = None;
                for (ti, template) in self.templates.iter().enumerate() {
                    template.score_window_into(residual, lo, hi, sample_period_s, scores, memo);
                    if let Some((idx, val)) = uwb_dsp::argmax(scores) {
                        if best.is_none_or(|(_, _, b)| val > b) {
                            best = Some((ti, idx, val));
                            std::mem::swap(scores, best_scores);
                        }
                    }
                }
                let Some((ti, idx, _)) = best else {
                    // Degenerate window; restore the old estimate.
                    self.templates[old.shape_index].subtract(residual, old.tau_s, old.amplitude);
                    continue;
                };
                let idx_frac = if self.config.refine {
                    parabolic_interpolation(best_scores, idx)
                } else {
                    idx as f64
                };
                let tau_s = (lo as f64 + idx_frac) * sample_period_s;
                let shape_scores: ShapeScores = self
                    .templates
                    .iter()
                    .map(|t| t.score_at(residual, tau_s))
                    .collect();
                let shape_index = argmax_f64(&shape_scores).unwrap_or(ti);
                let amplitude = self.templates[shape_index].amplitude_at(residual, tau_s);
                self.templates[shape_index].subtract(residual, tau_s, amplitude);
                *response = DetectedResponse {
                    tau_s,
                    amplitude,
                    shape_index,
                    shape_scores,
                };
            }
        }

        // Step 7: arrange responses in ascending delay order.
        responses.sort_by(|a, b| a.tau_s.partial_cmp(&b.tau_s).unwrap());

        Ok(DetectionOutcome {
            responses,
            sample_period_s,
            diagnostics,
        })
    }
}

fn argmax_f64(values: &[f64]) -> Option<usize> {
    uwb_dsp::argmax(values).map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uwb_channel::{Arrival, CirSynthesizer};
    use uwb_dsp::Complex64;
    use uwb_radio::{Channel, Prf, PulseShape, RadioConfig, TcPgDelay};

    fn default_pulse() -> PulseShape {
        PulseShape::from_config(&RadioConfig::default())
    }

    fn detector(n_shapes: usize) -> SearchSubtractDetector {
        SearchSubtractDetector::from_registers(
            &TcPgDelay::spread(n_shapes).unwrap(),
            Channel::Ch7,
            SearchSubtractConfig::default(),
        )
        .unwrap()
    }

    fn render(arrivals: &[Arrival], noise: f64, seed: u64) -> Cir {
        let mut rng = StdRng::seed_from_u64(seed);
        CirSynthesizer::new(Prf::Mhz64)
            .with_noise_sigma(noise)
            .render(arrivals, &mut rng)
    }

    fn arrival(delay_ns: f64, amp: f64, phase: f64) -> Arrival {
        Arrival {
            delay_s: delay_ns * 1e-9,
            amplitude: Complex64::from_polar(amp, phase),
            pulse: default_pulse(),
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            SearchSubtractDetector::new(vec![], SearchSubtractConfig::default()),
            Err(RangingError::EmptyTemplateBank)
        ));
        let bad = SearchSubtractConfig {
            upsample: 0,
            ..SearchSubtractConfig::default()
        };
        assert!(matches!(
            SearchSubtractDetector::from_registers(&[TcPgDelay::DEFAULT], Channel::Ch7, bad),
            Err(RangingError::InvalidUpsampling { factor: 0 })
        ));
        let d = detector(1);
        let cir = render(&[], 0.0, 0);
        assert!(matches!(
            d.detect(&cir, 0),
            Err(RangingError::NoResponsesRequested)
        ));
    }

    #[test]
    fn detects_single_clean_pulse_precisely() {
        let d = detector(1);
        let tau_ns = 213.7;
        let cir = render(&[arrival(tau_ns, 1.0, 0.9)], 0.0, 1);
        let out = d.detect(&cir, 1).unwrap();
        assert_eq!(out.responses.len(), 1);
        let err_ps = (out.responses[0].tau_s - tau_ns * 1e-9).abs() * 1e12;
        assert!(err_ps < 30.0, "delay error {err_ps} ps");
        assert!((out.responses[0].amplitude.abs() - 1.0).abs() < 0.02);
    }

    #[test]
    fn detects_three_well_separated_responses_like_fig4() {
        // The paper's Fig. 4: responders at 3/6/10 m → CIR offsets of
        // 2·Δd/c: 0, 20, 46.7 ns after the first response.
        let d = detector(1);
        let base = 100.0;
        let delays = [base, base + 20.0, base + 46.7];
        let amps = [1.0, 0.6, 0.35];
        let arrivals: Vec<Arrival> = delays
            .iter()
            .zip(amps)
            .map(|(&t, a)| arrival(t, a, 0.3 * t))
            .collect();
        let cir = render(&arrivals, 0.004, 2);
        let out = d.detect(&cir, 3).unwrap();
        assert_eq!(out.responses.len(), 3);
        for (resp, &true_ns) in out.responses.iter().zip(&delays) {
            let err_ns = (resp.tau_s * 1e9 - true_ns).abs();
            assert!(err_ns < 0.2, "delay error {err_ns} ns for {true_ns}");
        }
        // Sorted ascending (step 7).
        assert!(out.responses[0].tau_s < out.responses[1].tau_s);
        assert!(out.responses[1].tau_s < out.responses[2].tau_s);
    }

    #[test]
    fn detection_is_amplitude_independent() {
        // Challenge IV: a weak direct path among strong responses must
        // still be found — no absolute power bound involved.
        let d = detector(1);
        let arrivals = vec![
            arrival(150.0, 1.0, 0.0),
            arrival(350.0, 0.02, 1.0), // 34 dB weaker
        ];
        let cir = render(&arrivals, 0.001, 3);
        let out = d.detect(&cir, 2).unwrap();
        assert_eq!(out.responses.len(), 2);
        let tau2_ns = out.responses[1].tau_s * 1e9;
        assert!(
            (tau2_ns - 350.0).abs() < 0.5,
            "weak response at {tau2_ns} ns"
        );
    }

    #[test]
    fn resolves_overlapping_responses() {
        // Sect. VI: two responders at the same distance — responses offset
        // by a fraction of the pulse width must still be separated.
        let d = detector(1);
        let arrivals = vec![
            arrival(200.0, 1.0, 0.0),
            arrival(203.0, 0.8, 2.0), // 3 ns apart: overlapping pulses
        ];
        let cir = render(&arrivals, 0.002, 4);
        let out = d.detect(&cir, 2).unwrap();
        assert_eq!(out.responses.len(), 2);
        let t1 = out.responses[0].tau_s * 1e9;
        let t2 = out.responses[1].tau_s * 1e9;
        assert!((t1 - 200.0).abs() < 1.0, "t1 {t1}");
        assert!((t2 - 203.0).abs() < 1.0, "t2 {t2}");
    }

    #[test]
    fn identifies_pulse_shapes_of_two_responders() {
        // Sect. V / Fig. 6: responder 1 with the default shape, responder 2
        // with 0xE6 — both recovered with correct shape indices.
        let bank = TcPgDelay::paper_figure5();
        let d = SearchSubtractDetector::from_registers(
            &[bank[0], bank[1], bank[2]],
            Channel::Ch7,
            SearchSubtractConfig::default(),
        )
        .unwrap();
        let s1 = PulseShape::from_register(bank[0], Channel::Ch7);
        let s3 = PulseShape::from_register(bank[2], Channel::Ch7);
        let arrivals = vec![
            Arrival {
                delay_s: 120e-9,
                amplitude: Complex64::from_polar(1.0, 0.4),
                pulse: s1,
            },
            Arrival {
                delay_s: 160e-9,
                amplitude: Complex64::from_polar(0.7, 1.9),
                pulse: s3,
            },
        ];
        let cir = render(&arrivals, 0.003, 5);
        let out = d.detect(&cir, 2).unwrap();
        assert_eq!(out.responses.len(), 2);
        assert_eq!(out.responses[0].shape_index, 0, "responder 1 shape");
        assert_eq!(out.responses[1].shape_index, 2, "responder 2 shape");
    }

    #[test]
    fn diagnostics_capture_detection_stages() {
        let d = detector(2);
        let cir = render(
            &[arrival(100.0, 1.0, 0.0), arrival(140.0, 0.5, 1.0)],
            0.002,
            6,
        );
        let out = d.detect(&cir, 2).unwrap();
        assert_eq!(out.diagnostics.upsampled_magnitude.len(), 1016 * 8);
        assert_eq!(out.diagnostics.first_mf_magnitude.len(), 2);
        assert_eq!(out.diagnostics.residual_mf_magnitude.len(), 2);
        // Residual energy decreases monotonically across subtractions.
        let energy = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let e0 = energy(&out.diagnostics.upsampled_magnitude);
        let e1 = energy(&out.diagnostics.residual_mf_magnitude[0]);
        let e2 = energy(&out.diagnostics.residual_mf_magnitude[1]);
        assert!(e1 < e0);
        assert!(e2 < e1);
    }

    #[test]
    fn without_refinement_still_detects() {
        let d = SearchSubtractDetector::from_registers(
            &[TcPgDelay::DEFAULT],
            Channel::Ch7,
            SearchSubtractConfig {
                upsample: 4,
                refine: false,
                refinement_passes: 0,
                capture_diagnostics: true,
            },
        )
        .unwrap();
        let cir = render(&[arrival(300.0, 1.0, 0.0)], 0.001, 7);
        let out = d.detect(&cir, 1).unwrap();
        assert_eq!(out.responses.len(), 1);
        assert!((out.responses[0].tau_s * 1e9 - 300.0).abs() < 0.3);
    }

    #[test]
    fn reused_context_is_bit_identical_to_fresh_detection() {
        // The campaign determinism contract: one worker context reused
        // across many trials must give exactly the outputs of per-call
        // fresh state — PartialEq on the outcomes, no tolerance.
        let d = detector(3);
        let mut ctx = DetectorContext::new();
        for seed in 0..4u64 {
            let cir = render(
                &[
                    arrival(120.0 + 15.0 * seed as f64, 1.0, 0.3),
                    arrival(170.0, 0.5, 1.1),
                ],
                0.003,
                seed,
            );
            let fresh = d.detect(&cir, 2).unwrap();
            let reused = d.detect_with(&mut ctx, &cir, 2).unwrap();
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    #[test]
    fn diagnostics_capture_can_be_disabled_without_changing_responses() {
        let with = detector(2);
        let without = SearchSubtractDetector::from_registers(
            &TcPgDelay::spread(2).unwrap(),
            Channel::Ch7,
            SearchSubtractConfig {
                capture_diagnostics: false,
                ..SearchSubtractConfig::default()
            },
        )
        .unwrap();
        let cir = render(
            &[arrival(100.0, 1.0, 0.0), arrival(140.0, 0.5, 1.0)],
            0.002,
            11,
        );
        let full = with.detect(&cir, 2).unwrap();
        let lean = without.detect(&cir, 2).unwrap();
        assert_eq!(full.responses, lean.responses);
        assert_eq!(full.sample_period_s, lean.sample_period_s);
        assert!(lean.diagnostics.upsampled_magnitude.is_empty());
        assert!(lean.diagnostics.first_mf_magnitude.is_empty());
        assert!(lean.diagnostics.residual_mf_magnitude.is_empty());
        assert!(!full.diagnostics.residual_mf_magnitude.is_empty());
    }
}
