//! The unifying [`Detector`] trait: one interface over the paper's
//! proposed detector ([`SearchSubtractDetector`]) and the
//! threshold-crossing baseline ([`ThresholdDetector`]).
//!
//! Before the redesign each detector exposed its own inherent
//! `detect`/`detect_with` pair with structurally identical contracts;
//! callers that compared the two (the Fig. 7 experiment, ablations)
//! had to be written twice. The trait captures the shared contract —
//! including the batched [`Detector::detect_batch`] entry point that
//! pairs with [`uwb_channel::CirSynthesizer::render_batch`]-style
//! producers — while each detector keeps its own `Output` type
//! (search-and-subtract returns a full [`DetectionOutcome`] with
//! diagnostics; the baseline returns the bare responses, faithfully
//! reflecting that it *can* come up short).
//!
//! The inherent methods keep their exact names and signatures, so the
//! trait is purely additive: existing call sites resolve to the
//! inherent impls as before, and generic code opts in with a
//! `D: Detector` bound.

use crate::detection::context::DetectorContext;
use crate::detection::search_subtract::{DetectionOutcome, SearchSubtractDetector};
use crate::detection::threshold::ThresholdDetector;
use crate::detection::DetectedResponse;
use crate::error::RangingError;
use uwb_radio::Cir;

/// Common interface of the response detectors.
///
/// # Examples
///
/// Compare both detectors through one generic helper:
///
/// ```
/// use concurrent_ranging::detection::{
///     Detector, DetectorContext, SearchSubtractConfig, SearchSubtractDetector,
///     ThresholdConfig, ThresholdDetector,
/// };
/// use uwb_radio::{Channel, TcPgDelay};
///
/// fn run<D: Detector>(d: &D, cirs: &[uwb_radio::Cir]) -> Vec<D::Output> {
///     let mut ctx = DetectorContext::new();
///     d.detect_batch(&mut ctx, cirs, 2).expect("valid CIRs")
/// }
///
/// let ss = SearchSubtractDetector::from_registers(
///     &[TcPgDelay::DEFAULT],
///     Channel::Ch7,
///     SearchSubtractConfig::default(),
/// )?;
/// let th = ThresholdDetector::new(ThresholdConfig::default())?;
/// # let _ = (run::<SearchSubtractDetector> as fn(_, _) -> _, ss, th);
/// # Ok::<(), concurrent_ranging::RangingError>(())
/// ```
pub trait Detector {
    /// What one detection run produces.
    type Output;

    /// Runs detection for up to `count` responses, reusing the plans,
    /// buffers and backend selection in `ctx`.
    ///
    /// # Errors
    ///
    /// [`RangingError::NoResponsesRequested`] when `count` is zero;
    /// detector-specific conditions otherwise.
    fn detect_with(
        &self,
        ctx: &mut DetectorContext,
        cir: &Cir,
        count: usize,
    ) -> Result<Self::Output, RangingError>;

    /// Convenience wrapper building a throwaway [`DetectorContext`]
    /// (backend from the environment). Hot callers should hold a
    /// context and use [`Detector::detect_with`] or
    /// [`Detector::detect_batch`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Detector::detect_with`].
    fn detect(&self, cir: &Cir, count: usize) -> Result<Self::Output, RangingError> {
        let mut ctx = DetectorContext::new();
        self.detect_with(&mut ctx, cir, count)
    }

    /// Detects on every CIR in `cirs`, in order, through one shared
    /// context — so plan caches, kernel spectra and scratch warm up
    /// once and every subsequent CIR runs allocation-free.
    ///
    /// The default implementation is the sequential loop and is
    /// **exactly equivalent** to calling [`Detector::detect_with`] per
    /// CIR with the same context: implementors that override it (e.g.
    /// to block transforms across the batch) must preserve per-item
    /// results bit for bit on the default backend.
    ///
    /// # Errors
    ///
    /// The first per-CIR error aborts the batch.
    fn detect_batch(
        &self,
        ctx: &mut DetectorContext,
        cirs: &[Cir],
        count: usize,
    ) -> Result<Vec<Self::Output>, RangingError> {
        cirs.iter()
            .map(|cir| self.detect_with(ctx, cir, count))
            .collect()
    }
}

impl Detector for SearchSubtractDetector {
    type Output = DetectionOutcome;

    fn detect_with(
        &self,
        ctx: &mut DetectorContext,
        cir: &Cir,
        count: usize,
    ) -> Result<DetectionOutcome, RangingError> {
        SearchSubtractDetector::detect_with(self, ctx, cir, count)
    }
}

impl Detector for ThresholdDetector {
    type Output = Vec<DetectedResponse>;

    fn detect_with(
        &self,
        ctx: &mut DetectorContext,
        cir: &Cir,
        count: usize,
    ) -> Result<Vec<DetectedResponse>, RangingError> {
        ThresholdDetector::detect_with(self, ctx, cir, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::{SearchSubtractConfig, ThresholdConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uwb_channel::{Arrival, CirSynthesizer};
    use uwb_dsp::{Complex64, DspBackend};
    use uwb_radio::{Channel, Prf, PulseShape, RadioConfig, TcPgDelay};

    fn render_batch(n: usize, base_seed: u64) -> Vec<Cir> {
        (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(base_seed + i as u64);
                let arrivals = vec![
                    Arrival {
                        delay_s: (120.0 + 7.0 * (i % 5) as f64) * 1e-9,
                        amplitude: Complex64::from_polar(1.0, 0.3 * i as f64),
                        pulse: PulseShape::from_config(&RadioConfig::default()),
                    },
                    Arrival {
                        delay_s: 180e-9,
                        amplitude: Complex64::from_polar(0.6, 1.1),
                        pulse: PulseShape::from_config(&RadioConfig::default()),
                    },
                ];
                CirSynthesizer::new(Prf::Mhz64)
                    .with_noise_sigma(0.003)
                    .render(&arrivals, &mut rng)
            })
            .collect()
    }

    fn search_subtract() -> SearchSubtractDetector {
        SearchSubtractDetector::from_registers(
            &TcPgDelay::spread(2).unwrap(),
            Channel::Ch7,
            SearchSubtractConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn detect_batch_equals_sequential_detect_with_at_every_size() {
        let detector = search_subtract();
        for &batch in &[1usize, 2, 7, 64] {
            let cirs = render_batch(batch, 1000 + batch as u64);
            let mut batch_ctx = DetectorContext::new();
            let batched = detector.detect_batch(&mut batch_ctx, &cirs, 2).unwrap();

            let mut seq_ctx = DetectorContext::new();
            let sequential: Vec<_> = cirs
                .iter()
                .map(|cir| detector.detect_with(&mut seq_ctx, cir, 2).unwrap())
                .collect();
            assert_eq!(batched, sequential, "batch size {batch}");
        }
    }

    #[test]
    fn detect_batch_works_for_the_threshold_baseline() {
        let detector = ThresholdDetector::new(ThresholdConfig::default()).unwrap();
        let cirs = render_batch(7, 42);
        let mut ctx = DetectorContext::new();
        let batched = detector.detect_batch(&mut ctx, &cirs, 2).unwrap();
        assert_eq!(batched.len(), 7);
        let mut seq_ctx = DetectorContext::new();
        for (i, cir) in cirs.iter().enumerate() {
            assert_eq!(
                batched[i],
                detector.detect_with(&mut seq_ctx, cir, 2).unwrap(),
                "cir {i}"
            );
        }
    }

    #[test]
    fn batch_errors_abort_on_first_failure() {
        let detector = search_subtract();
        let cirs = render_batch(3, 7);
        let mut ctx = DetectorContext::new();
        assert!(matches!(
            detector.detect_batch(&mut ctx, &cirs, 0),
            Err(RangingError::NoResponsesRequested)
        ));
    }

    #[test]
    fn trait_detect_matches_inherent_detect() {
        let detector = search_subtract();
        let cirs = render_batch(1, 99);
        let inherent = SearchSubtractDetector::detect(&detector, &cirs[0], 2).unwrap();
        let through_trait = Detector::detect(&detector, &cirs[0], 2).unwrap();
        assert_eq!(inherent, through_trait);
    }

    #[test]
    fn non_default_backends_recover_the_same_responses() {
        // End-to-end tolerance leg: the ToA estimates from the rfft
        // backend must agree with the scalar reference far inside
        // the CIR noise floor (±0.003 noise sigma ≈ tens of ps of ToA
        // jitter; backend deltas sit orders of magnitude below).
        let detector = search_subtract();
        let cirs = render_batch(4, 555);
        let mut reference_ctx = DetectorContext::with_backend(DspBackend::ScalarF64);
        let reference = detector.detect_batch(&mut reference_ctx, &cirs, 2).unwrap();

        let tau_tol_s = 1e-13;
        let mut ctx = DetectorContext::with_backend(DspBackend::RealFft);
        let outcomes = detector.detect_batch(&mut ctx, &cirs, 2).unwrap();
        for (trial, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
            assert_eq!(got.responses.len(), want.responses.len(), "trial {trial}");
            for (a, b) in got.responses.iter().zip(&want.responses) {
                let dt = (a.tau_s - b.tau_s).abs();
                assert!(
                    dt < tau_tol_s,
                    "trial {trial}: ToA delta {dt} s exceeds {tau_tol_s}"
                );
                assert_eq!(a.shape_index, b.shape_index, "trial {trial}");
            }
        }
    }
}
