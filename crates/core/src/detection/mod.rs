//! Response detection in the channel impulse response.
//!
//! Implements both detectors the paper evaluates:
//!
//! - [`SearchSubtractDetector`]: the proposed algorithm (Sect. IV) —
//!   matched-filter bank, iterative strongest-path extraction and
//!   subtraction, amplitude-independent, with pulse-shape identification
//!   (Sect. V) built in.
//! - [`ThresholdDetector`]: the threshold-crossing baseline (Falsi et al.)
//!   used as the comparison point in Sect. VI.
//!
//! Both implement the [`Detector`] trait (`detect` / `detect_with` /
//! `detect_batch`), and both dispatch their DSP kernels through the
//! backend carried by the [`DetectorContext`] (`UWB_DSP_BACKEND`, or
//! [`DetectorContext::with_backend`]). Both reject a CIR holding a NaN
//! or infinite tap with [`crate::RangingError::NonFiniteCir`] before any
//! DSP work: one such tap spreads through every transform and would
//! otherwise silently erase the real pulses.

mod context;
mod detector;
mod search_subtract;
mod shape_scores;
mod templates;
mod threshold;

pub use context::DetectorContext;
pub use detector::Detector;
pub use search_subtract::{
    DetectionDiagnostics, DetectionOutcome, SearchSubtractConfig, SearchSubtractDetector,
};
pub use shape_scores::ShapeScores;
pub use templates::{template_bank, DetectionTemplate, PulseMemo};
pub use threshold::{ThresholdConfig, ThresholdDetector};

use crate::error::RangingError;
use uwb_dsp::Complex64;
use uwb_radio::Cir;

/// Rejects a CIR with a non-finite tap, naming the first one.
fn check_finite(cir: &Cir) -> Result<(), RangingError> {
    match cir.taps().iter().position(|z| !z.is_finite()) {
        Some(tap) => Err(RangingError::NonFiniteCir { tap }),
        None => Ok(()),
    }
}

/// One detected responder response: the `(α̂_k, τ_k)` pair of the paper,
/// plus identification information.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedResponse {
    /// Path delay `τ_k` of the pulse center within the CIR window, seconds.
    pub tau_s: f64,
    /// Estimated complex amplitude `α̂_k`.
    pub amplitude: Complex64,
    /// Index of the best-matching pulse shape in the template bank
    /// (the decoded responder shape, Sect. V).
    pub shape_index: usize,
    /// Identification score `α̂_{k,i}` for every template in the bank,
    /// stored inline for typical bank sizes.
    pub shape_scores: ShapeScores,
}

impl DetectedResponse {
    /// The response delay expressed in (un-upsampled) CIR taps.
    pub fn tau_taps(&self) -> f64 {
        self.tau_s / uwb_radio::CIR_SAMPLE_PERIOD_S
    }

    /// Margin of the identification decision: best score divided by the
    /// runner-up (≥ 1.0; higher is a more confident shape decision).
    pub fn id_margin(&self) -> f64 {
        let mut sorted = self.shape_scores.to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        match (sorted.first(), sorted.get(1)) {
            (Some(&best), Some(&second)) if second > 0.0 => best / second,
            _ => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_taps_conversion() {
        let r = DetectedResponse {
            tau_s: 10.0 * uwb_radio::CIR_SAMPLE_PERIOD_S,
            amplitude: Complex64::ONE,
            shape_index: 0,
            shape_scores: ShapeScores::from_slice(&[1.0]),
        };
        assert!((r.tau_taps() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn id_margin_ratio() {
        let r = DetectedResponse {
            tau_s: 0.0,
            amplitude: Complex64::ONE,
            shape_index: 0,
            shape_scores: ShapeScores::from_slice(&[0.9, 0.3, 0.45]),
        };
        assert!((r.id_margin() - 2.0).abs() < 1e-12);
        let single = DetectedResponse {
            shape_scores: ShapeScores::from_slice(&[0.9]),
            ..r
        };
        assert_eq!(single.id_margin(), f64::INFINITY);
    }
}
