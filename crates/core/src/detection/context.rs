//! Per-worker detection context: cached DSP plans plus reusable working
//! buffers for the detection hot path.
//!
//! Both detectors re-run the same transform sizes for every CIR (1016
//! taps upsampled ×8 → 8128 samples, matched-filtered per template). A
//! [`DetectorContext`] owns a [`uwb_dsp::DspContext`] (FFT plan cache +
//! scratch arena) and the detector-level buffers — the residual, the
//! per-template matched-filter magnitudes and the refinement's pulse
//! memo — so a steady-state `detect_with` call allocates (almost)
//! nothing. Build one context per worker thread and reuse it across
//! trials; outputs are bit-identical to the context-free entry points.
//!
//! The context also carries the [`DspBackend`] selection the detectors
//! dispatch their kernels through: [`DetectorContext::new`] honors the
//! `UWB_DSP_BACKEND` environment knob (unset → the bit-identical f64
//! default), [`DetectorContext::with_backend`] pins one explicitly.

use crate::detection::templates::PulseMemo;
use uwb_dsp::{Complex64, DspBackend, DspContext};

/// Reusable state for repeated detection runs on one worker.
///
/// # Examples
///
/// ```
/// use concurrent_ranging::detection::DetectorContext;
/// use uwb_dsp::DspBackend;
///
/// let mut ctx = DetectorContext::new(); // backend from UWB_DSP_BACKEND
/// assert_eq!(
///     DetectorContext::with_backend(DspBackend::RealFft).backend(),
///     DspBackend::RealFft,
/// );
/// // Pass to `SearchSubtractDetector::detect_with` /
/// // `ThresholdDetector::detect_with` across many trials.
/// # let _ = &mut ctx;
/// ```
#[derive(Debug)]
pub struct DetectorContext {
    /// FFT plans, complex scratch buffers, and the backend dispatch.
    pub(crate) dsp: DspContext,
    /// The upsampled CIR, iteratively reduced by subtraction.
    pub(crate) residual: Vec<Complex64>,
    /// Matched-filter magnitudes of the current iteration, one buffer
    /// per template of the bank (search-and-subtract).
    pub(crate) mf_mags: Vec<Vec<f64>>,
    /// Magnitudes of the upsampled CIR (threshold scan).
    pub(crate) mags: Vec<f64>,
    /// Refinement-window scores of the template currently being scanned.
    pub(crate) scores: Vec<f64>,
    /// Refinement-window scores of the best template seen so far.
    pub(crate) best_scores: Vec<f64>,
    /// Pulse values reused across the delays of one refinement window.
    pub(crate) memo: PulseMemo,
}

impl Default for DetectorContext {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectorContext {
    /// A context with empty caches; buffers grow to steady-state sizes on
    /// first use. The DSP backend comes from the `UWB_DSP_BACKEND`
    /// environment knob; when unset, the default scalar f64 kernels run
    /// and outputs are bit-identical to the historical pipeline.
    #[must_use]
    pub fn new() -> Self {
        Self::with_backend(DspBackend::from_env())
    }

    /// A context pinned to the given DSP backend, ignoring the
    /// environment.
    #[must_use]
    pub fn with_backend(backend: DspBackend) -> Self {
        Self {
            dsp: DspContext::with_backend(backend),
            residual: Vec::new(),
            mf_mags: Vec::new(),
            mags: Vec::new(),
            scores: Vec::new(),
            best_scores: Vec::new(),
            memo: PulseMemo::new(),
        }
    }

    /// The backend detection kernels dispatch to.
    #[must_use]
    pub fn backend(&self) -> DspBackend {
        self.dsp.backend()
    }

    /// The underlying DSP context (plan cache + scratch arena + backend
    /// selection), for callers that mix detection with their own planned
    /// DSP work or switch backends mid-stream.
    pub fn dsp_mut(&mut self) -> &mut DspContext {
        &mut self.dsp
    }
}
