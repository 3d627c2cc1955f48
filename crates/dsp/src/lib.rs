//! # uwb-dsp — signal-processing substrate for UWB simulation
//!
//! Self-contained DSP building blocks (std plus the in-tree `uwb-obs`
//! work counters — no external dependencies) used by the
//! concurrent-ranging reproduction of *Großwindhager et al., "Concurrent
//! Ranging with Ultra-Wideband Radios", ICDCS 2018*:
//!
//! - [`Complex64`]: minimal complex arithmetic.
//! - [`FftPlan`] / [`BluesteinPlan`]: radix-2 and arbitrary-length FFTs —
//!   the DW1000 channel impulse response is 1016 taps, so a non-power-of-two
//!   transform is required.
//! - [`convolve`] / [`correlate`] / [`MatchedFilter`]: the matched filter of
//!   the paper's Sect. IV detection algorithm (Eq. 3).
//! - [`upsample_fft`]: FFT zero-padding interpolation (Sect. IV, step 1).
//! - [`plan`]: plan-once/execute-many engine — [`DspContext`] caches FFT
//!   plans and recycles working buffers so the `*_into` entry points run
//!   allocation-free in steady state.
//! - [`Kernels`] / [`DspBackend`]: the backend-generic kernel set — a
//!   [`DspContext`] dispatches upsampling, matched filtering (single
//!   filters and whole template banks) and batched correlation scoring
//!   to one of two backends: the bit-identical scalar f64 reference
//!   (default) or the fast real-FFT overlap-save path
//!   ([`DspBackend::RealFft`]). Both cache the forward spectra of
//!   matched-filter templates. Selected via
//!   [`DspContext::with_backend`] or the `UWB_DSP_BACKEND` environment
//!   knob.
//! - [`RealFftPlan`]: half-cost FFT for real input (pack-two-reals).
//! - [`peaks`]: maxima, noise floor and sub-sample refinement utilities.
//! - [`stats`]: summary statistics used by the evaluation harness.
//!
//! # Examples
//!
//! Locate a pulse embedded in noise with a matched filter:
//!
//! ```
//! use uwb_dsp::{Complex64, MatchedFilter, argmax};
//!
//! # fn main() -> Result<(), uwb_dsp::DspError> {
//! let template = [0.2f64, 0.8, 1.0, 0.8, 0.2];
//! let filter = MatchedFilter::from_real(&template)?;
//! let mut signal = vec![Complex64::ZERO; 64];
//! for (i, &t) in template.iter().enumerate() {
//!     signal[40 + i] = Complex64::from_real(0.5 * t);
//! }
//! let response = filter.apply_normalized(&signal)?;
//! let (index, _) = argmax(&response).expect("non-empty");
//! assert_eq!(index, 40);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod bluestein;
mod complex;
mod convolution;
mod error;
mod fft;
mod kernels;
mod matched_filter;
pub mod peaks;
pub mod plan;
mod real_fft;
mod resample;
pub mod stats;

pub use backend::{DspBackend, BACKEND_ENV_VAR};
pub use bluestein::BluesteinPlan;
pub use complex::Complex64;
pub use convolution::{
    convolve, convolve_direct, convolve_fft, convolve_into, convolve_real, correlate,
    correlate_into, zero_lag_index,
};
pub use error::DspError;
pub use fft::{dft_reference, fft, ifft, next_power_of_two, Direction, FftPlan};
pub use kernels::Kernels;
pub use matched_filter::MatchedFilter;
pub use peaks::{argmax, find_peaks, leading_edge, noise_floor, parabolic_interpolation, Peak};
pub use plan::{DspContext, DspScratch, PlanCache};
pub use real_fft::RealFftPlan;
pub use resample::{fractional_delay, upsample_fft, upsample_fft_into, upsample_real};
