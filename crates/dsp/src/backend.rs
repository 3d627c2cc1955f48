//! Runtime-selectable DSP backends.
//!
//! Every hot kernel in the detection pipeline — upsampling, matched
//! filtering, magnitude extraction — runs on one of two backends: the
//! bit-identical reference every golden compares against, and one fast
//! path:
//!
//! | Backend | Label | Contract |
//! |---------|-------|----------|
//! | [`DspBackend::ScalarF64`] | `f64` | bit-identical to the historical scalar complex-f64 path; the default. A matched-filter bank transforms the signal once per transform length and multiplies by cached template spectra (the same transform a per-call convolution computes) |
//! | [`DspBackend::RealFft`] | `rfft` | f64 precision, but real-input structure is exploited: real template spectra are built with the half-cost real FFT, the matched filter runs as overlap-save blocks, and magnitudes use `sqrt(norm_sqr)` instead of `hypot` |
//!
//! The backend is a property of the [`crate::DspContext`]; detectors
//! and experiment binaries pick it up via the `UWB_DSP_BACKEND`
//! environment knob (through the shared `uwb_obs::envknob` policy:
//! unset → default silently, unrecognized → warn once and fall back).

use uwb_obs::envknob;

/// The environment knob read by [`DspBackend::from_env`].
pub const BACKEND_ENV_VAR: &str = "UWB_DSP_BACKEND";

/// Which kernel implementations a [`crate::DspContext`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DspBackend {
    /// Scalar complex-f64 kernels — bit-identical to the historical
    /// pipeline and therefore the default.
    #[default]
    ScalarF64,
    /// f64 kernels that exploit real-input structure: real-FFT template
    /// spectra, overlap-save matched filtering and `sqrt(norm_sqr)`
    /// magnitudes.
    RealFft,
}

impl DspBackend {
    /// Every backend, in documentation order.
    pub const ALL: [DspBackend; 2] = [DspBackend::ScalarF64, DspBackend::RealFft];

    /// The canonical label accepted by [`DspBackend::parse`] and the
    /// `UWB_DSP_BACKEND` knob.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DspBackend::ScalarF64 => "f64",
            DspBackend::RealFft => "rfft",
        }
    }

    /// Parses a backend label (trimmed, ASCII-case-insensitive).
    #[must_use]
    pub fn parse(raw: &str) -> Option<DspBackend> {
        let trimmed = raw.trim();
        Self::ALL
            .into_iter()
            .find(|b| b.label().eq_ignore_ascii_case(trimmed))
    }

    /// Reads the backend from `UWB_DSP_BACKEND`.
    ///
    /// Unset → [`DspBackend::ScalarF64`] silently; anything
    /// unrecognized warns on stderr (via the shared envknob policy) and
    /// falls back to the default.
    #[must_use]
    pub fn from_env() -> DspBackend {
        let labels = Self::ALL.map(DspBackend::label);
        let label =
            envknob::label_from_env(BACKEND_ENV_VAR, DspBackend::default().label(), &labels);
        Self::parse(label).unwrap_or_default()
    }
}

impl std::fmt::Display for DspBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for backend in DspBackend::ALL {
            assert_eq!(DspBackend::parse(backend.label()), Some(backend));
            assert_eq!(backend.to_string(), backend.label());
        }
    }

    #[test]
    fn parse_is_forgiving_about_case_and_whitespace() {
        assert_eq!(DspBackend::parse(" RFFT "), Some(DspBackend::RealFft));
        assert_eq!(DspBackend::parse("F64"), Some(DspBackend::ScalarF64));
        assert_eq!(DspBackend::parse("f32"), None);
        assert_eq!(DspBackend::parse("f16"), None);
        assert_eq!(DspBackend::parse("avx512"), None);
        assert_eq!(DspBackend::parse(""), None);
    }

    #[test]
    fn default_is_the_bit_identical_scalar_backend() {
        assert_eq!(DspBackend::default(), DspBackend::ScalarF64);
    }
}
