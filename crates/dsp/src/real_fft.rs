//! Real-input FFT via the pack-two-reals-per-complex-FFT trick.
//!
//! A length-`N` DFT of a *real* sequence carries only `N/2 + 1`
//! independent bins (the rest are conjugate mirrors), so computing it
//! with a full complex FFT wastes half the butterflies. [`RealFftPlan`]
//! packs the even/odd samples into a length-`N/2` complex buffer, runs
//! one half-size complex FFT, and untangles the result into the full
//! Hermitian spectrum: `(N/4)·log₂(N/2)` butterflies plus `N/2`
//! untangle operations instead of `(N/2)·log₂N` butterflies.
//!
//! The detection pipeline uses this for matched-filter *kernel* spectra
//! — the time-reversed pulse templates are purely real — and the
//! `dsp.rfft_1024` perfwatch workload races it against the complex
//! plan. The CIR itself is complex baseband and keeps the complex path.

use crate::complex::Complex64;
use crate::error::DspError;
use crate::fft::{Direction, FftPlan};
use crate::plan::DspScratch;
use std::f64::consts::PI;

/// A reusable forward FFT plan for real input of a fixed power-of-two
/// length, producing the full complex (Hermitian) spectrum.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{DspScratch, RealFftPlan};
///
/// # fn main() -> Result<(), uwb_dsp::DspError> {
/// let plan = RealFftPlan::new(8)?;
/// let mut scratch = DspScratch::new();
/// let mut out = Vec::new();
/// plan.forward_into(&[1.0; 8], &mut out, &mut scratch);
/// // The DFT of a constant is an impulse at bin zero.
/// assert!((out[0].re - 8.0).abs() < 1e-12);
/// assert!(out[1..].iter().all(|z| z.abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    size: usize,
    /// The half-length complex plan the packed samples go through.
    half: FftPlan,
    /// Twiddles `e^{-2πi·k/N}` for `k in 0..N/2` (the untangle stage).
    twiddles: Vec<Complex64>,
}

impl RealFftPlan {
    /// Creates a plan for real transforms of length `size`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NotPowerOfTwo`] unless `size` is a power of
    /// two and at least 2 (a length-1 transform has no even/odd split).
    pub fn new(size: usize) -> Result<Self, DspError> {
        if size < 2 || !size.is_power_of_two() {
            return Err(DspError::NotPowerOfTwo { size });
        }
        let half = FftPlan::new(size / 2)?;
        let twiddles = (0..size / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / size as f64))
            .collect();
        Ok(Self {
            size,
            half,
            twiddles,
        })
    }

    /// The (real) transform length this plan was built for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Forward FFT of `input`, writing the full `size`-bin complex
    /// spectrum into `out` (cleared first). Working memory comes from
    /// `scratch`; in steady state the call allocates nothing beyond
    /// `out`'s first growth.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`RealFftPlan::size`].
    pub fn forward_into(&self, input: &[f64], out: &mut Vec<Complex64>, scratch: &mut DspScratch) {
        // The untangle stage touches each of the N/2 packed bins once;
        // the embedded half-size transform counts its own butterflies.
        uwb_obs::profile::work("rfft.untangle", self.size as u64 / 2);
        self.execute(input, out, scratch, true);
    }

    /// Allocating convenience wrapper around
    /// [`RealFftPlan::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`RealFftPlan::size`].
    #[must_use]
    pub fn forward(&self, input: &[f64]) -> Vec<Complex64> {
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        self.forward_into(input, &mut out, &mut scratch);
        out
    }

    /// The uncounted variant used for one-time cache population (the
    /// matched-filter kernel spectra): work counters must reflect only
    /// per-call execution, invariant to how many workers warmed their
    /// caches.
    pub(crate) fn forward_into_unprofiled(
        &self,
        input: &[f64],
        out: &mut Vec<Complex64>,
        scratch: &mut DspScratch,
    ) {
        self.execute(input, out, scratch, false);
    }

    fn execute(
        &self,
        input: &[f64],
        out: &mut Vec<Complex64>,
        scratch: &mut DspScratch,
        profiled: bool,
    ) {
        assert_eq!(
            input.len(),
            self.size,
            "real FFT plan size {} does not match input length {}",
            self.size,
            input.len()
        );
        let n = self.size;
        let h = n / 2;
        let mut packed = scratch.acquire();
        self.half.load_bit_reversed(&mut packed, |k| {
            Complex64::new(input[2 * k], input[2 * k + 1])
        });
        if profiled {
            self.half
                .transform_bit_reversed(&mut packed, Direction::Forward);
        } else {
            self.half
                .transform_bit_reversed_unprofiled(&mut packed, Direction::Forward);
        }
        out.clear();
        out.resize(n, Complex64::ZERO);
        // Z[k] = E[k] + i·O[k] where E/O are the DFTs of the even/odd
        // samples. DC and Nyquist are purely real.
        out[0] = Complex64::new(packed[0].re + packed[0].im, 0.0);
        out[h] = Complex64::new(packed[0].re - packed[0].im, 0.0);
        for k in 1..h {
            let a = packed[k];
            let b = packed[h - k].conj();
            let even = (a + b).scale(0.5);
            let half_diff = (a - b).scale(0.5);
            // O[k] = -i · (Z[k] - conj(Z[H-k])) / 2.
            let odd = Complex64::new(half_diff.im, -half_diff.re);
            let x = even + self.twiddles[k] * odd;
            out[k] = x;
            out[n - k] = x.conj();
        }
        scratch.release(packed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;

    fn reference_spectrum(input: &[f64]) -> Vec<Complex64> {
        let mut data: Vec<Complex64> = input.iter().map(|&x| Complex64::from_real(x)).collect();
        fft(&mut data).unwrap();
        data
    }

    #[test]
    fn rejects_invalid_sizes() {
        for size in [0usize, 1, 3, 12, 1000] {
            assert!(
                matches!(RealFftPlan::new(size), Err(DspError::NotPowerOfTwo { .. })),
                "size {size}"
            );
        }
    }

    #[test]
    fn matches_complex_fft_for_real_input() {
        for &n in &[2usize, 4, 16, 256, 1024] {
            let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let expected = reference_spectrum(&input);
            let actual = RealFftPlan::new(n).unwrap().forward(&input);
            assert_eq!(actual.len(), n);
            for (k, (x, y)) in actual.iter().zip(&expected).enumerate() {
                assert!((*x - *y).abs() < 1e-9 * n as f64, "n={n} k={k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn spectrum_is_hermitian() {
        let n = 64;
        let input: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
        let spectrum = RealFftPlan::new(n).unwrap().forward(&input);
        assert!(spectrum[0].im.abs() < 1e-12, "DC bin must be real");
        assert!(spectrum[n / 2].im.abs() < 1e-12, "Nyquist bin must be real");
        for k in 1..n / 2 {
            let mirror = spectrum[n - k].conj();
            assert!((spectrum[k] - mirror).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn forward_into_reuses_scratch_and_matches_forward() {
        let n = 128;
        let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let plan = RealFftPlan::new(n).unwrap();
        let reference = plan.forward(&input);
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        for pass in 0..2 {
            plan.forward_into(&input, &mut out, &mut scratch);
            assert_eq!(out, reference, "pass {pass}");
        }
        assert_eq!(scratch.pooled(), 1, "packed buffer must return to pool");
    }

    #[test]
    fn wrong_length_panics() {
        let plan = RealFftPlan::new(8).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = plan.forward(&[1.0; 4]);
        }));
        assert!(result.is_err());
    }
}
