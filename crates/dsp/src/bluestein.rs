//! Bluestein's algorithm: FFT for arbitrary (non-power-of-two) lengths.
//!
//! The DW1000 CIR accumulator is 1016 taps long — not a power of two — so
//! frequency-domain processing of raw CIR buffers needs an arbitrary-length
//! transform. Bluestein's chirp-z trick re-expresses a length-`N` DFT as a
//! circular convolution of length `M ≥ 2N-1`, which is evaluated with the
//! radix-2 FFT from [`crate::fft`].

use crate::complex::Complex64;
use crate::error::DspError;
use crate::fft::{next_power_of_two, Direction, FftPlan};
use crate::plan::DspScratch;
use std::f64::consts::PI;
use std::sync::Arc;

/// A reusable arbitrary-length FFT plan based on Bluestein's algorithm.
///
/// For power-of-two sizes this delegates directly to [`FftPlan`], so it can
/// be used as a universal planner. The radix-2 plan inside is held by
/// [`Arc`]: a [`crate::PlanCache`] hands its own cached plan of that
/// length to every Bluestein plan it builds, so a context keeps one copy
/// of each radix-2 twiddle table.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{BluesteinPlan, Complex64};
///
/// # fn main() -> Result<(), uwb_dsp::DspError> {
/// let plan = BluesteinPlan::new(1016)?; // DW1000 CIR length
/// let mut data = vec![Complex64::ONE; 1016];
/// plan.forward(&mut data);
/// assert!((data[0].re - 1016.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    size: usize,
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// Power-of-two fast path.
    Radix2(Arc<FftPlan>),
    /// General case.
    Chirp {
        /// Length of the embedded circular convolution (power of two).
        conv_len: usize,
        plan: Arc<FftPlan>,
        /// Chirp `w[n] = e^{-iπ n²/N}` for `n in 0..N`.
        chirp: Vec<Complex64>,
        /// FFT of the zero-padded conjugate-chirp kernel.
        kernel_fft: Vec<Complex64>,
    },
}

impl BluesteinPlan {
    /// Creates a plan for transforms of length `size`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] when `size` is zero.
    pub fn new(size: usize) -> Result<Self, DspError> {
        Self::with_radix2(size, |len| FftPlan::new(len).map(Arc::new))
    }

    /// [`BluesteinPlan::new`] taking its inner radix-2 plan from
    /// `radix2` (called once, with the power-of-two length it needs)
    /// instead of building a private copy.
    pub(crate) fn with_radix2(
        size: usize,
        radix2: impl FnOnce(usize) -> Result<Arc<FftPlan>, DspError>,
    ) -> Result<Self, DspError> {
        if size == 0 {
            return Err(DspError::EmptyInput);
        }
        if size.is_power_of_two() {
            return Ok(Self {
                size,
                inner: Inner::Radix2(radix2(size)?),
            });
        }
        let conv_len = next_power_of_two(2 * size - 1);
        let plan = radix2(conv_len)?;
        // w[n] = e^{-iπ n²/N}; compute n² mod 2N to avoid precision loss for
        // large n (the chirp phase is periodic with period 2N in n²).
        let chirp: Vec<Complex64> = (0..size)
            .map(|n| {
                let sq = (n as u128 * n as u128) % (2 * size as u128);
                Complex64::cis(-PI * sq as f64 / size as f64)
            })
            .collect();
        // The conjugate chirp, wrapped symmetrically: samples `0..N` at
        // the front, `1..N` mirrored at the back, zeros in between.
        let mut kernel = Vec::new();
        plan.load_bit_reversed(&mut kernel, |j| {
            if j < size {
                chirp[j].conj()
            } else if j > conv_len - size {
                chirp[conv_len - j].conj()
            } else {
                Complex64::ZERO
            }
        });
        // Uncounted: construction work is amortised per plan cache (one
        // fill per worker), so it must not enter the deterministic work
        // totals that are compared across thread counts.
        plan.transform_bit_reversed_unprofiled(&mut kernel, Direction::Forward);
        Ok(Self {
            size,
            inner: Inner::Chirp {
                conv_len,
                plan,
                chirp,
                kernel_fft: kernel,
            },
        })
    }

    /// The transform length this plan was built for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The radix-2 plan the transform runs on: the plan itself for
    /// power-of-two sizes, else the embedded circular convolution's.
    #[cfg(test)]
    pub(crate) fn radix2_plan(&self) -> &Arc<FftPlan> {
        match &self.inner {
            Inner::Radix2(plan) | Inner::Chirp { plan, .. } => plan,
        }
    }

    /// In-place forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`BluesteinPlan::size`].
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, Direction::Forward);
    }

    /// In-place inverse DFT (normalized by `1/N`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`BluesteinPlan::size`].
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, Direction::Inverse);
    }

    /// In-place transform in the given direction.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`BluesteinPlan::size`].
    pub fn transform(&self, data: &mut [Complex64], direction: Direction) {
        match &self.inner {
            Inner::Radix2(_) => self.transform_radix2(data, direction),
            Inner::Chirp { conv_len, .. } => {
                let mut buf = Vec::with_capacity(*conv_len);
                self.chirp_transform(data, direction, &mut buf);
            }
        }
    }

    /// In-place forward DFT drawing working memory from `scratch` — the
    /// planned hot-path entry point (no per-call allocation once the
    /// scratch arena is warm). Bit-identical to [`BluesteinPlan::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`BluesteinPlan::size`].
    pub fn forward_with(&self, data: &mut [Complex64], scratch: &mut DspScratch) {
        self.transform_with(data, Direction::Forward, scratch);
    }

    /// In-place inverse DFT drawing working memory from `scratch`.
    /// Bit-identical to [`BluesteinPlan::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`BluesteinPlan::size`].
    pub fn inverse_with(&self, data: &mut [Complex64], scratch: &mut DspScratch) {
        self.transform_with(data, Direction::Inverse, scratch);
    }

    /// In-place transform drawing working memory from `scratch`.
    /// Bit-identical to [`BluesteinPlan::transform`]: the chirp core is
    /// shared, only the provenance of the convolution buffer differs.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`BluesteinPlan::size`].
    pub fn transform_with(
        &self,
        data: &mut [Complex64],
        direction: Direction,
        scratch: &mut DspScratch,
    ) {
        match &self.inner {
            Inner::Radix2(_) => self.transform_radix2(data, direction),
            Inner::Chirp { .. } => {
                let mut buf = scratch.acquire();
                self.chirp_transform(data, direction, &mut buf);
                scratch.release(buf);
            }
        }
    }

    fn transform_radix2(&self, data: &mut [Complex64], direction: Direction) {
        self.check_len(data.len());
        match &self.inner {
            Inner::Radix2(plan) => plan.transform(data, direction),
            Inner::Chirp { .. } => unreachable!("radix-2 dispatch checked by caller"),
        }
    }

    /// The chirp-z core over a caller-provided working buffer (its
    /// contents are replaced; it ends `conv_len` long).
    fn chirp_transform(
        &self,
        data: &mut [Complex64],
        direction: Direction,
        buf: &mut Vec<Complex64>,
    ) {
        self.check_len(data.len());
        let Inner::Chirp {
            conv_len,
            plan,
            chirp,
            kernel_fft,
        } = &self.inner
        else {
            unreachable!("chirp dispatch checked by caller")
        };
        let n = self.size;
        // Chirp pre/post-multiplies (2N) plus the pointwise kernel
        // product (conv_len); the two embedded radix-2 transforms count
        // their own butterflies.
        uwb_obs::profile::work("bluestein.cmul", 2 * n as u64 + *conv_len as u64);
        // The inverse transform X[k] with exponent +2πi·kn/N equals
        // the conjugate of the forward transform of the conjugated
        // input, scaled by 1/N. Reuse the forward machinery.
        let inverse = direction == Direction::Inverse;

        // The chirp product, zero-padded to `conv_len`, lands directly
        // in bit-reversed order.
        plan.load_bit_reversed(buf, |i| match data.get(i) {
            Some(&z) if inverse => z.conj() * chirp[i],
            Some(&z) => z * chirp[i],
            None => Complex64::ZERO,
        });
        plan.transform_bit_reversed(buf, Direction::Forward);
        for (b, k) in buf.iter_mut().zip(kernel_fft) {
            *b *= *k;
        }
        plan.inverse(buf);
        let scale = 1.0 / n as f64;
        for ((z, b), w) in data.iter_mut().zip(buf.iter()).zip(chirp) {
            *z = *b * *w;
            if inverse {
                *z = z.conj().scale(scale);
            }
        }
    }

    fn check_len(&self, len: usize) {
        assert_eq!(
            len, self.size,
            "Bluestein plan size {} does not match buffer length {}",
            self.size, len
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_reference;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch at {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn rejects_zero_size() {
        assert!(matches!(BluesteinPlan::new(0), Err(DspError::EmptyInput)));
    }

    #[test]
    fn matches_reference_for_odd_sizes() {
        for &n in &[3usize, 5, 7, 15, 127, 1016] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.41).cos()))
                .collect();
            let expected = dft_reference(&input, Direction::Forward);
            let mut actual = input.clone();
            BluesteinPlan::new(n).unwrap().forward(&mut actual);
            assert_close(&actual, &expected, 1e-7 * n as f64);
        }
    }

    #[test]
    fn power_of_two_fast_path_matches_reference() {
        let n = 64;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let expected = dft_reference(&input, Direction::Forward);
        let mut actual = input.clone();
        BluesteinPlan::new(n).unwrap().forward(&mut actual);
        assert_close(&actual, &expected, 1e-8);
    }

    #[test]
    fn roundtrip_arbitrary_size() {
        let n = 1016;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.77).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let plan = BluesteinPlan::new(n).unwrap();
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_close(&data, &input, 1e-8);
    }

    #[test]
    fn inverse_matches_reference() {
        let n = 33;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0 / (1.0 + i as f64), (i as f64).sqrt()))
            .collect();
        let expected = dft_reference(&input, Direction::Inverse);
        let mut actual = input.clone();
        BluesteinPlan::new(n).unwrap().inverse(&mut actual);
        assert_close(&actual, &expected, 1e-8);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let n = 37;
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        BluesteinPlan::new(n).unwrap().forward(&mut data);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-9 && z.im.abs() < 1e-9);
        }
    }
}
