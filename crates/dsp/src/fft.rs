//! Radix-2 fast Fourier transform.
//!
//! The module provides an in-place, iterative Cooley–Tukey FFT for
//! power-of-two lengths plus a [`FftPlan`] that caches twiddle factors for
//! repeated transforms of the same size (the dominant use case when
//! processing a stream of fixed-length CIR buffers).
//!
//! Arbitrary (non-power-of-two) lengths are handled by the
//! [`bluestein`](crate::bluestein) module, which builds on this one.
//!
//! # Entry points and input order
//!
//! A radix-2 transform consumes its input in bit-reversed order. The
//! public entry points ([`FftPlan::forward`], [`FftPlan::inverse`],
//! [`FftPlan::transform`], [`fft`], [`ifft`]) take natural-order input
//! and permute it in place first. Inside the crate, callers that build
//! the transform input by a copy anyway — the matched-filter bank's
//! zero-padded signal and spectrum products, the Bluestein chirp
//! product and kernel, `convolve_into`'s padded operands and product,
//! the cached template spectra and the real FFT's packed samples —
//! write it straight into bit-reversed positions
//! (`FftPlan::load_bit_reversed`) and run only the butterflies
//! (`FftPlan::transform_bit_reversed`), so no separate permutation pass
//! runs. Every route executes the same butterflies on the same operands:
//! outputs are bit-identical (pinned by `tests/fft_bits.rs`).
//!
//! # Conventions
//!
//! The forward transform computes `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` and the
//! inverse transform includes the `1/N` normalization, so
//! `inverse(forward(x)) == x` up to floating-point error.

use crate::complex::Complex64;
use crate::error::DspError;
use std::f64::consts::PI;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time domain to frequency domain (negative exponent).
    Forward,
    /// Frequency domain to time domain (positive exponent, normalized by 1/N).
    Inverse,
}

/// A reusable FFT plan for a fixed power-of-two size.
///
/// Precomputes the bit-reversal permutation and twiddle factors once, so
/// repeated transforms avoid redundant trigonometry.
///
/// [`FftPlan::forward`], [`FftPlan::inverse`] and [`FftPlan::transform`]
/// take natural-order input and permute it in place. Crate-internal
/// callers that copy their input anyway write it in bit-reversed order
/// and run only the butterflies, with bit-identical results.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{Complex64, FftPlan};
///
/// # fn main() -> Result<(), uwb_dsp::DspError> {
/// let plan = FftPlan::new(8)?;
/// let mut data = vec![Complex64::ONE; 8];
/// plan.forward(&mut data);
/// // The DFT of a constant is an impulse at bin zero.
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// assert!(data[1..].iter().all(|z| z.abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    size: usize,
    /// Bit-reversed index for each position.
    reversed: Vec<u32>,
    /// Twiddles `e^{-2πi·k/N}` for `k in 0..N/2` (forward direction).
    twiddles: Vec<Complex64>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `size`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NotPowerOfTwo`] unless `size` is a power of two
    /// and at least 1.
    pub fn new(size: usize) -> Result<Self, DspError> {
        if size == 0 || !size.is_power_of_two() {
            return Err(DspError::NotPowerOfTwo { size });
        }
        let bits = size.trailing_zeros();
        let reversed = (0..size as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .map(|i| if size == 1 { 0 } else { i })
            .collect();
        let twiddles = (0..size / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / size as f64))
            .collect();
        Ok(Self {
            size,
            reversed,
            twiddles,
        })
    }

    /// The transform length this plan was built for.
    pub fn size(&self) -> usize {
        self.size
    }

    /// In-place forward FFT of natural-order `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`FftPlan::size`].
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, Direction::Forward);
    }

    /// In-place inverse FFT (normalized by `1/N`) of natural-order
    /// `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`FftPlan::size`].
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, Direction::Inverse);
    }

    /// In-place transform of natural-order `data` in the given
    /// direction: the bit-reversal permutation runs in place, as
    /// pairwise swaps, then the butterflies.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`FftPlan::size`].
    pub fn transform(&self, data: &mut [Complex64], direction: Direction) {
        self.count_butterflies();
        self.check_len(data.len());
        self.permute(data);
        self.butterflies(data, direction);
    }

    /// The in-place bit-reversal permutation, visited tile by tile.
    ///
    /// Write an index as `i = a·N/4 + 4·b + c` with `a, c < 4`; its
    /// reversal is `rev(c)·N/4 + 4·rev(b) + rev(a)`. The 16 indices of
    /// middle part `b` therefore only ever swap with the 16 of
    /// `rev(b)`, and each tile is four runs of four adjacent points.
    /// Handling a tile and its mirror together touches eight such runs
    /// (about one cache line each) once, where the plain index-order
    /// swap loop strides across the whole buffer on every swap.
    fn permute(&self, data: &mut [Complex64]) {
        let n = self.size;
        if n < 16 {
            for (i, &j) in self.reversed.iter().enumerate() {
                let j = j as usize;
                if i < j {
                    data.swap(i, j);
                }
            }
            return;
        }
        let quarter = n / 4;
        for b in 0..n / 16 {
            let mirror = self.reversed[4 * b] as usize / 4;
            if b > mirror {
                continue;
            }
            for a in 0..4 {
                for c in 0..4 {
                    let i = a * quarter + 4 * b + c;
                    let j = self.reversed[i] as usize;
                    // Tiles `b < mirror` swap every point once; a
                    // self-mirrored tile swaps each pair from its lower
                    // index.
                    if b < mirror || i < j {
                        data.swap(i, j);
                    }
                }
            }
        }
    }

    /// Replaces `out` with the plan-length input whose natural-order
    /// sample `j` is `at(j)`, stored in bit-reversed order: the layout
    /// [`FftPlan::transform_bit_reversed`] expects. Callers fold their
    /// zero padding and pointwise products into `at`, so the permutation
    /// costs nothing beyond the copy they make anyway.
    pub(crate) fn load_bit_reversed(
        &self,
        out: &mut Vec<Complex64>,
        mut at: impl FnMut(usize) -> Complex64,
    ) {
        out.clear();
        out.extend(self.reversed.iter().map(|&j| at(j as usize)));
    }

    /// [`FftPlan::load_bit_reversed`] of `samples` zero-padded to the
    /// plan size.
    pub(crate) fn load_padded_bit_reversed(&self, out: &mut Vec<Complex64>, samples: &[Complex64]) {
        self.load_bit_reversed(out, |j| samples.get(j).copied().unwrap_or(Complex64::ZERO));
    }

    /// Transform of input already in bit-reversed order (see
    /// [`FftPlan::load_bit_reversed`]); the output is in natural order
    /// and bit-identical to [`FftPlan::transform`] of the natural-order
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`FftPlan::size`].
    pub(crate) fn transform_bit_reversed(&self, data: &mut [Complex64], direction: Direction) {
        self.count_butterflies();
        self.transform_bit_reversed_unprofiled(data, direction);
    }

    /// [`FftPlan::transform_bit_reversed`] without work accounting. Plan
    /// and cache *construction* (the Bluestein kernel FFT, cached
    /// matched-filter spectra) goes through here so counted work
    /// reflects only per-call execution and stays invariant to how many
    /// workers populated their caches.
    pub(crate) fn transform_bit_reversed_unprofiled(
        &self,
        data: &mut [Complex64],
        direction: Direction,
    ) {
        self.check_len(data.len());
        self.butterflies(data, direction);
    }

    /// A radix-2 FFT of length N executes exactly (N/2)·log₂N
    /// butterflies; counted analytically, once per call, so the
    /// disabled-profiler path stays one relaxed atomic load.
    fn count_butterflies(&self) {
        uwb_obs::profile::work(
            "fft.butterfly",
            (self.size as u64 / 2) * u64::from(self.size.trailing_zeros()),
        );
    }

    fn check_len(&self, len: usize) {
        assert_eq!(
            len, self.size,
            "FFT plan size {} does not match buffer length {}",
            self.size, len
        );
    }

    fn butterflies(&self, data: &mut [Complex64], direction: Direction) {
        match direction {
            Direction::Forward => self.stages::<false>(data),
            Direction::Inverse => self.stages::<true>(data),
        }
    }

    /// The iterative Cooley–Tukey stages over bit-reversed `data`.
    ///
    /// Stage `len` (block length `len`, `len = 2, 4, …, N`) runs the
    /// butterfly `(a, b) ← (a + b·w, a − b·w)` on every pair `len/2`
    /// apart within each block, with `w` the forward twiddle of stride
    /// `N/len`, or its conjugate when `INVERSE`. Consecutive stages run
    /// in pairs, one memory pass per pair: the four points a two-stage
    /// block couples are loaded once and take both stages' butterflies
    /// in registers. A lone first stage covers odd `log₂N`. Each
    /// butterfly still sees exactly the operands of the stage-by-stage
    /// order, so the outputs are bit-identical to it. The inverse `1/N`
    /// normalization multiplies the last stage's outputs as they are
    /// stored, the same products a separate scaling pass would take.
    fn stages<const INVERSE: bool>(&self, data: &mut [Complex64]) {
        let n = self.size;
        if n == 1 {
            return;
        }
        let mut len = 2;
        if n.trailing_zeros() % 2 == 1 {
            if n == 2 {
                self.radix2_stage::<INVERSE, true>(data);
                return;
            }
            self.radix2_stage::<INVERSE, false>(data);
            len = 4;
        }
        while 2 * len < n {
            self.stage_pair::<INVERSE, false>(data, len);
            len *= 4;
        }
        self.stage_pair::<INVERSE, true>(data, len);
    }

    /// Stage 2 alone: adjacent pairs, twiddle `w⁰`.
    fn radix2_stage<const INVERSE: bool, const LAST: bool>(&self, data: &mut [Complex64]) {
        let w = twiddle::<INVERSE>(&self.twiddles[0]);
        let scale = 1.0 / self.size as f64;
        for [a, b] in data.as_chunks_mut::<2>().0 {
            (*a, *b) = butterfly::<INVERSE, LAST>(*a, *b, w, scale);
        }
    }

    /// Stages `len` and `2·len` in one pass over blocks of `2·len`:
    /// for each `k < len/2` the points `k`, `k + h`, `k + 2h`, `k + 3h`
    /// (`h = len/2`) take stage `len`'s butterflies (twiddle stride
    /// `N/len`), then stage `2·len`'s (stride `N/(2·len)`).
    fn stage_pair<const INVERSE: bool, const LAST: bool>(
        &self,
        data: &mut [Complex64],
        len: usize,
    ) {
        let n = self.size;
        let h = len / 2;
        let stride = n / (2 * len);
        let scale = 1.0 / n as f64;
        let tw = &self.twiddles;
        // The first pair's blocks are four points long, too short to pay
        // for the per-block iterator set-up below: unrolled, with its
        // three twiddles hoisted.
        if h == 1 {
            let w1 = twiddle::<INVERSE>(&tw[0]);
            let wb = twiddle::<INVERSE>(&tw[stride]);
            for quad in data.as_chunks_mut::<4>().0 {
                let [a, b, c, d] = quad;
                (*a, *b, *c, *d) = four_point::<INVERSE, LAST>(*a, *b, *c, *d, [w1, w1, wb], scale);
            }
            return;
        }
        for block in data.chunks_exact_mut(2 * len) {
            let (q01, q23) = block.split_at_mut(len);
            let (q0, q1) = q01.split_at_mut(h);
            let (q2, q3) = q23.split_at_mut(h);
            let first = tw.iter().step_by(2 * stride);
            let second_lo = tw.iter().step_by(stride);
            let second_hi = tw[h * stride..].iter().step_by(stride);
            let points = q0.iter_mut().zip(q1).zip(q2).zip(q3);
            let twiddles = first.zip(second_lo).zip(second_hi);
            for ((((a, b), c), d), ((w1, wa), wb)) in points.zip(twiddles) {
                let w = [w1, wa, wb].map(twiddle::<INVERSE>);
                (*a, *b, *c, *d) = four_point::<INVERSE, LAST>(*a, *b, *c, *d, w, scale);
            }
        }
    }
}

/// The stage twiddle: forward `w`, or its conjugate for the inverse.
#[inline(always)]
fn twiddle<const INVERSE: bool>(w: &Complex64) -> Complex64 {
    if INVERSE {
        w.conj()
    } else {
        *w
    }
}

/// One radix-2 butterfly, `(a + b·w, a − b·w)`; on the inverse
/// transform's last stage both outputs are multiplied by `scale`.
#[inline(always)]
fn butterfly<const INVERSE: bool, const LAST: bool>(
    a: Complex64,
    b: Complex64,
    w: Complex64,
    scale: f64,
) -> (Complex64, Complex64) {
    let y = b * w;
    if INVERSE && LAST {
        ((a + y).scale(scale), (a - y).scale(scale))
    } else {
        (a + y, a - y)
    }
}

/// Two consecutive stages over the four points one two-stage block
/// couples: `(a, b)` and `(c, d)` take the first stage's twiddle
/// `w[0]`, then `(a, c)` and `(b, d)` the second stage's `w[1]` and
/// `w[2]`.
#[inline(always)]
fn four_point<const INVERSE: bool, const LAST: bool>(
    a: Complex64,
    b: Complex64,
    c: Complex64,
    d: Complex64,
    w: [Complex64; 3],
    scale: f64,
) -> (Complex64, Complex64, Complex64, Complex64) {
    let (a, b) = butterfly::<INVERSE, false>(a, b, w[0], scale);
    let (c, d) = butterfly::<INVERSE, false>(c, d, w[0], scale);
    let (a, c) = butterfly::<INVERSE, LAST>(a, c, w[1], scale);
    let (b, d) = butterfly::<INVERSE, LAST>(b, d, w[2], scale);
    (a, b, c, d)
}

/// Convenience one-shot forward FFT for power-of-two slices.
///
/// Prefer [`FftPlan`] when transforming many buffers of the same size.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] for invalid lengths.
pub fn fft(data: &mut [Complex64]) -> Result<(), DspError> {
    FftPlan::new(data.len()).map(|plan| plan.forward(data))
}

/// Convenience one-shot inverse FFT for power-of-two slices.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] for invalid lengths.
pub fn ifft(data: &mut [Complex64]) -> Result<(), DspError> {
    FftPlan::new(data.len()).map(|plan| plan.inverse(data))
}

/// Naive `O(N²)` DFT used as a reference implementation in tests and for
/// very small sizes where setup cost dominates.
pub fn dft_reference(input: &[Complex64], direction: Direction) -> Vec<Complex64> {
    let n = input.len();
    let sign = match direction {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex64::ZERO; n];
    for (k, slot) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (i, &x) in input.iter().enumerate() {
            acc += x * Complex64::cis(sign * 2.0 * PI * (k * i % n) as f64 / n as f64);
        }
        if direction == Direction::Inverse {
            acc = acc.scale(1.0 / n as f64);
        }
        *slot = acc;
    }
    out
}

/// Returns the smallest power of two `>= n`.
///
/// # Examples
///
/// ```
/// assert_eq!(uwb_dsp::next_power_of_two(1000), 1024);
/// assert_eq!(uwb_dsp::next_power_of_two(1024), 1024);
/// ```
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn rejects_non_power_of_two() {
        assert!(matches!(
            FftPlan::new(12),
            Err(DspError::NotPowerOfTwo { size: 12 })
        ));
        assert!(matches!(
            FftPlan::new(0),
            Err(DspError::NotPowerOfTwo { size: 0 })
        ));
    }

    #[test]
    fn size_one_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut data = [Complex64::new(3.0, -1.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex64::new(3.0, -1.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex64::new(3.0, -1.0));
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let plan = FftPlan::new(16).unwrap();
        let mut data = vec![Complex64::ZERO; 16];
        data[0] = Complex64::ONE;
        plan.forward(&mut data);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn shifted_impulse_has_linear_phase() {
        let n = 32;
        let plan = FftPlan::new(n).unwrap();
        let mut data = vec![Complex64::ZERO; n];
        data[3] = Complex64::ONE;
        plan.forward(&mut data);
        for (k, z) in data.iter().enumerate() {
            let expected = Complex64::cis(-2.0 * PI * 3.0 * k as f64 / n as f64);
            assert!((*z - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn matches_reference_dft() {
        for &n in &[2usize, 4, 8, 64, 256] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 1.71).cos()))
                .collect();
            let expected = dft_reference(&input, Direction::Forward);
            let mut actual = input.clone();
            fft(&mut actual).unwrap();
            assert_close(&actual, &expected, 1e-9 * n as f64);
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        let n = 128;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let mut data = input.clone();
        fft(&mut data).unwrap();
        ifft(&mut data).unwrap();
        assert_close(&data, &input, 1e-10);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.9).cos(), 0.1 * i as f64))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut freq = input.clone();
        fft(&mut freq).unwrap();
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn transform_is_linear() {
        let n = 64;
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i as f64 * 0.2).sin()))
            .collect();
        let alpha = Complex64::new(2.0, -0.5);

        let mut lhs: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| alpha * x + y).collect();
        fft(&mut lhs).unwrap();

        let mut fa = a.clone();
        fft(&mut fa).unwrap();
        let mut fb = b.clone();
        fft(&mut fb).unwrap();
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| alpha * x + y).collect();

        assert_close(&lhs, &rhs, 1e-8);
    }

    /// The swap-then-butterfly loop the plan ran before the bit
    /// reversal moved into the callers' copies, kept verbatim as the
    /// bit-level reference for the restructured kernel.
    fn reference_transform(data: &mut [Complex64], direction: Direction) {
        let n = data.len();
        if n == 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits() as usize >> (32 - bits);
            if i < j {
                data.swap(i, j);
            }
        }
        let twiddles: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = twiddles[k * step];
                    if direction == Direction::Inverse {
                        w = w.conj();
                    }
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
        if direction == Direction::Inverse {
            let scale = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.scale(scale);
            }
        }
    }

    fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// A component drawn from the cases a bit-level pin must cover:
    /// signed zeros, subnormals of either sign, and ordinary values.
    fn component() -> impl proptest::Strategy<Value = f64> {
        use proptest::prelude::*;
        (0u8..6, -1.0f64..1.0).prop_map(|(class, x)| match class {
            0 => 0.0,
            1 => -0.0,
            2 => x * f64::MIN_POSITIVE,
            3 => x * 1e-310,
            _ => 100.0 * x,
        })
    }

    proptest::proptest! {
        #[test]
        fn kernel_is_bit_identical_to_the_reference_loop(
            log2 in 0u32..=12,
            fill in 0.0f64..1.0,
            values in proptest::collection::vec((component(), component()), 4096),
        ) {
            let n = 1usize << log2;
            // 1..=n leading samples, zero-padded to the plan size.
            let len = 1 + (fill * n as f64) as usize % n;
            let natural: Vec<Complex64> = (0..n)
                .map(|j| match values[j] {
                    (re, im) if j < len => Complex64::new(re, im),
                    _ => Complex64::ZERO,
                })
                .collect();
            let plan = FftPlan::new(n).unwrap();
            for direction in [Direction::Forward, Direction::Inverse] {
                let mut expected = natural.clone();
                reference_transform(&mut expected, direction);
                let mut in_place = natural.clone();
                plan.transform(&mut in_place, direction);
                proptest::prop_assert_eq!(bits(&in_place), bits(&expected));
                let mut fused = Vec::new();
                plan.load_padded_bit_reversed(&mut fused, &natural[..len]);
                plan.transform_bit_reversed(&mut fused, direction);
                proptest::prop_assert_eq!(bits(&fused), bits(&expected));
            }
        }
    }

    #[test]
    fn tiled_permutation_is_the_bit_reversal_at_every_size() {
        for log2 in 0..=15u32 {
            let plan = FftPlan::new(1 << log2).unwrap();
            let mut data: Vec<Complex64> = (0..plan.size())
                .map(|i| Complex64::from_real(i as f64))
                .collect();
            plan.permute(&mut data);
            let mut gathered = Vec::new();
            plan.load_bit_reversed(&mut gathered, |j| Complex64::from_real(j as f64));
            assert_eq!(data, gathered, "size {}", plan.size());
        }
    }

    #[test]
    fn plan_panics_on_wrong_length() {
        let plan = FftPlan::new(8).unwrap();
        let mut data = vec![Complex64::ZERO; 4];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.forward(&mut data);
        }));
        assert!(result.is_err());
    }
}
