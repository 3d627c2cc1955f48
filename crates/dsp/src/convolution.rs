//! Linear convolution and cross-correlation.
//!
//! Both direct `O(N·M)` and FFT-based `O(N log N)` implementations are
//! provided; [`convolve`] picks the faster one heuristically. The matched
//! filter in [`crate::matched_filter`] is built on these primitives.

use crate::complex::Complex64;
use crate::error::DspError;
use crate::fft::{next_power_of_two, Direction, FftPlan};
use crate::plan::DspContext;

/// Direct-vs-FFT cost ratio: the FFT path costs roughly
/// `FFT_COST_RATIO · K·log₂K` point-products' worth of time, where
/// `K = next_power_of_two(N+M-1)` is the transform length, while the
/// direct path costs `N·M` point-products. Measured with
/// `examples/crossover_probe.rs` (release build, the repo's reference
/// container): direct runs at ≈1.0 ns per point-product and the
/// allocating FFT path at ≈4.0–4.7 ns per `K·log₂K` unit; a ratio of 4
/// predicts the faster side for every probed `(N, M)` pair, including
/// the asymmetric detector shapes (1016×64 direct, 1016×96 FFT,
/// 8128×96 direct, 8128×803 FFT) that the old flat `N·M > 2¹⁴` product
/// threshold classified wrongly — it sent e.g. 1016×32 (33 µs direct,
/// 89 µs FFT) down the FFT path. Exact placement near the boundary is
/// not critical: both sides agree to ~1e-9 there (see tests).
const FFT_COST_RATIO: usize = 4;

/// `true` when the FFT path is predicted faster than the direct path
/// for a convolution of an `a_len`-sample signal with a `b_len`-sample
/// kernel. Shared by the allocating and planned entry points — and by
/// the backend kernels in [`crate::Kernels`] — so every path always
/// takes the same branch (bit-identical outputs).
pub(crate) fn fft_wins(a_len: usize, b_len: usize) -> bool {
    let conv_len = next_power_of_two(a_len + b_len - 1);
    // log₂K of the power-of-two transform length, clamped to ≥1 so the
    // degenerate K=1 case stays on the direct path.
    let log2 = (conv_len.trailing_zeros() as usize).max(1);
    a_len * b_len > FFT_COST_RATIO * conv_len * log2
}

/// Full linear convolution of two complex sequences.
///
/// The result has length `a.len() + b.len() - 1`. Chooses between the direct
/// and FFT implementation based on input sizes.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when either input is empty.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{convolve, Complex64};
/// # fn main() -> Result<(), uwb_dsp::DspError> {
/// let a = [Complex64::from_real(1.0), Complex64::from_real(2.0)];
/// let b = [Complex64::from_real(3.0), Complex64::from_real(4.0)];
/// let c = convolve(&a, &b)?;
/// assert_eq!(c.len(), 3);
/// assert!((c[1].re - 10.0).abs() < 1e-12); // 1·4 + 2·3
/// # Ok(())
/// # }
/// ```
pub fn convolve(a: &[Complex64], b: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
    if a.is_empty() || b.is_empty() {
        return Err(DspError::EmptyInput);
    }
    if fft_wins(a.len(), b.len()) {
        convolve_fft(a, b)
    } else {
        Ok(convolve_direct(a, b))
    }
}

/// [`convolve`] into a caller-owned output buffer, with plans and
/// working memory drawn from `ctx` — the planned hot-path entry point.
/// Steady state (warm plan cache and scratch arena) allocates nothing.
///
/// `out` is cleared and filled with the `a.len() + b.len() - 1` result;
/// its capacity is reused across calls. Output is bit-identical to
/// [`convolve`] for the same inputs (same branch choice, same operation
/// order).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when either input is empty.
pub fn convolve_into(
    a: &[Complex64],
    b: &[Complex64],
    out: &mut Vec<Complex64>,
    ctx: &mut DspContext,
) -> Result<(), DspError> {
    if a.is_empty() || b.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let out_len = a.len() + b.len() - 1;
    if !fft_wins(a.len(), b.len()) {
        uwb_obs::profile::work("conv.mac", a.len() as u64 * b.len() as u64);
        out.clear();
        out.resize(out_len, Complex64::ZERO);
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        return Ok(());
    }
    let n = next_power_of_two(out_len);
    // Pointwise spectrum product; the three planned transforms below
    // count their own butterflies.
    uwb_obs::profile::work("conv.mac", n as u64);
    // Both padded operands and the spectrum product are written straight
    // into bit-reversed order; the inverse runs in `out`, which keeps
    // the first `out_len` samples.
    let plan = ctx.plans.radix2(n)?;
    let mut fa = ctx.scratch.acquire();
    plan.load_padded_bit_reversed(&mut fa, a);
    let mut fb = ctx.scratch.acquire();
    plan.load_padded_bit_reversed(&mut fb, b);

    plan.transform_bit_reversed(&mut fa, Direction::Forward);
    plan.transform_bit_reversed(&mut fb, Direction::Forward);
    plan.load_bit_reversed(out, |j| fa[j] * fb[j]);
    plan.transform_bit_reversed(out, Direction::Inverse);
    out.truncate(out_len);
    ctx.scratch.release(fa);
    ctx.scratch.release(fb);
    Ok(())
}

/// Direct-form linear convolution, `O(N·M)`.
pub fn convolve_direct(a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    uwb_obs::profile::work("conv.mac", a.len() as u64 * b.len() as u64);
    let mut out = vec![Complex64::ZERO; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// FFT-based linear convolution, `O(N log N)`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when either input is empty.
pub fn convolve_fft(a: &[Complex64], b: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
    if a.is_empty() || b.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let out_len = a.len() + b.len() - 1;
    let n = next_power_of_two(out_len);
    uwb_obs::profile::work("conv.mac", n as u64);
    let plan = FftPlan::new(n)?;

    let mut fa = vec![Complex64::ZERO; n];
    fa[..a.len()].copy_from_slice(a);
    let mut fb = vec![Complex64::ZERO; n];
    fb[..b.len()].copy_from_slice(b);

    plan.forward(&mut fa);
    plan.forward(&mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    plan.inverse(&mut fa);
    fa.truncate(out_len);
    Ok(fa)
}

/// Full linear cross-correlation `(a ⋆ b)[k] = Σ_n a[n+k]·conj(b[n])`.
///
/// Returned with the same `a.len() + b.len() - 1` support as [`convolve`],
/// where index `b.len() - 1` corresponds to zero lag.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when either input is empty.
pub fn correlate(a: &[Complex64], b: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
    let reversed_conj: Vec<Complex64> = b.iter().rev().map(|z| z.conj()).collect();
    convolve(a, &reversed_conj)
}

/// [`correlate`] into a caller-owned output buffer, with plans and
/// working memory drawn from `ctx`. Bit-identical to [`correlate`].
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when either input is empty.
pub fn correlate_into(
    a: &[Complex64],
    b: &[Complex64],
    out: &mut Vec<Complex64>,
    ctx: &mut DspContext,
) -> Result<(), DspError> {
    if b.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let mut reversed_conj = ctx.scratch.acquire();
    reversed_conj.extend(b.iter().rev().map(|z| z.conj()));
    let result = convolve_into(a, &reversed_conj, out, ctx);
    ctx.scratch.release(reversed_conj);
    result
}

/// Index into a [`correlate`] output that corresponds to zero lag.
pub fn zero_lag_index(b_len: usize) -> usize {
    b_len.saturating_sub(1)
}

/// Convolution of real-valued sequences, returned as real values.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] when either input is empty.
pub fn convolve_real(a: &[f64], b: &[f64]) -> Result<Vec<f64>, DspError> {
    let ca: Vec<Complex64> = a.iter().map(|&x| Complex64::from_real(x)).collect();
    let cb: Vec<Complex64> = b.iter().map(|&x| Complex64::from_real(x)).collect();
    Ok(convolve(&ca, &cb)?.into_iter().map(|z| z.re).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(values: &[f64]) -> Vec<Complex64> {
        values.iter().map(|&x| Complex64::from_real(x)).collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(matches!(
            convolve(&[], &c(&[1.0])),
            Err(DspError::EmptyInput)
        ));
        assert!(matches!(
            convolve(&c(&[1.0]), &[]),
            Err(DspError::EmptyInput)
        ));
    }

    #[test]
    fn known_small_convolution() {
        let out = convolve(&c(&[1.0, 2.0, 3.0]), &c(&[0.0, 1.0, 0.5])).unwrap();
        let expected = c(&[0.0, 1.0, 2.5, 4.0, 1.5]);
        assert_close(&out, &expected, 1e-12);
    }

    #[test]
    fn identity_kernel_preserves_signal() {
        let signal = c(&[1.0, -2.0, 3.5, 0.25]);
        let out = convolve(&signal, &c(&[1.0])).unwrap();
        assert_close(&out, &signal, 1e-12);
    }

    #[test]
    fn direct_and_fft_agree() {
        let a: Vec<Complex64> = (0..200)
            .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let b: Vec<Complex64> = (0..150)
            .map(|i| Complex64::new((i as f64 * 0.7).cos(), -(i as f64 * 0.05)))
            .collect();
        let direct = convolve_direct(&a, &b);
        let fft = convolve_fft(&a, &b).unwrap();
        assert_close(&direct, &fft, 1e-6);
    }

    #[test]
    fn convolution_is_commutative() {
        let a = c(&[1.0, 2.0, -1.0]);
        let b = c(&[0.5, 0.0, 3.0, 1.0]);
        let ab = convolve(&a, &b).unwrap();
        let ba = convolve(&b, &a).unwrap();
        assert_close(&ab, &ba, 1e-12);
    }

    #[test]
    fn correlation_peaks_at_matching_lag() {
        // A template embedded in a longer signal should produce a correlation
        // maximum at the embedding offset.
        let template = c(&[1.0, 2.0, 3.0, 2.0, 1.0]);
        let mut signal = vec![Complex64::ZERO; 32];
        let offset = 11;
        for (i, &t) in template.iter().enumerate() {
            signal[offset + i] = t;
        }
        let corr = correlate(&signal, &template).unwrap();
        let (max_idx, _) = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        // Peak lands at zero_lag + offset.
        assert_eq!(max_idx, zero_lag_index(template.len()) + offset);
    }

    #[test]
    fn correlation_of_complex_uses_conjugate() {
        let a = vec![Complex64::I];
        let corr = correlate(&a, &a).unwrap();
        // i · conj(i) = 1
        assert!((corr[0] - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn real_convolution_wrapper() {
        let out = convolve_real(&[1.0, 1.0], &[1.0, 1.0]).unwrap();
        assert_eq!(out.len(), 3);
        assert!((out[1] - 2.0).abs() < 1e-12);
    }

    fn wave(len: usize, f1: f64, f2: f64) -> Vec<Complex64> {
        (0..len)
            .map(|i| Complex64::new((i as f64 * f1).sin(), (i as f64 * f2).cos()))
            .collect()
    }

    #[test]
    fn crossover_heuristic_prefers_direct_for_skewed_shapes() {
        // The measured table behind FFT_COST_RATIO: a long signal with a
        // short kernel stays direct (the flat product threshold got
        // these wrong), while squarer shapes of the same product go FFT.
        assert!(
            !fft_wins(1016, 64),
            "1016x64 measured 67us direct / 89us fft"
        );
        assert!(
            !fft_wins(8128, 96),
            "8128x96 measured 0.8ms direct / 1.2ms fft"
        );
        assert!(
            fft_wins(1016, 128),
            "1016x128 measured 135us direct / 89us fft"
        );
        assert!(
            fft_wins(8128, 803),
            "8128x803 measured 7.0ms direct / 1.2ms fft"
        );
        assert!(fft_wins(128, 128), "128x128 measured 17us direct / 9us fft");
        assert!(!fft_wins(1, 1), "trivial sizes stay direct");
    }

    #[test]
    fn both_paths_agree_around_the_crossover() {
        // Satellite requirement: straddle the crossover for a fixed
        // kernel length and check direct and FFT agree to 1e-9. For a
        // 96-sample kernel the heuristic flips between a_len 893
        // (direct: 893+96-1 = 988 → K=1024, 4·1024·10 = 40960 < 85728?
        // — exercised empirically below) and nearby FFT lengths.
        let kernel = wave(96, 0.7, 0.05);
        let mut flips = 0;
        let mut last = None;
        for a_len in [256usize, 320, 400, 426, 427, 450, 512, 800, 1016] {
            let a = wave(a_len, 0.3, 0.11);
            let direct = convolve_direct(&a, &kernel);
            let fft = convolve_fft(&a, &kernel).unwrap();
            for (i, (x, y)) in direct.iter().zip(&fft).enumerate() {
                assert!(
                    (*x - *y).abs() < 1e-9,
                    "a_len={a_len} i={i}: direct {x} vs fft {y}"
                );
            }
            let side = fft_wins(a_len, kernel.len());
            if last.is_some_and(|prev| prev != side) {
                flips += 1;
            }
            last = Some(side);
        }
        assert!(flips >= 1, "the probed lengths must straddle the crossover");
    }

    #[test]
    fn convolve_into_matches_allocating_path_bitwise() {
        let mut ctx = crate::plan::DspContext::new();
        let mut out = Vec::new();
        // Both branches: small (direct) and large (FFT) shapes.
        for (n, m) in [(3usize, 5usize), (40, 17), (300, 120), (1016, 803)] {
            let a = wave(n, 0.3, 0.11);
            let b = wave(m, 0.7, 0.05);
            convolve_into(&a, &b, &mut out, &mut ctx).unwrap();
            let reference = convolve(&a, &b).unwrap();
            assert_eq!(out, reference, "n={n} m={m}");
            // Second call through the warm context: still identical.
            convolve_into(&a, &b, &mut out, &mut ctx).unwrap();
            assert_eq!(out, reference, "warm n={n} m={m}");
        }
        assert!(!ctx.plans.is_empty(), "FFT shapes must populate the cache");
    }

    #[test]
    fn correlate_into_matches_allocating_path_bitwise() {
        let mut ctx = crate::plan::DspContext::new();
        let mut out = Vec::new();
        for (n, m) in [(8usize, 3usize), (500, 120)] {
            let a = wave(n, 0.21, 0.34);
            let b = wave(m, 0.5, 0.09);
            correlate_into(&a, &b, &mut out, &mut ctx).unwrap();
            assert_eq!(out, correlate(&a, &b).unwrap(), "n={n} m={m}");
        }
    }

    #[test]
    fn into_paths_reject_empty_inputs() {
        let mut ctx = crate::plan::DspContext::new();
        let mut out = Vec::new();
        assert!(matches!(
            convolve_into(&[], &c(&[1.0]), &mut out, &mut ctx),
            Err(DspError::EmptyInput)
        ));
        assert!(matches!(
            correlate_into(&c(&[1.0]), &[], &mut out, &mut ctx),
            Err(DspError::EmptyInput)
        ));
    }
}
