//! Backend-generic kernel entry points for the detection pipeline.
//!
//! [`Kernels`] is the seam between the detector logic (peak search,
//! template subtraction, sub-sample refinement — always f64) and the
//! numeric kernels that dominate its runtime (FFT upsampling, the
//! matched-filter bank, shape-classification correlations). A
//! [`DspContext`] implements the trait by dispatching on its
//! [`DspBackend`] selection:
//!
//! - [`DspBackend::ScalarF64`] runs the historical planned f64
//!   arithmetic — outputs are **bit-identical** to the pre-redesign
//!   pipeline, which the campaign determinism contract relies on. Its
//!   matched-filter bank forward-transforms the signal once per
//!   transform length and takes each template's forward spectrum from
//!   the context's cache, so a bank of `T` templates costs `1 + T`
//!   transforms instead of `3·T`; the cached spectrum is the exact
//!   transform a per-call convolution would compute, so every output
//!   bit stays the same.
//! - [`DspBackend::RealFft`] is the fast path: it keeps f64 arithmetic
//!   but builds the cached kernel spectra through the half-cost
//!   real-input FFT and runs the matched filter as overlap-save blocks
//!   at a cost-optimal length.
//!
//! Small shapes take the direct convolution path on *every* backend
//! (same [`fft_wins`] branch), so backends differ only where the FFT
//! machinery actually runs.

use crate::backend::DspBackend;
use crate::complex::Complex64;
use crate::convolution::{convolve_into, fft_wins};
use crate::error::DspError;
use crate::fft::{next_power_of_two, Direction};
use crate::matched_filter::MatchedFilter;
use crate::plan::DspContext;
use crate::resample::upsample_fft_into;
use std::sync::Arc;

/// The backend-generic kernel set the detectors are written against.
///
/// All entry points write into caller-owned buffers and draw working
/// memory from the implementor's scratch arenas, so steady-state calls
/// allocate nothing. Magnitude outputs are plain `f64` regardless of
/// backend; the tolerance contract between backends is asserted by
/// `tests/backend_tolerance.rs`.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{Complex64, DspBackend, DspContext, Kernels, MatchedFilter};
///
/// # fn main() -> Result<(), uwb_dsp::DspError> {
/// let filter = MatchedFilter::from_real(&[0.2, 1.0, 0.2])?;
/// let signal: Vec<Complex64> = (0..400)
///     .map(|i| Complex64::from_real((i as f64 * 0.1).sin()))
///     .collect();
/// let mut f64_ctx = DspContext::new();
/// let mut rfft_ctx = DspContext::with_backend(DspBackend::RealFft);
/// let (mut a, mut b) = (Vec::new(), Vec::new());
/// f64_ctx.matched_filter_mags_into(&filter, &signal, &mut a)?;
/// rfft_ctx.matched_filter_mags_into(&filter, &signal, &mut b)?;
/// assert!(a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9));
/// # Ok(())
/// # }
/// ```
pub trait Kernels {
    /// The backend this kernel set dispatches to.
    fn backend(&self) -> DspBackend;

    /// In-place FFT of `data` in the given direction (arbitrary length;
    /// inverse is normalized by `1/N`).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty buffer.
    fn fft_into(&mut self, data: &mut [Complex64], direction: Direction) -> Result<(), DspError>;

    /// FFT zero-padding interpolation of `signal` by `factor`, written
    /// into `out` (cleared first).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal and
    /// [`DspError::InvalidFactor`] for `factor == 0`.
    fn upsample_into(
        &mut self,
        signal: &[Complex64],
        factor: usize,
        out: &mut Vec<Complex64>,
    ) -> Result<(), DspError>;

    /// Signal-aligned matched-filter output (complex), the backend
    /// dispatch of [`MatchedFilter::apply_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal.
    fn matched_filter_into(
        &mut self,
        filter: &MatchedFilter,
        signal: &[Complex64],
        out: &mut Vec<Complex64>,
    ) -> Result<(), DspError>;

    /// Signal-aligned matched-filter output *magnitudes* — the form the
    /// search-and-subtract peak scan actually consumes. Fusing the
    /// magnitude step into the kernel lets the overlap-save path write
    /// magnitudes block by block without a complex output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal.
    fn matched_filter_mags_into(
        &mut self,
        filter: &MatchedFilter,
        signal: &[Complex64],
        mags: &mut Vec<f64>,
    ) -> Result<(), DspError>;

    /// Signal-aligned matched-filter magnitudes for a whole template
    /// bank: `out[t]` receives what [`Kernels::matched_filter_mags_into`]
    /// would write for `filters[t]` (`out` is resized to the bank size).
    /// This is the per-iteration call of search-and-subtract. On the
    /// scalar backend the signal is forward-transformed once per
    /// transform length for the whole bank; the real-FFT backend runs
    /// its per-filter overlap-save path for each template.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal.
    fn matched_filter_bank_mags_into<F: AsRef<MatchedFilter>>(
        &mut self,
        filters: &[F],
        signal: &[Complex64],
        out: &mut Vec<Vec<f64>>,
    ) -> Result<(), DspError>;

    /// Element magnitudes of `signal`, written into `out` (cleared
    /// first).
    fn magnitudes_into(&mut self, signal: &[Complex64], out: &mut Vec<f64>);

    /// Batched correlation scores: `out[b * templates.len() + t]` is the
    /// zero-lag correlation magnitude `|Σ_n signals[b][n] ·
    /// conj(templates[t][n])|` over the common support. This is the
    /// batched kernel behind pulse-shape classification
    /// (`detect_batch`-style workloads race it in perfwatch as
    /// `detect.batch_classify_64`).
    fn accumulate_scores(
        &mut self,
        signals: &[&[Complex64]],
        templates: &[&[Complex64]],
        out: &mut Vec<f64>,
    );
}

/// Where a matched-filter dispatch writes its result.
enum MfSink<'a> {
    Complex(&'a mut Vec<Complex64>),
    Mags(&'a mut Vec<f64>),
}

impl MfSink<'_> {
    /// Replaces the sink's contents with `window`, or with its
    /// magnitudes as `magnitude` computes them.
    fn fill(&mut self, window: &[Complex64], magnitude: impl Fn(Complex64) -> f64) {
        match self {
            MfSink::Complex(out) => {
                out.clear();
                out.extend_from_slice(window);
            }
            MfSink::Mags(mags) => {
                mags.clear();
                mags.extend(window.iter().map(|&z| magnitude(z)));
            }
        }
    }
}

/// Overlap-save FFT length for a linear convolution of `out_len` total
/// samples with a kernel of `kernel_len` taps: the power of two that
/// minimizes the modeled transform-plus-multiply cost
/// `blocks · (B·log₂B + B)`. For long kernels this is the single
/// full-length transform; for the Fig. 7 shape (8128-sample signal,
/// 233-tap template) it picks 2048-point blocks, roughly halving the
/// butterfly work of the 16384-point transform the padded length would
/// otherwise force.
fn overlap_save_len(out_len: usize, kernel_len: usize) -> usize {
    let full = next_power_of_two(out_len);
    let produced = out_len - (kernel_len - 1);
    let mut best = full;
    let mut best_cost = u64::MAX;
    let mut b = next_power_of_two(kernel_len);
    while b <= full {
        let step = b - (kernel_len - 1);
        let blocks = produced.div_ceil(step) as u64;
        let cost = blocks * (b as u64) * (u64::from(b.trailing_zeros()) + 1);
        if cost < best_cost {
            best_cost = cost;
            best = b;
        }
        b *= 2;
    }
    best
}

impl DspContext {
    /// The cached forward spectrum of `filter`'s impulse response,
    /// zero-padded to transform length `k`, as `backend` builds it:
    /// through the half-cost real FFT on [`DspBackend::RealFft`] when
    /// the template is purely real, else through the radix-2 complex
    /// transform [`convolve_into`] applies to the padded kernel (so the
    /// scalar path multiplies by the very spectrum it would have
    /// computed per call). Built once per `(backend, kernel, k)` and
    /// shared via [`Arc`]. Cache fills use the unprofiled transform
    /// paths so work counters stay invariant to how many workers warmed
    /// their caches.
    fn kernel_spectrum(
        &mut self,
        filter: &MatchedFilter,
        k: usize,
        backend: DspBackend,
    ) -> Result<Arc<Vec<Complex64>>, DspError> {
        let key = (backend, filter.kernel_id(), k);
        if let Some(spectrum) = self.kernel_spectra.get(&key) {
            return Ok(Arc::clone(spectrum));
        }
        let mut spectrum;
        match filter.reversed_real() {
            Some(real) if backend == DspBackend::RealFft => {
                let plan = self.plans.rfft(k)?;
                let mut padded = vec![0.0f64; k];
                padded[..real.len()].copy_from_slice(real);
                spectrum = Vec::new();
                plan.forward_into_unprofiled(&padded, &mut spectrum, &mut self.scratch);
            }
            _ => {
                let plan = self.plans.radix2(k)?;
                spectrum = Vec::new();
                plan.load_padded_bit_reversed(&mut spectrum, filter.reversed());
                plan.transform_bit_reversed_unprofiled(&mut spectrum, Direction::Forward);
            }
        }
        let spectrum = Arc::new(spectrum);
        self.kernel_spectra.insert(key, Arc::clone(&spectrum));
        Ok(spectrum)
    }

    /// The scalar f64 matched filter over a bank of templates: `emit(t,
    /// window)` receives the signal-aligned complex output of
    /// `filters[t]`. This is the one scalar implementation; the
    /// single-filter entry points run it as a bank of one.
    ///
    /// Direct-path shapes run the direct convolution. For the FFT-path
    /// shapes the zero-padded signal is forward-transformed once per
    /// transform length; each template then writes the product of that
    /// spectrum and its cached spectrum (in [`convolve_into`]'s operand
    /// order) into a working buffer and pays one inverse transform. Outputs are bit-identical
    /// to a per-filter [`convolve_into`]; work counters record the same
    /// `conv.mac` ops per filter and `1 + T` transforms per length.
    pub(crate) fn scalar_mf_bank<F: AsRef<MatchedFilter>>(
        &mut self,
        filters: &[F],
        signal: &[Complex64],
        mut emit: impl FnMut(usize, &[Complex64]),
    ) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let fft_len = |filter: &F| {
            let taps = filter.as_ref().len();
            fft_wins(signal.len(), taps).then(|| next_power_of_two(signal.len() + taps - 1))
        };
        for (t, filter) in filters.iter().enumerate() {
            let Some(n) = fft_len(filter) else {
                let filter = filter.as_ref();
                let start = filter.len() - 1;
                let mut full = self.scratch.acquire();
                convolve_into(signal, filter.reversed(), &mut full, self)?;
                emit(t, &full[start..start + signal.len()]);
                self.scratch.release(full);
                continue;
            };
            // The first template of each transform length serves every
            // template of that length.
            if filters[..t]
                .iter()
                .any(|earlier| fft_len(earlier) == Some(n))
            {
                continue;
            }
            let plan = self.plans.radix2(n)?;
            let mut signal_spectrum = self.scratch.acquire();
            plan.load_padded_bit_reversed(&mut signal_spectrum, signal);
            plan.transform_bit_reversed(&mut signal_spectrum, Direction::Forward);
            for (u, member) in filters.iter().enumerate().skip(t) {
                if fft_len(member) != Some(n) {
                    continue;
                }
                let member = member.as_ref();
                // Pointwise spectrum product, as convolve_into counts it.
                uwb_obs::profile::work("conv.mac", n as u64);
                let kernel = self.kernel_spectrum(member, n, DspBackend::ScalarF64)?;
                let mut buf = self.scratch.acquire();
                plan.load_bit_reversed(&mut buf, |j| signal_spectrum[j] * kernel[j]);
                plan.transform_bit_reversed(&mut buf, Direction::Inverse);
                let start = member.len() - 1;
                emit(u, &buf[start..start + signal.len()]);
                self.scratch.release(buf);
            }
            self.scratch.release(signal_spectrum);
        }
        Ok(())
    }

    /// Single-filter matched-filter dispatch: the scalar backend runs
    /// [`DspContext::scalar_mf_bank`] as a bank of one, the real-FFT
    /// backend the direct path or overlap-save blocks; either extracts
    /// the complex signal-aligned window or its magnitudes.
    fn mf_dispatch(
        &mut self,
        filter: &MatchedFilter,
        signal: &[Complex64],
        mut sink: MfSink<'_>,
    ) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        if self.backend() == DspBackend::ScalarF64 {
            // Historical path: hypot-based |z|.
            return self.scalar_mf_bank(std::slice::from_ref(filter), signal, |_, window| {
                sink.fill(window, Complex64::abs);
            });
        }
        let kernel_len = filter.len();
        let start = kernel_len - 1;

        // Small shapes take the direct convolution, as on the scalar
        // backend.
        if !fft_wins(signal.len(), kernel_len) {
            let mut full = self.scratch.acquire();
            convolve_into(signal, filter.reversed(), &mut full, self)?;
            sink.fill(&full[start..start + signal.len()], |z| z.norm_sqr().sqrt());
            self.scratch.release(full);
            return Ok(());
        }

        // Overlap-save convolution: the cached kernel spectrum lives at
        // the cost-optimal block length, and each block pays two
        // transforms there instead of one pair at the padded full
        // length. Block `j` loads signal samples `[j·step, j·step + k)`
        // (zero-padded past the end); the circular convolution is free
        // of wraparound from index `kernel_len − 1` on, which yields
        // `step` signal-aligned outputs per block.
        let k = overlap_save_len(signal.len() + kernel_len - 1, kernel_len);
        let step = k - start;
        match &mut sink {
            MfSink::Complex(out) => {
                out.clear();
                out.reserve(signal.len());
            }
            MfSink::Mags(mags) => {
                mags.clear();
                mags.reserve(signal.len());
            }
        }
        let spectrum = self.kernel_spectrum(filter, k, DspBackend::RealFft)?;
        let plan = self.plans.radix2(k)?;
        let mut buf = self.scratch.acquire();
        let mut produced = 0usize;
        while produced < signal.len() {
            // Same per-block accounting as convolve_into's FFT path,
            // minus the kernel transform the cache removed.
            uwb_obs::profile::work("conv.mac", k as u64);
            let segment = &signal[produced..(produced + k).min(signal.len())];
            plan.load_padded_bit_reversed(&mut buf, segment);
            plan.transform_bit_reversed(&mut buf, Direction::Forward);
            for (b, s) in buf.iter_mut().zip(spectrum.iter()) {
                *b *= *s;
            }
            plan.inverse(&mut buf);
            let take = step.min(signal.len() - produced);
            let window = &buf[start..start + take];
            match &mut sink {
                MfSink::Complex(out) => out.extend_from_slice(window),
                MfSink::Mags(mags) => {
                    mags.extend(window.iter().map(|z| z.norm_sqr().sqrt()));
                }
            }
            produced += take;
        }
        self.scratch.release(buf);
        Ok(())
    }
}

impl Kernels for DspContext {
    fn backend(&self) -> DspBackend {
        DspContext::backend(self)
    }

    fn fft_into(&mut self, data: &mut [Complex64], direction: Direction) -> Result<(), DspError> {
        // Both backends run the planned complex transform.
        let plan = self.plans.bluestein(data.len())?;
        plan.transform_with(data, direction, &mut self.scratch);
        Ok(())
    }

    fn upsample_into(
        &mut self,
        signal: &[Complex64],
        factor: usize,
        out: &mut Vec<Complex64>,
    ) -> Result<(), DspError> {
        upsample_fft_into(signal, factor, out, self)
    }

    fn matched_filter_into(
        &mut self,
        filter: &MatchedFilter,
        signal: &[Complex64],
        out: &mut Vec<Complex64>,
    ) -> Result<(), DspError> {
        self.mf_dispatch(filter, signal, MfSink::Complex(out))
    }

    fn matched_filter_mags_into(
        &mut self,
        filter: &MatchedFilter,
        signal: &[Complex64],
        mags: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.mf_dispatch(filter, signal, MfSink::Mags(mags))
    }

    fn matched_filter_bank_mags_into<F: AsRef<MatchedFilter>>(
        &mut self,
        filters: &[F],
        signal: &[Complex64],
        out: &mut Vec<Vec<f64>>,
    ) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        out.resize_with(filters.len(), Vec::new);
        if self.backend() == DspBackend::ScalarF64 {
            return self.scalar_mf_bank(filters, signal, |t, window| {
                MfSink::Mags(&mut out[t]).fill(window, Complex64::abs);
            });
        }
        for (filter, mags) in filters.iter().zip(out.iter_mut()) {
            self.mf_dispatch(filter.as_ref(), signal, MfSink::Mags(mags))?;
        }
        Ok(())
    }

    fn magnitudes_into(&mut self, signal: &[Complex64], out: &mut Vec<f64>) {
        out.clear();
        match self.backend() {
            // Historical path: hypot-based |z| (bit-identical default).
            DspBackend::ScalarF64 => out.extend(signal.iter().map(|z| z.abs())),
            DspBackend::RealFft => out.extend(signal.iter().map(|z| z.norm_sqr().sqrt())),
        }
    }

    fn accumulate_scores(
        &mut self,
        signals: &[&[Complex64]],
        templates: &[&[Complex64]],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(signals.len() * templates.len());
        let backend = self.backend();
        let mut macs = 0u64;
        for signal in signals {
            for template in templates {
                let n = signal.len().min(template.len());
                macs += n as u64;
                let mut acc = Complex64::ZERO;
                for (s, t) in signal[..n].iter().zip(&template[..n]) {
                    acc += *s * t.conj();
                }
                out.push(match backend {
                    DspBackend::ScalarF64 => acc.abs(),
                    DspBackend::RealFft => acc.norm_sqr().sqrt(),
                });
            }
        }
        uwb_obs::profile::work("score.mac", macs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resample::upsample_fft;

    fn synth_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.13).cos()))
            .collect()
    }

    fn fig7_like_filter() -> MatchedFilter {
        let template: Vec<f64> = (0..64)
            .map(|i| {
                let t = (i as f64 - 32.0) / 8.0;
                (-t * t).exp()
            })
            .collect();
        MatchedFilter::from_real(&template).unwrap()
    }

    #[test]
    fn scalar_backend_is_bit_identical_to_apply_into() {
        let filter = fig7_like_filter();
        let signal = synth_signal(2000);
        let mut reference_ctx = DspContext::new();
        let mut reference = Vec::new();
        filter
            .apply_into(&signal, &mut reference, &mut reference_ctx)
            .unwrap();

        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        ctx.matched_filter_into(&filter, &signal, &mut out).unwrap();
        assert_eq!(out, reference);

        let mut mags = Vec::new();
        ctx.matched_filter_mags_into(&filter, &signal, &mut mags)
            .unwrap();
        let expected: Vec<f64> = reference.iter().map(|z| z.abs()).collect();
        assert_eq!(mags, expected, "mags must match the historical |z| path");
    }

    #[test]
    fn rfft_backend_matches_scalar_within_f64_tolerance() {
        let filter = fig7_like_filter();
        // Fig. 7 scale (1016 taps × 8 upsampling) — large enough that
        // fft_wins picks the FFT path and the spectrum cache engages.
        let signal = synth_signal(8128);
        let mut scalar = DspContext::new();
        let mut rfft = DspContext::with_backend(DspBackend::RealFft);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar
            .matched_filter_mags_into(&filter, &signal, &mut a)
            .unwrap();
        rfft.matched_filter_mags_into(&filter, &signal, &mut b)
            .unwrap();
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!((x - y).abs() < 1e-9, "sample {i}: {x} vs {y}");
        }
        assert_eq!(
            rfft.kernel_spectra.len(),
            1,
            "kernel spectrum must be cached"
        );
        // Second call hits the cache — same result.
        let mut c = Vec::new();
        rfft.matched_filter_mags_into(&filter, &signal, &mut c)
            .unwrap();
        assert_eq!(b, c);
        assert_eq!(rfft.kernel_spectra.len(), 1);
    }

    #[test]
    fn small_shapes_take_the_direct_path_on_every_backend() {
        let filter = MatchedFilter::from_real(&[0.2, 1.0, 0.2]).unwrap();
        let signal = synth_signal(64);
        let mut reference = Vec::new();
        let mut ctx = DspContext::new();
        ctx.matched_filter_mags_into(&filter, &signal, &mut reference)
            .unwrap();
        let mut ctx = DspContext::with_backend(DspBackend::RealFft);
        let mut out = Vec::new();
        ctx.matched_filter_mags_into(&filter, &signal, &mut out)
            .unwrap();
        for (x, y) in reference.iter().zip(&out) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
        assert!(
            ctx.kernel_spectra.is_empty(),
            "direct path must not build kernel spectra"
        );
    }

    #[test]
    fn upsample_dispatches_per_backend() {
        let signal = synth_signal(254);
        let reference = upsample_fft(&signal, 8).unwrap();
        for backend in DspBackend::ALL {
            let mut ctx = DspContext::with_backend(backend);
            let mut out = Vec::new();
            ctx.upsample_into(&signal, 8, &mut out).unwrap();
            assert_eq!(out, reference, "{backend}: must be bit-identical");
        }
    }

    #[test]
    fn fft_into_matches_the_planned_path_per_backend() {
        let signal = synth_signal(127);
        let mut reference = signal.clone();
        crate::fft::fft(&mut reference).ok();
        // 127 is not a power of two — exercise Bluestein on each backend.
        let mut planned = signal.clone();
        let mut ctx = DspContext::new();
        let plan = ctx.plans.bluestein(127).unwrap();
        plan.transform_with(&mut planned, Direction::Forward, &mut ctx.scratch);
        for backend in DspBackend::ALL {
            let mut ctx = DspContext::with_backend(backend);
            let mut data = signal.clone();
            ctx.fft_into(&mut data, Direction::Forward).unwrap();
            assert_eq!(data, planned, "{backend}: must be bit-identical");
        }
        let mut ctx = DspContext::new();
        assert!(matches!(
            ctx.fft_into(&mut [], Direction::Forward),
            Err(DspError::EmptyInput)
        ));
    }

    #[test]
    fn accumulate_scores_matches_naive_correlation() {
        let signals: Vec<Vec<Complex64>> = (0..3).map(|i| synth_signal(40 + i)).collect();
        let templates: Vec<Vec<Complex64>> = (0..2).map(|i| synth_signal(38 + 2 * i)).collect();
        let signal_refs: Vec<&[Complex64]> = signals.iter().map(Vec::as_slice).collect();
        let template_refs: Vec<&[Complex64]> = templates.iter().map(Vec::as_slice).collect();
        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        ctx.accumulate_scores(&signal_refs, &template_refs, &mut out);
        assert_eq!(out.len(), signals.len() * templates.len());
        for (b, signal) in signals.iter().enumerate() {
            for (t, template) in templates.iter().enumerate() {
                let n = signal.len().min(template.len());
                let mut acc = Complex64::ZERO;
                for i in 0..n {
                    acc += signal[i] * template[i].conj();
                }
                let got = out[b * templates.len() + t];
                assert!((got - acc.abs()).abs() < 1e-12, "({b},{t})");
            }
        }
    }

    #[test]
    fn magnitudes_match_across_backends() {
        let signal = synth_signal(100);
        let mut reference = Vec::new();
        DspContext::new().magnitudes_into(&signal, &mut reference);
        assert_eq!(reference.len(), signal.len());
        let mut out = Vec::new();
        DspContext::with_backend(DspBackend::RealFft).magnitudes_into(&signal, &mut out);
        for (x, y) in reference.iter().zip(&out) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
