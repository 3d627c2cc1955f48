//! Matched filtering against a pulse template.
//!
//! Implements the filter used by the paper's search-and-subtract detector
//! (Sect. IV): the filter impulse response is the time-reversed (conjugated)
//! pulse template `h_MF = [s((Np-1)·Ts), …, s(0)]` and the output is the
//! discrete convolution `y = h_MF * r` (Eq. 3). The output is returned in a
//! *signal-aligned* form: `y[k]` is the correlation of the template placed so
//! that its first sample coincides with signal sample `k`, which makes peak
//! indices directly interpretable as template start positions.

use crate::complex::Complex64;
use crate::convolution::convolve;
use crate::error::DspError;
use crate::plan::DspContext;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of [`MatchedFilter::kernel_id`] values. Clones keep
/// their source's id (same template content → same cached spectra).
static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(0);

/// A matched filter for a fixed template.
///
/// # Examples
///
/// ```
/// use uwb_dsp::{Complex64, MatchedFilter};
/// # fn main() -> Result<(), uwb_dsp::DspError> {
/// let template: Vec<Complex64> =
///     [0.2, 1.0, 0.2].iter().map(|&x| Complex64::from_real(x)).collect();
/// let filter = MatchedFilter::new(&template)?;
/// let mut signal = vec![Complex64::ZERO; 16];
/// signal[5] = Complex64::from_real(0.2);
/// signal[6] = Complex64::from_real(1.0);
/// signal[7] = Complex64::from_real(0.2);
/// let output = filter.apply(&signal)?;
/// let peak = output
///     .iter()
///     .enumerate()
///     .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
///     .map(|(i, _)| i);
/// assert_eq!(peak, Some(5)); // template starts at sample 5
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MatchedFilter {
    /// The stored template `s`.
    template: Vec<Complex64>,
    /// Precomputed impulse response `h_MF`: the time-reversed conjugate
    /// of `s`, built once at construction so `apply` does not rebuild it
    /// per call.
    reversed: Vec<Complex64>,
    /// The real parts of `reversed` when the template is purely real
    /// (always the case for the pulse-shape templates, which are sampled
    /// real pulses) — lets the real-FFT backend build kernel spectra at
    /// half cost.
    reversed_real: Option<Vec<f64>>,
    /// Template energy `Σ|s|²`, used for normalized output.
    energy: f64,
    /// Process-unique identity for kernel-spectrum caching in
    /// [`DspContext`].
    kernel_id: u64,
}

impl MatchedFilter {
    /// Builds a matched filter from a pulse template.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty template.
    pub fn new(template: &[Complex64]) -> Result<Self, DspError> {
        if template.is_empty() {
            return Err(DspError::EmptyInput);
        }
        let energy = template.iter().map(|z| z.norm_sqr()).sum();
        let reversed: Vec<Complex64> = template.iter().rev().map(|z| z.conj()).collect();
        let reversed_real = if template.iter().all(|z| z.im == 0.0) {
            Some(reversed.iter().map(|z| z.re).collect())
        } else {
            None
        };
        Ok(Self {
            template: template.to_vec(),
            reversed,
            reversed_real,
            energy,
            kernel_id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Builds a matched filter from a real-valued template.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty template.
    pub fn from_real(template: &[f64]) -> Result<Self, DspError> {
        let t: Vec<Complex64> = template.iter().map(|&x| Complex64::from_real(x)).collect();
        Self::new(&t)
    }

    /// The stored template.
    pub fn template(&self) -> &[Complex64] {
        &self.template
    }

    /// Template length in samples (`Np`).
    pub fn len(&self) -> usize {
        self.template.len()
    }

    /// Returns `true` if the template is empty (never the case for a
    /// constructed filter; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.template.is_empty()
    }

    /// Template energy `Σ|s[n]|²`.
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// The precomputed impulse response `h_MF` (time-reversed conjugate
    /// of the template) — what the backend kernels convolve with.
    pub fn reversed(&self) -> &[Complex64] {
        &self.reversed
    }

    /// The impulse response as plain reals when the template is purely
    /// real; `None` for genuinely complex templates.
    pub fn reversed_real(&self) -> Option<&[f64]> {
        self.reversed_real.as_deref()
    }

    /// Process-unique identity of this filter's kernel, used to key the
    /// spectrum caches in [`DspContext`]. Clones share the id (and
    /// therefore the cached spectra), which is sound because a clone's
    /// template content is identical.
    pub fn kernel_id(&self) -> u64 {
        self.kernel_id
    }

    /// Applies the filter and returns the signal-aligned output.
    ///
    /// `output[k] = Σ_n signal[k+n] · conj(template[n])`; output length
    /// equals the signal length (positions where the template would extend
    /// past the end are still computed with implicit zero padding and then
    /// truncated to the signal's support).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal.
    pub fn apply(&self, signal: &[Complex64]) -> Result<Vec<Complex64>, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput);
        }
        // Convolve with the time-reversed conjugate template, then shift so
        // index k corresponds to the template *starting* at sample k.
        let full = convolve(signal, &self.reversed)?;
        let start = self.template.len() - 1;
        Ok(full[start..start + signal.len()].to_vec())
    }

    /// Planned variant of [`MatchedFilter::apply`]: writes the
    /// signal-aligned output into `out`, drawing plans, working buffers
    /// and this filter's cached kernel spectrum from `ctx`. Runs the
    /// scalar f64 matched filter whatever `ctx`'s backend, so it is
    /// bit-identical to `apply`; in steady state the call allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal.
    pub fn apply_into(
        &self,
        signal: &[Complex64],
        out: &mut Vec<Complex64>,
        ctx: &mut DspContext,
    ) -> Result<(), DspError> {
        ctx.scalar_mf_bank(std::slice::from_ref(self), signal, |_, window| {
            out.clear();
            out.extend_from_slice(window);
        })
    }

    /// Planned variant of [`MatchedFilter::apply_normalized`]: writes
    /// energy-normalized magnitudes into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal.
    pub fn apply_normalized_into(
        &self,
        signal: &[Complex64],
        out: &mut Vec<f64>,
        ctx: &mut DspContext,
    ) -> Result<(), DspError> {
        let scale = 1.0 / self.energy;
        ctx.scalar_mf_bank(std::slice::from_ref(self), signal, |_, window| {
            out.clear();
            out.extend(window.iter().map(|z| z.abs() * scale));
        })
    }

    /// Applies the filter and returns output magnitudes, normalized by the
    /// template energy so a perfectly matching unit-amplitude pulse yields
    /// a peak of 1.0.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal.
    pub fn apply_normalized(&self, signal: &[Complex64]) -> Result<Vec<f64>, DspError> {
        let out = self.apply(signal)?;
        let scale = 1.0 / self.energy;
        Ok(out.iter().map(|z| z.abs() * scale).collect())
    }
}

/// Lets a bank of filters be passed as `&[MatchedFilter]`,
/// `&[&MatchedFilter]`, or any slice of types that hold one (see
/// [`crate::Kernels::matched_filter_bank_mags_into`]).
impl AsRef<MatchedFilter> for MatchedFilter {
    fn as_ref(&self) -> &MatchedFilter {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(values: &[f64]) -> Vec<Complex64> {
        values.iter().map(|&x| Complex64::from_real(x)).collect()
    }

    fn peak_index(out: &[Complex64]) -> usize {
        out.iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0
    }

    #[test]
    fn empty_template_rejected() {
        assert!(matches!(MatchedFilter::new(&[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn empty_signal_rejected() {
        let f = MatchedFilter::from_real(&[1.0]).unwrap();
        assert!(matches!(f.apply(&[]), Err(DspError::EmptyInput)));
    }

    #[test]
    fn output_length_matches_signal() {
        let f = MatchedFilter::from_real(&[1.0, 2.0, 1.0]).unwrap();
        let signal = c(&[0.0; 40]);
        assert_eq!(f.apply(&signal).unwrap().len(), 40);
    }

    #[test]
    fn peak_at_template_start_position() {
        let template = [0.1, 0.6, 1.0, 0.6, 0.1];
        let f = MatchedFilter::from_real(&template).unwrap();
        for offset in [0usize, 3, 10, 27] {
            let mut signal = vec![Complex64::ZERO; 40];
            for (i, &t) in template.iter().enumerate() {
                signal[offset + i] = Complex64::from_real(t * 2.5);
            }
            let out = f.apply(&signal).unwrap();
            assert_eq!(peak_index(&out), offset, "offset {offset}");
        }
    }

    #[test]
    fn peak_amplitude_scales_with_signal_amplitude() {
        let template = [0.3, 1.0, 0.3];
        let f = MatchedFilter::from_real(&template).unwrap();
        let mut s1 = vec![Complex64::ZERO; 16];
        let mut s2 = vec![Complex64::ZERO; 16];
        for (i, &t) in template.iter().enumerate() {
            s1[4 + i] = Complex64::from_real(t);
            s2[4 + i] = Complex64::from_real(3.0 * t);
        }
        let p1 = f.apply(&s1).unwrap()[4].abs();
        let p2 = f.apply(&s2).unwrap()[4].abs();
        assert!((p2 / p1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_peak_is_unity_for_exact_match() {
        let template = [0.2, 0.9, 1.0, 0.4];
        let f = MatchedFilter::from_real(&template).unwrap();
        let mut signal = vec![Complex64::ZERO; 20];
        for (i, &t) in template.iter().enumerate() {
            signal[7 + i] = Complex64::from_real(t);
        }
        let out = f.apply_normalized(&signal).unwrap();
        assert!((out[7] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_template_scores_lower_than_matching_one() {
        // Cauchy–Schwarz: among unit-energy templates, the correct one
        // maximizes the matched-filter response. This is the property the
        // paper's pulse-shape identification relies on.
        let narrow = [0.05, 0.8, 1.0, 0.8, 0.05];
        let wide = [0.4, 0.8, 1.0, 0.8, 0.4];
        let unit = |t: &[f64]| {
            let e: f64 = t.iter().map(|x| x * x).sum::<f64>().sqrt();
            t.iter().map(|x| x / e).collect::<Vec<_>>()
        };
        let narrow_u = unit(&narrow);
        let wide_u = unit(&wide);

        let mut signal = vec![Complex64::ZERO; 30];
        for (i, &t) in narrow_u.iter().enumerate() {
            signal[10 + i] = Complex64::from_real(t);
        }
        let f_narrow = MatchedFilter::from_real(&narrow_u).unwrap();
        let f_wide = MatchedFilter::from_real(&wide_u).unwrap();
        let score_narrow = f_narrow.apply(&signal).unwrap()[10].abs();
        let score_wide = f_wide.apply(&signal).unwrap()[10].abs();
        assert!(
            score_narrow > score_wide,
            "matching template must win: {score_narrow} vs {score_wide}"
        );
    }

    #[test]
    fn apply_into_matches_apply_bitwise() {
        let template = [0.1, 0.6, 1.0, 0.6, 0.1];
        let f = MatchedFilter::from_real(&template).unwrap();
        let signal: Vec<Complex64> = (0..200)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.13).cos()))
            .collect();
        let reference = f.apply(&signal).unwrap();
        let norm_reference = f.apply_normalized(&signal).unwrap();

        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        let mut norm_out = Vec::new();
        for pass in 0..2 {
            f.apply_into(&signal, &mut out, &mut ctx).unwrap();
            assert_eq!(out, reference, "pass {pass}");
            f.apply_normalized_into(&signal, &mut norm_out, &mut ctx)
                .unwrap();
            assert_eq!(norm_out, norm_reference, "pass {pass}");
        }
        assert!(matches!(
            f.apply_into(&[], &mut out, &mut ctx),
            Err(DspError::EmptyInput)
        ));
        assert!(matches!(
            f.apply_normalized_into(&[], &mut norm_out, &mut ctx),
            Err(DspError::EmptyInput)
        ));
    }

    #[test]
    fn complex_phase_is_recovered() {
        let template = c(&[1.0, 1.0]);
        let f = MatchedFilter::new(&template).unwrap();
        let signal = vec![Complex64::I, Complex64::I, Complex64::ZERO];
        let out = f.apply(&signal).unwrap();
        // Correlation of i·template with template = 2i.
        assert!((out[0] - Complex64::new(0.0, 2.0)).abs() < 1e-12);
    }
}
