//! Property-based tests for the DSP substrate.

use proptest::prelude::*;
use uwb_dsp::{
    convolve, convolve_into, correlate, correlate_into, dft_reference, fft, fractional_delay, ifft,
    next_power_of_two, noise_floor, parabolic_interpolation, stats, upsample_fft,
    upsample_fft_into, BluesteinPlan, Complex64, Direction, DspBackend, DspContext, Kernels,
    MatchedFilter,
};

fn complex_vec(
    len: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(re, im)| Complex64::new(re, im)),
        len,
    )
}

/// The historical scalar matched filter, one template at a time: a
/// full `convolve_into` (signal transform, kernel transform, inverse)
/// and the `hypot` magnitudes of the signal-aligned window.
fn per_filter_mags(filter: &MatchedFilter, signal: &[Complex64]) -> Vec<f64> {
    let mut full = Vec::new();
    convolve_into(signal, filter.reversed(), &mut full, &mut DspContext::new()).unwrap();
    let start = filter.len() - 1;
    full[start..start + signal.len()]
        .iter()
        .map(|z| z.abs())
        .collect()
}

/// A real pulse-like template of `len` taps.
fn real_template(len: usize, width: f64) -> MatchedFilter {
    let taps: Vec<f64> = (0..len)
        .map(|i| {
            let t = (i as f64 - len as f64 / 2.0) / width;
            (-t * t).exp() * (1.0 + 0.3 * (i as f64 * 0.7).sin())
        })
        .collect();
    MatchedFilter::from_real(&taps).unwrap()
}

fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #[test]
    fn fft_roundtrip_power_of_two(exp in 0usize..9, data in complex_vec(1..=256)) {
        let n = 1usize << exp;
        let mut buf: Vec<Complex64> = data.into_iter().cycle().take(n).collect();
        let original = buf.clone();
        fft(&mut buf).unwrap();
        ifft(&mut buf).unwrap();
        prop_assert!(max_abs_diff(&buf, &original) < 1e-6);
    }

    #[test]
    fn bluestein_matches_reference(data in complex_vec(1..64)) {
        let expected = dft_reference(&data, Direction::Forward);
        let mut actual = data.clone();
        BluesteinPlan::new(data.len()).unwrap().forward(&mut actual);
        prop_assert!(max_abs_diff(&actual, &expected) < 1e-5 * data.len() as f64);
    }

    #[test]
    fn bluestein_roundtrip(data in complex_vec(1..200)) {
        let plan = BluesteinPlan::new(data.len()).unwrap();
        let mut buf = data.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        prop_assert!(max_abs_diff(&buf, &data) < 1e-5);
    }

    #[test]
    fn fft_preserves_energy(data in complex_vec(1..128)) {
        let n = data.len().next_power_of_two();
        let mut buf = data.clone();
        buf.resize(n, Complex64::ZERO);
        let time_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum();
        fft(&mut buf).unwrap();
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() <= 1e-6 * time_energy.max(1.0));
    }

    #[test]
    fn convolution_commutes(a in complex_vec(1..40), b in complex_vec(1..40)) {
        let ab = convolve(&a, &b).unwrap();
        let ba = convolve(&b, &a).unwrap();
        prop_assert!(max_abs_diff(&ab, &ba) < 1e-6);
    }

    #[test]
    fn convolution_output_length(a in complex_vec(1..40), b in complex_vec(1..40)) {
        let out = convolve(&a, &b).unwrap();
        prop_assert_eq!(out.len(), a.len() + b.len() - 1);
    }

    #[test]
    fn convolution_distributes_over_addition(
        a in complex_vec(8..16),
        b in complex_vec(8..16),
    ) {
        // conv(a, b + b) == 2·conv(a, b)
        let doubled: Vec<Complex64> = b.iter().map(|z| z.scale(2.0)).collect();
        let lhs = convolve(&a, &doubled).unwrap();
        let rhs: Vec<Complex64> = convolve(&a, &b).unwrap().iter().map(|z| z.scale(2.0)).collect();
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-6);
    }

    #[test]
    fn autocorrelation_peaks_at_zero_lag(a in complex_vec(2..64)) {
        // Skip degenerate all-zero inputs.
        let energy: f64 = a.iter().map(|z| z.norm_sqr()).sum();
        prop_assume!(energy > 1e-9);
        let corr = correlate(&a, &a).unwrap();
        let zero = uwb_dsp::zero_lag_index(a.len());
        let peak = corr[zero].abs();
        for (i, z) in corr.iter().enumerate() {
            if i != zero {
                prop_assert!(z.abs() <= peak + 1e-6 * peak.max(1.0));
            }
        }
        // Zero-lag autocorrelation equals the energy.
        prop_assert!((corr[zero].re - energy).abs() < 1e-6 * energy.max(1.0));
        prop_assert!(corr[zero].im.abs() < 1e-6 * energy.max(1.0));
    }

    #[test]
    fn upsample_preserves_samples(data in complex_vec(2..80), factor in 2usize..6) {
        let up = upsample_fft(&data, factor).unwrap();
        prop_assert_eq!(up.len(), data.len() * factor);
        for (k, &orig) in data.iter().enumerate() {
            prop_assert!((up[k * factor] - orig).abs() < 1e-6);
        }
    }

    #[test]
    fn fractional_delay_roundtrip(data in complex_vec(2..64), delay in -8.0f64..8.0) {
        let shifted = fractional_delay(&data, delay).unwrap();
        let back = fractional_delay(&shifted, -delay).unwrap();
        prop_assert!(max_abs_diff(&back, &data) < 1e-5);
    }

    #[test]
    fn matched_filter_peak_scales_linearly(
        template in proptest::collection::vec(0.01f64..1.0, 3..12),
        amp in 0.1f64..10.0,
        offset in 0usize..20,
    ) {
        let filter = MatchedFilter::from_real(&template).unwrap();
        let mut signal = vec![Complex64::ZERO; 40];
        for (i, &t) in template.iter().enumerate() {
            signal[offset + i] = Complex64::from_real(amp * t);
        }
        let out = filter.apply(&signal).unwrap();
        let expected = amp * filter.energy();
        prop_assert!((out[offset].abs() - expected).abs() < 1e-6 * expected);
    }

    #[test]
    fn noise_floor_below_max(values in proptest::collection::vec(0.0f64..1000.0, 1..100)) {
        let floor = noise_floor(&values, 0.4);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(floor <= max + 1e-12);
    }

    #[test]
    fn parabolic_interpolation_stays_within_half_sample(
        values in proptest::collection::vec(0.0f64..10.0, 3..50),
        idx in 1usize..48,
    ) {
        prop_assume!(idx + 1 < values.len());
        let refined = parabolic_interpolation(&values, idx);
        prop_assert!((refined - idx as f64).abs() <= 0.5);
    }

    #[test]
    fn percentile_is_monotone(values in proptest::collection::vec(-1e3f64..1e3, 1..60), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(stats::percentile(&values, lo) <= stats::percentile(&values, hi) + 1e-12);
    }

    #[test]
    fn std_dev_is_translation_invariant(values in proptest::collection::vec(-1e3f64..1e3, 2..60), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = values.iter().map(|v| v + shift).collect();
        prop_assert!((stats::std_dev(&values) - stats::std_dev(&shifted)).abs() < 1e-6);
    }

    // --- planned-engine bit-identity contract ---------------------------
    //
    // The `*_into` entry points and the scratch-backed Bluestein variants
    // must reproduce the allocating paths *exactly* (assert_eq on f64
    // pairs, not a tolerance): the campaign determinism guarantee relies
    // on planned and unplanned code being interchangeable.

    #[test]
    fn planned_bluestein_is_bit_identical(data in complex_vec(1..300)) {
        let plan = BluesteinPlan::new(data.len()).unwrap();
        let mut ctx = DspContext::new();
        let mut planned = data.clone();
        let mut unplanned = data.clone();
        plan.forward_with(&mut planned, &mut ctx.scratch);
        plan.forward(&mut unplanned);
        prop_assert_eq!(&planned, &unplanned);
        plan.inverse_with(&mut planned, &mut ctx.scratch);
        plan.inverse(&mut unplanned);
        prop_assert_eq!(&planned, &unplanned);
        // Warm scratch: a second pass must still match.
        let mut warm = data.clone();
        plan.forward_with(&mut warm, &mut ctx.scratch);
        let mut reference = data.clone();
        plan.forward(&mut reference);
        prop_assert_eq!(&warm, &reference);
    }

    #[test]
    fn planned_convolve_is_bit_identical(a in complex_vec(1..200), b in complex_vec(1..200)) {
        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        let reference = convolve(&a, &b).unwrap();
        convolve_into(&a, &b, &mut out, &mut ctx).unwrap();
        prop_assert_eq!(&out, &reference);
        convolve_into(&a, &b, &mut out, &mut ctx).unwrap();
        prop_assert_eq!(&out, &reference);
    }

    #[test]
    fn planned_correlate_is_bit_identical(a in complex_vec(1..120), b in complex_vec(1..120)) {
        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        correlate_into(&a, &b, &mut out, &mut ctx).unwrap();
        prop_assert_eq!(&out, &correlate(&a, &b).unwrap());
    }

    #[test]
    fn planned_upsample_is_bit_identical(data in complex_vec(1..140), factor in 1usize..6) {
        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        let reference = upsample_fft(&data, factor).unwrap();
        upsample_fft_into(&data, factor, &mut out, &mut ctx).unwrap();
        prop_assert_eq!(&out, &reference);
        upsample_fft_into(&data, factor, &mut out, &mut ctx).unwrap();
        prop_assert_eq!(&out, &reference);
    }

    #[test]
    fn planned_matched_filter_is_bit_identical(
        template in complex_vec(1..24),
        signal in complex_vec(1..160),
    ) {
        let filter = MatchedFilter::new(&template).unwrap();
        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        filter.apply_into(&signal, &mut out, &mut ctx).unwrap();
        prop_assert_eq!(&out, &filter.apply(&signal).unwrap());
        let mut mags = Vec::new();
        filter.apply_normalized_into(&signal, &mut mags, &mut ctx).unwrap();
        prop_assert_eq!(&mags, &filter.apply_normalized(&signal).unwrap());
    }

    // --- matched-filter bank ----------------------------------------------
    //
    // The scalar bank transforms the signal once per transform length and
    // multiplies by cached template spectra; every magnitude must still
    // equal the per-filter convolve_into path bit for bit.

    #[test]
    fn scalar_bank_is_bit_identical_to_per_filter_convolution(
        signal in complex_vec(950..1000),
        short in complex_vec(1..8),
        medium_a in complex_vec(100..120),
        medium_b in complex_vec(100..120),
        long in complex_vec(1200..1400),
    ) {
        // Direct path (short), FFT path at 2048 points shared by the two
        // medium templates, FFT path at 4096 points (long).
        let bank: Vec<MatchedFilter> = [&medium_a, &short, &long, &medium_b]
            .into_iter()
            .map(|t| MatchedFilter::new(t).unwrap())
            .collect();
        let fft_len = |t: &[Complex64]| next_power_of_two(signal.len() + t.len() - 1);
        prop_assert_eq!(fft_len(&medium_a), 2048);
        prop_assert_eq!(fft_len(&medium_b), 2048);
        prop_assert_eq!(fft_len(&long), 4096);
        let mut ctx = DspContext::new();
        let mut out = Vec::new();
        for pass in 0..2 {
            ctx.matched_filter_bank_mags_into(&bank, &signal, &mut out).unwrap();
            prop_assert_eq!(out.len(), bank.len());
            for (t, filter) in bank.iter().enumerate() {
                prop_assert_eq!(&out[t], &per_filter_mags(filter, &signal), "template {} pass {}", t, pass);
            }
        }
        // The single-filter entry point is a bank of one.
        let mut single = Vec::new();
        for (t, filter) in bank.iter().enumerate() {
            ctx.matched_filter_mags_into(filter, &signal, &mut single).unwrap();
            prop_assert_eq!(&single, &out[t]);
        }
    }

    #[test]
    fn backend_switch_never_serves_foreign_spectra(
        signal in complex_vec(950..1000),
        width in 20.0f64..80.0,
        len in 600usize..700,
    ) {
        // Real templates: the real-FFT backend caches spectra built by
        // the half-cost real transform, which differ from the scalar
        // path's spectra in the last bits. At these shapes its
        // overlap-save block is the full 2048-point transform, the very
        // length the scalar path caches at.
        let bank = [real_template(len, width), real_template(len + 37, width * 1.3)];
        let mut ctx = DspContext::with_backend(DspBackend::RealFft);
        let mut warm = Vec::new();
        ctx.matched_filter_bank_mags_into(&bank, &signal, &mut warm).unwrap();
        ctx.set_backend(DspBackend::ScalarF64);
        let mut out = Vec::new();
        ctx.matched_filter_bank_mags_into(&bank, &signal, &mut out).unwrap();
        for (t, filter) in bank.iter().enumerate() {
            prop_assert_eq!(&out[t], &per_filter_mags(filter, &signal), "template {}", t);
        }
    }
}

/// A bank of `T` FFT-path templates costs one signal transform per
/// distinct transform length plus one inverse per template — and the
/// cache fills that build the template spectra count nothing, cold or
/// warm. The only test in this binary that touches the (process-global)
/// profiler switch.
#[test]
fn scalar_bank_records_one_plus_t_transforms_per_length() {
    let signal: Vec<Complex64> = (0..1000)
        .map(|i| Complex64::new((i as f64 * 0.031).sin(), (i as f64 * 0.17).cos()))
        .collect();
    // Lengths 2048 (three templates), 4096 (one), plus one direct shape.
    let bank = [
        real_template(150, 10.0),
        real_template(4, 1.0),
        real_template(170, 12.0),
        real_template(1200, 90.0),
        real_template(190, 14.0),
    ];
    let butterflies = |n: u64| (n / 2) * u64::from(n.trailing_zeros());
    let expected_butterflies = (1 + 3) * butterflies(2048) + (1 + 1) * butterflies(4096);
    let expected_macs = 3 * 2048 + 4096 + 1000 * 4;

    let mut ctx = DspContext::new();
    let mut out = Vec::new();
    uwb_obs::profile::enable();
    let mut trees = Vec::new();
    for _ in 0..2 {
        let (result, tree) = uwb_obs::profile::scoped(|| {
            ctx.matched_filter_bank_mags_into(&bank, &signal, &mut out)
        });
        result.unwrap();
        trees.push(tree);
    }
    let _ = uwb_obs::profile::disable();
    for (pass, tree) in trees.iter().enumerate() {
        let work = |kind: &str| tree.work.get(kind).copied().unwrap_or(0);
        assert_eq!(work("fft.butterfly"), expected_butterflies, "pass {pass}");
        assert_eq!(work("conv.mac"), expected_macs, "pass {pass}");
        assert_eq!(tree.total_work(), expected_butterflies + expected_macs);
    }
    for (t, filter) in bank.iter().enumerate() {
        assert_eq!(out[t], per_filter_mags(filter, &signal), "template {t}");
    }
}

#[test]
fn bank_handles_empty_inputs() {
    let filter = MatchedFilter::from_real(&[1.0, 0.5]).unwrap();
    let mut out = vec![vec![1.0]; 3];
    for backend in DspBackend::ALL {
        let mut ctx = DspContext::with_backend(backend);
        assert!(ctx
            .matched_filter_bank_mags_into(&[&filter], &[], &mut out)
            .is_err());
        let no_filters: [&MatchedFilter; 0] = [];
        ctx.matched_filter_bank_mags_into(&no_filters, &[Complex64::ONE], &mut out)
            .unwrap();
        assert!(out.is_empty(), "{backend}");
    }
}

/// The DW1000 CIR shape itself — N=1016 upsampled ×8 to 8128, the exact
/// sizes the detection pipeline runs — must be bit-identical through the
/// planned engine, including on a warm context.
#[test]
fn planned_paths_bit_identical_at_cir_sizes() {
    let n = 1016;
    let cir: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64 * 0.013).sin(), (i as f64 * 0.41).cos() * 0.3))
        .collect();
    let mut ctx = DspContext::new();

    let plan = BluesteinPlan::new(n).unwrap();
    let mut planned = cir.clone();
    let mut unplanned = cir.clone();
    plan.forward_with(&mut planned, &mut ctx.scratch);
    plan.forward(&mut unplanned);
    assert_eq!(planned, unplanned, "Bluestein N=1016 forward");

    let reference = upsample_fft(&cir, 8).unwrap();
    let mut out = Vec::new();
    for pass in 0..2 {
        upsample_fft_into(&cir, 8, &mut out, &mut ctx).unwrap();
        assert_eq!(out, reference, "upsample 1016x8, pass {pass}");
    }

    let template: Vec<Complex64> = (0..100)
        .map(|i| Complex64::from_real((-((i as f64 - 50.0) / 12.0).powi(2)).exp()))
        .collect();
    let filter = MatchedFilter::new(&template).unwrap();
    let mf_reference = filter.apply(&reference).unwrap();
    let mut mf_out = Vec::new();
    for pass in 0..2 {
        filter
            .apply_into(&reference, &mut mf_out, &mut ctx)
            .unwrap();
        assert_eq!(
            mf_out, mf_reference,
            "matched filter over 8128, pass {pass}"
        );
    }
}
