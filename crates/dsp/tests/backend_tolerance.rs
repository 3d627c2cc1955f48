//! Cross-backend tolerance contract for the [`Kernels`] kernel set.
//!
//! The correctness argument has two legs, each asserted
//! here at the kernel level (the end-to-end ToA leg lives in
//! `uwb-core`'s detection tests):
//!
//! 1. **ScalarF64 is bit-identical** to the historical allocating
//!    pipeline — not "close", *equal* — because campaign determinism
//!    hashes detector outputs.
//! 2. **RealFft is f64-exact up to FFT reassociation**: it computes the
//!    same convolution with the same transform length, differing only
//!    in where the kernel spectrum came from, so outputs agree to
//!    ~1e-9 of the peak.

use uwb_dsp::{
    upsample_fft, Complex64, DspBackend, DspContext, Kernels, MatchedFilter, RealFftPlan,
};

/// Deterministic xorshift so the proptest-style sweeps need no
/// external RNG crate.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn signal(&mut self, n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|_| Complex64::new(self.next_f64(), self.next_f64()))
            .collect()
    }
}

fn pulse_template(len: usize, width: f64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let t = (i as f64 - len as f64 / 2.0) / width;
            (-t * t).exp()
        })
        .collect()
}

#[test]
fn real_fft_equals_complex_fft_for_random_real_input() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for &n in &[2usize, 8, 64, 512, 4096] {
        for trial in 0..8 {
            let input: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let mut complex: Vec<Complex64> =
                input.iter().map(|&x| Complex64::from_real(x)).collect();
            // Pad-free power-of-two length: the plain radix-2 reference.
            uwb_dsp::fft(&mut complex).unwrap();
            let real = RealFftPlan::new(n).unwrap().forward(&input);
            for (k, (x, y)) in real.iter().zip(&complex).enumerate() {
                assert!(
                    (*x - *y).abs() < 1e-11 * n as f64,
                    "n={n} trial={trial} bin={k}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn matched_filter_backends_agree_across_random_shapes() {
    let mut rng = Rng(0xdeadbeefcafef00d);
    // Mix of direct-path and FFT-path shapes, including the paper's
    // 1016-tap CIR upsampled by 8.
    for &(signal_len, kernel_len) in &[(64usize, 8usize), (500, 64), (1016, 64), (8128, 64)] {
        let signal = rng.signal(signal_len);
        let template = pulse_template(kernel_len, kernel_len as f64 / 6.0);
        let filter = MatchedFilter::from_real(&template).unwrap();

        let mut scalar = DspContext::new();
        let mut reference = Vec::new();
        scalar
            .matched_filter_mags_into(&filter, &signal, &mut reference)
            .unwrap();
        let peak = reference.iter().cloned().fold(0.0f64, f64::max);

        let mut ctx = DspContext::with_backend(DspBackend::RealFft);
        let mut out = Vec::new();
        ctx.matched_filter_mags_into(&filter, &signal, &mut out)
            .unwrap();
        assert_eq!(out.len(), reference.len());
        for (i, (x, y)) in reference.iter().zip(&out).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * peak,
                "rfft ({signal_len}x{kernel_len}) sample {i}: {x} vs {y} (peak {peak})"
            );
        }
    }
}

#[test]
fn upsample_backends_agree_for_cir_length() {
    let mut rng = Rng(0x1234_5678_9abc_def1);
    let signal = rng.signal(1016);
    let reference = upsample_fft(&signal, 8).unwrap();

    // Both backends must reproduce the allocating path bit for bit.
    for backend in DspBackend::ALL {
        let mut ctx = DspContext::with_backend(backend);
        let mut out = Vec::new();
        ctx.upsample_into(&signal, 8, &mut out).unwrap();
        assert_eq!(out, reference, "{backend}");
    }
}

#[test]
fn env_selected_backend_matches_explicit_construction() {
    // parse() is the pure core of the env knob (its label cases are
    // unit-tested in backend.rs) — exercising it here avoids mutating
    // process environment in a threaded test binary.
    for backend in DspBackend::ALL {
        let parsed = DspBackend::parse(backend.label()).expect("canonical label parses");
        assert_eq!(
            DspContext::with_backend(parsed).backend(),
            backend,
            "context must hold its selection"
        );
    }
}

#[test]
fn backend_switch_preserves_results_and_caches() {
    let mut rng = Rng(0xfeed_face_dead_beef);
    let signal = rng.signal(8128);
    let template = pulse_template(64, 10.0);
    let filter = MatchedFilter::from_real(&template).unwrap();

    let mut ctx = DspContext::new();
    let mut scalar_out = Vec::new();
    ctx.matched_filter_mags_into(&filter, &signal, &mut scalar_out)
        .unwrap();

    ctx.set_backend(DspBackend::RealFft);
    let mut rfft_out = Vec::new();
    ctx.matched_filter_mags_into(&filter, &signal, &mut rfft_out)
        .unwrap();

    ctx.set_backend(DspBackend::ScalarF64);
    let mut back = Vec::new();
    ctx.matched_filter_mags_into(&filter, &signal, &mut back)
        .unwrap();
    assert_eq!(
        back, scalar_out,
        "returning to the scalar backend must restore bit-identical output"
    );

    let peak = scalar_out.iter().cloned().fold(0.0f64, f64::max);
    for (x, y) in scalar_out.iter().zip(&rfft_out) {
        assert!((x - y).abs() < 1e-9 * peak);
    }
}
