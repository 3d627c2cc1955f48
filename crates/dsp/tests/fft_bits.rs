//! Bit-level pins of the scalar f64 reference transforms.
//!
//! The f64 path is the golden reference every other backend is measured
//! against, so its outputs must not drift by a single bit when the
//! radix-2 kernel is restructured. Each case below hashes the exact
//! `to_bits()` of every output component (FNV-1a, 64-bit) and compares
//! it with the digest recorded from the swap-then-butterfly kernel the
//! workspace shipped before the permutation was folded into the callers'
//! copies. A mismatch prints the full recomputed table.

use uwb_dsp::{
    convolve_into, upsample_fft_into, BluesteinPlan, Complex64, Direction, DspBackend, DspContext,
    FftPlan, Kernels, MatchedFilter, RealFftPlan,
};

/// FNV-1a over the IEEE-754 bits of every component, in order.
fn digest<'a>(values: impl IntoIterator<Item = &'a Complex64>) -> u64 {
    digest_f64(values.into_iter().flat_map(|z| [z.re, z.im]))
}

fn digest_f64(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in values {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64 stream mapped to `[-1, 1)`: a fixed, dependency-free
/// input generator so the digests never depend on an RNG crate.
fn signal(len: usize, seed: u64) -> Vec<Complex64> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..len).map(|_| Complex64::new(next(), next())).collect()
}

/// A real pulse-like template of `len` taps.
fn template(len: usize) -> MatchedFilter {
    let taps: Vec<f64> = (0..len)
        .map(|i| {
            let t = (i as f64 - len as f64 / 2.0) / (len as f64 / 8.0);
            (-t * t).exp() * (1.0 + 0.3 * (i as f64 * 0.7).sin())
        })
        .collect();
    MatchedFilter::from_real(&taps).unwrap()
}

/// Every pinned case, recomputed: `(name, digest)`.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for bits in 0..=15u32 {
        let n = 1usize << bits;
        let plan = FftPlan::new(n).unwrap();
        let input = signal(n, u64::from(bits));
        let mut fwd = input.clone();
        plan.forward(&mut fwd);
        out.push((format!("radix2_forward_{n}"), digest(&fwd)));
        let mut inv = input;
        plan.inverse(&mut inv);
        out.push((format!("radix2_inverse_{n}"), digest(&inv)));
    }
    let mut ctx = DspContext::new();
    for n in [1016usize, 8128] {
        let plan = BluesteinPlan::new(n).unwrap();
        let input = signal(n, n as u64);
        for direction in [Direction::Forward, Direction::Inverse] {
            let mut data = input.clone();
            plan.transform(&mut data, direction);
            let mut planned = input.clone();
            plan.transform_with(&mut planned, direction, &mut ctx.scratch);
            assert_eq!(
                digest(&data),
                digest(&planned),
                "bluestein {n} {direction:?}"
            );
            out.push((format!("bluestein_{direction:?}_{n}"), digest(&data)));
        }
    }
    let cir = signal(1016, 7);
    let mut up = Vec::new();
    upsample_fft_into(&cir, 8, &mut up, &mut ctx).unwrap();
    out.push(("upsample_x8_1016".to_string(), digest(&up)));

    let mut full = Vec::new();
    convolve_into(&up, template(803).reversed(), &mut full, &mut ctx).unwrap();
    out.push(("convolve_8128x803".to_string(), digest(&full)));

    let rfft = RealFftPlan::new(4096).unwrap();
    let real: Vec<f64> = signal(2048, 11).iter().flat_map(|z| [z.re, z.im]).collect();
    out.push(("rfft_4096".to_string(), digest(&rfft.forward(&real))));

    let bank = [template(233), template(301), template(803)];
    for backend in [DspBackend::ScalarF64, DspBackend::RealFft] {
        let mut ctx = DspContext::with_backend(backend);
        let mut mags = Vec::new();
        // Twice: the second call runs on the warm kernel-spectrum cache.
        for pass in 0..2 {
            ctx.matched_filter_bank_mags_into(&bank, &up, &mut mags)
                .unwrap();
            let d = digest_f64(mags.iter().flatten().copied());
            if pass == 0 {
                out.push((format!("bank_{backend:?}_8128"), d));
            } else {
                assert_eq!(out.last().unwrap().1, d, "warm bank {backend:?}");
            }
        }
    }
    out
}

const EXPECTED: &[(&str, u64)] = &[
    ("radix2_forward_1", 0x0190e940f5c24aa6),
    ("radix2_inverse_1", 0x0190e940f5c24aa6),
    ("radix2_forward_2", 0xb0cdaf95b1370bd2),
    ("radix2_inverse_2", 0x5c1c1aafacfacb32),
    ("radix2_forward_4", 0xc7881cbdac722e4d),
    ("radix2_inverse_4", 0xc76423948bd4bd0d),
    ("radix2_forward_8", 0xb3661ed1a243f34e),
    ("radix2_inverse_8", 0xf509515ac7bc9674),
    ("radix2_forward_16", 0xac30f239bf5fa8eb),
    ("radix2_inverse_16", 0x70b9c7ee0bca9a5a),
    ("radix2_forward_32", 0xd8b6310bb587452a),
    ("radix2_inverse_32", 0xa9a1f49e5bb34466),
    ("radix2_forward_64", 0x0365b9b7e80ad718),
    ("radix2_inverse_64", 0xba3ecfadc6c601b1),
    ("radix2_forward_128", 0x1dc9c824276078ec),
    ("radix2_inverse_128", 0x5326bea2379fd66b),
    ("radix2_forward_256", 0xff1401c42238a62a),
    ("radix2_inverse_256", 0xd82b43f2fb512837),
    ("radix2_forward_512", 0xe09f0b38e271a015),
    ("radix2_inverse_512", 0xcea6966802454088),
    ("radix2_forward_1024", 0x27aeb7a035e73c99),
    ("radix2_inverse_1024", 0x2238d36ad0eeead1),
    ("radix2_forward_2048", 0x23ee1b0d44688223),
    ("radix2_inverse_2048", 0x14526db835d36d07),
    ("radix2_forward_4096", 0x18921e964566a6d5),
    ("radix2_inverse_4096", 0xc206e277ca269533),
    ("radix2_forward_8192", 0xa96e194553a8d43b),
    ("radix2_inverse_8192", 0x9897c91b6c370598),
    ("radix2_forward_16384", 0x1498de22a06bf8f6),
    ("radix2_inverse_16384", 0x96a8694a121ea567),
    ("radix2_forward_32768", 0x5c4aee7fb9a731c7),
    ("radix2_inverse_32768", 0xb1eff0e69be67b1c),
    ("bluestein_Forward_1016", 0x0567f951fa3c614c),
    ("bluestein_Inverse_1016", 0xc2fd61355fc3f36c),
    ("bluestein_Forward_8128", 0xe38f2961c8a4a454),
    ("bluestein_Inverse_8128", 0xa0fa42657d7e8f0d),
    ("upsample_x8_1016", 0x1ce186691ed5f83e),
    ("convolve_8128x803", 0x4d29ab28a542d4f3),
    ("rfft_4096", 0x6ad3c339626a0124),
    ("bank_ScalarF64_8128", 0xa5075964ffd88b29),
    ("bank_RealFft_8128", 0xea8cf2887b46d007),
];

#[test]
fn f64_reference_outputs_match_recorded_digests() {
    let actual = digests();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(actual.len(), EXPECTED.len(), "case list changed:\n{table}");
    for ((name, d), (want_name, want)) in actual.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "case order changed:\n{table}");
        assert_eq!(d, want, "{name} drifted from its recorded bits:\n{table}");
    }
}
