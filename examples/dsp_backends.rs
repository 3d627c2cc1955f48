//! DSP backends: one detection workload, two kernel implementations.
//!
//! Run with `cargo run --release --example dsp_backends`.
//!
//! A batch of two-response CIRs (the paper's Fig. 7 overlap case) is
//! pushed through `Detector::detect_batch` once per [`DspBackend`]:
//! the bit-exact scalar f64 reference and the fast real-input-FFT f64
//! path. The table shows that both recover the same arrival times to
//! well under the ranging noise floor while the cheaper transforms cut
//! the wall-clock cost — the same comparison the `perfwatch` suite
//! races as `detect.search_subtract_fig7` against
//! `detect.search_subtract_fig7_rfft`.

use concurrent_ranging::detection::{
    Detector, DetectorContext, SearchSubtractConfig, SearchSubtractDetector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uwb_channel::{Arrival, CirSynthesizer};
use uwb_dsp::{Complex64, DspBackend};
use uwb_radio::{Channel, Prf, PulseShape, RadioConfig, TcPgDelay};

const BATCH: usize = 16;
const TRUTH_NS: [f64; 2] = [100.0, 101.8];

fn main() -> Result<(), uwb_error::Error> {
    let pulse = PulseShape::from_config(&RadioConfig::default());
    let synth = CirSynthesizer::new(Prf::Mhz64).with_noise_sigma(0.02);
    let mut rng = StdRng::seed_from_u64(7);

    // One arrival set, BATCH independent noise realizations — rendered
    // in a single call so the batch is bit-identical to sequential
    // renders from the same RNG.
    let arrivals: Vec<Arrival> = TRUTH_NS
        .iter()
        .zip([1.0, 0.8])
        .map(|(&delay_ns, amp)| Arrival {
            delay_s: delay_ns * 1e-9,
            amplitude: Complex64::from_polar(amp, 0.05 * delay_ns),
            pulse,
        })
        .collect();
    let sets: Vec<&[Arrival]> = (0..BATCH).map(|_| arrivals.as_slice()).collect();
    let cirs = synth.render_batch(&sets, &mut rng);

    let detector = SearchSubtractDetector::from_registers(
        &[TcPgDelay::DEFAULT],
        Channel::Ch7,
        SearchSubtractConfig {
            capture_diagnostics: false,
            ..SearchSubtractConfig::default()
        },
    )?;

    println!(
        "{BATCH} overlapping-response CIRs, truth at {:.1} ns and {:.1} ns\n",
        TRUTH_NS[0], TRUTH_NS[1]
    );
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>10}",
        "backend", "first [ns]", "second [ns]", "max err [ps]", "time [ms]"
    );

    let mut reference: Option<Vec<Vec<f64>>> = None;
    for backend in DspBackend::ALL {
        // The backend is pinned per context; `DetectorContext::new()`
        // would instead honor the `UWB_DSP_BACKEND` environment knob
        // (what the experiment binaries' `--dsp-backend` flag sets).
        let mut ctx = DetectorContext::with_backend(backend);
        // Warm the plan caches so the timed pass measures steady state.
        detector.detect_batch(&mut ctx, &cirs, 2)?;

        let start = std::time::Instant::now();
        let outcomes = detector.detect_batch(&mut ctx, &cirs, 2)?;
        let elapsed = start.elapsed();

        let taus: Vec<Vec<f64>> = outcomes
            .iter()
            .map(|o| o.responses.iter().map(|r| r.tau_s * 1e9).collect())
            .collect();
        let max_err_ps = reference
            .get_or_insert_with(|| taus.clone())
            .iter()
            .flatten()
            .zip(taus.iter().flatten())
            .map(|(a, b)| (a - b).abs() * 1e3)
            .fold(0.0f64, f64::max);
        println!(
            "{:<8} {:>14.4} {:>14.4} {:>12.3} {:>10.2}",
            backend.label(),
            taus[0][0],
            taus[0].get(1).copied().unwrap_or(f64::NAN),
            max_err_ps,
            elapsed.as_secs_f64() * 1e3,
        );
    }
    println!("\nmax err is vs the bit-exact f64 backend, across the whole batch");
    Ok(())
}
