//! Streaming-vs-batch equivalence goldens for the round pipeline.
//!
//! The tentpole claim of the pipeline layer: [`RangingPipeline`] feeding
//! rounds one at a time through a single long-lived warmed context is
//! *byte-identical* to the batch campaign engine fanning the same rounds
//! across worker threads — at any thread count, under every DSP backend.
//! Per-trial RNG derivation (`trial_rng(seed, index)`) plus outcome-pure
//! contexts make both drivers pure functions of `(seed, trials)`.
//!
//! Backend legs: the scalar-f64 backend is the historical pipeline, so
//! its tally must also hit the exact seed-17 golden the campaign suite
//! pins. The real-FFT backend reassociates differently, so its
//! verdicts may flip on knife-edge trials relative to f64 (the
//! kernel-level bounds live in `uwb-dsp`'s `backend_tolerance` suite) —
//! but streaming-vs-batch under the *same* backend stays exact, and the
//! overlap classification (pre-DSP, RNG-only) never moves at all.

use concurrent_ranging::{RangingPipeline, RoundContext, RoundProgram};
use repro_bench::experiments::fig7::{Fig7Report, OverlapProgram, OverlapTally};
use uwb_campaign::{trial_rng, Campaign, Collect};
use uwb_dsp::DspBackend;

const TRIALS: u64 = 200;
const SEED: u64 = 17;

/// The batch driver with the backend pinned per worker context.
fn batch(threads: usize, backend: DspBackend) -> OverlapTally {
    let program = OverlapProgram::paper();
    Campaign::new(TRIALS, SEED)
        .threads(threads)
        .run_with_context(
            || RoundContext::with_backend(backend),
            |ctx, trial, rng| program.run_round(ctx, trial, rng),
            OverlapTally::default(),
        )
        .collector
}

/// The streaming driver: one pipeline, one warmed context, rounds fed in
/// order with campaign-identical per-round RNG derivation.
fn streamed(backend: DspBackend) -> OverlapTally {
    let mut pipeline =
        RangingPipeline::with_context(OverlapProgram::paper(), RoundContext::with_backend(backend));
    let mut tally = OverlapTally::default();
    for trial in 0..TRIALS {
        let outcome = pipeline.feed_round(trial, &mut trial_rng(SEED, trial));
        tally.record(trial, outcome);
    }
    tally
}

#[test]
fn streaming_is_byte_identical_to_batch_at_every_thread_count_f64() {
    let stream = streamed(DspBackend::ScalarF64);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            stream,
            batch(threads, DspBackend::ScalarF64),
            "streaming diverged from the {threads}-thread batch campaign"
        );
    }
    // The exact seed-17 golden the campaign suite pins (96/125 S&S,
    // 53/125 threshold): the streaming driver reproduces it bit for bit.
    let report: Fig7Report = stream.into();
    assert_eq!(report.total_trials, 200);
    assert_eq!(report.overlapping_trials, 125);
    assert_eq!(report.search_subtract_rate, 96.0 / 125.0);
    assert_eq!(report.threshold_rate, 53.0 / 125.0);
}

#[test]
fn streaming_is_byte_identical_to_batch_under_rfft() {
    let stream = streamed(DspBackend::RealFft);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            stream,
            batch(threads, DspBackend::RealFft),
            "rfft: streaming diverged from the {threads}-thread batch"
        );
    }
}

#[test]
fn alternate_backends_stay_within_the_tolerance_band_of_f64() {
    let reference: Fig7Report = streamed(DspBackend::ScalarF64).into();
    let report: Fig7Report = streamed(DspBackend::RealFft).into();
    // Overlap classification happens before any DSP touches the trial:
    // it cannot move under reassociation.
    assert_eq!(report.total_trials, reference.total_trials);
    assert_eq!(report.overlapping_trials, reference.overlapping_trials);
    // Detection verdicts are thresholded, so the kernel-level error
    // bound (~1e-9 of peak) can flip at most knife-edge trials: allow 2
    // of the 125 overlapping verdicts per detector.
    let band = 2.0 / reference.overlapping_trials as f64;
    assert!(
        (report.search_subtract_rate - reference.search_subtract_rate).abs() <= band,
        "rfft: S&S rate {} vs f64 {}",
        report.search_subtract_rate,
        reference.search_subtract_rate
    );
    assert!(
        (report.threshold_rate - reference.threshold_rate).abs() <= band,
        "rfft: threshold rate {} vs f64 {}",
        report.threshold_rate,
        reference.threshold_rate
    );
}
