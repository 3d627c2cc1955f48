//! The fixed, named workload suite.
//!
//! Every workload exercises one stage of the pipeline the paper's
//! numbers flow through — DSP kernels, CIR synthesis, the
//! search-and-subtract detector, pulse-shape classification, RPM slot
//! decoding, the streaming round pipeline, the Monte-Carlo campaign
//! engine, the netsim TWR dispatch path, and the sharded worldsim
//! capacity round. The set is *fixed* so `BENCH_pipeline.json` files
//! from different commits compare workload-by-workload.
//!
//! Measurement protocol per workload: `warmup` untimed runs, one
//! allocation-bracketed run (populated only under the `count-alloc`
//! feature), one profiled run that captures the deterministic work
//! counters (`work_ops` — a pure function of the input, so a single
//! sample is exact), then `iters` timed runs with the profiler off so
//! the hot path pays only one relaxed atomic load per counted site.
//! The reported statistics are robust — median and MAD over the
//! per-iteration wall-clock samples, plus the minimum — so a single
//! scheduler hiccup cannot move the headline number.
//!
//! The DSP and detection workloads hold a persistent plan/scratch
//! context across iterations (the planned hot path — how the campaign
//! engine runs them), so warmup populates the plan caches and the
//! steady-state rows measure the allocation-free path.

use rand::rngs::StdRng;

use crate::alloc_count;
use crate::baseline::WorkloadResult;
use concurrent_ranging::detection::{
    template_bank, DetectorContext, SearchSubtractConfig, SearchSubtractDetector,
};
use concurrent_ranging::{RangingPipeline, RoundContext, RoundProgram, SlotPlan};
use repro_bench::Deployment;
use std::sync::{Mutex, OnceLock};
use uwb_channel::{Arrival, CirSynthesizer};
use uwb_dsp::{
    BluesteinPlan, Complex64, DspBackend, DspContext, DspScratch, FftPlan, Kernels, MatchedFilter,
    RealFftPlan,
};
use uwb_obs::{measure_ns, median, median_abs_deviation, per_second, ProfileNode, Stopwatch};
use uwb_radio::{Channel, Cir, Prf, PulseShape, RadioConfig, TcPgDelay, CIR_SAMPLE_PERIOD_S};

/// Deterministic seed shared by every synthetic workload input.
const SUITE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Trials per iteration of the campaign workloads.
const CAMPAIGN_TRIALS: usize = 200;

/// Suite knobs, typically parsed from the `perfwatch` CLI.
#[derive(Debug, Clone, Default)]
pub struct SuiteConfig {
    /// Override the per-workload timed iteration count.
    pub iters: Option<u32>,
    /// Override the per-workload warmup count.
    pub warmup: Option<u32>,
    /// Worker threads for the `campaign.fig7_tN` workload
    /// (0 = available parallelism).
    pub threads: usize,
    /// Busy-spin (ns) injected *inside* every timed region — the
    /// regression-gate test hook, parsed from `UWB_PERFWATCH_SPIN_NS`.
    pub spin_ns: u64,
    /// Phantom work ops injected *inside* every profiled region — the
    /// work-gate analogue of `spin_ns`, parsed from
    /// `UWB_PERFWATCH_INFLATE_WORK`. Inflates `work_ops` without
    /// touching the kernels or the timing, so the gating test can prove
    /// the work gate fires while wall-clock stays honest.
    pub inflate_work: u64,
    /// Only run workloads whose name contains one of these
    /// comma-separated substrings.
    pub filter: Option<String>,
}

impl SuiteConfig {
    /// Reads the environment hooks (`UWB_PERFWATCH_SPIN_NS`,
    /// `UWB_PERFWATCH_INFLATE_WORK`) into an otherwise-default
    /// configuration.
    #[must_use]
    pub fn from_env() -> Self {
        SuiteConfig {
            spin_ns: spin_ns_from_env(),
            inflate_work: inflate_work_from_env(),
            ..SuiteConfig::default()
        }
    }
}

/// Parses `UWB_PERFWATCH_SPIN_NS` (unset, empty, or unparsable → 0).
#[must_use]
pub fn spin_ns_from_env() -> u64 {
    std::env::var("UWB_PERFWATCH_SPIN_NS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// Parses `UWB_PERFWATCH_INFLATE_WORK` (unset, empty, or unparsable
/// → 0).
#[must_use]
pub fn inflate_work_from_env() -> u64 {
    std::env::var("UWB_PERFWATCH_INFLATE_WORK")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

/// One named workload: a closure plus the metadata that labels its row.
struct Workload {
    name: &'static str,
    layer: &'static str,
    units: &'static str,
    units_per_iter: f64,
    default_iters: u32,
    default_warmup: u32,
    run: Box<dyn FnMut()>,
}

/// Burns wall-clock time without allocating; the hook every gating test
/// uses to manufacture a regression.
fn spin(ns: u64) {
    if ns == 0 {
        return;
    }
    let watch = Stopwatch::start();
    while watch.elapsed_ns() < ns {
        std::hint::spin_loop();
    }
}

fn suite_rng() -> StdRng {
    repro_bench::rng(SUITE_SEED)
}

/// A single-response CIR: one responder 4 m out at a healthy SNR.
fn single_response_cir() -> Cir {
    let shape = PulseShape::from_config(&RadioConfig::default());
    repro_bench::synthesize_responses(&[(40.0, 1.0, shape)], 25.0, &mut suite_rng())
}

/// The Fig. 7 stress case: two responses overlapping within one pulse
/// main lobe (sub-nanosecond separation, unequal amplitudes).
fn fig7_overlap_cir() -> Cir {
    let shape = PulseShape::from_config(&RadioConfig::default());
    repro_bench::synthesize_responses(
        &[(40.0, 1.0, shape), (40.9, 0.8, shape)],
        25.0,
        &mut suite_rng(),
    )
}

/// The detector in its steady-state hot-path configuration: per-iteration
/// diagnostics capture off, exactly as the campaign engine runs it. Each
/// workload pairs it with a persistent [`DetectorContext`] so the timed
/// region exercises the planned, allocation-free path.
fn default_detector() -> SearchSubtractDetector {
    SearchSubtractDetector::from_registers(
        &[TcPgDelay::DEFAULT],
        Channel::Ch7,
        SearchSubtractConfig {
            capture_diagnostics: false,
            ..SearchSubtractConfig::default()
        },
    )
    .expect("default detector construction")
}

/// The Fig. 8 deployment's accumulator: the nine responders of
/// `repro_bench::experiments::fig8::deployment` (free space, amplitude
/// ∝ 1/distance, delays relative to the nearest responder), each in its
/// RPM slot with its own pulse shape from the 4-slot × 3-shape scheme.
fn fig8_cir(deployment: &Deployment) -> Cir {
    let scheme = &deployment.scheme;
    let distances_m: Vec<f64> = deployment
        .responders
        .iter()
        .map(|&(p, _)| p.distance_to(deployment.initiator))
        .collect();
    let nearest_m = distances_m.iter().copied().fold(f64::INFINITY, f64::min);
    let responses: Vec<(f64, f64, PulseShape)> = deployment
        .responders
        .iter()
        .zip(&distances_m)
        .map(|(&(_, id), &d_m)| {
            let assignment = scheme.assign(id).expect("id fits the scheme");
            let slot_ns = scheme.response_offset_s(id).expect("slot delay") * 1e9;
            let round_trip_ns = 2.0 * (d_m - nearest_m) / uwb_radio::SPEED_OF_LIGHT * 1e9;
            let shape = PulseShape::from_register(assignment.register, Channel::Ch7);
            (16.0 + slot_ns + round_trip_ns, nearest_m / d_m, shape)
        })
        .collect();
    repro_bench::synthesize_responses(&responses, 25.0, &mut suite_rng())
}

fn fig7_window_ns() -> f64 {
    PulseShape::from_config(&RadioConfig::default()).main_lobe_s() * 1e9
}

/// The ordered workload set for a given `campaign.fig7_tN` thread count.
fn build_workloads(threads: usize) -> Vec<Workload> {
    let mut workloads = Vec::new();

    // 16384 is the transform the Fig. 7/8 matched-filter bank and the
    // Bluestein-8128 inverse of the ×8 upsampling run.
    for (name, size, iters) in [
        ("dsp.fft_radix2_1024", 1024usize, 300u32),
        ("dsp.fft_radix2_4096", 4096, 120),
        ("dsp.fft_radix2_16384", 16384, 40),
    ] {
        let plan = FftPlan::new(size).expect("power-of-two FFT plan");
        let mut buf: Vec<Complex64> = (0..size)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        workloads.push(Workload {
            name,
            layer: "dsp",
            units: "points",
            units_per_iter: size as f64,
            default_iters: iters,
            default_warmup: 10,
            run: Box::new(move || {
                // Forward + inverse keeps the buffer bounded across
                // thousands of iterations.
                plan.forward(&mut buf);
                plan.inverse(&mut buf);
                std::hint::black_box(&buf);
            }),
        });
    }

    {
        // The real-input forward FFT (pack-two-reals): the transform the
        // RealFft backend feeds real-valued matched-filter kernels
        // through. Its work column evidences the saving — a 512-point
        // half-size transform plus N/2 untangle ops instead of the full
        // 1024-point complex butterfly count of the radix-2 row above.
        let plan = RealFftPlan::new(1024).expect("power-of-two real-FFT plan");
        let input: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut scratch = DspScratch::new();
        let mut out: Vec<Complex64> = Vec::new();
        workloads.push(Workload {
            name: "dsp.rfft_1024",
            layer: "dsp",
            units: "points",
            units_per_iter: 1024.0,
            default_iters: 300,
            default_warmup: 10,
            run: Box::new(move || {
                plan.forward_into(&input, &mut out, &mut scratch);
                std::hint::black_box(&out);
            }),
        });
    }

    {
        // 1016 is the DW1000 accumulator length — the exact size the
        // Bluestein path exists for.
        let plan = BluesteinPlan::new(1016).expect("Bluestein plan");
        let mut buf: Vec<Complex64> = (0..1016)
            .map(|i| Complex64::new((i as f64 * 0.29).cos(), (i as f64 * 0.53).sin()))
            .collect();
        workloads.push(Workload {
            name: "dsp.bluestein_1016",
            layer: "dsp",
            units: "points",
            units_per_iter: 1016.0,
            default_iters: 120,
            default_warmup: 10,
            run: Box::new(move || {
                plan.forward(&mut buf);
                plan.inverse(&mut buf);
                std::hint::black_box(&buf);
            }),
        });
    }

    {
        let pulse = PulseShape::from_config(&RadioConfig::default());
        let sampled = pulse.sample(CIR_SAMPLE_PERIOD_S);
        let filter = MatchedFilter::from_real(&sampled.samples).expect("pulse template");
        let signal: Vec<Complex64> = single_response_cir().taps().to_vec();
        let mut ctx = DspContext::new();
        let mut scores: Vec<f64> = Vec::new();
        workloads.push(Workload {
            name: "dsp.matched_filter_1016",
            layer: "dsp",
            units: "taps",
            units_per_iter: signal.len() as f64,
            default_iters: 200,
            default_warmup: 10,
            run: Box::new(move || {
                filter
                    .apply_normalized_into(&signal, &mut scores, &mut ctx)
                    .expect("matched filter on CIR-length signal");
                std::hint::black_box(&scores);
            }),
        });
    }

    {
        // CIR synthesis: ten decaying arrivals 10 ns apart rendered into
        // one reused accumulator with receiver noise, the per-round cost
        // upstream of every detector. The RNG is re-seeded each
        // iteration so every iteration draws the same noise.
        let pulse = PulseShape::from_config(&RadioConfig::default());
        let arrivals: Vec<Arrival> = (0..10usize)
            .map(|i| Arrival {
                delay_s: (50.0 + 10.0 * i as f64) * 1e-9,
                amplitude: Complex64::from_polar(1.0 / (1 + i) as f64, i as f64),
                pulse,
            })
            .collect();
        let synth = CirSynthesizer::new(Prf::Mhz64).with_noise_sigma(1e-3);
        let mut cir = Cir::zeroed(Prf::Mhz64);
        workloads.push(Workload {
            name: "channel.render_into",
            layer: "channel",
            units: "arrivals",
            units_per_iter: arrivals.len() as f64,
            default_iters: 200,
            default_warmup: 10,
            run: Box::new(move || {
                synth.render_into(&mut cir, &arrivals, &mut suite_rng());
                std::hint::black_box(&cir);
            }),
        });
    }

    {
        let detector = default_detector();
        let cir = single_response_cir();
        let mut ctx = DetectorContext::new();
        workloads.push(Workload {
            name: "detect.search_subtract_single",
            layer: "detect",
            units: "trials",
            units_per_iter: 1.0,
            default_iters: 60,
            default_warmup: 3,
            run: Box::new(move || {
                let outcome = detector.detect_with(&mut ctx, &cir, 1).expect("detection");
                std::hint::black_box(outcome);
            }),
        });
    }

    {
        let detector = default_detector();
        let cir = fig7_overlap_cir();
        let mut ctx = DetectorContext::new();
        workloads.push(Workload {
            name: "detect.search_subtract_fig7",
            layer: "detect",
            units: "trials",
            units_per_iter: 1.0,
            default_iters: 60,
            default_warmup: 3,
            run: Box::new(move || {
                let outcome = detector.detect_with(&mut ctx, &cir, 2).expect("detection");
                std::hint::black_box(outcome);
            }),
        });
    }

    {
        // The same Fig. 7 stress case on the fast real-FFT backend:
        // real-FFT kernel spectra plus overlap-save matched filtering,
        // racing the bit-identical f64 reference row above.
        let detector = default_detector();
        let cir = fig7_overlap_cir();
        let mut ctx = DetectorContext::with_backend(DspBackend::RealFft);
        workloads.push(Workload {
            name: "detect.search_subtract_fig7_rfft",
            layer: "detect",
            units: "trials",
            units_per_iter: 1.0,
            default_iters: 60,
            default_warmup: 3,
            run: Box::new(move || {
                let outcome = detector.detect_with(&mut ctx, &cir, 2).expect("detection");
                std::hint::black_box(outcome);
            }),
        });
    }

    {
        // The Fig. 8 protocol round's detection: three templates and 13
        // search-and-subtract iterations (9 responders plus the MPC
        // guard's 4 extra candidates) over the full accumulator window —
        // the per-iteration matched-filter bank cost that dominates a
        // full protocol round.
        let deployment = repro_bench::experiments::fig8::deployment();
        let cir = fig8_cir(&deployment);
        let detector = SearchSubtractDetector::from_registers(
            deployment.scheme.shapes(),
            Channel::Ch7,
            SearchSubtractConfig {
                capture_diagnostics: false,
                ..SearchSubtractConfig::default()
            },
        )
        .expect("Fig. 8 detector construction");
        let mut ctx = DetectorContext::new();
        workloads.push(Workload {
            name: "detect.search_subtract_fig8",
            layer: "detect",
            units: "trials",
            units_per_iter: 1.0,
            default_iters: 20,
            default_warmup: 2,
            run: Box::new(move || {
                let outcome = detector.detect_with(&mut ctx, &cir, 13).expect("detection");
                std::hint::black_box(outcome);
            }),
        });
    }

    {
        // The resilience hot path: search-subtract on a CIR whose taps
        // are 20 % corrupted by the fault plane. Corrupted taps replace
        // real energy with spikes up to the true peak, so the detector
        // grinds through extra candidates and subtractions — the cost
        // this row regression-gates. Detection may legitimately fail
        // here; the work, not the verdict, is what is timed.
        let detector = default_detector();
        let mut cir = fig7_overlap_cir();
        let mut injector = uwb_faults::FaultInjector::new(
            uwb_faults::FaultPlan::none()
                .with_seed(SUITE_SEED)
                .with_tap_corruption(0.2)
                .expect("valid corruption probability"),
        );
        let corrupted = uwb_channel::apply_tap_corruption(&mut cir, &mut injector, 0);
        assert!(corrupted > 0, "the corrupted workload must corrupt taps");
        let mut ctx = DetectorContext::new();
        workloads.push(Workload {
            name: "detect.search_subtract_corrupted",
            layer: "detect",
            units: "trials",
            units_per_iter: 1.0,
            default_iters: 60,
            default_warmup: 3,
            run: Box::new(move || {
                let outcome = detector.detect_with(&mut ctx, &cir, 2);
                std::hint::black_box(outcome).ok();
            }),
        });
    }

    {
        // Pulse-shape identification: score the Fig. 5 register bank
        // against a CIR rendered with the third register's shape.
        let bank = template_bank(
            &TcPgDelay::paper_figure5(),
            Channel::Ch7,
            CIR_SAMPLE_PERIOD_S,
        );
        let shape = PulseShape::from_register(TcPgDelay::paper_figure5()[2], Channel::Ch7);
        let cir = repro_bench::synthesize_responses(&[(40.0, 1.0, shape)], 25.0, &mut suite_rng());
        let signal: Vec<Complex64> = cir.taps().to_vec();
        let tau_s = 40.0e-9;
        workloads.push(Workload {
            name: "detect.shape_classify",
            layer: "detect",
            units: "classifications",
            units_per_iter: 1.0,
            default_iters: 300,
            default_warmup: 10,
            run: Box::new(move || {
                let best = bank
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i, t.score_at(&signal, tau_s)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, _)| i);
                std::hint::black_box(best);
            }),
        });
    }

    {
        // The batched-detection kernel: one `accumulate_scores` call
        // scores 64 CIR windows against the Fig. 5 register bank — the
        // inner product `detect_batch`-style classification reduces to
        // once windows are extracted.
        let taps: Vec<Complex64> = single_response_cir().taps().to_vec();
        let window = 64usize;
        let signals: Vec<Vec<Complex64>> = (0..64usize)
            .map(|i| {
                let start = (i * 13) % (taps.len() - window);
                taps[start..start + window].to_vec()
            })
            .collect();
        let templates: Vec<Vec<Complex64>> = TcPgDelay::paper_figure5()
            .iter()
            .map(|&reg| {
                PulseShape::from_register(reg, Channel::Ch7)
                    .sample(CIR_SAMPLE_PERIOD_S)
                    .samples
                    .iter()
                    .map(|&x| Complex64::from_real(x))
                    .collect()
            })
            .collect();
        let pairs = (signals.len() * templates.len()) as f64;
        let mut ctx = DspContext::new();
        let mut scores: Vec<f64> = Vec::new();
        workloads.push(Workload {
            name: "detect.batch_classify_64",
            layer: "detect",
            units: "scores",
            units_per_iter: pairs,
            default_iters: 300,
            default_warmup: 10,
            run: Box::new(move || {
                let signal_refs: Vec<&[Complex64]> = signals.iter().map(Vec::as_slice).collect();
                let template_refs: Vec<&[Complex64]> =
                    templates.iter().map(Vec::as_slice).collect();
                ctx.accumulate_scores(&signal_refs, &template_refs, &mut scores);
                std::hint::black_box(&scores);
            }),
        });
    }

    {
        let plan = SlotPlan::new(16).expect("16-slot plan");
        let spacing = uwb_radio::TX_GRANULARITY_SECONDS;
        workloads.push(Workload {
            name: "rpm.decode",
            layer: "core",
            units: "decodes",
            units_per_iter: 1024.0,
            default_iters: 200,
            default_warmup: 10,
            run: Box::new(move || {
                let mut decoded = 0usize;
                for k in 0..1024u32 {
                    let offset = f64::from(k % 16) * spacing * 0.5;
                    decoded += usize::from(plan.decode_slot(offset, 3, 4.0).is_some());
                }
                std::hint::black_box(decoded);
            }),
        });
    }

    {
        // The streaming driver: one warmed [`RangingPipeline`] kept
        // across iterations, fed a single Fig. 7 overlap round per call
        // — the steady-state cost of `feed_round` through a long-lived
        // context (render + both detector stages, no campaign fan-out).
        // The round index is fixed at the first seed-derived round that
        // actually overlaps, so the row times detection (not the
        // non-overlap early-out) and its work counters stay a pure
        // function of the suite seed.
        let program = repro_bench::experiments::fig7::OverlapProgram::paper();
        let round = (0..64u64)
            .find(|&r| {
                let mut probe = RoundContext::new();
                program
                    .run_round(&mut probe, r, &mut uwb_campaign::trial_rng(SUITE_SEED, r))
                    .overlapped
            })
            .expect("an overlapping round within the probe window");
        let mut pipeline = RangingPipeline::new(program);
        workloads.push(Workload {
            name: "pipeline.round_stream",
            layer: "pipeline",
            units: "rounds",
            units_per_iter: 1.0,
            default_iters: 60,
            default_warmup: 3,
            run: Box::new(move || {
                let outcome =
                    pipeline.feed_round(round, &mut uwb_campaign::trial_rng(SUITE_SEED, round));
                std::hint::black_box(outcome);
            }),
        });
    }

    for (name, campaign_threads, iters) in [
        ("campaign.fig7_t1", 1usize, 4u32),
        ("campaign.fig7_tN", threads, 4),
    ] {
        let window_ns = fig7_window_ns();
        workloads.push(Workload {
            name,
            layer: "campaign",
            units: "trials",
            units_per_iter: CAMPAIGN_TRIALS as f64,
            default_iters: iters,
            default_warmup: 1,
            run: Box::new(move || {
                let report = repro_bench::experiments::fig7::campaign(
                    CAMPAIGN_TRIALS,
                    SUITE_SEED,
                    window_ns,
                    0.75,
                    campaign_threads,
                );
                std::hint::black_box(report.collector);
            }),
        });
    }

    {
        // Enough rounds per iteration that scheduler jitter on this
        // microseconds-scale path averages out inside one sample.
        workloads.push(Workload {
            name: "netsim.twr_round",
            layer: "netsim",
            units: "rounds",
            units_per_iter: 50.0,
            default_iters: 40,
            default_warmup: 3,
            run: Box::new(move || {
                let distances = repro_bench::run_twr_rounds(
                    4.0,
                    50,
                    TcPgDelay::DEFAULT,
                    uwb_channel::ChannelModel::free_space(),
                    SUITE_SEED,
                );
                std::hint::black_box(distances);
            }),
        });
    }

    // The sharded world: one full capacity round — poll, N concurrent
    // responses, per-frame RPM × pulse-shape identification — through
    // the epoch-barrier engine. `capacity_cell` is the everyday cell
    // size; `step_1500` is one round at the paper's nominal capacity
    // `N_max = N_RPM · N_PS`, the city-scale stress row.
    for (name, n, iters) in [
        ("worldsim.capacity_cell", 64usize, 30u32),
        ("worldsim.step_1500", 1500, 8),
    ] {
        workloads.push(Workload {
            name,
            layer: "worldsim",
            units: "responders",
            units_per_iter: n as f64,
            default_iters: iters,
            default_warmup: 2,
            run: Box::new(move || {
                let outcome = uwb_worldsim::run_capacity(
                    &uwb_worldsim::CapacityConfig::paper(n).with_seed(SUITE_SEED),
                );
                std::hint::black_box(outcome);
            }),
        });
    }

    workloads
}

/// The fixed workload names, in suite order, for the given thread knob.
/// The CI smoke gate asserts every one of these appears in the emitted
/// JSON.
#[must_use]
pub fn workload_names() -> Vec<&'static str> {
    build_workloads(1).iter().map(|w| w.name).collect()
}

/// Serialises the profiled bracket in [`measure`]: the work profiler is
/// process-global, so two concurrent `measure` calls (parallel tests)
/// must not interleave their enable/disable windows.
fn profile_gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// The alloc probe handed to the profiler under `count-alloc`: the
/// running allocation-call total, so every profile scope carries an
/// alloc column in the flame view.
fn alloc_probe() -> u64 {
    alloc_count::snapshot().map_or(0, |snap| snap.allocs)
}

/// One profiled, untimed run: the deterministic work-counter tree for a
/// single execution of the workload (plus any configured phantom
/// inflation). Counters are a pure function of the input, so one sample
/// is exact — no statistics needed.
fn profile_once(workload: &mut Workload, config: &SuiteConfig) -> ProfileNode {
    let _gate = profile_gate().lock().unwrap_or_else(|e| e.into_inner());
    if alloc_count::enabled() {
        uwb_obs::profile::set_alloc_probe(alloc_probe);
    }
    uwb_obs::profile::enable();
    let ((), tree) = uwb_obs::profile::scoped(|| {
        (workload.run)();
        // The inflation hook lands *inside* the profiled region so a
        // nonzero `UWB_PERFWATCH_INFLATE_WORK` registers as a real work
        // regression.
        if config.inflate_work > 0 {
            uwb_obs::profile::work("test.inflated", config.inflate_work);
        }
    });
    let _ = uwb_obs::profile::disable();
    uwb_obs::profile::clear_alloc_probe();
    tree
}

/// Runs one workload under the measurement protocol, returning the row
/// plus its work-counter tree.
fn measure(workload: &mut Workload, config: &SuiteConfig) -> (WorkloadResult, ProfileNode) {
    let iters = config.iters.unwrap_or(workload.default_iters).max(1);
    let warmup = config.warmup.unwrap_or(workload.default_warmup);

    for _ in 0..warmup {
        (workload.run)();
    }

    // One allocation-bracketed, untimed run. `None` unless the crate
    // was built with `count-alloc`. Kept separate from the profiled run
    // below: building the profile tree itself allocates, which would
    // pollute the workload's own allocation count.
    let alloc_before = alloc_count::snapshot();
    (workload.run)();
    let alloc_delta = alloc_count::snapshot()
        .zip(alloc_before)
        .map(|(after, before)| after.since(before));

    let profile = profile_once(workload, config);

    let mut samples_ns: Vec<f64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let ((), ns) = measure_ns(|| {
            // The spin hook runs *inside* the timed region so a nonzero
            // `UWB_PERFWATCH_SPIN_NS` registers as a real regression.
            spin(config.spin_ns);
            (workload.run)();
        });
        samples_ns.push(ns as f64);
    }

    let median_ns = median(&samples_ns).unwrap_or(0.0);
    let mad_ns = median_abs_deviation(&samples_ns).unwrap_or(0.0);
    let min_ns = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;

    let row = WorkloadResult {
        name: workload.name.to_string(),
        layer: workload.layer.to_string(),
        iters,
        warmup,
        median_ns,
        mad_ns,
        min_ns,
        mean_ns,
        units: workload.units.to_string(),
        units_per_iter: workload.units_per_iter,
        throughput_per_s: per_second(workload.units_per_iter, median_ns.round() as u64),
        allocs_per_iter: alloc_delta.map(|d| d.allocs),
        alloc_bytes_per_iter: alloc_delta.map(|d| d.bytes),
        work_ops: Some(profile.total_work()),
    };
    (row, profile)
}

/// Runs the (optionally filtered) suite. Returns one result row per
/// workload in fixed suite order, plus the merged suite profile: each
/// workload's work-counter tree grafted under a scope named after the
/// workload, ready for `ProfileNode::collapsed` / `uwb-trace flame`.
/// `progress` receives each workload name just before it runs (the CLI
/// prints it; tests pass a no-op).
pub fn run_suite(
    config: &SuiteConfig,
    mut progress: impl FnMut(&str),
) -> (Vec<WorkloadResult>, ProfileNode) {
    let mut suite_profile = ProfileNode::default();
    let rows = build_workloads(config.threads)
        .iter_mut()
        .filter(|w| {
            config.filter.as_deref().is_none_or(|needles| {
                needles
                    .split(',')
                    .any(|needle| w.name.contains(needle.trim()))
            })
        })
        .map(|w| {
            progress(w.name);
            let (row, profile) = measure(w, config);
            let slot = suite_profile.children.entry(w.name).or_default();
            slot.calls += 1;
            slot.merge_from(&profile);
            row
        })
        .collect();
    (rows, suite_profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_fixed_and_cover_the_pipeline() {
        let names = workload_names();
        assert!(names.len() >= 8, "suite shrank: {names:?}");
        for prefix in [
            "dsp.",
            "detect.",
            "rpm.",
            "pipeline.",
            "campaign.",
            "netsim.",
            "worldsim.",
        ] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no workload for layer {prefix}"
            );
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate workload names");
    }

    #[test]
    fn spin_hook_burns_at_least_the_requested_time() {
        let ((), ns) = measure_ns(|| spin(200_000));
        assert!(ns >= 200_000, "spin undershot: {ns} ns");
    }

    #[test]
    fn filtered_suite_runs_only_matching_workloads() {
        let config = SuiteConfig {
            iters: Some(1),
            warmup: Some(0),
            filter: Some("rpm.".to_string()),
            ..SuiteConfig::default()
        };
        let mut seen = Vec::new();
        let (results, profile) = run_suite(&config, |name| seen.push(name.to_string()));
        assert_eq!(seen, vec!["rpm.decode".to_string()]);
        assert_eq!(results.len(), 1);
        let row = &results[0];
        assert_eq!(row.name, "rpm.decode");
        assert_eq!(row.iters, 1);
        assert!(row.median_ns > 0.0);
        assert!(row.throughput_per_s > 0.0);
        // Allocation columns appear exactly when the counting allocator
        // was compiled in (`count-alloc` — the baseline-regeneration
        // configuration).
        assert_eq!(row.allocs_per_iter.is_some(), crate::alloc_count::enabled());
        // The work column is always populated: 1024 slot decodes per
        // iteration, each counting one `rpm.decode` op.
        assert_eq!(row.work_ops, Some(1024));
        // The suite profile grafts the tree under the workload name.
        let scope = profile.children.get("rpm.decode").expect("grafted scope");
        assert_eq!(scope.work.get("rpm.decode").copied(), Some(1024));
        assert!(profile
            .collapsed()
            .contains("rpm.decode;work:rpm.decode 1024\n"));
    }

    #[test]
    fn work_counts_are_exact_across_repeat_runs() {
        let config = SuiteConfig {
            iters: Some(1),
            warmup: Some(0),
            filter: Some("dsp.fft_radix2_1024".to_string()),
            ..SuiteConfig::default()
        };
        let (a, _) = run_suite(&config, |_| {});
        let (b, _) = run_suite(&config, |_| {});
        // Forward + inverse 1024-point FFT: 2 · (1024/2)·log2(1024)
        // butterflies, a pure function of the input.
        assert_eq!(a[0].work_ops, Some(2 * 512 * 10));
        assert_eq!(a[0].work_ops, b[0].work_ops);
    }

    /// FNV-1a over the IEEE-754 bits of `values`, in order.
    fn bits_digest(values: impl IntoIterator<Item = f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// The scalar f64 reference on the `detect.search_subtract_fig8`
    /// accumulator, pinned bit for bit: the ×8 upsampled CIR, the
    /// first-iteration matched-filter bank of the three Fig. 8 templates,
    /// and the full 13-iteration detection. The digests were recorded
    /// from the swap-then-butterfly radix-2 kernel, before the bit
    /// reversal moved into the copies that feed each transform.
    #[test]
    fn fig8_bank_and_detection_bits_are_pinned() {
        let deployment = repro_bench::experiments::fig8::deployment();
        let cir = fig8_cir(&deployment);
        let mut ctx = DspContext::new();
        let mut up = Vec::new();
        ctx.upsample_into(cir.taps(), 8, &mut up).expect("upsample");
        let templates = template_bank(
            deployment.scheme.shapes(),
            Channel::Ch7,
            CIR_SAMPLE_PERIOD_S / 8.0,
        );
        let mut mags = Vec::new();
        ctx.matched_filter_bank_mags_into(&templates, &up, &mut mags)
            .expect("bank");
        let detector = SearchSubtractDetector::from_registers(
            deployment.scheme.shapes(),
            Channel::Ch7,
            SearchSubtractConfig {
                capture_diagnostics: false,
                ..SearchSubtractConfig::default()
            },
        )
        .expect("Fig. 8 detector");
        let outcome = detector
            .detect_with(&mut DetectorContext::new(), &cir, 13)
            .expect("detection");
        assert_eq!(outcome.responses.len(), 13);
        let detected = outcome.responses.iter().flat_map(|r| {
            [
                r.tau_s,
                r.amplitude.re,
                r.amplitude.im,
                r.shape_index as f64,
            ]
            .into_iter()
            .chain(r.shape_scores.as_slice().iter().copied())
        });
        let actual = [
            bits_digest(up.iter().flat_map(|z| [z.re, z.im])),
            bits_digest(mags.iter().flatten().copied()),
            bits_digest(detected),
        ];
        assert_eq!(
            actual,
            [0xe82f8df75a1f5c78, 0x6c07068ec24e60d4, 0xc1bcc5cd10277e83],
            "{actual:#018x?}"
        );
    }

    #[test]
    fn rfft_row_does_half_the_butterfly_work_of_the_complex_row() {
        let config = SuiteConfig {
            iters: Some(1),
            warmup: Some(0),
            filter: Some("dsp.rfft_1024".to_string()),
            ..SuiteConfig::default()
        };
        let (rows, profile) = run_suite(&config, |_| {});
        // One forward real FFT of N = 1024: a 512-point half-size
        // transform ((512/2)·log2(512) butterflies) plus N/2 untangle
        // ops — well under the 5120 butterflies of one 1024-point
        // complex transform.
        assert_eq!(rows[0].work_ops, Some(256 * 9 + 512));
        let scope = profile.children.get("dsp.rfft_1024").expect("scope");
        assert_eq!(scope.work.get("rfft.untangle").copied(), Some(512));
    }

    #[test]
    fn batch_classify_row_counts_score_macs() {
        let config = SuiteConfig {
            iters: Some(1),
            warmup: Some(0),
            filter: Some("detect.batch_classify_64".to_string()),
            ..SuiteConfig::default()
        };
        let (rows, profile) = run_suite(&config, |_| {});
        let scope = profile
            .children
            .get("detect.batch_classify_64")
            .expect("scope");
        let macs = scope.work.get("score.mac").copied().expect("score.mac");
        // 64 windows × the Fig. 5 bank; each pair's inner product runs
        // over the shorter of window and template, so the per-signal MAC
        // total is identical across the 64 windows.
        assert_eq!(macs % 64, 0, "macs {macs}");
        assert!(macs > 0);
        assert_eq!(rows[0].work_ops, Some(macs));
    }

    #[test]
    fn inflate_work_hook_raises_work_ops_without_touching_kernels() {
        let honest = SuiteConfig {
            iters: Some(1),
            warmup: Some(0),
            filter: Some("rpm.decode".to_string()),
            ..SuiteConfig::default()
        };
        let inflated = SuiteConfig {
            inflate_work: 5_000,
            ..honest.clone()
        };
        let (a, _) = run_suite(&honest, |_| {});
        let (b, profile) = run_suite(&inflated, |_| {});
        assert_eq!(a[0].work_ops, Some(1024));
        assert_eq!(b[0].work_ops, Some(1024 + 5_000));
        // The phantom ops are attributed to a dedicated kind, not to
        // any real kernel counter.
        let scope = profile.children.get("rpm.decode").expect("grafted scope");
        assert_eq!(scope.work.get("test.inflated").copied(), Some(5_000));
        assert_eq!(scope.work.get("rpm.decode").copied(), Some(1024));
    }

    #[test]
    fn filter_accepts_comma_separated_needles() {
        let config = SuiteConfig {
            iters: Some(1),
            warmup: Some(0),
            filter: Some("rpm., dsp.fft_radix2_1024".to_string()),
            ..SuiteConfig::default()
        };
        let mut seen = Vec::new();
        run_suite(&config, |name| seen.push(name.to_string()));
        assert_eq!(
            seen,
            vec!["dsp.fft_radix2_1024".to_string(), "rpm.decode".to_string()]
        );
    }

    #[test]
    fn spin_config_slows_a_cheap_workload_measurably() {
        let fast = SuiteConfig {
            iters: Some(3),
            warmup: Some(0),
            filter: Some("rpm.decode".to_string()),
            ..SuiteConfig::default()
        };
        let slow = SuiteConfig {
            spin_ns: 2_000_000,
            ..fast.clone()
        };
        let fast_ns = run_suite(&fast, |_| {}).0[0].median_ns;
        let slow_ns = run_suite(&slow, |_| {}).0[0].median_ns;
        assert!(
            slow_ns >= fast_ns + 1_500_000.0,
            "spin hook did not register: fast {fast_ns} ns, slow {slow_ns} ns"
        );
    }
}
