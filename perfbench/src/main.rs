//! The end-to-end ranging benchmark binary. One invocation runs one
//! workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! `--trace 0` repeats passes over the workload's fixed quality set of
//! rounds for `--seconds`, with set-ups timed between the rounds, checks
//! that every pass produces the same outputs, and reports the end-to-end
//! metrics: the set-up time, peak memory and the paper's quality figures.
//! `--trace 1` runs the quality set twice on fresh set-ups, untraced and
//! then with the program's `uwb_obs` metrics and work profiler on,
//! checks that both produced the same outputs, and reports the per-layer
//! metrics, among them the host time per round of the untraced pass.
//! `--quick` shrinks every size for the benchmark's own tests.
//!
//! The last stdout line is one JSON object; `run.py` checks it against
//! `BENCHMARK.json` and `spec.json` and prints the final result line.

mod capacity;
mod fig7;
mod fig8;
mod measure;

use std::process::ExitCode;
use std::time::Instant;

use capacity::{Capacity, WorldCounters};
use fig7::Fig7;
use fig8::Fig8;
use measure::{ns_since, quantile, Pass};

/// One workload: set-up happens in the constructor, `step` runs the
/// `unit`-th unit of work (a trial batch, a round, a world).
pub trait Workload {
    fn step(&mut self, unit: u64, pass: &mut Pass);

    /// Checks and quality figures computed once after the untraced
    /// quality pass, outside every timed region.
    fn check(&mut self, _pass: &mut Pass, _errors: &mut Vec<String>) {}

    /// Worldsim counters summed over the worlds run so far.
    fn world(&self) -> WorldCounters {
        WorldCounters::default()
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Fig7,
    Fig8,
    Capacity,
}

/// Sizes of one workload, as recorded in `spec.json`.
struct Sizes {
    name: &'static str,
    kind: Kind,
    /// Units in the quality set: the rounds every quality figure and
    /// the traced run come from.
    quality_units: u64,
    /// Responders per cell.
    responders: usize,
    cells: usize,
    /// Trials per batch (Fig. 7), or rounds per initiator per world
    /// (capacity).
    rounds_per_unit: u32,
    /// Units between two timed set-ups in a `--trace 0` pass: set-ups
    /// are spread through the whole run and take a sixth to a third of it.
    setup_stride: u64,
}

const WORKLOADS: [Sizes; 4] = [
    Sizes {
        name: "fig7_overlap",
        kind: Kind::Fig7,
        quality_units: 128,
        responders: 2,
        cells: 1,
        rounds_per_unit: 8,
        setup_stride: 4,
    },
    Sizes {
        name: "fig8_engine",
        kind: Kind::Fig8,
        quality_units: 64,
        responders: 9,
        cells: 1,
        rounds_per_unit: 1,
        setup_stride: 2,
    },
    Sizes {
        name: "capacity_1500",
        kind: Kind::Capacity,
        quality_units: 100,
        responders: 1500,
        cells: 1,
        rounds_per_unit: 4,
        setup_stride: 1,
    },
    Sizes {
        // Eight cells in a row average the per-world interference
        // geometry: per-world time varies less than with four cells of
        // 256, so fewer worlds give a steady mean.
        name: "capacity_contested",
        kind: Kind::Capacity,
        quality_units: 64,
        responders: 128,
        cells: 8,
        rounds_per_unit: 3,
        setup_stride: 1,
    },
];

/// Passes over the quality set in a `--trace 0` run, at least.
const MIN_PASSES: u64 = 2;

/// Seed of the timed set-ups, so that they do the same work at every
/// `--seed`: the Fig. 8 set-up runs a warm-up round drawn from its seed.
const SETUP_SEED: u64 = 0;

/// `setup_s` is the median of the means of this many interleaved groups
/// of a run's set-up samples.
const SETUP_GROUPS: usize = 5;

/// Tolerance of the attribution check, as a share of the round total.
const ATTRIBUTION_TOL: f64 = 0.02;

struct Args {
    workload: &'static Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut quick = false;
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
    })
}

impl Args {
    fn setup(&self, seed: u64) -> Box<dyn Workload> {
        let w = self.workload;
        match w.kind {
            Kind::Fig7 => Box::new(Fig7::setup(seed, w.rounds_per_unit.into())),
            Kind::Fig8 => Box::new(Fig8::setup(seed, w.responders as u32)),
            Kind::Capacity => Box::new(Capacity::setup(
                seed,
                (w.responders, w.cells, w.rounds_per_unit),
            )),
        }
    }

    fn quality_units(&self) -> u64 {
        if self.quick {
            1
        } else {
            self.workload.quality_units
        }
    }
}

fn run_units(w: &mut dyn Workload, units: std::ops::Range<u64>, pass: &mut Pass) {
    for unit in units {
        w.step(unit, pass);
    }
}

/// Metric name, unit, value.
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// What a run reports besides its metrics.
struct Outcome {
    /// The quality-set pass the quality figures come from.
    quality: Pass,
    /// Rounds attempted and operations failed over the whole run.
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn end_to_end(args: &Args, errors: &mut Vec<String>) -> Outcome {
    // Passes over the quality set repeat until the run time is spent.
    // Each pass runs on a fresh set-up; further set-ups, built and
    // dropped, are timed between its units, so the set-up samples spread
    // evenly over the whole run. Every pass must reproduce the first
    // one's outputs; the first pass's workload is checked and dropped at
    // once, so at most two set-ups are alive at any time.
    let k = args.quality_units();
    let stride = args.workload.setup_stride;
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let setup_start = Instant::now();
        let w = args.setup(SETUP_SEED);
        setup_s.push(ns_since(setup_start) as f64 * 1e-9);
        w
    };
    let mut quality: Option<Pass> = None;
    let (mut passes, mut attempted, mut failed) = (0u64, 0, 0);
    let mut longest_pass_s: f64 = 0.0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() + longest_pass_s <= args.seconds {
        let pass_start = Instant::now();
        let mut w = args.setup(args.seed);
        let mut pass = Pass::default();
        for unit in 0..k {
            if unit % stride == 0 {
                drop(timed_setup());
            }
            w.step(unit, &mut pass);
        }
        longest_pass_s = longest_pass_s.max(pass_start.elapsed().as_secs_f64());
        attempted += pass.rounds;
        failed += pass.failed;
        passes += 1;
        eprintln!(
            "{}: pass {passes}: {} rounds in {:.3} s of program calls",
            args.workload.name,
            pass.rounds,
            pass.busy_ns as f64 * 1e-9
        );
        match &quality {
            None => {
                w.check(&mut pass, errors);
                quality = Some(pass);
            }
            Some(first) if pass.digest() != first.digest() => {
                errors.push(format!("pass {passes} produced different outputs"));
            }
            Some(_) => {}
        }
    }
    let quality = quality.expect("at least one pass");
    let setup = measure::median_of_means(&setup_s, SETUP_GROUPS);
    eprintln!(
        "{}: setup_s {setup:.6} from {} samples (p10 {:.6}, p50 {:.6}, p90 {:.6})",
        args.workload.name,
        setup_s.len(),
        quantile(&setup_s, 0.1),
        quantile(&setup_s, 0.5),
        quantile(&setup_s, 0.9),
    );
    let metrics = vec![
        ("setup_s", "s", setup),
        ("peak_rss_mb", "MiB", measure::peak_rss_mb()),
        ("resolved_pct", "%", quality.resolved_pct()),
        ("range_err_m", "m", quality.range_err_m()),
        ("round_ok_pct", "%", quality.round_ok_pct()),
    ];
    Outcome {
        quality,
        attempted,
        failed,
        metrics,
    }
}

fn per_layer(args: &Args, errors: &mut Vec<String>) -> Outcome {
    let name = args.workload.name;
    let k = args.quality_units();
    let mut w = args.setup(args.seed);
    let mut plain = Pass::default();
    let (allocs0, bytes0) = measure::allocs();
    run_units(w.as_mut(), 0..k, &mut plain);
    let (allocs1, bytes1) = measure::allocs();
    w.check(&mut plain, errors);
    drop(w);

    let mut w = args.setup(args.seed);
    let mut traced = Pass::default();
    let ((), trace) = measure::traced(|| run_units(w.as_mut(), 0..k, &mut traced));
    if traced.digest() != plain.digest() {
        errors.push(format!(
            "{name}: traced outputs {:?} differ from untraced outputs {:?}",
            traced.digest(),
            plain.digest()
        ));
    }

    let rounds = traced.rounds.max(1) as f64;
    let per_round = |x: u64| x as f64 / rounds;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let (render_calls, render_ns) = trace.latency("channel.render");
    let (_, detect_ns) = trace.latency("detect");
    let (_, trial_hist_ns) = trace.latency("campaign.trial");
    let detect_calls = trace.counter("detect.calls");
    let iterations = trace.counter("detect.iterations");
    let total_work = trace.profile.total_work();
    let busy = traced.busy_ns as f64;
    let world = w.world();

    // Attribution: the named layers plus the remaining self time must
    // add up to the round total the benchmark measured around its calls.
    let mut parts = vec![("render", render_ns as f64), ("detect", detect_ns as f64)];
    let (mut campaign, mut netsim_self_ms) = ((0.0, 0.0, 0.0), 0.0);
    match args.workload.kind {
        Kind::Fig7 => {
            // Campaign dispatch comes from the program's per-trial span,
            // trial self time from the benchmark's own per-trial span:
            // two clocks around the same trials.
            let overhead = busy - trial_hist_ns as f64;
            let trial_self = traced.closure_ns as f64 - render_ns as f64 - detect_ns as f64;
            parts.extend([("campaign overhead", overhead), ("trial self", trial_self)]);
            campaign = (
                secs(traced.busy_ns),
                secs(trial_hist_ns),
                100.0 * overhead / busy,
            );
        }
        Kind::Fig8 => {
            let netsim_self = busy - render_ns as f64 - detect_ns as f64;
            parts.push(("netsim self", netsim_self));
            netsim_self_ms = netsim_self * 1e-6 / rounds;
            for (what, count) in [
                ("channel.render", render_calls),
                ("detect.calls", detect_calls),
            ] {
                if count != traced.rounds {
                    errors.push(format!("{name}: {what} = {count}, expected one per round"));
                }
            }
        }
        Kind::Capacity => {
            if detect_calls != 0 || render_calls != 0 {
                errors.push(format!(
                    "{name}: the timing-only capacity path rendered {render_calls} CIRs \
                     and ran {detect_calls} detections"
                ));
            }
            // The engine's own epoch clock against the benchmark's clock
            // around each run_capacity call.
            let epochs = world.wall_ns as f64;
            parts.extend([
                ("worldsim epochs", epochs),
                ("world build and merge", busy - epochs),
            ]);
        }
    }
    let gap_pct = 100.0 * (parts.iter().map(|p| p.1).sum::<f64>() - busy) / busy;
    if gap_pct.abs() > 100.0 * ATTRIBUTION_TOL {
        errors.push(format!(
            "{name}: layer attribution misses the round total by {gap_pct:.2} %"
        ));
    }
    for (part, ns) in &parts {
        if *ns < -ATTRIBUTION_TOL * busy {
            errors.push(format!(
                "{name}: attributed {part} time is negative ({ns} ns)"
            ));
        }
    }

    if world.evicted != 0 {
        errors.push(format!(
            "{name}: {} epoch records were evicted",
            world.evicted
        ));
    }
    let plain_rounds = plain.rounds.max(1) as f64;
    let round_ms: Vec<f64> = (plain.units.iter())
        .map(|&(ns, r)| ns as f64 * 1e-6 / r.max(1) as f64)
        .collect();
    let trace_overhead_pct =
        100.0 * ((busy / rounds) / (plain.busy_ns as f64 / plain_rounds) - 1.0);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let metrics = vec![
        ("campaign.busy_s", "s", campaign.0),
        ("campaign.trial_busy_s", "s", campaign.1),
        ("campaign.overhead_pct", "%", campaign.2),
        ("channel.render_calls", "count", render_calls as f64),
        ("channel.render_busy_s", "s", secs(render_ns)),
        ("detect.calls", "count", detect_calls as f64),
        ("detect.busy_s", "s", secs(detect_ns)),
        (
            "detect.iterations_per_round",
            "count",
            per_round(iterations),
        ),
        (
            "detect.useful_ratio",
            "ratio",
            ratio(traced.resolved_responses, iterations),
        ),
        ("dsp.work_ops_per_round", "count", per_round(total_work)),
        (
            "dsp.fft_butterfly_per_round",
            "count",
            per_round(trace.work("fft.butterfly")),
        ),
        (
            "dsp.template_eval_per_round",
            "count",
            per_round(trace.work("template.eval")),
        ),
        (
            "dsp.conv_mac_per_round",
            "count",
            per_round(trace.work("conv.mac")),
        ),
        (
            "dsp.unattributed_pct",
            "%",
            100.0 * ratio(trace.profile.self_work(), total_work),
        ),
        (
            "pipeline.rpm_decodes_per_round",
            "count",
            per_round(trace.counter("rpm.decodes")),
        ),
        (
            "pipeline.guard_violations",
            "count",
            trace.counter("rpm.guard_violations") as f64,
        ),
        ("netsim.self_ms_per_round", "ms", netsim_self_ms),
        ("worldsim.busy_s", "s", secs(world.wall_ns)),
        ("worldsim.events", "count", world.events as f64),
        ("worldsim.deliveries", "count", world.deliveries as f64),
        ("worldsim.cross_in", "count", world.cross_in as f64),
        ("worldsim.queue_hwm", "count", world.queue_hwm as f64),
        ("worldsim.epochs", "count", world.epochs as f64),
        ("worldsim.deferrals", "count", world.deferrals as f64),
        (
            "worldsim.ns_per_event",
            "ns",
            ratio(world.wall_ns, world.events),
        ),
        (
            "worldsim.interference_frames",
            "count",
            world.interference_frames as f64,
        ),
        (
            "alloc.per_round",
            "count",
            (allocs1 - allocs0) as f64 / plain_rounds,
        ),
        (
            "alloc.bytes_per_round",
            "B",
            (bytes1 - bytes0) as f64 / plain_rounds,
        ),
        (
            "host.rounds_per_s",
            "1/s",
            plain_rounds / secs(plain.busy_ns),
        ),
        ("host.round_ms_p50", "ms", quantile(&round_ms, 0.5)),
        ("host.round_ms_p90", "ms", quantile(&round_ms, 0.9)),
        ("obs.trace_overhead_pct", "%", trace_overhead_pct),
        ("attribution.gap_pct", "%", gap_pct.abs()),
    ];
    Outcome {
        attempted: plain.rounds + traced.rounds,
        failed: plain.failed + traced.failed,
        quality: plain,
        metrics,
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = Vec::new();
    uwb_obs::write_json_string(&mut out, s).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("escaped JSON is UTF-8")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: perfbench --workload <name> --seed <n> --seconds <s> \
                 --trace <0|1> [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    let ref_before = measure::ref_kernel_ns();
    let mut errors = Vec::new();
    let mut run = if args.trace {
        per_layer(&args, &mut errors)
    } else {
        end_to_end(&args, &mut errors)
    };
    let ref_ns = ref_before.min(measure::ref_kernel_ns());
    eprintln!("host.ref_kernel_ns = {ref_ns} (best of 10, before and after the workload)");
    if args.trace {
        run.metrics
            .push(("host.ref_kernel_ns", "ns", ref_ns as f64));
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }

    let body: Vec<String> = (run.metrics.iter())
        .map(|(name, unit, value)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(*value)
            )
        })
        .collect();
    let w = args.workload;
    let errors: Vec<String> = errors.iter().map(|e| json_string(e)).collect();
    println!(
        concat!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}, "#,
            r#""quality": {{"resolved_pct": {}, "range_err_m": {}, "round_ok_pct": {}}}, "#,
            r#""sizes": {{"quality_units": {}, "responders": {}, "cells": {}, "#,
            r#""rounds_per_unit": {}}}, "quick": {}, "errors": [{}]}}"#
        ),
        errors.is_empty(),
        run.attempted.max(1),
        run.failed,
        body.join(", "),
        json_number(run.quality.resolved_pct()),
        json_number(run.quality.range_err_m()),
        json_number(run.quality.round_ok_pct()),
        args.quality_units(),
        w.responders,
        w.cells,
        w.rounds_per_unit,
        args.quick,
        errors.join(", "),
    );
    ExitCode::SUCCESS
}
