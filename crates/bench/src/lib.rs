//! # repro-bench — the experiment harness
//!
//! Regenerates every table and figure of the ICDCS 2018 concurrent-ranging
//! paper (plus ablations) on top of the simulated DW1000 stack. Each
//! experiment lives in [`experiments`] and is exposed both as a library
//! function (used by the integration tests) and as a binary
//! (`cargo run --release -p repro-bench --bin exp_…`).
//!
//! Set `REPRO_TRIALS` to override per-cell trial counts for full
//! paper-scale runs. The Monte-Carlo experiments run on the
//! [`uwb_campaign`] engine: pass `--threads N` (or set
//! `UWB_CAMPAIGN_THREADS`) to pick the worker count — results are
//! bit-identical for any value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod scenarios;
mod table;

pub use scenarios::{rng, run_twr_rounds, synthesize_responses, tx_grid_offset_ns, Deployment};
pub use table::{fmt_f, sparkline, trials_from_env, Table};

use std::path::PathBuf;

/// The usage line of an experiment binary taking the shared flags, plus
/// `extra_flags` (e.g. `"[--stream] "`) ahead of them. The backend
/// labels come from [`uwb_dsp::DspBackend::ALL`], so the line offers
/// exactly the backends that exist.
#[must_use]
pub fn usage_line(bin: &str, extra_flags: &str) -> String {
    let labels = uwb_dsp::DspBackend::ALL.map(uwb_dsp::DspBackend::label);
    format!(
        "usage: {bin} {extra_flags}[--threads N] [--dsp-backend {}] \
         [--trace-out[=PATH]] [--profile[=PATH]]",
        labels.join("|")
    )
}

/// The shared experiment CLI: the `--threads N` worker knob, the DSP
/// backend selector (`--dsp-backend LABEL`, or the `UWB_DSP_BACKEND`
/// environment variable), plus the observability knobs
/// (`--trace-out[=PATH]`, `UWB_TRACE`, `UWB_FLIGHT_QUOTA`) and the
/// work-accounting profiler (`--profile[=PATH]`, `UWB_PROFILE`), wired
/// identically through every experiment binary.
///
/// Construct with [`ExpHarness::init`] at the top of `main` and call
/// [`ExpHarness::finish`] before exiting so the trace sink is flushed
/// and the per-stage latency table lands on stderr.
#[derive(Debug)]
pub struct ExpHarness {
    /// Campaign worker count (0 = automatic); ignored by experiments
    /// that do not run on the campaign engine.
    pub threads: usize,
    /// The DSP backend detection contexts will dispatch to (from
    /// `--dsp-backend`, `UWB_DSP_BACKEND`, or the f64 default).
    pub dsp_backend: uwb_dsp::DspBackend,
    trace_path: Option<PathBuf>,
    profile_path: Option<PathBuf>,
}

impl ExpHarness {
    /// Parses this process's arguments, exiting with a usage message on
    /// malformed or unrecognised flags, and installs the observability
    /// recorder when tracing is requested (the `--trace-out` flag, or
    /// the `UWB_TRACE` environment variable). A bare `--trace-out` (or
    /// `UWB_TRACE=1`) writes the default path
    /// `results/traces/<name>.jsonl`; `--trace-out=PATH` picks the file.
    #[must_use]
    pub fn init(name: &str) -> Self {
        match Self::init_with(name, std::env::args().skip(1)) {
            Ok((harness, leftover)) => {
                if !leftover.is_empty() {
                    eprintln!(
                        "unrecognised arguments: {leftover:?}\n{}",
                        usage_line(name, "")
                    );
                    std::process::exit(2);
                }
                harness
            }
            Err(msg) => {
                eprintln!("{msg}\n{}", usage_line(name, ""));
                std::process::exit(2);
            }
        }
    }

    /// Parses the shared observability knobs out of `args` and installs
    /// the recorder when tracing is requested, returning the harness
    /// together with the arguments it did not recognise. Suites that
    /// layer their own CLI on top of the shared flags (the `perfwatch`
    /// binary) call this and parse the leftovers themselves;
    /// [`ExpHarness::init`] treats any leftover as an error.
    ///
    /// # Errors
    ///
    /// Returns a message for a malformed `--threads` value or an
    /// unopenable trace output path.
    pub fn init_with(
        name: &str,
        args: impl Iterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let (threads, rest) = uwb_campaign::parse_threads_arg(args)?;
        let mut trace_opt: Option<String> = None;
        let mut profile_opt: Option<String> = None;
        let mut backend_opt: Option<String> = None;
        let mut leftover: Vec<String> = Vec::new();
        let mut rest = rest.into_iter();
        while let Some(arg) = rest.next() {
            if arg == "--trace-out" {
                trace_opt = Some(String::new());
            } else if let Some(path) = arg.strip_prefix("--trace-out=") {
                trace_opt = Some(path.to_string());
            } else if arg == "--profile" {
                profile_opt = Some(String::new());
            } else if let Some(path) = arg.strip_prefix("--profile=") {
                profile_opt = Some(path.to_string());
            } else if arg == "--dsp-backend" {
                backend_opt = Some(rest.next().ok_or("--dsp-backend needs a value")?);
            } else if let Some(label) = arg.strip_prefix("--dsp-backend=") {
                backend_opt = Some(label.to_string());
            } else {
                leftover.push(arg);
            }
        }
        let dsp_backend = match &backend_opt {
            Some(label) => uwb_dsp::DspBackend::parse(label).ok_or_else(|| {
                let labels = uwb_dsp::DspBackend::ALL.map(uwb_dsp::DspBackend::label);
                format!("unknown DSP backend {label:?} ({})", labels.join(", "))
            })?,
            None => uwb_dsp::DspBackend::from_env(),
        };
        if backend_opt.is_some() {
            // Publish the selection through the shared environment knob so
            // every DetectorContext::new() — including those built inside
            // campaign workers — dispatches to it. Set before any worker
            // thread exists (we are at the top of main).
            std::env::set_var(uwb_dsp::BACKEND_ENV_VAR, dsp_backend.label());
        }
        let trace_path = uwb_obs::init_from_env(trace_opt.as_deref(), name)
            .map_err(|err| format!("cannot open trace output: {err}"))?;
        let profile_path = resolve_profile_path(profile_opt.as_deref(), name);
        if profile_path.is_some() {
            uwb_obs::profile::enable();
        }
        Ok((
            Self {
                threads,
                dsp_backend,
                trace_path,
                profile_path,
            },
            leftover,
        ))
    }

    /// Flushes the trace sink and reports the per-stage latency table,
    /// the counter summary, and the trace location on stderr. When
    /// profiling was requested, also writes the merged work-counter tree
    /// as collapsed-stack text (flamegraph.pl-compatible; render with
    /// `uwb-trace flame`). No-op when neither is enabled.
    pub fn finish(&self) {
        if let Some(path) = &self.profile_path {
            let tree = uwb_obs::profile::disable();
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(path, tree.collapsed()) {
                Ok(()) => eprintln!(
                    "profile: {} work ops across {} top-level scopes -> {}",
                    tree.total_work(),
                    tree.children.len(),
                    path.display()
                ),
                Err(err) => eprintln!("cannot write profile to {}: {err}", path.display()),
            }
        }
        if !uwb_obs::enabled() {
            return;
        }
        uwb_obs::flush();
        let metrics = uwb_obs::metrics_snapshot();
        let table = metrics.latency_table();
        if !table.is_empty() {
            eprintln!("\nper-stage latency:\n{table}");
        }
        let counters: Vec<(String, u64)> = metrics
            .counters()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        if !counters.is_empty() {
            eprintln!("counters:");
            for (name, v) in counters {
                eprintln!("  {name} = {v}");
            }
        }
        if let Some(path) = &self.trace_path {
            eprintln!("trace written to {}", path.display());
        }
    }
}

/// Resolves the profiler output path from the `--profile` flag (`cli`,
/// empty string = flag without a value) or the `UWB_PROFILE` variable:
/// `0`/`false` disable, an empty value or `1`/`true` select the default
/// `results/profiles/<name>.collapsed`, anything else is the path —
/// the `UWB_TRACE` resolution contract.
fn resolve_profile_path(cli: Option<&str>, name: &str) -> Option<PathBuf> {
    let raw = match cli {
        Some(value) => value.to_string(),
        None => std::env::var("UWB_PROFILE").ok()?,
    };
    match raw.trim() {
        "0" | "false" => None,
        "" | "1" | "true" => Some(
            uwb_obs::results_dir()
                .join("profiles")
                .join(format!("{name}.collapsed")),
        ),
        path => Some(PathBuf::from(path)),
    }
}

/// Parses the shared `--threads N` knob from this process's arguments
/// (0 = automatic), exiting with a usage message on a malformed flag.
/// Retained for callers that need only the worker count; experiment
/// binaries use [`ExpHarness::init`], which also wires the tracing
/// knobs.
#[must_use]
pub fn threads_from_args() -> usize {
    match uwb_campaign::parse_threads_arg(std::env::args().skip(1)) {
        Ok((threads, rest)) if rest.is_empty() => threads,
        Ok((_, rest)) => {
            eprintln!(
                "unrecognised arguments: {rest:?}\n{}",
                usage_line("exp_…", "")
            );
            std::process::exit(2);
        }
        Err(msg) => {
            eprintln!("{msg}\n{}", usage_line("exp_…", ""));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_and_backend_errors_offer_exactly_the_existing_backends() {
        let usage = usage_line("exp_fig7_overlap", "[--stream] ");
        assert!(
            usage.starts_with("usage: exp_fig7_overlap [--stream] [--threads N]"),
            "{usage}"
        );
        assert!(usage.contains("[--dsp-backend f64|rfft]"), "{usage}");
        let args = ["--dsp-backend", "f32"].map(String::from);
        let err = ExpHarness::init_with("exp_test", args.into_iter()).unwrap_err();
        assert_eq!(err, "unknown DSP backend \"f32\" (f64, rfft)");
    }
}
