//! # uwb-obs — observability for the concurrent-ranging workspace
//!
//! A hand-rolled, dependency-free (std only) observability layer with
//! four pillars:
//!
//! 1. **Structured tracing** ([`trace`], [`recorder::event`]): pipeline
//!    stages emit timestamped [`Event`]s with named [`Value`] fields
//!    into a pluggable [`TraceSink`] — a [`JsonlSink`] for post-mortem
//!    files under `results/traces/`, a [`RingSink`] for tests, or
//!    nothing at all. When no recorder is installed (the default),
//!    every instrumentation site reduces to one relaxed atomic load.
//! 2. **Metrics** ([`metrics`]): named counters, gauges, and fixed-bin
//!    latency histograms with a scope timer ([`timed`]). Campaign
//!    workers capture metrics per chunk ([`scoped_metrics`]) and the
//!    engine merges them in chunk order, preserving the workspace's
//!    bit-identical-at-any-thread-count guarantee; [`latency_table`]
//!    renders the per-stage summary at campaign end.
//! 3. **CIR flight recorder** ([`flight`], [`flight_record`]): on
//!    anomalous outcomes (misdetection, misclassification, RPM guard
//!    violation) the pipeline dumps an annotated [`CirSnapshot`] — raw
//!    taps, detected peaks, truth positions — as a JSONL record,
//!    bounded by a per-run quota (`UWB_FLIGHT_QUOTA`).
//! 4. **Work-accounting profiler** ([`profile`]): a hierarchical scope
//!    tree whose primary currency is deterministic operation counts
//!    (FFT butterflies, complex MACs, template evaluations, worldsim
//!    events) rather than wall-clock time. Captured per work unit,
//!    merged chunk-ordered like the metrics registry, exported as
//!    collapsed-stack text for `uwb-trace flame`.
//!
//! ## Knobs
//!
//! | Knob | Effect |
//! |------|--------|
//! | `--trace-out[=PATH]` / `UWB_TRACE` | enable tracing (see [`init_from_env`]) |
//! | `UWB_RESULTS_DIR` | relocate `results/` (see [`results_dir`]) |
//! | `UWB_FLIGHT_QUOTA` | flight-recorder snapshot budget (default 32) |
//! | `UWB_EPOCH_QUOTA` | epoch telemetry retention (default 4096, 0 = unbounded) |
//!
//! The crate sits below every pipeline crate and is deliberately
//! offline-safe: no registry dependencies, same policy as the vendored
//! `rand`/`proptest` stand-ins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envknob;
pub mod flight;
pub mod metrics;
pub mod paths;
pub mod profile;
pub mod recorder;
pub mod render;
pub mod stats;
pub mod telemetry;
pub mod timer;
pub mod trace;
pub mod value;

pub use envknob::{label_from_env, parse_label, parse_quota, quota_from_env};
pub use flight::{CirSnapshot, SnapshotPeak, FLIGHT_STAGE};
pub use metrics::{LatencyHistogram, MetricsRegistry, LATENCY_BINS};
pub use paths::{results_dir, traces_dir};
pub use profile::ProfileNode;
pub use recorder::{
    absorb_metrics, counter, enabled, event, flight_record, flush, gauge, init_from_env, install,
    install_jsonl, install_metrics_only, install_with_quota, latency_table, metrics_snapshot,
    record_ns, scoped_metrics, timed, trial_scope, uninstall, DEFAULT_FLIGHT_QUOTA,
};
pub use render::{fmt_ns, render_aligned, Align};
pub use stats::{median, median_abs_deviation, Counter, Histogram, ScalarStats};
pub use telemetry::{
    fmt_trace_id, frame_trace_id, parse_trace_id, span_id, EpochRecord, EpochTelemetry,
    ShardEpochStats, DEFAULT_EPOCH_QUOTA, TELEMETRY_EPOCH_STAGE, TELEMETRY_META_STAGE,
    TELEMETRY_SCHEMA_VERSION, TELEMETRY_TOTALS_STAGE,
};
pub use timer::{measure_ns, per_second, Stopwatch};
pub use trace::{
    Event, JsonlSink, NullSink, RingSink, TraceSink, META_STAGE, TRACE_SCHEMA_VERSION,
};
pub use value::{write_json_string, Value};
