//! What every workload shares: the per-pass record, host-side probes
//! (peak RSS, allocation counter, reference kernel) and the traced-run
//! capture of the program's own `uwb_obs` metrics and work counters.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Debug;
use std::hash::Hasher;
use std::time::Instant;

use uwb_obs::{MetricsRegistry, ProfileNode};

/// What one pass over a workload's rounds measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time (ns) and rounds of each unit of work, in unit order.
    pub units: Vec<(u64, u64)>,
    /// Host time inside the timed calls, ns (the round total the
    /// per-layer attribution must add up to).
    pub busy_ns: u64,
    /// Rounds attempted.
    pub rounds: u64,
    /// Rounds that completed with a usable result.
    pub rounds_ok: u64,
    /// Benchmark operations that returned an error.
    pub failed: u64,
    /// Numerator and denominator of the paper's quality rate.
    pub resolved: u64,
    pub resolvable: u64,
    /// Responses resolved, counted per detected response (the
    /// numerator of `detect.useful_ratio`).
    pub resolved_responses: u64,
    /// Σ |estimated − true| distance over resolved responses, m.
    pub err_sum_m: f64,
    pub err_n: u64,
    /// Deterministic fingerprint of every output the pass produced.
    digest: u64,
    digest_items: u64,
    /// Time inside the benchmark's own per-trial closures (Fig. 7), ns.
    pub closure_ns: u64,
}

impl Pass {
    /// Folds one output into the pass fingerprint. `Debug` renders
    /// floats round-trip exactly, so equal fingerprints mean equal
    /// outputs.
    pub fn absorb_output(&mut self, output: &impl Debug) {
        let mut h = DefaultHasher::new();
        h.write_u64(self.digest);
        h.write(format!("{output:?}").as_bytes());
        self.digest = h.finish();
        self.digest_items += 1;
    }

    /// The fingerprint and how many outputs went into it.
    pub fn digest(&self) -> (u64, u64) {
        (self.digest, self.digest_items)
    }

    /// Records one timed unit of work.
    pub fn add_unit(&mut self, ns: u64, rounds: u64) {
        self.units.push((ns, rounds));
        self.busy_ns += ns;
    }

    pub fn resolved_pct(&self) -> f64 {
        100.0 * self.resolved as f64 / self.resolvable.max(1) as f64
    }

    pub fn range_err_m(&self) -> f64 {
        self.err_sum_m / self.err_n.max(1) as f64
    }

    pub fn round_ok_pct(&self) -> f64 {
        100.0 * self.rounds_ok as f64 / self.rounds.max(1) as f64
    }
}

/// Nanoseconds since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the means of `groups` interleaved groups of `samples`:
/// group `j` holds samples `j`, `j + groups`, `j + 2·groups`, …, so each
/// group spans the whole run. On a shared host whose speed switches
/// between levels for seconds at a time, each group mean averages over
/// those switches, where the median of single samples jumps from one
/// level to the next.
pub fn median_of_means(samples: &[f64], groups: usize) -> f64 {
    let groups = groups.clamp(1, samples.len().max(1));
    let means: Vec<f64> = (0..groups)
        .map(|j| {
            let group: Vec<f64> = samples.iter().skip(j).step_by(groups).copied().collect();
            group.iter().sum::<f64>() / group.len().max(1) as f64
        })
        .collect();
    quantile(&means, 0.5)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Allocation calls and bytes since process start (the counting
/// allocator this binary links through `uwb-perfwatch/count-alloc`).
pub fn allocs() -> (u64, u64) {
    let snap = uwb_perfwatch::alloc_count::snapshot().unwrap_or_default();
    (snap.allocs, snap.bytes)
}

/// The same-run reference kernel: a fixed, allocation-free, CPU-bound
/// loop whose best-of-5 time shows how contended the host was while the
/// workload ran.
pub fn ref_kernel_ns() -> u64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
            let mut acc = 0.0f64;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
            }
            std::hint::black_box((x, acc));
            ns_since(start)
        })
        .min()
        .unwrap_or(0)
}

/// What a traced pass recorded inside the program.
pub struct Trace {
    pub metrics: MetricsRegistry,
    pub profile: ProfileNode,
}

impl Trace {
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter_value(name)
    }

    /// Count and total ns of a latency histogram.
    pub fn latency(&self, stage: &str) -> (u64, u64) {
        self.metrics
            .latency(stage)
            .map_or((0, 0), |h| (h.count(), h.sum_ns()))
    }

    /// Work ops of one kind summed over the whole scope tree.
    pub fn work(&self, kind: &str) -> u64 {
        fn walk(node: &ProfileNode, kind: &str) -> u64 {
            node.work.get(kind).copied().unwrap_or(0)
                + node.children.values().map(|c| walk(c, kind)).sum::<u64>()
        }
        walk(&self.profile, kind)
    }
}

/// Runs `f` with the program's metrics recorder and work profiler on,
/// and returns what they captured.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    uwb_obs::install_metrics_only();
    uwb_obs::profile::enable();
    let out = f();
    let profile = uwb_obs::profile::disable();
    let metrics = uwb_obs::uninstall().unwrap_or_default();
    (out, Trace { metrics, profile })
}
