#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite.
# Run from the repository root. Fails fast on the first broken gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# --all-targets covers libs, binaries, tests and examples; the workspace
# has no bench targets (timing lives in perfwatch).
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Documents every library and binary of the workspace.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test --workspace

echo "==> exp_fault_sweep smoke (50 trials per loss rate)"
# The resilience acceptance gate: every trial must terminate with at
# least partial results at every swept loss rate — zero panics — and
# the injected/recovered fault counters must appear in the obs summary.
./target/release/exp_fault_sweep --trials 50

echo "==> exp_capacity_sweep smoke (N ≤ 64, 20 trials)"
# The city-scale acceptance gate: the sharded world must complete the
# capacity point at N = 64 with a deterministic report — the stdout
# table is byte-identical for any --threads / UWB_WORLDSIM_THREADS.
# UWB_RESULTS_DIR keeps every capacity smoke's reduced-resolution CSV
# away from the committed full-sweep results/capacity_sweep.csv.
UWB_RESULTS_DIR=/tmp/capacity_smoke_results \
    ./target/release/exp_capacity_sweep --n 64 --trials 20 --threads 1 > /tmp/capacity_t1.txt
UWB_RESULTS_DIR=/tmp/capacity_smoke_results \
    ./target/release/exp_capacity_sweep --n 64 --trials 20 --threads 4 > /tmp/capacity_t4.txt
diff /tmp/capacity_t1.txt /tmp/capacity_t4.txt

echo "==> epoch telemetry smoke (byte-identical at 1 vs 4 threads)"
# The observability acceptance gate: the merged epoch telemetry stream
# (JSONL and the Prometheus-style text exposition) must diff clean
# across thread counts, and `uwb-trace epochs` must validate the schema
# and render the table + shard heatmap.
UWB_RESULTS_DIR=/tmp/capacity_smoke_results \
    ./target/release/exp_capacity_sweep --n 64 --trials 5 --threads 1 \
    --telemetry=/tmp/telemetry_t1.jsonl >/dev/null
UWB_RESULTS_DIR=/tmp/capacity_smoke_results \
    ./target/release/exp_capacity_sweep --n 64 --trials 5 --threads 4 \
    --telemetry=/tmp/telemetry_t4.jsonl >/dev/null
diff /tmp/telemetry_t1.jsonl /tmp/telemetry_t4.jsonl
diff /tmp/telemetry_t1.prom /tmp/telemetry_t4.prom
./target/release/uwb-trace epochs /tmp/telemetry_t1.jsonl >/dev/null

echo "==> causal frame tracing smoke (TX → identify chain reconstructs)"
# Record one traced capacity run with unbounded shard rings, pick an
# arbitrary identified frame, and require `uwb-trace causal` to walk
# its span chain all the way back to the TX root.
UWB_RESULTS_DIR=/tmp/capacity_smoke_results UWB_NETSIM_TRACE_QUOTA=0 \
    ./target/release/exp_capacity_sweep \
    --n 64 --trials 1 --threads 4 --trace-out=/tmp/causal_smoke.jsonl >/dev/null
# -m1 (not `| head`): head's early exit would SIGPIPE grep, which
# pipefail turns into a spurious gate failure.
FRAME=$(grep -m1 '"stage":"world.identify"' /tmp/causal_smoke.jsonl \
    | grep -om1 '"frame":"[0-9a-f]*"' | grep -o '[0-9a-f]\{16\}')
./target/release/uwb-trace causal "$FRAME" /tmp/causal_smoke.jsonl > /tmp/causal_chain.txt
grep -q "world.identify" /tmp/causal_chain.txt
grep -q "world.tx" /tmp/causal_chain.txt

echo "==> work profiler smoke (byte-identical at 1 vs 4 threads)"
# The cost-model acceptance gate: the merged collapsed work profile of a
# profiled fig7 campaign must diff clean across thread counts (work
# counters are deterministic; wall-clock never reaches the export), and
# `uwb-trace flame` must parse the file and render the flame view.
# UWB_RESULTS_DIR keeps the smoke's 96-trial CSV away from the
# committed full-resolution results/fig7_overlap.csv artifact.
UWB_RESULTS_DIR=/tmp/profile_smoke_results REPRO_TRIALS=96 \
    ./target/release/exp_fig7_overlap \
    --threads 1 --profile=/tmp/profile_t1.collapsed >/dev/null
UWB_RESULTS_DIR=/tmp/profile_smoke_results REPRO_TRIALS=96 \
    ./target/release/exp_fig7_overlap \
    --threads 4 --profile=/tmp/profile_t4.collapsed >/dev/null
diff /tmp/profile_t1.collapsed /tmp/profile_t4.collapsed
./target/release/uwb-trace flame /tmp/profile_t1.collapsed > /tmp/flame_smoke.txt
grep -q "total work:" /tmp/flame_smoke.txt
grep -q "work:fft.butterfly" /tmp/profile_t1.collapsed

echo "==> DSP backend smoke (f64 byte-identical; rfft runs clean)"
# The two-backend acceptance gate: an explicit --dsp-backend f64 run
# must emit a byte-identical report to the default run (the scalar f64
# backend IS the historical pipeline), the default report must equal
# the committed results/ci/fig7_overlap_20.txt, and the real-FFT
# backend must complete the same campaign cleanly.
UWB_RESULTS_DIR=/tmp/backend_smoke_results REPRO_TRIALS=20 \
    ./target/release/exp_fig7_overlap --threads 2 > /tmp/fig7_default.txt
UWB_RESULTS_DIR=/tmp/backend_smoke_results REPRO_TRIALS=20 \
    ./target/release/exp_fig7_overlap --threads 2 --dsp-backend f64 \
    > /tmp/fig7_backend_f64.txt
diff /tmp/fig7_default.txt /tmp/fig7_backend_f64.txt
# Two runs of one binary agree even if the f64 reference itself drifts,
# so also pin the default report to the committed expected one.
diff results/ci/fig7_overlap_20.txt /tmp/fig7_default.txt
UWB_RESULTS_DIR=/tmp/backend_smoke_results REPRO_TRIALS=20 \
    ./target/release/exp_fig7_overlap --threads 2 --dsp-backend rfft >/dev/null

echo "==> streaming pipeline smoke (feed_round byte-identical to batch)"
# The pipeline-layer acceptance gate: driving the same Fig. 7 workload
# through the streaming RangingPipeline (one round at a time, one
# long-lived warmed context) must print a byte-identical report to the
# batch campaign run captured above.
UWB_RESULTS_DIR=/tmp/backend_smoke_results REPRO_TRIALS=20 \
    ./target/release/exp_fig7_overlap --stream > /tmp/fig7_stream.txt
diff /tmp/fig7_default.txt /tmp/fig7_stream.txt

echo "==> perfwatch bench smoke (1 iteration, no warmup, work gate vs committed baseline)"
# Not a timing measurement: proves the whole suite still runs end to end
# and emits a parseable, complete document, and gates every row's
# work_ops against the committed BENCH_pipeline.json. The timing band is
# so wide it never trips; work counts are deterministic, so any work
# increase on any committed row fails --check. Full runs stay manual
# (see README "Performance observatory").
./target/release/perfwatch --iters 1 --warmup 0 --baseline BENCH_pipeline.json \
    --noise-pct 10000 --out /tmp/bench_smoke.json --check >/dev/null
./target/release/perfwatch --validate /tmp/bench_smoke.json
echo "==> perfwatch committed-baseline validation"
./target/release/perfwatch --validate BENCH_pipeline.json

echo "==> perfwatch work-gate smoke (phantom work must fail --check)"
# The zero-noise-band gate, both directions: an honest single-workload
# rerun passes --check under an absurdly generous timing band (work
# counts are deterministic, so they match exactly), while the same run
# with UWB_PERFWATCH_INFLATE_WORK injecting phantom ops — invisible to
# any timing statistic — must exit non-zero.
./target/release/perfwatch --iters 1 --warmup 0 --filter rpm.decode \
    --out /tmp/bench_work_base.json >/dev/null
./target/release/perfwatch --iters 1 --warmup 0 --filter rpm.decode \
    --noise-pct 10000 --baseline /tmp/bench_work_base.json \
    --out /tmp/bench_work_honest.json --check >/dev/null
if UWB_PERFWATCH_INFLATE_WORK=1000 ./target/release/perfwatch \
    --iters 1 --warmup 0 --filter rpm.decode --noise-pct 10000 \
    --baseline /tmp/bench_work_base.json --out /tmp/bench_work_inflated.json \
    --check >/dev/null 2>&1; then
    echo "work-gate smoke FAILED: inflated work passed --check" >&2
    exit 1
fi

echo "==> perfwatch count-alloc smoke (planned hot path stays allocation-free)"
# Rebuilds the suite with the counting allocator and gates the planned
# DSP/render/detection rows on a hard per-iteration allocation budget:
# after one warmup (which fills the plan caches), a planned transform and
# a CIR render into a reused accumulator allocate nothing, and a
# detection allocates nothing beyond its returned response vector.
cargo build --release -p uwb-perfwatch --features count-alloc
./target/release/perfwatch --iters 1 --warmup 1 \
    --filter dsp.fft_radix2_16384,dsp.matched_filter_1016,channel.render_into,detect.search_subtract,detect.shape_classify \
    --max-allocs 4 --out /tmp/bench_alloc_smoke.json >/dev/null
# Restore the default-feature binary for anyone running artifacts next.
cargo build --release -p uwb-perfwatch

echo "ci: all gates passed"
