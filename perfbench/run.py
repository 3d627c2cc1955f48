#!/usr/bin/env python3
"""End-to-end ranging benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]

Builds the `perfbench` binary from source (release, offline; the target
directory is `CARGO_TARGET_DIR` when set), runs the workload, checks its
output against `BENCHMARK.json` and `perfbench/spec.json`, and prints one
JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero when the build fails, the workload fails, or a check
fails: every metric must be present with its unit, the sizes must be the
ones `spec.json` records, and at the default seed the quality figures
(`resolved_pct`, `range_err_m`, `round_ok_pct`) must equal the values
`spec.json` records for it. `--quick` runs a tiny size for the
benchmark's own tests and skips the size and default-seed checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUALITY = ("resolved_pct", "range_err_m", "round_ok_pct")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check(result, args, bench, spec):
    """Returns the list of failed checks for one binary result line."""
    errors = []
    wanted = bench["per_layer"] if args.trace == 1 else bench["end_to_end"]
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            errors.append(f"metric {m['name']} missing")
        elif entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"metric {m['name']} printed as {entry}, expected unit {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"unexpected metrics {sorted(extra)}")
    if args.quick:
        return errors
    workload = spec["workloads"][args.workload]
    if result["sizes"] != workload["sizes"]:
        errors.append(f"sizes {result['sizes']} differ from spec.json {workload['sizes']}")
    if args.seed == spec["default_seed"]:
        expected = workload["default_seed_quality"]
        for key in QUALITY:
            if result["quality"][key] != expected[key]:
                errors.append(
                    f"default seed: {key} = {result['quality'][key]!r}, "
                    f"spec.json records {expected[key]!r}"
                )
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    command = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench failed with exit code {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load(os.path.join(HERE, "spec.json"))
    errors = check(result, args, bench, spec)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"quality: {json.dumps(result['quality'])}", file=sys.stderr)
    final = {
        "correct": result["correct"] and not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
