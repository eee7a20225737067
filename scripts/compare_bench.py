#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on regressions.

The bench binaries emit flat JSON objects of numeric metrics (see
bench/common.h).  This script diffs selected keys between a baseline file
and a candidate file and exits nonzero when the candidate regresses by
more than the tolerance (default 10%).

Keys are higher-is-better by default (throughput-style metrics).  Append
``:lower`` for latency-style metrics where smaller is better.  When the
two files name a metric differently, map with ``baseline_key=candidate_key``.

Examples:
  compare_bench.py BENCH_lifecycle.json BENCH_lifecycle.json \
      --key success_rate_defrag_off=success_rate_defrag_on
  compare_bench.py old.json new.json --key seconds_per_plan:lower \
      --tolerance 0.05
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if not isinstance(data, dict):
        sys.exit(f"error: {path}: expected a JSON object of metrics")
    return data


def parse_key(spec):
    """Return (baseline_key, candidate_key, lower_is_better)."""
    lower = False
    if spec.endswith(":lower"):
        lower = True
        spec = spec[: -len(":lower")]
    elif spec.endswith(":higher"):
        spec = spec[: -len(":higher")]
    base_key, _, cand_key = spec.partition("=")
    return base_key, cand_key or base_key, lower


def fetch(data, key, path):
    if key not in data:
        sys.exit(f"error: key '{key}' missing from {path}")
    value = data[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        sys.exit(f"error: key '{key}' in {path} is not numeric: {value!r}")
    return float(value)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument(
        "--key",
        action="append",
        required=True,
        metavar="K",
        help="metric to compare; forms: name | base=cand | name:lower "
        "(repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional regression before failing (default 0.10)",
    )
    args = parser.parse_args()

    base_data = load(args.baseline)
    cand_data = load(args.candidate)

    failed = False
    print(f"{'metric':<40} {'baseline':>14} {'candidate':>14} {'delta':>9}  verdict")
    for spec in args.key:
        base_key, cand_key, lower = parse_key(spec)
        base = fetch(base_data, base_key, args.baseline)
        cand = fetch(cand_data, cand_key, args.candidate)
        if base == 0.0:
            delta = 0.0 if cand == 0.0 else float("inf")
        else:
            delta = cand / base - 1.0
        regressed = (delta < -args.tolerance) if not lower else (delta > args.tolerance)
        label = base_key if base_key == cand_key else f"{base_key}={cand_key}"
        if lower:
            label += " (lower better)"
        verdict = "REGRESSION" if regressed else "ok"
        print(f"{label:<40} {base:>14.4f} {cand:>14.4f} {delta:>+8.1%}  {verdict}")
        failed |= regressed

    if failed:
        print(
            f"FAIL: candidate regressed beyond {args.tolerance:.0%} tolerance",
            file=sys.stderr,
        )
        return 1
    print("all compared metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
