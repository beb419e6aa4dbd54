"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is a JSON-lines file written by perfbench/sweep.py: one line
per run, {"workload", "seed", "trace", "result"}.  For each metric the table
gives both sides' median and quartiles and the ratio NEW/BASE (base = the
BASE median).  An end-to-end metric is "better in every run" when every
NEW run beats every BASE run; otherwise it is "unresolved" when either
side's run-to-run spread (quartile distance over median) exceeds its bound
in BENCHMARK.json, a "REGRESSION" when the NEW median is worse by more
than the bound, and "within bound" else.  Exit status 1 flags a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(spec) -> dict:
    """{name: {"unit", "better", "bound" (None for per-layer)}}."""
    out = {m["name"]: dict(m) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = dict(m, bound=None)
    return out


def load_set(path) -> dict:
    """{(workload, metric): [values]} from a JSON-lines result set."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, m in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(m["value"])
    return values


def summary(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base, new, spec) -> str:
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    lower = spec["better"] == "lower"
    if spec["bound"] is None:
        return ""
    worse = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    if (max(new) < min(base)) if lower else (min(new) > max(base)):
        return "better in every run"
    if max(bspread, nspread) > spec["bound"]:
        return "unresolved"
    return "REGRESSION" if worse > spec["bound"] else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    specs = metric_specs(load_spec())
    base, new = load_set(args.base), load_set(args.new)
    print(f"base = {args.base}; ratio = NEW median / BASE median")
    print(f"{'workload':14s} {'metric':38s} {'base med [q1, q3]':>34s} {'new med [q1, q3]':>34s}"
          f" {'ratio':>7s}  verdict")
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        b, n = summary(base[key]), summary(new[key])
        ratio = n[0] / b[0] if b[0] else float("nan")
        v = verdict(base[key], new[key], spec)
        regressions += v == "REGRESSION"
        print(f"{workload:14s} {name:38s} {b[0]:12.5g} [{b[1]:.5g}, {b[2]:.5g}]".ljust(88)
              + f" {n[0]:12.5g} [{n[1]:.5g}, {n[2]:.5g}]".ljust(35)
              + f" {ratio:7.3f}  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
