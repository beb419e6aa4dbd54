"""Run the benchmark over several seeds and write a result set.

    python3 perfbench/sweep.py --seeds 1-10 --out .perfbench_out/base.jsonl
    python3 perfbench/sweep.py --workloads sheaf-exprs --seeds 1-5 --trace 1 --out t.jsonl

Runs perfbench/run.py once per (workload, seed), one at a time, and appends
each run's result line to --out.  It then prints, per workload and metric,
the median, the quartiles and the spread (quartile distance over median),
and for end-to-end metrics whether the spread is within a third of the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from compare import ROOT, load_set, load_spec, metric_specs, summary


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="run the benchmark over several seeds")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range A-B or a list A,B,C")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON-lines result set to append to")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    failed = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    failed += 1
                    continue
                result = json.loads(lines[-1])
                failed += not result["correct"]
                digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), "-")
                speed = next((ln.split()[2] for ln in lines if ln.startswith("machine speed ")), "-")
                print(f"{workload} seed {seed}: attempted {result['attempted']}"
                      f" failed {result['failed']} {digest} machine speed {speed}", flush=True)
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")

    specs = metric_specs(spec)
    values = load_set(args.out)
    print(f"{'workload':14s} {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>8s} {'bound':>6s}")
    for (workload, name), vals in sorted(values.items()):
        if workload not in workloads:
            continue
        med, q1, q3, spread = summary(vals)
        bound = specs.get(name, {}).get("bound")
        mark = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{workload:14s} {name:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}"
              f" {'' if bound is None else bound:>6} {mark}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
