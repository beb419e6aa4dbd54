"""cycone benchmark: one run of one workload.

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; cycone is imported from ./src.  With
``--trace 0`` it prints every end-to-end metric (tracing off); with
``--trace 1`` it prints the per-layer metrics of the traced run.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See perfbench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer
from workloads import WORKLOADS, render
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SPAWNS = 15  # cold starts per probe; the median is reported
LATENCY_SAMPLES = 1 << 16  # latencies kept per run for the percentiles
SETUP_CODE = "from cycone import cli; cli.build_parser()"
SERIALIZERS = (
    "report.report_to_json", "report.render_text_report", "report.analyze_row_cells",
    "report.SurveyRow.cells", "report.SurveyRow.to_json_dict",
)
COUNTERS = (
    "chow.mul", "chow.reduce_monomial", "chow.cy_chern_lifts",
    "cone.anticanonical_status", "bundles.h0_anticanonical", "cone.boundary_root",
    "exactnum.squarefree_decompose",
)


class ColdStart:
    """Time of fresh ``python -c code`` spawns with cycone on the path.

    Each spawn's wall time is scaled to the reference speed by ``yard``.
    The spawns are spread over the run (``due``), so that their median
    samples the same machine conditions as the requests do.
    """

    def __init__(self, code: str, yard: Yardstick):
        self.yard = yard
        self.cmd = [sys.executable, "-c", code]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.times = []
        self.spawn()  # untimed: writes the bytecode cache, as an installed package has one

    def spawn(self):
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

    def sample(self):
        self.yard.sample()
        t0 = perf_counter()
        self.spawn()
        self.times.append((perf_counter() - t0) * self.yard.scale())

    def due(self, fraction: float):
        """Take the samples owed once ``fraction`` of the run has passed."""
        while len(self.times) < min(SPAWNS, int(fraction * SPAWNS)):
            self.sample()

    def median(self) -> float:
        self.due(1.0)
        return statistics.median(self.times)


def blocks(wl, seed: int):
    """The workload's request blocks for ``seed``: a fresh stream, or a cycled pool."""
    rng = random.Random(seed)
    if wl.pool_blocks is None:
        while True:
            yield wl.block(rng)
    pool = [wl.block(rng) for _ in range(wl.pool_blocks)]
    while True:
        yield from pool


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Reservoir:
    """A uniform sample of at most ``size`` latencies (Algorithm R).

    Its memory is allocated up front, so ``peak_rss_mb`` does not grow with
    the number of requests a run completes; runs with fewer requests than
    ``size`` keep every latency.
    """

    def __init__(self, size: int, seed: int):
        self.values = array("d", bytes(8 * size))
        self.size, self.n = size, 0
        self.rng = random.Random(seed)

    def add(self, x: float):
        j = self.n if self.n < self.size else self.rng.randrange(self.n + 1)
        if j < self.size:
            self.values[j] = x
        self.n += 1

    def sorted(self) -> list[float]:
        return sorted(self.values[:min(self.n, self.size)])


class Loop:
    """Closed loop with one client: issue, time, check, repeat.

    A yardstick sample is taken before a request once ``yard`` says one is
    due.  Recorded requests wait in ``pending`` until the next sample, and
    ``settle`` then scales their wall times to the reference speed by the
    two samples around them; latencies, ``busy`` and ``items`` count
    settled requests only.
    """

    def __init__(self, workload, seed: int, yard: Yardstick):
        self.workload = workload
        self.yard = yard
        self.attempted = self.failed = self.items = 0
        self.busy = 0.0  # scaled to the reference speed
        self.wall = 0.0  # as measured
        self.pending = []  # (wall_s, items) of the recorded requests since the last sample
        self.latencies = Reservoir(LATENCY_SAMPLES, seed)

    def settle(self):
        scale = self.yard.scale()
        for wall, items in self.pending:
            self.latencies.add(wall * scale)
            self.busy += wall * scale
            self.wall += wall
            self.items += items
        self.pending.clear()

    def issue(self, req, record: bool = True):
        wl = self.workload
        if self.yard.due():
            self.settle()
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = wl.call(req)
        except Exception as exc:  # a failed request is counted, not fatal
            result, err = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        items = 0
        if result is not None:
            try:
                items = wl.check(req, result)
            except Exception as exc:  # an unparsable output fails its check
                result, err = None, f"{type(exc).__name__}: {exc}"
        if record:
            self.pending.append((wall, items))
        if result is not None:
            return result
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: request failed: {repr(req)[:200]}: {err}", file=sys.stderr)
        return result


def measure(wl, seed: int, seconds: float):
    """End-to-end run, tracing off."""
    yard = Yardstick()
    setup = ColdStart(SETUP_CODE, yard)
    stream = blocks(wl, seed)
    loop = Loop(wl, seed, yard)
    digest = hashlib.sha256()
    warm = 0
    for _ in range(wl.warmup_blocks):
        for req in next(stream):
            result = loop.issue(req, record=False)
            digest.update(render(result).encode() if result is not None else b"<failed>\n")
            warm += 1
    rates = []  # items per busy second, one per block
    start = perf_counter()
    while (elapsed := perf_counter() - start) < seconds:
        setup.due(elapsed / seconds)
        busy, items = loop.busy, loop.items
        for req in next(stream):  # whole blocks keep the request mix exact
            loop.issue(req)
        loop.settle()
        rates.append((loop.items - items) / (loop.busy - busy))
    rss_mb = peak_rss_mb()  # before the percentiles add their own sorted copy
    setup_s = setup.median()
    lat = loop.latencies.sorted()
    n = len(lat)
    beyond_p95 = n - math.ceil(0.95 * n)
    print(f"workload {wl.name} seed {seed}: {loop.latencies.n} timed requests in {len(rates)}"
          f" blocks ({n} sampled, {beyond_p95} beyond p95), {warm} warm-up, {loop.items} items")
    print(f"error_rate {loop.failed / loop.attempted:.6f} ({loop.failed}/{loop.attempted})")
    print(f"digest sha256:{digest.hexdigest()} over the {warm} warm-up outputs")
    print(f"machine speed {yard.speed():.3f} of the reference (median of {len(yard.times)}"
          f" yardstick samples); times below are scaled to the reference speed")
    metrics = {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p95_ms": (percentile(lat, 0.95) * 1e3, "ms"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return loop, metrics


def find_caches(package):
    """Every lru_cache table in the package, by qualified name."""
    caches = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith(package.__name__ + "."):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod_name:
                    caches[f"{mod_name}.{attr}"] = obj
    return caches


def run_pass(loop, reqs, caches, tracer=None):
    """One pass over a fixed request list from cold caches; returns (busy_s, wall_s, items)."""
    for cache in caches.values():
        cache.cache_clear()
    busy, wall, items = loop.busy, loop.wall, loop.items
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        loop.issue(req)
    loop.settle()
    return loop.busy - busy, loop.wall - wall, loop.items - items


def traced(wl, seed: int, seconds: float, package):
    """Per-layer run: untraced passes for the baseline rate, then one traced pass."""
    yard = Yardstick()
    startup = ColdStart("pass", yard)
    stream = blocks(wl, seed)
    reqs = [req for _ in range(wl.trace_blocks) for req in next(stream)]
    caches = find_caches(package)
    loop = Loop(wl, seed, yard)
    rates = []
    start = perf_counter()
    while True:
        busy, _, items = run_pass(loop, reqs, caches)
        rates.append(items / busy)
        elapsed = perf_counter() - start
        startup.due(2 * elapsed / seconds)
        if elapsed >= seconds / 2:
            break
    startup_s = startup.median()
    tracer = Tracer()
    tracer.install(package)
    parse_args = tracer.wrap(argparse.ArgumentParser.parse_args, "cli.parse_args")
    argparse.ArgumentParser.parse_args = parse_args  # the CLI's own parsing, as part of cli
    first_sample = len(yard.times)
    busy, wall, items = run_pass(loop, reqs, caches, tracer)
    traced_rate = items / busy
    scale = yard.speed(first_sample)  # span times are wall times; scale them as the latencies
    n = len(reqs)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.tsv"
    tracer.write(spans_path)

    per_name = tracer.per_name()
    metrics = {}
    for layer in LAYERS:
        rows = [v for k, v in per_name.items() if k.split(".", 1)[0] == layer]
        self_s = sum(r[2] for r in rows)
        metrics[f"{layer}.calls"] = (sum(r[0] for r in rows) / n, "count")
        metrics[f"{layer}.self_ms"] = (self_s * scale * 1e3 / n, "ms")
        metrics[f"{layer}.share"] = (self_s / wall, "ratio")
    for name in COUNTERS:
        metrics[f"{name}.calls"] = (per_name.get(name, [0])[0] / n, "count")
    cohom = [c.cache_info() for k, c in caches.items() if k.startswith(f"{package.__name__}.cohom.")]
    hits, misses = sum(i.hits for i in cohom), sum(i.misses for i in cohom)
    metrics["cohom.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["cohom.cache_entries"] = (sum(i.currsize for i in cohom), "count")
    metrics["report.serialize_ms"] = (tracer.outermost_time(SERIALIZERS) * scale * 1e3 / n, "ms")
    argparse_s = tracer.outermost_time(("cli.build_parser", "cli.parse_args"))
    metrics["cli.argparse_ms"] = (argparse_s * scale * 1e3 / n, "ms")
    metrics["interp.startup_s"] = (startup_s, "s")
    metrics["trace.overhead_ratio"] = (traced_rate / statistics.median(rates), "ratio")
    print(f"workload {wl.name} seed {seed}: traced pass of {n} requests, {len(tracer.span_start)}"
          f" spans written to {spans_path.relative_to(ROOT)}; {len(rates)} untraced passes")
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cycone
        import cycone.cli  # noqa: F401  (the CLI module is a workload entry point)
    except ImportError as exc:
        print(f"perfbench: cannot import cycone from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(cycone.__file__).resolve().is_relative_to(src):
        print(f"perfbench: cycone was imported from {cycone.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](cycone)
    if args.trace:
        loop, metrics = traced(wl, args.seed, args.seconds, cycone)
    else:
        loop, metrics = measure(wl, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
