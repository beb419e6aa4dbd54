"""The benchmark's own correctness oracle, run on every request it can express.

``perfbench/oracles.py`` re-derives each checked fact from closed forms,
with no cycone import, and ``perfbench/workloads.py`` checks each request
of a run against it.  A run draws its requests, so here the analyze-mix
check runs on every request that ``AnalyzeMix`` can draw: the 455 sorted
split triples in [-6, 6], the six catalog ids at twists -3..3 and the 273
``AnalyzeMix.CHERN`` pairs, each as JSON, TSV and text.  The survey-sweep
and sheaf-exprs checks run on seeded blocks.  So an output the benchmark
would reject fails here by name.  ``perfbench/`` is only read.
"""

import random
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import cycone
import cycone.cli  # noqa: F401  (the workloads call cycone.cli.main)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

FORMATS = ("--json", "--tsv", "text")


def _analyze_requests() -> list:
    """Each request ``AnalyzeMix.block`` can draw, as it builds one."""
    specs = [("split", e, 0, "--split=%d,%d,%d" % e)
             for e in combinations_with_replacement(range(-6, 7), 3)]
    specs += [("named", name, t, f"--named={name}", f"--twist={t}")
              for name in workloads.NAMED_IDS for t in range(-3, 4)]
    specs += [("chern", c, 0, "--chern=%d,%d" % c) for c in workloads.AnalyzeMix.CHERN]
    return [
        (kind, value, twist, fmt, ["analyze", *options] + ([fmt] if fmt != "text" else []))
        for kind, value, twist, *options in specs
        for fmt in FORMATS
    ]


def test_analyze_mix_oracle_accepts_every_request():
    mix = workloads.AnalyzeMix(cycone)
    requests = _analyze_requests()
    assert len(requests) == 3 * (455 + 6 * 7 + 273) == 2310
    for req in requests:
        mix.check(req, mix.call(req))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_survey_sweep_oracle_accepts_a_seeded_block(seed):
    sweep = workloads.SurveySweep(cycone)
    block = sweep.block(random.Random(seed))
    assert len(block) == len(sweep.WIDTHS)
    for req in block:
        sweep.check(req, sweep.call(req))


def test_sheaf_exprs_oracle_accepts_a_seeded_block():
    exprs = workloads.SheafExprs(cycone)
    block = exprs.block(random.Random(0))
    assert len(block) == 100
    for req in block:
        exprs.check(req, exprs.call(req))
