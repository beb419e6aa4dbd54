"""The three workloads: seeded request streams, the call into cycone, and the oracle check.

Every workload is a closed loop with one client.  Requests come in blocks
whose composition is fixed (only the draws inside a block depend on the
seed), so that latency percentiles do not move with the mix from seed to
seed.  ``call`` is the timed request; ``check`` verifies its output against
:mod:`oracles` and returns the number of output records.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from itertools import combinations_with_replacement
from math import comb

import oracles as orc
from oracles import expect

NAMED_IDS = tuple(orc.CATALOG)
FORMATS = ("--json", "--tsv", "text")


def run_cli(cli, argv):
    """cycone.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _tri(value) -> str:
    return "unknown" if value is None else ("true" if value else "false")


# --- analyze-mix -------------------------------------------------------------


class AnalyzeMix:
    """``cycone analyze`` in json, tsv and text form; one report per request.

    Block of 10: 5 split triples with entries in [-6, 6], 2 catalog ids with
    --twist in [-3, 3], 3 --chern pairs with |c1| <= 6 and |c2| <= 10, one
    of them drawn from the gamma <= -27 pairs so the rho = 2 edge warnings
    are always covered.  Each request's format is drawn from json/tsv/text.
    Values go in as --split=-5,6,6: argparse reads a bare -5,6,6 as an option.
    """

    name = "analyze-mix"
    pool_blocks = None
    warmup_blocks = 2
    trace_blocks = 3
    CHERN = [(c1, c2) for c1 in range(-6, 7) for c2 in range(-10, 11)]
    CHERN_EDGE = [p for p in CHERN if orc.gamma(*p) <= -27]

    def __init__(self, cycone):
        self.cli = cycone.cli

    def block(self, rng):
        reqs = []
        for _ in range(5):
            exps = tuple(rng.randint(-6, 6) for _ in range(3))
            reqs.append(("split", exps, 0))
        for _ in range(2):
            reqs.append(("named", rng.choice(NAMED_IDS), rng.randint(-3, 3)))
        reqs.append(("chern", rng.choice(self.CHERN), 0))
        reqs.append(("chern", rng.choice(self.CHERN), 0))
        reqs.append(("chern", rng.choice(self.CHERN_EDGE), 0))
        rng.shuffle(reqs)
        block = []
        for kind, value, twist in reqs:
            if kind == "split":
                argv = ["analyze", "--split=%d,%d,%d" % value]
            elif kind == "named":
                argv = ["analyze", f"--named={value}", f"--twist={twist}"]
            else:
                argv = ["analyze", "--chern=%d,%d" % value]
            fmt = rng.choice(FORMATS)
            if fmt != "text":
                argv.append(fmt)
            block.append((kind, value, twist, fmt, argv))
        return block

    def call(self, req):
        return run_cli(self.cli, req[4])

    @staticmethod
    def expected(req) -> dict:
        kind, value, twist, _, _ = req
        exps = None
        if kind == "split":
            exps = tuple(sorted(value))
            c1, c2 = orc.split_chern(exps)
            stype = exps
        elif kind == "named":
            chern, stype, exps = orc.CATALOG[value]
            c1, c2 = orc.twist_chern(*chern, twist)
            stype = tuple(e + twist for e in stype)
            if exps is not None:
                exps = tuple(e + twist for e in exps)
        else:
            c1, c2 = value
            stype = None
        g = orc.gamma(c1, c2)
        nef, ample, big = orc.minus_k_status(stype, c1, g)
        rho = orc.rho_split(exps, nef, big) if exps is not None else None
        known_rho = exps is not None or not (nef and big)
        return {
            "c1": c1, "c2": c2, "gamma": g, "c3": orc.c3_of_x(g),
            "nef": nef, "ample": ample, "big": big,
            # rho is pinned by the End formula for split specs and is unknown
            # whenever -K_Z is not known to be big and nef
            "rho": rho, "check_rho": known_rho,
            "h12": orc.h12_rho2(g) if rho in (None, 2) else None,
            "k_exists": orc.root_exists(g),
            "k_rational": orc.root_rational(g),
            "edge_warning": g <= -27,
        }

    def check(self, req, result) -> int:
        rc, out, err = result
        expect(rc == 0 and not err, f"exit {rc}: {err.strip()}")
        exp = self.expected(req)
        fmt = req[3]
        if fmt == "--json":
            self._check_json(json.loads(out), exp)
        elif fmt == "--tsv":
            self._check_tsv(out, exp)
        else:
            self._check_text(out, exp)
        return 1

    @staticmethod
    def _check_json(d, exp):
        got = (d["spec"]["c1"], d["spec"]["c2"], d["gamma"], d["c3"])
        expect(got == (exp["c1"], exp["c2"], exp["gamma"], exp["c3"]), f"invariants {got}")
        expect(d["pairings"] == orc.pairings(exp["c1"], exp["gamma"]), "pairings")
        mk = d["minus_k"]
        status = (mk["nef"], mk["ample"], mk["big"])
        expect(status == tuple(_tri(exp[k]) for k in ("nef", "ample", "big")), f"-K_Z {status}")
        if exp["check_rho"]:
            expect(d["rho"]["value"] == exp["rho"], f"rho {d['rho']}")
        expect(d["h12"] == exp["h12"], f"h12 {d['h12']}")
        root = d["cone"]["k_root"]
        expect(root["exists"] == exp["k_exists"], "root existence")
        if exp["k_exists"]:
            expect((root["k"]["n"] == 0) == exp["k_rational"], "root rationality")
        edge = any(w.startswith("gamma = -27") or w.startswith("gamma < -27") for w in d["warnings"])
        expect(edge == exp["edge_warning"], "gamma <= -27 warning")

    @staticmethod
    def _check_tsv(out, exp):
        header, row = out.rstrip("\n").split("\n")
        cells = dict(zip(header.split("\t"), row.split("\t")))
        for key in ("c1", "c2", "gamma", "c3"):
            expect(cells[key] == str(exp[key]), f"{key} {cells[key]}")
        for key in ("nef", "ample", "big", "k_exists"):
            expect(cells[key] == _tri(exp[key]), f"{key} {cells[key]}")
        if exp["k_exists"]:
            expect(cells["k_rational"] == _tri(exp["k_rational"]), "root rationality")
        if exp["check_rho"]:
            expect(cells["rho"] == ("unknown" if exp["rho"] is None else str(exp["rho"])), "rho")
        expect(cells["h12"] == ("" if exp["h12"] is None else str(exp["h12"])), "h12")

    _TEXT_INV = re.compile(
        r"chern pair: \((-?\d+), (-?\d+)\)\s+gamma: (-?\d+)\s+c3\(X\): (-?\d+)\s+h12: (\S+)"
    )
    _TEXT_RHO = re.compile(r"rho\(X\): (\S+)")
    _TEXT_MK = re.compile(r"-K_Z: nef=(\w+) ample=(\w+) big=(\w+)")

    @classmethod
    def _check_text(cls, out, exp):
        m = cls._TEXT_INV.search(out)
        expect(m is not None, "text report without invariants line")
        got = tuple(int(x) for x in m.groups()[:4])
        expect(got == (exp["c1"], exp["c2"], exp["gamma"], exp["c3"]), f"invariants {got}")
        expect(m.group(5) == ("n/a" if exp["h12"] is None else str(exp["h12"])), "h12")
        mk = cls._TEXT_MK.search(out).groups()
        expect(mk == tuple(_tri(exp[k]) for k in ("nef", "ample", "big")), f"-K_Z {mk}")
        if exp["check_rho"]:
            rho = cls._TEXT_RHO.search(out).group(1)
            expect(rho == ("unknown" if exp["rho"] is None else str(exp["rho"])), "rho")
        edge = "warning: gamma = -27" in out or "warning: gamma < -27" in out
        expect(edge == exp["edge_warning"], "gamma <= -27 warning")


# --- survey-sweep ------------------------------------------------------------


class SurveySweep:
    """``cycone survey`` over [o, o + w], o in [-8, 8], w in 2..12.

    A survey of width w evaluates C(w+3, 3) rows (10 to 455), so a block of
    40 calls takes the widths 2..12 with counts 8,6,12,3,2,2,1,1,2,2,1: every
    width occurs, no few wide calls dominate the time, and the median and
    the 95th percentile fall inside a group of equal widths (4 and 11)
    rather than on the step between two groups.  Half of the calls carry a
    --filter, a quarter a second one; half ask for JSON lines.  At most one
    filter per call is keyed (c1=N or gamma=N): the CLI keeps only the last
    value of a repeated key instead of requiring all of them.
    """

    name = "survey-sweep"
    pool_blocks = None
    warmup_blocks = 1
    trace_blocks = 1
    WIDTHS = (2,) * 8 + (3,) * 6 + (4,) * 12 + (5,) * 3 + (6,) * 2 + (7,) * 2 + (8, 9, 10, 10, 11, 11, 12)
    FLAGS = ("nef", "ample", "big", "tab")

    def __init__(self, cycone):
        self.cli = cycone.cli

    def block(self, rng):
        widths = list(self.WIDTHS)
        rng.shuffle(widths)
        block = []
        for w in widths:
            lo = rng.randint(-8, 8)
            hi = lo + w
            filters = []
            if rng.random() < 0.5:
                filters.append(self._draw_filter(rng, lo, hi))
                if rng.random() < 0.5:
                    filters.append(rng.choice(self.FLAGS))
            as_json = rng.random() < 0.5
            argv = ["survey", f"--emin={lo}", f"--emax={hi}"]
            argv += [f"--filter={f}" for f in filters]
            if as_json:
                argv.append("--json")
            block.append((lo, hi, tuple(filters), as_json, argv))
        return block

    def _draw_filter(self, rng, lo, hi):
        kind = rng.choice(("flag", "flag", "c1", "gamma"))
        if kind == "flag":
            return rng.choice(self.FLAGS)
        exps = [rng.randint(lo, hi) for _ in range(3)]
        c1, c2 = orc.split_chern(exps)
        return f"c1={c1}" if kind == "c1" else f"gamma={orc.gamma(c1, c2)}"

    def call(self, req):
        return run_cli(self.cli, req[4])

    @staticmethod
    def expected_rows(lo, hi, filters):
        """All rows of the sweep, computed from the exponents, then filtered."""
        rows = []
        for e1 in range(lo, hi + 1):
            for e2 in range(e1, hi + 1):
                for e3 in range(e2, hi + 1):
                    exps = (e1, e2, e3)
                    c1, c2 = orc.split_chern(exps)
                    g = orc.gamma(c1, c2)
                    nef, ample, big = orc.minus_k_status(exps, c1, g)
                    rho = orc.rho_split(exps, nef, big)
                    rows.append({
                        "e1": e1, "e2": e2, "e3": e3, "c1": c1, "c2": c2, "gamma": g,
                        "nef": nef, "ample": ample, "big": big,
                        "rho": "unknown" if rho is None else rho,
                        "tab": orc.tab_admissible(exps),
                    })
        total = len(rows)
        for f in filters:
            if "=" in f:
                key, _, value = f.partition("=")
                rows = [r for r in rows if r[key] == int(value)]
            else:
                rows = [r for r in rows if r[f] is True]
        return total, rows

    def check(self, req, result) -> int:
        rc, out, err = result
        expect(rc == 0 and not err, f"exit {rc}: {err.strip()}")
        lo, hi, filters, as_json, _ = req
        total, rows = self.expected_rows(lo, hi, filters)
        expect(total == comb(hi - lo + 3, 3), "row count before filters")
        lines = out.rstrip("\n").split("\n")
        if as_json:
            got = [json.loads(line) for line in lines if line]
        else:
            header = lines[0].split("\t")
            got = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        expect(len(got) == len(rows), f"{len(got)} rows, expected {len(rows)}")
        for g, r in zip(got, rows):
            for key in ("e1", "e2", "e3", "c1", "c2", "gamma", "rho"):
                expect(str(g[key]) == str(r[key]), f"{key} {g[key]} != {r[key]}")
            for key in ("nef", "ample", "big"):
                expect(g[key] == _tri(r[key]), f"{key} {g[key]}")
            expect(g["tab_admissible"] == _tri(r["tab"]), "tab_admissible")
            if r["gamma"] >= -18:
                expect(g["verdict"] == "Rational", "gamma >= -18 verdict")
        # items are the rows the engine evaluated, filtered or not
        return total


# --- sheaf-exprs -------------------------------------------------------------


class SheafExprs:
    """parse_sheaf_expr -> cohom_expr -> chi_rr on seeded grammar expressions.

    Block of 100, twenty of each family: End of 2-4 line bundles, sym of 2-3
    line bundles for p <= 4, twist/dual nests over lines and S^a T,
    SymT(a, b) with a <= 8, and the plethysm sym(sym(SymT(1,b),2),2) under
    an optional twist.  Degrees and twists lie in [-1000, 1000], so the
    cohom caches hold thousands of keys.  The run cycles a fixed pool of
    10,000 expressions, a working set the warm-up pass loads into the
    caches, so that memory does not grow with the number of requests.
    """

    name = "sheaf-exprs"
    pool_blocks = 100
    warmup_blocks = 100
    trace_blocks = 30
    D = 1000  # bound on |degree| and |twist|: thousands of cache keys

    def __init__(self, cycone):
        self.cohom = cycone.cohom

    def block(self, rng):
        block = []
        for family in (self._end, self._sym, self._nest, self._symt, self._pleth) * 20:
            text, atoms = family(rng)
            table = orc.atoms_table(atoms)
            chi = sum(a.chi() for a in atoms)
            block.append((text, table, chi))
        rng.shuffle(block)
        return block

    def _lines(self, rng, n):
        return [rng.randint(-self.D, self.D) for _ in range(n)]

    @staticmethod
    def _sum_text(degrees):
        return "+".join(f"O({k})" for k in degrees)

    def _end(self, rng):
        ks = self._lines(rng, rng.randint(2, 4))
        return f"end({self._sum_text(ks)})", [orc.line(kj - ki) for ki in ks for kj in ks]

    def _sym(self, rng):
        ks = self._lines(rng, rng.randint(2, 3))
        p = rng.randint(1, 4)
        atoms = [orc.line(sum(c)) for c in combinations_with_replacement(ks, p)]
        return f"sym({self._sum_text(ks)},{p})", atoms

    def _nest(self, rng):
        if rng.random() < 0.5:
            ks = self._lines(rng, 2)
            text, atoms = self._sum_text(ks), [orc.line(k) for k in ks]
        else:
            a, b, k = rng.randint(1, 4), rng.randint(-self.D, self.D), rng.randint(-self.D, self.D)
            text, atoms = f"O({k})+SymT({a},{b})", [orc.line(k), orc.Atom("S", a, b)]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                t = rng.randint(-self.D, self.D)
                text, atoms = f"twist({text},{t})", [x.twist(t) for x in atoms]
            else:
                text, atoms = f"dual({text})", [x.dual() for x in atoms]
        return text, atoms

    def _symt(self, rng):
        a, b = rng.randint(1, 8), rng.randint(-self.D, self.D)
        return f"SymT({a},{b})", [orc.Atom("S", a, b)]

    def _pleth(self, rng):
        b = rng.randint(-self.D, self.D)
        text, atom = f"sym(sym(SymT(1,{b}),2),2)", orc.Atom("P", 0, 4 * b)  # S^2(S^2(T(b))) = S^2 S^2 T (4b)
        if rng.random() < 0.5:
            t = rng.randint(-self.D, self.D)
            text, atom = f"twist({text},{t})", atom.twist(t)
        return text, [atom]

    def call(self, req):
        cohom = self.cohom
        e = cohom.parse_sheaf_expr(req[0])
        return cohom.cohom_expr(e), cohom.chi_rr(e)

    def check(self, req, result) -> int:
        table, chi = result
        _, exp_table, exp_chi = req
        got = (table.h0, table.h1, table.h2)
        expect(min(got) >= 0, f"negative dimension {got}")
        expect(table.chi == chi == exp_chi, f"chi {table.chi} / {chi}, expected {exp_chi}")
        if exp_table is not None:
            expect(got == exp_table, f"table {got}, expected {exp_table}")
        return 1


def render(result) -> str:
    """Deterministic text of one request's output, for the run digest."""
    if isinstance(result[0], int):  # (rc, stdout, stderr) of a CLI call
        return f"{result[0]}\n{result[1]}"
    table, chi = result
    return f"{table.h0} {table.h1} {table.h2} {chi}\n"


WORKLOADS = {w.name: w for w in (AnalyzeMix, SurveySweep, SheafExprs)}
