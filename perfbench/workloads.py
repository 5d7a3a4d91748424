"""Workload inputs, operations and output checks of the flcubes benchmark.

Inputs are made in the benchmark process from the run's seed; the program sees
only the job handed to a worker.  ``run_op`` executes one operation inside a
cold worker, and ``check`` judges its outputs there, after the timed region,
with no stored answer except the captured ``verify 18`` report.

Workloads:

- ``verify18``: ``flcubes verify 18``; stdout is byte-compared with the
  report captured from the seed commit.  The input is fixed.
- ``poset-census``: one seeded random poset per operation, parsed from its
  text form, turned into a filter lattice and censused for all six families.
- ``formulas``: every formula route of the five families to large n, with
  the routes cross-checked where their domains overlap.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import comb
from pathlib import Path

WORKLOADS = ("verify18", "poset-census", "formulas")

REFERENCE = Path(__file__).resolve().parent / "reference" / "verify18.txt"

# poset-census input band: ground-set size, filter count and maximum
# up-degree of the filter lattice (the width of the poset).
SIZE_BAND = (14, 18)
FILTER_BAND = (2000, 6000)
UPDEG_BAND = (8, 11)
# Strata of the join count (sum over filters of 2^updeg), which sets the cost
# of a census: a target and a relative half-width.  The strata are visited in
# turn and a run measures whole cycles, so every run sees the same mix of
# sizes whatever its seed, and an operation's cost varies little within its
# stratum.  The order puts a mid and the top stratum first.
JOIN_TARGETS = (100_000, 175_000, 260_000, 350_000)
JOIN_TOLERANCE = 0.08
STRATUM_ORDER = (1, 3, 0, 2)

FORMULA_FAMILIES = ("rank", "cube", "maxcube", "degree", "indegree")
REC_MAX_N = 800  # recurrence and generating-function routes
CLOSED_MAX_N = 80  # closed-form route
COEFF_REC_MAX_N = 200  # coefficient recurrences (half-index families: half)
EXACTNESS_DEPTH = 200  # series times denominator reproduces the numerator


# -- inputs ---------------------------------------------------------------------


def random_poset(rng: random.Random, lo: int, hi: int) -> dict:
    """A random poset in the filter band with lo <= joins <= hi, as a job.

    The order is drawn as a random DAG over a linear extension and closed
    transitively; its covers are the transitive reduction, written on labels
    1..m in the program's text format.  The filter count, the arc count of
    the filter lattice (sum over filters of their minimal elements, each
    filter's up-degree), the join count (sum over filters of 2^updeg) and the
    rank counts are computed here, independently of the program.
    """
    while True:
        m = rng.randint(*SIZE_BAND)
        p = rng.uniform(0.05, 0.35)
        below = [0] * m  # strict down-set of each element, as a bitmask
        for j in range(m):
            for i in range(j):
                if rng.random() < p:
                    below[j] |= (1 << i) | below[i]
        ups = _up_sets(below, FILTER_BAND[1])
        if ups is None or len(ups) < FILTER_BAND[0]:
            continue
        mins = [sum(1 for e in range(m) if u >> e & 1 and not below[e] & u) for u in ups]
        if not UPDEG_BAND[0] <= max(mins) <= UPDEG_BAND[1]:
            continue
        joins = sum(1 << k for k in mins)
        if not lo <= joins <= hi:
            continue
        rank = [0] * (m + 1)
        for u in ups:
            rank[m - u.bit_count()] += 1
        while rank and not rank[-1]:
            rank.pop()
        labels = list(range(1, m + 1))
        rng.shuffle(labels)
        lines = [str(m)]
        for j in range(m):
            inner = 0
            for i in range(m):
                if below[j] >> i & 1:
                    inner |= below[i]
            covered = below[j] & ~inner
            lines.extend(f"{labels[j]} {labels[i]}" for i in range(m) if covered >> i & 1)
        return {
            "workload": "poset-census",
            "poset": "\n".join(lines) + "\n",
            "filters": len(ups),
            "arcs": sum(mins),
            "joins": joins,
            "rank": rank,
        }


def _up_sets(below: list[int], cap: int) -> list[int] | None:
    """Every up-set of the order, or None once there are more than cap."""
    m = len(below)
    above = [0] * m
    for j in range(m):
        for i in range(m):
            if below[j] >> i & 1:
                above[i] |= 1 << j
    sets = [0]
    for e in reversed(range(m)):  # all elements above e are decided first
        sets += [u | 1 << e for u in sets if not above[e] & ~u]
        if len(sets) > cap:
            return None
    return sets


def cycle(workload: str) -> int:
    """Jobs per cycle: a run stops only at the end of a cycle."""
    return len(STRATUM_ORDER) if workload == "poset-census" else 1


def jobs(workload: str, seed: int):
    """Endless iterator over the jobs of a workload, fixed by the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    i = 0
    while True:
        if workload == "poset-census":
            target = JOIN_TARGETS[STRATUM_ORDER[i % len(STRATUM_ORDER)]]
            yield random_poset(rng, round(target * (1 - JOIN_TOLERANCE)),
                               round(target * (1 + JOIN_TOLERANCE)))
        else:
            yield {"workload": workload}
        i += 1


# -- operations -------------------------------------------------------------------


def run_op(job: dict):
    """Run one operation; returns (outputs, units of work)."""
    return _OPS[job["workload"]](job)


def _verify18_op(job: dict):
    from flcubes.cli import main

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main(["verify", "18"], prog_name="flcubes")
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    return {"stdout": text, "exit": code}, _check_count(text)


def _census_op(job: dict):
    from flcubes import tables
    from flcubes.lattice import filter_lattice
    from flcubes.poset import poset_from_text

    diagram = filter_lattice(poset_from_text(job["poset"]))
    polys = {f: list(tables.diagram_poly(f, diagram).coeffs) for f in tables.FAMILIES}
    return polys, len(diagram)


def _formulas_op(job: dict):
    from flcubes import formulas, genfun, tables

    out = {"recurrence": {}, "gf": {}, "closed": {}, "coeff_rec": {}}
    for f in FORMULA_FAMILIES:
        out["recurrence"][f] = [tables.recurrence_poly(f, n) for n in range(REC_MAX_N + 1)]
    for f in FORMULA_FAMILIES:
        out["gf"][f] = tables.gf_polys(f, REC_MAX_N + 1)
    out["gf"]["rank-even"] = tables.gf_polys("rank-even", REC_MAX_N // 2 + 1)
    out["gf"]["rank-odd"] = tables.gf_polys("rank-odd", (REC_MAX_N + 1) // 2)
    for f in FORMULA_FAMILIES:
        lo = tables.CLOSED_MIN_N[f]
        out["closed"][f] = {n: tables.closed_poly(f, n) for n in range(lo, CLOSED_MAX_N + 1)}
    out["exactness"] = {
        f: series().exactness_failure(EXACTNESS_DEPTH + 1) for f, series in genfun.ALL_SERIES.items()
    }
    for f, lo in formulas.VALIDATED_FROM.items():
        hi = COEFF_REC_MAX_N // 2 if f.startswith("rank-") else COEFF_REC_MAX_N
        out["coeff_rec"][f] = {
            n: [formulas.coeff_by_recurrence(f, n, k) for k in range(2 * n + 2)]
            for n in range(lo, hi + 1)
        }
    return out, _formula_coeff_count(out)


_OPS = {"verify18": _verify18_op, "poset-census": _census_op, "formulas": _formulas_op}


def _check_count(report: str) -> int:
    lines = report.rstrip("\n").splitlines()
    head = lines[-1].split(" checks:")[0] if lines else ""
    return int(head) if head.isdigit() else 0


def _formula_coeff_count(out: dict) -> int:
    total = 0
    for route in ("recurrence", "gf"):
        for polys in out[route].values():
            total += sum(len(p.coeffs) for p in polys)
    for polys in out["closed"].values():
        total += sum(len(p.coeffs) for p in polys.values())
    for rows in out["coeff_rec"].values():
        total += sum(len(row) for row in rows.values())
    return total


# -- output checks ------------------------------------------------------------------


def check(job: dict, outputs) -> list[str]:
    """Problems found in one operation's outputs; empty when they are right."""
    return _CHECKS[job["workload"]](job, outputs)


def _check_verify(job: dict, outputs: dict) -> list[str]:
    problems = []
    if outputs["exit"] not in (0, None):
        problems.append(f"exit code {outputs['exit']}")
    expected = REFERENCE.read_text(encoding="ascii")
    got = outputs["stdout"]
    if got != expected:
        old, new = expected.splitlines(), got.splitlines()
        at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        problems.append(f"stdout differs from the reference at line {at + 1}")
    return problems


def _check_census(job: dict, polys: dict) -> list[str]:
    """Identities every filter lattice satisfies, against the generator's counts."""
    problems = []

    def first_moment(c):
        return sum(k * v for k, v in enumerate(c))

    v = job["filters"]
    for f in ("rank", "indegree", "outdegree", "degree"):
        if sum(polys[f]) != v:
            problems.append(f"{f}(1) = {sum(polys[f])}, filter count is {v}")
    if _trim(polys["rank"]) != job["rank"]:
        problems.append(f"rank polynomial {polys['rank']} != {job['rank']}")
    shifted = [
        sum(d * comb(k, j) for k, d in enumerate(polys["indegree"]))
        for j in range(len(polys["indegree"]))
    ]
    if _trim(shifted) != _trim(polys["cube"]):
        problems.append(f"indegree(1+x) = {shifted}, cube = {polys['cube']}")
    arcs = job["arcs"]
    for f in ("indegree", "outdegree"):
        if first_moment(polys[f]) != arcs:
            problems.append(f"{f}'(1) = {first_moment(polys[f])}, arc count is {arcs}")
    if first_moment(polys["degree"]) != 2 * arcs:
        problems.append(f"degree'(1) = {first_moment(polys['degree'])}, twice the arcs is {2 * arcs}")
    cube, maxcube = polys["cube"], polys["maxcube"]
    if len(maxcube) > len(cube) or any(h > q for h, q in zip(maxcube, cube)):
        problems.append(f"maxcube {maxcube} exceeds cube {cube}")
    return problems


def _check_formulas(job: dict, out: dict) -> list[str]:
    problems = []
    rec = {f: [tuple(p.coeffs) for p in polys] for f, polys in out["recurrence"].items()}

    def compare(name, got, want):
        for n, (a, b) in enumerate(zip(got, want)):
            if a != b:
                problems.append(f"{name} disagree at n={n}")
                return
        if len(got) != len(want):
            problems.append(f"{name}: {len(got)} rows vs {len(want)}")

    for f in FORMULA_FAMILIES:
        compare(f"{f}: recurrence and gf", rec[f], [tuple(p.coeffs) for p in out["gf"][f]])
        for n, poly in out["closed"][f].items():
            if tuple(poly.coeffs) != rec[f][n]:
                problems.append(f"{f}: closed form and recurrence disagree at n={n}")
                break
    for f, failure in out["exactness"].items():
        if failure is not None:
            problems.append(f"{f} generating function is not exact: {failure}")
    rank = rec["rank"]
    compare("rank-even gf and rank recurrence", [tuple(p.coeffs) for p in out["gf"]["rank-even"]], rank[0::2])
    compare("rank-odd gf and rank recurrence", [tuple(p.coeffs) for p in out["gf"]["rank-odd"]], rank[1::2])
    for f, rows in out["coeff_rec"].items():
        for n, row in rows.items():
            want = {"rank-even": 2 * n, "rank-odd": 2 * n + 1}.get(f, n)
            family = "rank" if f.startswith("rank-") else f
            if _trim(row) != list(rec[family][want]):
                problems.append(f"{f}: coefficient recurrence disagrees at n={n}")
                break
    a, b = 0, 1  # Fibonacci numbers F(n), F(n+1)
    for n, coeffs in enumerate(rank):
        if n >= 3 and sum(coeffs) != 2 * a:
            problems.append(f"rank(1) = {sum(coeffs)} at n={n}, 2*F(n) = {2 * a}")
            break
        a, b = b, a + b
    return problems


_CHECKS = {"verify18": _check_verify, "poset-census": _check_census, "formulas": _check_formulas}


def _trim(coeffs) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out
