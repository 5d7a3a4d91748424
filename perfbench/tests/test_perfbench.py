"""Tests of the benchmark itself: inputs, output checks, failure counting
and the repeatability of the traced counters.

    python3 -m pytest perfbench/tests -q
"""

import io
import itertools
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from flcubes import tables  # noqa: E402
from flcubes.lattice import filter_lattice  # noqa: E402
from flcubes.poset import poset_from_text  # noqa: E402


def _small_census_job(seed=3):
    """A poset-census job from below the lowest join-count stratum."""
    return workloads.random_poset(random.Random(seed), 50_000, 90_000)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_posets_are_valid_and_in_band(seed):
    job = next(workloads.jobs("poset-census", seed))
    poset = poset_from_text(job["poset"])  # validates the transitive reduction
    assert poset.elements == tuple(range(1, len(poset) + 1))
    assert workloads.SIZE_BAND[0] <= len(poset) <= workloads.SIZE_BAND[1]
    assert poset.count_filters() == job["filters"]
    assert workloads.FILTER_BAND[0] <= job["filters"] <= workloads.FILTER_BAND[1]
    target = workloads.JOIN_TARGETS[workloads.STRATUM_ORDER[0]]
    assert abs(job["joins"] - target) <= workloads.JOIN_TOLERANCE * target
    diagram = filter_lattice(poset)
    assert len(diagram.arcs) == job["arcs"]
    assert sum(1 << len(ups) for ups in diagram.up_adj) == job["joins"]
    updeg = max(len(ups) for ups in diagram.up_adj)
    assert workloads.UPDEG_BAND[0] <= updeg <= workloads.UPDEG_BAND[1]


def test_same_seed_gives_same_inputs():
    a, b = workloads.jobs("poset-census", 7), workloads.jobs("poset-census", 7)
    assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
    assert next(workloads.jobs("poset-census", 8)) != next(workloads.jobs("poset-census", 7))


def test_census_checks_accept_the_program_and_catch_a_corrupted_polynomial():
    job = _small_census_job()
    diagram = filter_lattice(poset_from_text(job["poset"]))
    polys = {f: list(tables.diagram_poly(f, diagram).coeffs) for f in tables.FAMILIES}
    assert workloads.check(job, polys) == []
    for family in ("cube", "outdegree", "degree", "rank"):
        bad = dict(polys)
        bad[family] = [polys[family][0] + 1] + polys[family][1:]
        assert workloads.check(job, bad), family
    bad = dict(polys, maxcube=polys["cube"][:-1] + [polys["cube"][-1] + 1])
    assert workloads.check(job, bad) == [f"maxcube {bad['maxcube']} exceeds cube {polys['cube']}"]


def test_verify_check_catches_a_corrupted_report_line():
    reference = workloads.REFERENCE.read_text(encoding="ascii")
    assert workloads.check({"workload": "verify18"}, {"stdout": reference, "exit": 0}) == []
    lines = reference.splitlines(keepends=True)
    lines[5] = lines[5].replace("PASS", "FAIL", 1)
    problems = workloads.check({"workload": "verify18"}, {"stdout": "".join(lines), "exit": 0})
    assert problems == ["stdout differs from the reference at line 6"]
    assert workloads.check({"workload": "verify18"}, {"stdout": reference, "exit": 1})


def test_formula_checks_catch_a_corrupted_polynomial(monkeypatch):
    from flcubes.polynomials import IntPoly

    monkeypatch.setattr(workloads, "REC_MAX_N", 60)
    monkeypatch.setattr(workloads, "CLOSED_MAX_N", 20)
    monkeypatch.setattr(workloads, "COEFF_REC_MAX_N", 20)
    out, work = workloads.run_op({"workload": "formulas"})
    assert workloads.check({"workload": "formulas"}, out) == []
    assert work > 0
    good = out["gf"]["cube"][40]
    out["gf"]["cube"][40] = good + IntPoly((0, 1))
    assert workloads.check({"workload": "formulas"}, out) == ["cube: recurrence and gf disagree at n=40"]
    out["gf"]["cube"][40] = good
    out["closed"]["degree"][12] = IntPoly((1,))
    assert workloads.check({"workload": "formulas"}, out)


def test_speed_probe_samples_during_the_block_and_scales_op_time():
    with calib.SpeedProbe() as probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
        wall = perf_counter() - t0
    assert len(probe.samples) >= 0.3 / calib.PERIOD_S / 2
    assert 0 < probe.spent < 0.2 * wall
    slow = {"op_s": 3.0, "probe_s": 2 * calib.NOMINAL_S}
    assert run.op_time(slow) == pytest.approx(1.5)  # a CPU at half speed


def test_failed_check_is_counted_in_failed_ops(monkeypatch):
    job = _small_census_job()
    job["rank"] = job["rank"][:-1] + [job["rank"][-1] + 1]  # wrong expectation
    monkeypatch.setattr(workloads, "jobs", lambda workload, seed: itertools.repeat(job))
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "poset-census", "--seed", "0", "--seconds", "0.01"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    ops = workloads.cycle("poset-census")  # a run ends on a whole cycle
    assert (result["correct"], result["attempted"], result["failed"]) == (False, ops, ops)


def test_traced_counters_repeat_exactly_and_match_the_input():
    job = _small_census_job()
    first = run.run_worker({**job, "trace": True})[1]
    second = run.run_worker({**job, "trace": True})[1]
    assert first["problems"] == [] and second["problems"] == []
    assert first["counts"] == second["counts"]
    counts = first["counts"]
    assert counts["lattice.arcs"] == job["arcs"]
    assert counts["census.joins"] == job["joins"]
    assert counts["census.scan_bits"] == job["filters"] ** 2
    assert counts["poset.enum_calls"] == 2  # count_filters, then filters
    assert counts["census.calls"] == counts["census.distinct"] == 6
    assert counts["polynomials.coeffs_out"] == sum(len(c) for c in _census_polys(job).values())
    assert first["layers"]["census.cube_s"] > 0


def _census_polys(job):
    diagram = filter_lattice(poset_from_text(job["poset"]))
    return {f: tables.diagram_poly(f, diagram).coeffs for f in tables.FAMILIES}
