import pytest

from flcubes import census, tables, verify
from flcubes.polynomials import IntPoly
from flcubes.poset import sfence
from flcubes.verify import CheckRecord, VerificationReport, run_verification


def test_verify_zero_is_trivial():
    report = run_verification(0)
    assert report.failures == 0
    assert report.errata == 0
    assert report.exit_code == 0
    assert any("empty range" in r.scope for r in report.records)


def test_verify_rejects_negative():
    with pytest.raises(ValueError):
        run_verification(-3)


def test_verify_ten_passes_with_probes():
    report = run_verification(10)
    assert report.failures == 0
    assert report.errata == 3
    assert report.exit_code == 0
    names = [r.name for r in report.records]
    assert any("census vs recurrence" in n for n in names)
    assert any("census vs closed form" in n for n in names)
    assert any("recurrence vs generating function" in n for n in names)
    assert any("dual-fence split" in n for n in names)
    assert any("last-element split" in n for n in names)
    assert any("coefficient recurrence vs polynomial recurrence" in n for n in names)


def test_verify_is_deterministic():
    a = run_verification(8).render()
    b = run_verification(8).render()
    assert a == b


def test_report_rendering_and_exit_codes():
    report = VerificationReport(
        3,
        [
            CheckRecord("alpha", "n=0..3", "pass"),
            CheckRecord("beta", "n=1..2", "fail", "n=1: 1 vs 2"),
            CheckRecord("gamma", "probe n=4", "erratum", "expected mismatch"),
        ],
    )
    assert report.failures == 1
    assert report.errata == 1
    assert report.exit_code == 1
    text = report.render()
    assert "PASS" in text and "FAIL" in text and "ERRATUM" in text
    assert "3 checks: 1 passed, 1 failed, 1 errata" in text


def test_a_failing_comparison_shows_its_first_mismatch_and_stops_there(monkeypatch):
    # the diagram-scan route is wrong at n = 5 (the S-fence with 10 filters)
    # and raises on every later row, so the check must stop at n = 5
    real = tables.diagram_poly

    def faulty(family, diagram):
        if len(diagram) > 10:
            raise AssertionError("a row past the first mismatch was computed")
        poly = real(family, diagram)
        return poly + IntPoly((0, 0, 1)) if len(diagram) == 10 else poly

    monkeypatch.setattr(tables, "diagram_poly", faulty)
    report = run_verification(12)
    assert report.failures == 1
    assert (
        "FAIL    indegree(1+x) equals cube polynomial (census route) [n=0..12]: "
        "n=5: 10 + 13x + 4x^2 vs 10 + 13x + 5x^2"
    ) in report.render().splitlines()


def test_probe_records_carry_polynomials():
    report = run_verification(6)
    cube_probe = next(
        r for r in report.records if r.status == "erratum" and r.name.startswith("cube")
    )
    assert "recurrence gives" in cube_probe.detail
    assert "census gives" in cube_probe.detail


def _recording(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list of its call arguments."""
    real, calls = getattr(module, name), []

    def recorder(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recorder)
    return calls


def test_verify_builds_no_diagram_past_the_census_identity_range(monkeypatch):
    built = _recording(monkeypatch, verify, "filter_lattice")
    assert run_verification(18).exit_code == 0
    assert built and max(len(p) for (p,) in built) <= verify.QD_CENSUS_MAX_N


def test_verify_builds_each_census_and_recurrence_row_once_per_run(monkeypatch):
    censuses = _recording(monkeypatch, verify, "poset_census")
    recurrences = _recording(monkeypatch, tables, "recurrence_poly")
    assert run_verification(18).exit_code == 0
    assert [len(p) for (p,) in censuses] == list(range(19))
    assert recurrences and len(set(recurrences)) == len(recurrences)


def test_structural_checks_pass_past_the_reported_range():
    # S-fence 12 has 288 vertices and S-fence 14 has 754; no structural
    # check has a vertex bound of its own
    posets = [sfence(n) for n in range(15)]
    records = list(verify._structural(14, posets))
    assert len(records) == 10 * 6 + 9 * 5
    assert all(r.status == "pass" for r in records), [
        r.render() for r in records if r.status != "pass"
    ]


def test_ranges_raised_past_the_lists_the_run_builds_stop_at_their_ends(monkeypatch):
    n = tables.CENSUS_MAX_N + 1  # past the S-fences and past the diagrams
    for constant in ("STRUCTURAL_MAX_N", "GENERIC_CUBE_MAX_N", "CONEXP_MAX_N"):
        monkeypatch.setattr(verify, constant, n)
    # the subgraph oracle's own vertex bound would refuse S-fence 8 first
    monkeypatch.setattr(census, "GENERIC_GRAPH_BOUND", 1000)
    report = run_verification(n)
    assert report.failures == 0
    split_ns = {int(r.scope[2:]) for r in report.records if "split:" in r.name}
    assert max(split_ns) == verify.QD_CENSUS_MAX_N
    scopes = {r.name: r.scope for r in report.records}
    assert scopes["subgraph search agrees with interval cube census"] == (
        f"n<={verify.QD_CENSUS_MAX_N}, k<={census.GENERIC_DIM_BOUND}"
    )
    assert scopes["filter counts split under element deletion"] == f"n<={tables.CENSUS_MAX_N}"
