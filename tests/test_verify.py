import pytest

from flcubes import census, tables, verify
from flcubes.lattice import filter_lattice
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
    report = VerificationReport(14)
    posets = [sfence(n) for n in range(15)]
    verify._structural(report, 14, posets, [filter_lattice(p) for p in posets])
    assert len(report.records) == 10 * 6 + 9 * 5
    assert all(r.status == "pass" for r in report.records), [
        r.render() for r in report.records if r.status != "pass"
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
