import pytest

from flcubes import tables, verify
from flcubes.lattice import deletion_cutting
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


def test_verify_builds_no_diagram_past_the_census_identity_range(monkeypatch):
    real = tables.phi_diagram
    built = []

    def recorder(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(tables, "phi_diagram", recorder)
    assert run_verification(18).exit_code == 0
    assert built and max(built) <= verify.QD_CENSUS_MAX_N


def test_structural_checks_pass_past_the_reported_range():
    # S-fence 12 has 288 vertices and S-fence 14 has 754; no structural
    # check has a vertex bound of its own
    report = VerificationReport(14)
    verify._structural(report, 14)
    assert len(report.records) == 10 * 6 + 9 * 5
    assert all(r.status == "pass" for r in report.records), [
        r.render() for r in report.records if r.status != "pass"
    ]


def test_last_element_split_cuts_the_cached_host_like_deletion_cutting():
    for n in range(6, 19):
        assert sfence(n).remove(n) == sfence(n - 1)
        host, interval = verify._last_element_split(n)
        assert host is tables.phi_diagram(n - 1)
        built, cutting = deletion_cutting(sfence(n), n)
        assert [host.vertices[v] for v in host.interval_members(interval)] == [
            built.vertices[v] for v in built.interval_members(cutting)
        ]
