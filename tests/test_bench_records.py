"""The committed benchmark trajectory files (BENCH_*.json at the repository
root) stay consistent with the runs they record."""

import json
import re
import statistics
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


def test_a_trajectory_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_both_commits(path):
    commits = json.loads(path.read_text())["commits"]
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", commits[side]), side
    assert commits["parent"] != commits["change"]


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_recorded_run_is_correct(path):
    record = json.loads(path.read_text())
    lines = [run["last_line"] for run in record["runs"]]
    lines += [record["traced"][side] for side in ("parent", "change")]
    for line in lines:
        assert line["correct"] is True
        assert line["failed"] == 0


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_summaries_are_the_medians_of_the_runs(path):
    record = json.loads(path.read_text())
    for workload, sides in record["summary"].items():
        for side, summary in sides.items():
            runs = [r for r in record["runs"] if r["workload"] == workload and r["side"] == side]
            assert sorted(r["seed"] for r in runs) == sorted(summary["seeds"]), (workload, side)
            lines = [r["last_line"] for r in runs]
            assert summary["attempted"] == sum(line["attempted"] for line in lines)
            assert summary["failed"] == sum(line["failed"] for line in lines) == 0
            metrics = {k: v for k, v in summary.items() if isinstance(v, dict)}
            assert metrics
            for name, stats in metrics.items():
                median = statistics.median(line["metrics"][name]["value"] for line in lines)
                assert stats["q1_median_q3"][1] == pytest.approx(median, rel=1e-6, abs=1e-6), (
                    workload, side, name,
                )
