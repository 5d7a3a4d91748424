"""flcubes benchmark: one workload, cold worker processes, checked outputs.

    python3 perfbench/run.py --workload verify18 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One worker process runs at a time and does one operation, so no
lattice, scan or cached result carries over between operations.  The last
stdout line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Times are scaled to one nominal
speed of the machine (``calib.py``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import workloads  # noqa: E402
from spans import SPANS  # noqa: E402

OP_TIMEOUT_S = 120
# Job-less spawns per untraced run, beside one per operation, so that
# setup_s is a median of enough samples even when operations are long.
SETUP_SPAWNS = 20
# Counters reported by the traced run, with their units.
COUNTS = {
    "census.calls": "count", "census.distinct": "count", "census.reuse": "ratio",
    "census.joins": "count", "census.cubes": "count", "census.scan_bits": "bits",
    "lattice.arcs": "count", "poset.enum_calls": "count",
    "polynomials.coeffs_out": "count", "polynomials.max_bits": "bits",
    "verify.checks": "count", "verify.errata": "count",
}


def run_worker(job: dict | None) -> tuple[float, dict]:
    """Spawn a cold worker for one job; returns (setup seconds, result).

    Setup is the time from spawning the interpreter until it has imported
    flcubes.cli.  A worker that dies or prints no result yields a result
    whose problems say so.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "ready":
            proc.communicate(timeout=OP_TIMEOUT_S)
            return setup, {"problems": [f"worker did not start (exit {proc.returncode})"]}
        out, _ = proc.communicate(json.dumps(job) + "\n" if job else "", timeout=OP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    try:
        return setup, json.loads(lines[-1])
    except (IndexError, ValueError):
        return setup, {"problems": [f"worker printed no result (exit {proc.returncode})"]}


def failed(result: dict) -> bool:
    return bool(result.get("problems")) or result.get("op_s") is None or not result.get("probe_s")


def timing_summary(name: str, values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.4g} s over {n} samples"
    top = int(100 * (1 - 10 / n)) if n > 10 else 0
    if top >= 1:
        line += f"; p{top} {statistics.quantiles(values, n=100)[top - 1]:.4g} s"
    else:
        line += "; no percentile has ten samples beyond it"
    return line


def speed(result: dict) -> float:
    """Nominal over measured reference-loop time during the operation (calib)."""
    return calib.NOMINAL_S / result["probe_s"]


def op_time(result: dict) -> float:
    """The operation's time at the nominal machine speed."""
    return result["op_s"] * speed(result)


def measure(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    """Untraced run: whole cycles of operations until the time is up.

    Operation times are scaled by the speed the probe measured during each
    operation, setup times by the speed measured right after setup
    (``calib``), so that the host's changing speed does not show as a change
    of the program.  The stdout lines before the JSON also give raw times.
    """
    run_worker(None)  # compiles bytecode; not measured
    setups = [run_worker(None) for _ in range(SETUP_SPAWNS)]
    it = workloads.jobs(workload, seed)
    results = []
    start = perf_counter()
    per_cycle = workloads.cycle(workload)
    while not results or perf_counter() - start < seconds or len(results) % per_cycle:
        setup, result = run_worker(next(it))
        setups.append((setup, result))
        results.append(result)
    ok = [r for r in results if not failed(r)]
    setup_times = [s * calib.NOMINAL_S / r["setup_cal_s"] for s, r in setups if r.get("setup_cal_s")]
    # One sample per whole cycle: its mean op time.  On poset-census a cycle
    # holds one input of each join-count stratum, so a sample does not
    # depend on which stratum a median of single operations falls in.
    cycles = [results[i:i + per_cycle] for i in range(0, len(results), per_cycle)]
    op_times = [statistics.fmean(op_time(r) for r in c) for c in cycles
                if not any(failed(r) for r in c)]
    if ok:
        print(timing_summary("op time", [op_time(r) for r in ok]))
        print(timing_summary("op time (raw)", [r["op_s"] for r in ok]))
        print(timing_summary("reference loop", [r["probe_s"] for r in ok]))
    if per_cycle > 1 and op_times:
        print(timing_summary(f"op_s (means of cycles of {per_cycle})", op_times))
    if setup_times:
        print(timing_summary("setup_s", setup_times))
        print(timing_summary("setup_s (raw)", [s for s, r in setups if r.get("setup_cal_s")]))
    metrics = {
        "op_s": (statistics.median(op_times) if op_times else 0.0, "s"),
        "work_per_s": (sum(r["work"] for r in ok) / sum(op_time(r) for r in ok) if ok else 0.0,
                       "1/s"),
        "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
        "peak_rss_mb": (max((r.get("rss_kb", 0) for r in results), default=0) / 1024, "MB"),
    }
    return results, metrics


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    """Traced run: passes over the first cycle of inputs, each run plain then traced.

    Self times are means per traced operation, scaled like op times (the
    probe's own time, about 2%, falls inside the spans).  Counters are means per input
    over one pass (polynomials.max_bits: the maximum) and must repeat exactly
    on every pass.  trace.overhead is the median over input pairs of traced
    over plain op time, minus one.
    """
    run_worker(None)
    it = workloads.jobs(workload, seed)
    inputs = [next(it) for _ in range(workloads.cycle(workload))]
    results, traced, ratios, passes = [], [], [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        counts = []
        for job in inputs:
            _, plain = run_worker({**job, "trace": False})
            _, result = run_worker({**job, "trace": True})
            results += [plain, result]
            counts.append(result.get("counts", {}))
            if not failed(result):
                traced.append(result)
                if not failed(plain):
                    ratios.append(op_time(result) / op_time(plain))
        passes.append(counts)
    if any(p != passes[0] for p in passes[1:]):
        results[-1].setdefault("problems", []).append(
            "counters differ between passes over the same inputs")
    metrics = {}
    for group in SPANS:
        total = sum(r["layers"].get(group, 0.0) * speed(r) for r in traced)
        metrics[group] = (total / len(traced) if traced else 0.0, "s")
    for name, unit in COUNTS.items():
        values = [c.get(name, 0) for c in passes[0]]
        value = max(values) if name == "polynomials.max_bits" else sum(values) / len(values)
        metrics[name] = (value, unit)
    overhead = statistics.median(ratios) - 1 if ratios else 0.0
    metrics["trace.overhead"] = (overhead, "ratio")
    return results, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flcubes" / "cli.py").is_file():
        print(f"no flcubes sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = measure_traced if args.trace else measure
    results, metrics = run(args.workload, args.seed, args.seconds)
    bad = [r for r in results if failed(r)]
    for r in bad[:5]:
        print("failed:", "; ".join(r.get("problems") or ["no timing"]), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not bad,
        "attempted": len(results),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
