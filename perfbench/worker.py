"""One cold benchmark worker: runs a single operation and exits.

Protocol on stdin/stdout, one line each: after ``import flcubes.cli`` the
worker prints ``ready``; it then reads one JSON job, runs it (traced when the
job says so), checks the outputs and prints one JSON result.  Every worker
first times ``calib``'s reference loop (``setup_cal_s``, the machine's speed
right after setup); a job-less worker (empty stdin) then prints only that.
During the operation a ``calib.SpeedProbe`` samples the speed: ``op_s`` is
the wall time less the probe's own time, ``probe_s`` the mean loop time.
Its exit code is 0 whenever a result line was printed, even for a failed
operation.
"""

import sys

import flcubes.cli  # noqa: F401  (interpreter start plus this import is setup_s)

print("ready", flush=True)

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> None:
    line = sys.stdin.readline()
    setup_cal = calib.measure()
    if not line:  # setup spawn: no operation
        print(json.dumps({"setup_cal_s": setup_cal}), flush=True)
        return
    job = json.loads(line)
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    result = {"op_s": None, "work": 0, "problems": [], "setup_cal_s": setup_cal}
    try:
        with calib.SpeedProbe() as probe:
            t0 = perf_counter()
            outputs, work = workloads.run_op(job)
            wall = perf_counter() - t0
        result["op_s"] = wall - probe.spent
        result["probe_s"] = probe.mean_s()
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["problems"] = workloads.check(job, outputs)
        result["work"] = work
    except Exception:  # one failed operation is reported, not fatal
        result["problems"].append(traceback.format_exc(limit=3))
    if tracer is not None:
        result["layers"] = dict(tracer.self_s)
        result["counts"] = tracer.counts()
    print(json.dumps(result), flush=True)


main()
