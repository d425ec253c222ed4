"""One workload in a fresh process: set up, run jobs back to back, check them.

Started by run.py, never by hand. Prints one JSON line with the set-up
time, every job's record and the process's peak resident memory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback


def _job(workload, job_input, tracer, traced: bool) -> dict:
    """Run and check one job; an exception or a failed check is a failure."""
    try:
        if traced:
            out, seconds, stats = tracer.job(workload.run, job_input)
        else:
            start = time.perf_counter()
            out = workload.run(job_input)
            seconds = time.perf_counter() - start
            stats = None
        checked = workload.check(job_input, out)
    except Exception as exc:  # a failing job must not stop the run
        traceback.print_exc()
        return {"traced": traced, "seconds": None, "problems": [repr(exc)],
                "digest": "", "snr_db": math.nan, "stats": None}
    return {"traced": traced, "seconds": seconds, "problems": checked.problems,
            "digest": checked.digest, "snr_db": checked.snr_db, "stats": stats}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0-ns", type=int, required=True, help="monotonic time of the spawn")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None, help="where a traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import iceemd

    # the package must come from this checkout, never from an installed copy
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(iceemd.__file__).startswith(src + os.sep):
        print(f"error: iceemd imported from {iceemd.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warmup()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # a traced run pairs every input: untraced, then traced, so the gap
    # between the two is the tracing overhead
    modes = (False, True) if tracer is not None else (False,)
    jobs = []
    start = time.perf_counter()
    i = 0
    while i < workload.reference_jobs or time.perf_counter() - start < args.seconds:
        job_input = workload.make_input(i)
        for traced in modes:
            jobs.append({"index": i, **_job(workload, job_input, tracer, traced)})
        i += 1
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "n": workload.n,
        "reference_jobs": workload.reference_jobs,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
