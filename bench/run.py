"""The iceemd benchmark: one workload, timed from outside the program.

    python3 bench/run.py --workload synth_bench --seed 0 --seconds 25 --trace 0

Run from the repository root. Each run starts the workload in fresh
processes (see worker.py): a few that only set up, to time set-up, then
one that sets up and runs jobs back to back for --seconds, after a
fixed number of reference jobs that every run completes. With --trace 0
it reports the end-to-end metrics; with --trace 1 it pairs every job
with a traced copy and reports the per-layer metrics and the tracing
overhead. Every job's output is checked. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Exit code 0 whenever a result is printed (a failed check shows in the
result), 1 when the workload cannot be run at all.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import COUNTS, TIMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("synth_bench", "field_long", "emd_files")
SETUP_PROBES = 2       # set-up-only processes per run, besides the measuring one
TIME_LIMIT_S = 170.0   # a run must end within 180 s
# one BLAS/OpenMP thread: a single caller, and steadier timings on a shared host
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "throughput_sps": "1/s",
                    "peak_rss_mib": "MiB", "output_snr_db": "dB"}


class RunError(Exception):
    """The workload could not be run; no result is printed."""


def machine_header() -> dict:
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "ram_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": THREADS,
    }


def source_fingerprint() -> str:
    """Digest of the program and the benchmark, keying the repeat records."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "iceemd").glob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {exc.timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], res: dict) -> dict:
    timed = [j for j in res["jobs"] if j["seconds"] is not None]
    reference = [j for j in res["jobs"]
                 if j["index"] < res["reference_jobs"] and math.isfinite(j["snr_db"])]
    if not timed or not reference:
        raise RunError("no reference job produced a well-formed output")
    return {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(j["seconds"] for j in timed),
        "throughput_sps": res["n"] * len(timed) / sum(j["seconds"] for j in timed),
        "peak_rss_mib": res["peak_rss_mib"],
        "output_snr_db": statistics.fmean(j["snr_db"] for j in reference),
    }


def per_layer(res: dict) -> tuple[dict, dict]:
    """Per-layer metrics and their units from a traced run's job pairs."""
    traced = [j for j in res["jobs"] if j["traced"] and j["stats"] is not None]
    reference = [j for j in traced if j["index"] < res["reference_jobs"]]
    if not reference:
        raise RunError("no traced reference job completed")
    metrics, units = {}, {}
    for name, _, _ in TIMES:
        metrics[name], units[name] = statistics.fmean(j["stats"][name] for j in traced), "s"
    for name in COUNTS:
        unit = "B" if "bytes" in name else "count"
        metrics[name] = sum(j["stats"][name] for j in reference) / len(reference)
        units[name] = unit
    metrics["entropy.apen_peak_mib"] = max(j["stats"]["entropy.apen_peak_mib"] for j in traced)
    units["entropy.apen_peak_mib"] = "MiB"

    untraced = {j["index"]: j["seconds"] for j in res["jobs"]
                if not j["traced"] and j["seconds"] is not None}
    pairs = [(untraced[j["index"]], j["seconds"]) for j in traced if j["index"] in untraced]
    metrics["trace.job_s"] = statistics.fmean(j["seconds"] for j in traced)
    metrics["trace.untraced_job_s"] = statistics.fmean(u for u, _ in pairs)
    metrics["trace.overhead_frac"] = statistics.median(t / u - 1.0 for u, t in pairs)
    units.update({"trace.job_s": "s", "trace.untraced_job_s": "s", "trace.overhead_frac": "1"})
    return metrics, units


def reference_digests(res: dict) -> list[tuple[int, str]]:
    """(job index, output digest) of the reference jobs; a traced run has
    two copies of each job, which collapse when their outputs agree."""
    return sorted({(j["index"], j["digest"]) for j in res["jobs"]
                   if j["index"] < res["reference_jobs"]})


def repeat_check(workload: str, seed: int, res: dict, counts: dict | None) -> list[str]:
    """Compare this run's reference digests and counts with an earlier run
    of the same code and seed in this checkout; they must repeat exactly."""
    digests = reference_digests(res)
    record = {"fingerprint": source_fingerprint(), "digests": digests, "counts": counts}
    # traced and untraced copies of one input must give the same output
    indices = [i for i, _ in digests]
    problems = [f"job {i}: output differs with tracing on"
                for i in sorted(set(indices)) if indices.count(i) > 1]
    path = OUT / "records" / f"{workload}-seed{seed}.json"
    if path.is_file():
        old = json.loads(path.read_text())
        if old["fingerprint"] == record["fingerprint"]:
            old["digests"] = [tuple(d) for d in old["digests"]]
            if old["digests"] != record["digests"]:
                problems.append("output digests differ from an earlier run with this seed")
            if old["counts"] and counts and old["counts"] != counts:
                problems.append("count metrics differ from an earlier run with this seed")
            record["counts"] = counts or old["counts"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # on SIGTERM unwind, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "iceemd" / "__init__.py").is_file():
        print(f"error: no iceemd package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + TIME_LIMIT_S
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict.fromkeys(THREAD_VARS, THREADS)}
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        setups = [spawn([*common, "--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        res = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--spans", str(spans)], env, deadline)
    except RunError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    jobs = res["jobs"]
    failed = [j for j in jobs if j["problems"]]
    try:
        if args.trace:
            metrics, units = per_layer(res)
            counts = {name: metrics[name] for name in COUNTS}
        else:
            metrics, units, counts = end_to_end(setups, res), END_TO_END_UNITS, None
        if not all(math.isfinite(v) for v in metrics.values()):
            raise RunError(f"a metric is not finite: {metrics}")
    except RunError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    problems = repeat_check(args.workload, args.seed, res, counts)
    problems += [f"job {j['index']}{' traced' if j['traced'] else ''}: {m}"
                 for j in failed for m in j["problems"]]

    print(f"# {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g} "
          + " ".join(f"{k}={v}" for k, v in machine_header().items()))
    timed = sum(j["seconds"] is not None for j in jobs)
    print(f"# {len(jobs)} jobs, {timed} completed ({sum(j['traced'] for j in jobs)} traced), "
          f"n={res['n']}, {res['reference_jobs']} reference jobs; setup_s is the median "
          f"of {len(setups)} set-ups")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {len(failed) / len(jobs):.6g} ({len(failed)} of {len(jobs)})")
    digest = hashlib.sha256(json.dumps(reference_digests(res)).encode()).hexdigest()
    print(f"reference_digest = {digest}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
