"""Layer spans recorded from outside the program.

Each wrapped function runs inside a span (layer, name, start, end,
parent). Wrappers are installed by replacing a function in the module
namespace it is called from, so the package itself is never edited.
Spans are kept in memory and written out once, at the end of a run.
Nothing is recorded outside a job, so warm-up and output checks leave
no trace.
"""
from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# count metrics, per job: the ones a later count-based claim may rest on
COUNTS = (
    "ensemble.local_mean_calls",
    "ensemble.identity_fallbacks",
    "emd.extract_imf_calls",
    "emd.sift_iterations",
    "emd.sift_cap_hits",
    "emd.spline_builds",
    "entropy.apen_calls",
    "entropy.apen_bytes_computed",
    "wavelet.denoise_calls",
    "io.bytes_read",
    "io.bytes_written",
)

# time metrics, per job: (metric, "self" or "incl", key)
TIMES = (
    ("ensemble.noise_bank_s", "incl", "ensemble.noise_bank"),
    ("ensemble.local_mean_s", "incl", "ensemble.local_mean"),
    ("ensemble.self_s", "self", "ensemble"),
    ("emd.spline_s", "self", "emd.spline"),
    ("emd.mean_envelope_s", "self", "emd.mean_envelope"),
    ("emd.find_extrema_s", "self", "emd.find_extrema"),
    ("emd.self_s", "self", "emd"),
    ("entropy.apen_s", "self", "entropy"),
    ("wavelet.denoise_s", "self", "wavelet"),
    ("io.read_s", "self", "io.read"),
    ("io.write_s", "self", "io.write"),
    ("pipeline.self_s", "self", "pipeline"),
    ("cli.self_s", "self", "cli"),
    ("harness.self_s", "self", "harness"),
)


def dense_apen_bytes(n: int) -> int:
    """Bytes the dense ApEn formulation materialises for n samples.

    The float64 difference matrix plus the three boolean match matrices
    (n, n-1 and n-2 square). Computed from n, not measured.
    """
    return 8 * n * n + n * n + (n - 1) ** 2 + (n - 2) ** 2


class Tracer:
    """Span stack plus per-job accumulators."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self.active = False
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.incl_ns: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.apen_peak_bytes = 0

    def _reset_job(self):
        # cleared in place: the installed wrappers hold these dicts
        self.self_ns.clear()   # by layer and by layer.name
        self.incl_ns.clear()   # by layer.name
        self.counts.clear()
        self.apen_peak_bytes = 0

    # -- spans -------------------------------------------------------------

    def _open(self):
        self._stack.append([len(self.spans), time.perf_counter_ns(), 0])
        self.spans.append(None)

    def _close(self, layer: str, key: str) -> int:
        end = time.perf_counter_ns()
        span_id, start, child = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[0]
        self.spans[span_id] = (span_id, parent, key, start, end)
        own = duration - child
        self.self_ns[layer] += own
        self.self_ns[key] += own
        self.incl_ns[key] += duration
        return duration

    def job(self, fn, *args):
        """Run one job as a root span; returns (result, seconds, job stats)."""
        self._reset_job()
        self.active = True
        self._open()
        try:
            result = fn(*args)
        finally:
            duration = self._close("harness", "harness.job")
            self.active = False
        stats = {metric: (self.self_ns if kind == "self" else self.incl_ns)[key] / 1e9
                 for metric, kind, key in TIMES}
        stats.update({name: self.counts[name] for name in COUNTS})
        stats["entropy.apen_peak_mib"] = self.apen_peak_bytes / 2**20
        return result, duration / 1e9, stats

    def wrap(self, layer: str, name: str, fn, on_call=None):
        """fn inside a span; on_call(args, kwargs, result) runs after it."""
        key = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, key)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def write(self, path: str):
        """Write every span as CSV: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layer boundaries of the imported package."""
        import iceemd.cli as cli
        import iceemd.ensemble as ensemble
        import iceemd.entropy as entropy
        import iceemd.io as io
        import iceemd.pipeline as pipeline

        # iceemd/__init__ rebinds the name `emd` to the function
        emd_mod = sys.modules["iceemd.emd"]
        counts = self.counts

        def count(name):
            def on_call(args, kwargs, result):
                counts[name] += 1
            return on_call

        def local_mean(args, kwargs, result):
            counts["ensemble.local_mean_calls"] += 1
            if np.array_equal(result, args[0]):
                counts["ensemble.identity_fallbacks"] += 1

        def file_bytes(direction, path_arg):
            def on_call(args, kwargs, result):
                counts[f"io.bytes_{direction}"] += os.path.getsize(args[path_arg])
            return on_call

        pipeline.iceemd_de = self.wrap("pipeline", "iceemd_de", pipeline.iceemd_de)
        pipeline.iceemd = self.wrap("ensemble", "iceemd", pipeline.iceemd)
        pipeline.apen_per_imf = self.wrap("entropy", "apen_per_imf", pipeline.apen_per_imf)
        pipeline.wavelet_denoise = self.wrap(
            "wavelet", "denoise", pipeline.wavelet_denoise, count("wavelet.denoise_calls"))
        entropy.approximate_entropy = self._wrap_apen(entropy.approximate_entropy)

        ensemble.generate_noise_bank = self.wrap(
            "ensemble", "noise_bank", ensemble.generate_noise_bank)
        ensemble.local_mean_operator = self.wrap(
            "ensemble", "local_mean", ensemble.local_mean_operator, local_mean)
        ensemble.emd = self.wrap("emd", "emd", ensemble.emd)

        emd_mod.extract_imf = self._wrap_extract_imf(emd_mod.extract_imf, emd_mod.SiftConfig)
        emd_mod.mean_envelope = self.wrap(
            "emd", "mean_envelope", emd_mod.mean_envelope, count("emd.sift_iterations"))
        emd_mod.find_extrema = self.wrap("emd", "find_extrema", emd_mod.find_extrema)
        emd_mod.CubicSpline = self.wrap(
            "emd", "spline", emd_mod.CubicSpline, count("emd.spline_builds"))

        cli.run_cli = self.wrap("cli", "run_cli", cli.run_cli)
        cli.emd = self.wrap("emd", "emd", cli.emd)
        cli.read_signal_csv = self.wrap(
            "io", "read", cli.read_signal_csv, file_bytes("read", 0))
        cli.write_decomposition_csv = self.wrap(
            "io", "write", cli.write_decomposition_csv, file_bytes("written", 1))
        cli.write_report = self.wrap("io", "write", cli.write_report, file_bytes("written", 1))
        io.read_decomposition_csv = self.wrap(
            "io", "read", io.read_decomposition_csv, file_bytes("read", 0))

    def _wrap_apen(self, fn):
        """ApEn with its tracemalloc peak taken inside the call."""

        def on_call(args, kwargs, result):
            self.counts["entropy.apen_calls"] += 1
            self.counts["entropy.apen_bytes_computed"] += dense_apen_bytes(np.size(args[0]))

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.apen_peak_bytes = max(self.apen_peak_bytes, peak)

        return self.wrap("entropy", "approximate_entropy", measured, on_call)

    def _wrap_extract_imf(self, fn, sift_config):
        """extract_imf, counting the calls that hit the sift cap."""
        counts = self.counts
        traced = self.wrap("emd", "extract_imf", fn)

        def counted(samples, cfg=None):
            cfg = sift_config() if cfg is None else cfg
            if not self.active:
                return fn(samples, cfg)
            counts["emd.extract_imf_calls"] += 1
            before = counts["emd.sift_iterations"]
            result = traced(samples, cfg)
            if counts["emd.sift_iterations"] - before == cfg.max_sift_iterations:
                counts["emd.sift_cap_hits"] += 1
            return result

        return counted
