"""The benchmark's workloads: inputs made from the seed, one job, its checks.

A job is one recording through the workload's path. Inputs are built
from the workload seed with the package's own signal generators, which
are never timed. Every job's output is checked and digested, so two runs
with one seed can be compared byte for byte.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

import iceemd
import iceemd.cli as cli
import iceemd.io as io
import iceemd.pipeline as pipeline
from iceemd.benchmark import ENSEMBLE_SEED_OFFSET

INPUT_SNR_DB = 5.0
# acceptance 01: IMFs plus residue reproduce the input to this share of max |x|
RECONSTRUCTION_BOUND = 1e-10


@dataclass
class Checked:
    """What the harness concluded about one job's output."""

    problems: list[str]
    digest: str
    snr_db: float


@dataclass
class Workload:
    """One closed-loop workload: a caller sends the next job when one ends.

    make_input(i) builds job i's input outside the timed region; run(x)
    is the timed job; check(x, out) verifies it. The first
    reference_jobs jobs run in every run whatever the time budget, and
    the deterministic figures (SNR, digests, counts) come from them.
    """

    n: int
    reference_jobs: int
    make_input: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Checked]
    warmup: Callable[[], None]


def _digest(samples: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(samples).tobytes()).hexdigest()


def _well_formed(parts, n: int) -> bool:
    return all(p.size == n and np.all(np.isfinite(p)) for p in parts)


def _decomposition_problems(dec, x: np.ndarray) -> list[str]:
    """Finite, full-length modes that sum back to x (acceptance 01's bound)."""
    if not _well_formed([*dec.imfs, dec.residue], x.size):
        return ["decomposition is not finite or not as long as the input"]
    err = float(np.abs(dec.reconstruct() - x).max()) / float(np.abs(x).max())
    if not err <= RECONSTRUCTION_BOUND:
        return [f"reconstruction error {err:.3e} > {RECONSTRUCTION_BOUND}"]
    return []


# -- iceemd_de on one in-memory recording ----------------------------------

def _denoise_workload(clean, ensemble_seed, cfg, seed, reference_jobs, warm):
    """iceemd_de jobs on clean + noise; noise seeds run from seed upward."""

    def make_input(i):
        noise_seed = seed + i
        noisy = iceemd.add_noise_snr(clean, INPUT_SNR_DB, seed=noise_seed)
        job_cfg = replace(cfg, ensemble=replace(cfg.ensemble, seed=ensemble_seed(noise_seed)))
        return noisy, job_cfg

    def run(job_input):
        return pipeline.iceemd_de(*job_input)

    def check(job_input, result):
        noisy = job_input[0]
        out = result.output.samples
        problems = _decomposition_problems(result.decomposition_raw, noisy.samples)
        if not _well_formed([out], noisy.samples.size):
            return Checked(["output is not finite or not as long as the input", *problems],
                           _digest(out), math.nan)
        return Checked(problems, _digest(out), iceemd.snr(clean, result.output))

    def warmup():
        small = iceemd.add_noise_snr(warm, INPUT_SNR_DB, seed=seed)
        cfg_small = replace(cfg, ensemble=replace(cfg.ensemble, ensemble_size=2))
        pipeline.iceemd_de(small, cfg_small)

    return Workload(clean.samples.size, reference_jobs, make_input, run, check, warmup)


def synth_bench(seed: int, workdir: str) -> Workload:
    """The paper's benchmark signal, default config (ensemble 50).

    Each job's ensemble seed is offset from its noise seed as
    run_benchmark does, so jobs share no noise bank.
    """
    clean = iceemd.synth_signal()
    return _denoise_workload(
        clean, lambda noise_seed: ENSEMBLE_SEED_OFFSET + noise_seed,
        pipeline.PipelineConfig(), seed, reference_jobs=4, warm=clean)


def field_long(seed: int, workdir: str) -> Workload:
    """Bolt-style echo, 8192 samples at 250 kHz, ensemble 10.

    One ensemble seed for every job, as a field campaign run with one
    --seed has, so the noise bank is the same across jobs.
    """
    clean = iceemd.synth_echo_signal(n=8192)
    cfg = pipeline.PipelineConfig(ensemble=iceemd.EnsembleConfig(ensemble_size=10))
    return _denoise_workload(
        clean, lambda noise_seed: ENSEMBLE_SEED_OFFSET + seed,
        cfg, seed, reference_jobs=3, warm=iceemd.synth_echo_signal(n=1024))


# -- file to file: decompose a signal CSV with plain EMD --------------------

def _rebuild_snr_db(dec, x: np.ndarray) -> float:
    """How closely the modes rebuild x, in dB: the quality figure of a
    decomposition job. A bit-exact rebuild is floored at the smallest
    normal error energy so the figure stays finite."""
    err = dec.reconstruct() - x
    error_energy = max(float(np.dot(err, err)), np.finfo(np.float64).tiny)
    return 10.0 * math.log10(float(np.dot(x, x)) / error_energy)


def emd_files(seed: int, workdir: str) -> Workload:
    """Field-style recordings of 50k samples, decomposed CSV to CSV by EMD.

    The job is the `decompose --method emd` command plus reading its
    decomposition back. The input CSV is written before the job starts.
    """
    clean = iceemd.synth_echo_signal(n=50_000)
    dec_path = os.path.join(workdir, "dec.csv")
    rep_path = os.path.join(workdir, "report.json")
    handed_to_writer = {}
    write_decomposition_csv = cli.write_decomposition_csv

    def capture(dec, *args, **kwargs):
        # keep the in-memory decomposition the command writes, so the check
        # can compare it bit for bit with what comes back from the file
        handed_to_writer["dec"] = dec
        return write_decomposition_csv(dec, *args, **kwargs)

    cli.write_decomposition_csv = capture

    def make_input(i, source=clean, tag="in"):
        noisy = iceemd.add_noise_snr(source, INPUT_SNR_DB, seed=seed + i)
        path = os.path.join(workdir, f"{tag}.csv")
        io.write_signal_csv(noisy, path, label="field-style recording")
        return noisy, path

    def run(job_input):
        path = job_input[1]
        code = cli.run_cli(
            ["decompose", path, "--method", "emd", "-o", dec_path, "--report", rep_path])
        if code != 0:
            return code, None, None
        dec, rate = io.read_decomposition_csv(dec_path)
        return code, dec, rate

    def check(job_input, out):
        noisy = job_input[0]
        code, dec, rate = out
        if code != 0:
            return Checked([f"decompose exited with {code}"], "", math.nan)
        problems = _decomposition_problems(dec, noisy.samples)
        expected = handed_to_writer.pop("dec")
        if rate != noisy.sample_rate_hz or not (
            dec.n_imfs == expected.n_imfs
            and all(np.array_equal(a, b) for a, b in zip(
                [*dec.imfs, dec.residue], [*expected.imfs, expected.residue]))
        ):
            problems.append("decomposition CSV round trip is not bit-exact")
        with open(dec_path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        well_formed = _well_formed([*dec.imfs, dec.residue], noisy.samples.size)
        return Checked(problems, digest,
                       _rebuild_snr_db(dec, noisy.samples) if well_formed else math.nan)

    def warmup():
        small = make_input(0, source=iceemd.synth_echo_signal(n=2000), tag="warm")
        check(small, run(small))

    return Workload(clean.samples.size, 2, make_input, run, check, warmup)


WORKLOADS = {"synth_bench": synth_bench, "field_long": field_long, "emd_files": emd_files}
