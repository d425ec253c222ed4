"""The benchmark's tracer still installs on the package and counts.

bench/tracing.py wraps package functions by name. If one of those names
is renamed or removed, a traced benchmark run dies in Tracer.install()
before any job runs. This test runs the tracer as the benchmark does, in
a subprocess with src/ and bench/ on the path, so the package tests
themselves never import bench/.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from tracing import Tracer
import iceemd.pipeline as pipeline
from iceemd import EnsembleConfig, PipelineConfig, add_noise_snr, synth_signal

tracer = Tracer()
tracer.install()
noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
cfg = PipelineConfig(ensemble=EnsembleConfig(ensemble_size=2, seed=1))
_, _, stats = tracer.job(pipeline.iceemd_de, noisy, cfg)
print(json.dumps(stats))
"""


# ensemble 40 at n=1000 is more than one batch of members; the traced job
# must give the untraced job's output bit for bit
SPLIT_SCRIPT = """
import hashlib
import json
from tracing import Tracer
import iceemd.pipeline as pipeline
from iceemd import EnsembleConfig, PipelineConfig, add_noise_snr, synth_signal

def digest(result):
    dec = result.decomposition_raw
    parts = [result.output.samples, *dec.imfs, dec.residue]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()

noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
cfg = PipelineConfig(ensemble=EnsembleConfig(ensemble_size=40, seed=1))
plain = pipeline.iceemd_de(noisy, cfg)
tracer = Tracer()
tracer.install()
traced, _, stats = tracer.job(pipeline.iceemd_de, noisy, cfg)
stats["same_output"] = digest(traced) == digest(plain)
stats["stages"] = traced.decomposition_raw.n_imfs
print(json.dumps(stats))
"""


def run_traced(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_installs_and_counts_one_job():
    stats = run_traced(SCRIPT)
    assert stats["emd.spline_builds"] == 2 * stats["emd.sift_iterations"] > 0
    assert stats["ensemble.local_mean_calls"] > 0


def test_traced_job_across_batches_matches_untraced():
    stats = run_traced(SPLIT_SCRIPT)
    assert stats["same_output"]
    assert stats["emd.spline_builds"] == 2 * stats["emd.sift_iterations"] > 0
    assert stats["ensemble.local_mean_calls"] == stats["stages"] > 0
