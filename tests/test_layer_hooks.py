"""The layer boundaries a tracer wraps from outside the package.

bench/tracing.py times and counts each layer by replacing functions in
the module namespace they are called from. These tests install plain
counting wrappers on the same names, without importing bench/, so a
refactor that binds one of them locally or bypasses it fails here
instead of silently reading 0 in a per-layer metric.
"""
import sys

import pytest

import iceemd.cli as cli
import iceemd.entropy as entropy
import iceemd.ensemble as ensemble
import iceemd.io as io
import iceemd.pipeline as pipeline
from iceemd import EnsembleConfig, PipelineConfig, add_noise_snr, synth_signal

# iceemd/__init__ rebinds the name `emd` to the function
emd_mod = sys.modules["iceemd.emd"]

HOOKS = (
    (emd_mod, "mean_envelope"),
    (emd_mod, "find_extrema"),
    (emd_mod, "CubicSpline"),
    (ensemble, "generate_noise_bank"),
    (ensemble, "local_mean_operator"),
    (ensemble, "emd"),
    (pipeline, "iceemd"),
    (pipeline, "apen_per_imf"),
    (pipeline, "wavelet_denoise"),
    (entropy, "approximate_entropy"),
    (cli, "emd"),
    (cli, "read_signal_csv"),
    (cli, "write_decomposition_csv"),
    (cli, "write_report"),
    (io, "read_decomposition_csv"),
)


@pytest.fixture
def hooked(monkeypatch):
    """Counting wrappers on every hooked name; extract_imf's fills in and
    forwards a SiftConfig the way the tracer's does."""
    calls = {f"{module.__name__}.{name}": 0 for module, name in HOOKS}
    # an empty bank cache, so the noise bank is built whatever ran before
    monkeypatch.setattr(ensemble, "_last_bank", {})

    for module, name in HOOKS:
        fn = getattr(module, name)
        key = f"{module.__name__}.{name}"

        def counted(*args, _fn=fn, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    extract_imf = emd_mod.extract_imf
    forwarded = []

    def sift_hook(samples, cfg=None):
        cfg = emd_mod.SiftConfig() if cfg is None else cfg
        forwarded.append(cfg)
        return extract_imf(samples, cfg)

    monkeypatch.setattr(emd_mod, "extract_imf", sift_hook)
    return calls, forwarded


def test_every_layer_hook_sees_its_calls(hooked, tmp_path):
    calls, forwarded = hooked
    noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
    pipeline.iceemd_de(noisy, PipelineConfig(ensemble=EnsembleConfig(ensemble_size=2, seed=1)))

    sig, dec, rep = tmp_path / "sig.csv", tmp_path / "dec.csv", tmp_path / "rep.json"
    io.write_signal_csv(noisy, sig)
    argv = ["decompose", str(sig), "--method", "emd", "-o", str(dec), "--report", str(rep)]
    assert cli.run_cli(argv) == 0
    io.read_decomposition_csv(str(dec))

    assert [key for key, count in calls.items() if count == 0] == []
    assert forwarded
    assert all(cfg == emd_mod.SiftConfig() for cfg in forwarded)
