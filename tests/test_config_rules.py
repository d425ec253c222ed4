"""The config-value rules of iceemd.types, at every site that applies one:
a count is an integer >= 1, a seed an integer >= 0, and the other values
real numbers, finite (and > 0 where stated). Each refusal is an
InvalidConfigError whose message names the value."""
import math
import re
import warnings

import numpy as np
import pytest

from iceemd import (
    ApEnConfig,
    Decomposition,
    EnsembleConfig,
    InvalidConfigError,
    PipelineConfig,
    Signal,
    SynthConfig,
    add_noise_snr,
    apen_per_imf,
    emd,
    iceemd,
    synth_signal,
)
from iceemd.benchmark import run_benchmark
from iceemd.emd import SiftConfig
from iceemd.wavelet import DenoiseConfig, universal_threshold

_T = np.arange(200)
_SIGNAL = Signal(np.sin(_T / 3.0) + _T / 50.0, 1.0)
_DEC = Decomposition(imfs=[np.sin(_T * 1.3)], residue=np.zeros(_T.size))

# (name in the message, rule, call that applies it, a numpy value it takes)
SITES = {
    "EnsembleConfig.ensemble_size": (
        "ensemble_size", "count", lambda v: EnsembleConfig(ensemble_size=v), np.int64(2)),
    "EnsembleConfig.epsilon0": (
        "epsilon0", "positive", lambda v: EnsembleConfig(epsilon0=v), np.float64(0.2)),
    "EnsembleConfig.max_modes": (
        "max_modes", "count", lambda v: EnsembleConfig(max_modes=v), np.int64(2)),
    "SiftConfig.max_sift_iterations": (
        "max_sift_iterations", "count", SiftConfig, np.int64(2)),
    "emd.max_modes": (
        "max_modes", "count", lambda v: emd(_SIGNAL, max_modes=v), np.int64(2)),
    "DenoiseConfig.levels": (
        "levels", "count", lambda v: DenoiseConfig(levels=v), np.int64(2)),
    "universal_threshold.n": (
        "n", "count", lambda v: universal_threshold(1.0, v), np.int64(2)),
    "ApEnConfig.tolerance_factor": (
        "tolerance_factor", "positive", lambda v: ApEnConfig(tolerance_factor=v),
        np.float64(0.15)),
    "apen_per_imf.threshold": (
        "threshold", "finite", lambda v: apen_per_imf(_DEC, threshold=v), np.float64(0.9)),
    "PipelineConfig.apen_threshold": (
        "apen_threshold", "finite", lambda v: PipelineConfig(apen_threshold=v),
        np.float64(0.9)),
    "SynthConfig.sample_rate_hz": (
        "sample_rate_hz", "positive", lambda v: SynthConfig(sample_rate_hz=v),
        np.float64(1000.0)),
    "SynthConfig.duration_s": (
        "duration_s", "positive", lambda v: SynthConfig(duration_s=v), np.float64(0.5)),
}

# every value each rule refuses, with the words its message states
REFUSED = {
    "count": [
        (0, ">= 1"), (-1, ">= 1"), (2.5, "an integer"), ("2", "an integer"),
        (math.nan, "an integer"), (math.inf, "an integer"),
    ],
    "positive": [
        (0, "finite and > 0"), (-1, "finite and > 0"), ("0.5", "finite and > 0"),
        (math.nan, "finite and > 0"), (math.inf, "finite and > 0"),
    ],
    "finite": [
        ("0.5", "finite"), (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
    ],
}

CASES = [
    pytest.param(name, call, value, rule, id=f"{site}={value!r}")
    for site, (name, kind, call, _) in SITES.items()
    for value, rule in REFUSED[kind]
]


def _message(name, rule, value):
    return f"^{re.escape(f'{name} must be {rule}, got {value!r}')}$"


@pytest.mark.parametrize("name, call, value, rule", CASES)
def test_each_site_refuses_with_its_message(name, call, value, rule):
    with pytest.raises(InvalidConfigError, match=_message(name, rule, value)):
        call(value)


@pytest.mark.parametrize("site", SITES)
def test_each_site_takes_numpy_numbers(site):
    _, _, call, value = SITES[site]
    call(value)


@pytest.mark.parametrize("seed", [-1, 1.5, "1", np.float64(2.0), None])
def test_seed_rule_is_shared(seed):
    message = _message("seed", "an integer >= 0", seed)
    with pytest.raises(InvalidConfigError, match=message):
        EnsembleConfig(seed=seed)
    with pytest.raises(InvalidConfigError, match=message):
        add_noise_snr(synth_signal(), 5.0, seed=seed)


def test_any_nonnegative_integer_seeds_the_noise():
    clean = synth_signal()
    same = add_noise_snr(clean, 5.0, seed=np.int64(3)).samples
    assert np.array_equal(same, add_noise_snr(clean, 5.0, seed=3).samples)
    add_noise_snr(clean, 5.0, seed=2**70)
    assert EnsembleConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_seeds_past_64_bits_decompose():
    dec = iceemd(_SIGNAL, EnsembleConfig(ensemble_size=2, seed=2**64))
    assert dec.n_imfs >= 1
    assert np.max(np.abs(dec.reconstruct() - _SIGNAL.samples)) < 1e-10


@pytest.mark.parametrize("n_seeds, rule", [(0, ">= 1"), (-1, ">= 1"), (2.5, "an integer")])
def test_run_benchmark_refuses_a_bad_seed_count(n_seeds, rule):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match=_message("n_seeds", rule, n_seeds)):
            run_benchmark(n_seeds, 5.0, 0)
