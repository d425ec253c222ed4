"""Improved complete ensemble EMD.

The residue recursion: at every stage a mode-filtered copy of the noise
bank is added to the current residue, the ensemble-averaged local mean
becomes the next residue, and the stage's IMF is the difference. One mode
set for the whole ensemble, exact additive reconstruction by telescoping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emd import _decomposable, emd, local_mean_operator
from .errors import InvalidConfigError, InvalidSignalError
from .types import Decomposition, Signal, as_float_array


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble decomposition parameters.

    epsilon0 scales the injected noise relative to the running residue's
    standard deviation. Every EMD inside the ensemble sifts with the
    SiftConfig defaults.
    """

    ensemble_size: int = 50
    epsilon0: float = 0.2
    seed: int = 0
    max_modes: int = 12

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise InvalidConfigError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if not (math.isfinite(self.epsilon0) and self.epsilon0 > 0):
            raise InvalidConfigError(f"epsilon0 must be finite and > 0, got {self.epsilon0}")
        if self.max_modes < 1:
            raise InvalidConfigError(f"max_modes must be >= 1, got {self.max_modes}")
        if not (0 <= self.seed < 2**64):
            raise InvalidConfigError("seed must fit in 64 unsigned bits")


def _realization(n: int, seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    w = rng.standard_normal(n)
    w -= w.mean()
    w /= w.std()
    return w


def generate_noise_bank(n: int, cfg: EnsembleConfig) -> list[list[np.ndarray]]:
    """The EMD modes, up to cfg.max_modes, of cfg.ensemble_size seeded
    white-noise realizations of length n: one list per realization.

    Realization i is derived from (seed, i) alone, so the same index gives
    the same sequence for any ensemble size. Each realization is
    standardized to exact zero mean and unit population std. A realization
    may have fewer modes than a stage asks for; iceemd adds no noise there.
    """
    if n < 4:
        raise InvalidSignalError(f"noise bank needs n >= 4, got {n}")
    return [
        emd(Signal(_realization(n, cfg.seed, i), sample_rate_hz=1.0),
            max_modes=cfg.max_modes).imfs
        for i in range(cfg.ensemble_size)
    ]


def _ensemble_mean_local_mean(base: np.ndarray, scaled_noise: list[np.ndarray]) -> np.ndarray:
    """Average of M(base + noise_i) over the ensemble.

    Kahan-compensated summation in fixed index order, so the result does
    not depend on any execution schedule.
    """
    acc = np.zeros_like(base)
    comp = np.zeros_like(base)
    for noise in scaled_noise:
        term = local_mean_operator(base + noise)
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc / len(scaled_noise)


def iceemd(signal: Signal, cfg: EnsembleConfig = EnsembleConfig()) -> Decomposition:
    """Improved complete ensemble EMD of `signal`.

    Stage 1 perturbs the signal with the (unit-std) first noise mode scaled
    by epsilon0 * std(signal); stage k >= 2 perturbs the running residue
    with its k-th noise mode scaled by epsilon0 * std(residue). Each stage's
    residue is the ensemble-averaged local mean; IMFs are the successive
    residue differences, so the IMFs plus the final residue reproduce the
    input exactly.

    The result's noise_floor is epsilon0 * std(signal) / sqrt(ensemble_size),
    the residual noise an ensemble of that size leaves behind (Wu & Huang
    2009). The entropy gate never takes a mode's tolerance finer than that,
    so a mode that holds only this remnant is not taken for measurement
    noise.
    """
    x = as_float_array(signal.samples)
    if x.size < 4:
        raise InvalidSignalError(f"signal too short to decompose ({x.size} samples)")
    floor = cfg.epsilon0 * float(x.std()) / np.sqrt(cfg.ensemble_size)

    imfs: list[np.ndarray] = []
    residue = x.copy()
    if not _decomposable(residue):
        return Decomposition(imfs=imfs, residue=residue, noise_floor=floor)

    bank = generate_noise_bank(x.size, cfg)
    for k in range(1, cfg.max_modes + 1):
        beta = cfg.epsilon0 * float(residue.std())
        scaled = [
            np.zeros(x.size) if k > len(modes)
            else beta * modes[0] / float(modes[0].std()) if k == 1
            else beta * modes[k - 1]
            for modes in bank
        ]
        next_residue = _ensemble_mean_local_mean(residue, scaled)
        imfs.append(residue - next_residue)
        residue = next_residue
        if not _decomposable(residue):
            break
    return Decomposition(imfs=imfs, residue=residue, noise_floor=floor)
