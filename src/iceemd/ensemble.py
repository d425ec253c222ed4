"""Improved complete ensemble EMD.

The residue recursion: at every stage a mode-filtered copy of the noise
bank is added to the current residue, the ensemble-averaged local mean
becomes the next residue, and the stage's IMF is the difference. One mode
set for the whole ensemble, exact additive reconstruction by telescoping.

The noise realizations and the ensemble members are sifted in lockstep,
each as one (rows, n) array: one emd call per noise bank and one
local_mean_operator call per stage. emd.py alone splits the rows into
batches of at most emd._BATCH_SAMPLES samples.

iceemd keeps the last noise bank it used and reuses it for the same
(n, seed, ensemble size, max modes): the bank is built before any
scaling, so epsilon0 is not part of the key. A campaign that
decomposes many records of one length with one seed in one process
builds the bank once. A new seed or length drops the old bank before
the new one is built, so two banks are never alive at once. A CLI
`denoise` run decomposes one record per process and gains nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emd import DEFAULT_MAX_MODES, _decomposable, emd, local_mean_operator
from .errors import InvalidConfigError, InvalidSignalError
from .types import Decomposition, Signal, as_float_array, std


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble decomposition parameters.

    epsilon0 scales the injected noise relative to the running residue's
    standard deviation. The sifting rules are fixed, so nothing here
    configures them: SD stop 0.2, 2 mirrored extrema per end, at most 100
    iterations per IMF.
    """

    ensemble_size: int = 50
    epsilon0: float = 0.2
    seed: int = 0
    max_modes: int = DEFAULT_MAX_MODES

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
    may have fewer modes than a stage asks for; iceemd adds 0.0 there.
    """
    rows = np.array([_realization(n, cfg.seed, i) for i in range(cfg.ensemble_size)])
    return [dec.imfs for dec in emd(rows, max_modes=cfg.max_modes)]


# iceemd's last noise bank, by (n, seed, ensemble_size, max_modes), its
# modes read-only. One entry, cleared before a miss builds, so two banks
# are never alive at once (lru_cache(maxsize=1) builds first, evicts after).
_last_bank: dict[tuple, list[list[np.ndarray]]] = {}


def _noise_bank(n: int, cfg: EnsembleConfig) -> list[list[np.ndarray]]:
    """generate_noise_bank(n, cfg), reused while the key stays the same."""
    key = (n, cfg.seed, cfg.ensemble_size, cfg.max_modes)
    bank = _last_bank.get(key)
    if bank is None:
        _last_bank.clear()
        bank = generate_noise_bank(n, cfg)
        for modes in bank:
            for mode in modes:
                mode.flags.writeable = False
        _last_bank[key] = bank
    return bank


def _noise_peak(bank: list, k: int) -> float:
    """Largest magnitude over the ensemble of the stage-k noise before
    scaling by beta, as _ensemble_mean_local_mean adds it (0.0 where no
    realization has a k-th mode)."""
    return max((float(np.abs(modes[k]).max()) / (float(modes[0].std()) if k == 0 else 1.0)
                for modes in bank if k < len(modes)), default=0.0)


def _ensemble_mean_local_mean(base: np.ndarray, bank: list, k: int, beta: float) -> np.ndarray:
    """Average of M(base + noise_i) over the ensemble: noise_i is
    realization i's k-th mode scaled by beta (the first mode normalized to
    unit std first), or 0.0 where the realization has no k-th mode.

    Determinism comes from the fixed member order of the sum; Kahan
    compensation bounds its rounding error, whatever the ensemble size.
    """
    members = np.empty((len(bank), base.size))
    for row, modes in zip(members, bank):
        noise = (0.0 if k >= len(modes)
                 else beta * modes[0] / float(modes[0].std()) if k == 0
                 else beta * modes[k])
        np.add(base, noise, out=row)
    acc = np.zeros_like(base)
    comp = np.zeros_like(base)
    for term in local_mean_operator(members):
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc / len(bank)


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

    The result does not depend on the input's amplitude: the standard
    deviations are taken at unit scale (types.std), and every mode is
    sifted at unit scale (emd.extract_imf), so a signal scaled by a power
    of two gives modes scaled by it bit for bit while everything stays
    normal. A stage sums ensemble_size local means before it divides, so
    an input whose peak exceeds the float64 maximum / (4 * ensemble_size)
    raises InvalidSignalError before the noise bank is built.

    The residue a stage scales its noise by already holds the previous
    stage's noise, so a large epsilon0 makes the residues grow
    geometrically and cancel. That raises InvalidConfigError: before a
    stage whose scaled noise would pass the same headroom, and after the
    recursion when the IMFs plus the residue miss the input by more than
    1e-10 of its peak.

    The noise bank is reused from the previous call when n, seed,
    ensemble_size and max_modes are the same (epsilon0 may differ), so a
    campaign of same-length records with one seed builds it once per
    process; a new seed or length drops the old bank before building.
    """
    x = as_float_array(signal.samples)
    if x.size < 4:
        raise InvalidSignalError(f"signal too short to decompose ({x.size} samples)")
    # headroom for a stage's sum over the ensemble, taken before it divides
    headroom = np.finfo(np.float64).max / (4 * cfg.ensemble_size)
    peak = np.abs(x).max()
    if peak > headroom:
        raise InvalidSignalError(
            f"iceemd: the peak exceeds float64 max / (4 * {cfg.ensemble_size} members)"
        )
    floor = cfg.epsilon0 * std(x) / np.sqrt(cfg.ensemble_size)

    bank = _noise_bank(x.size, cfg)
    imfs: list[np.ndarray] = []
    residue = x.copy()
    while len(imfs) < cfg.max_modes and _decomposable(residue):
        beta = cfg.epsilon0 * std(residue)
        if beta * _noise_peak(bank, len(imfs)) > headroom:
            raise InvalidConfigError(
                f"epsilon0={cfg.epsilon0:g} scales stage {len(imfs) + 1}'s noise past "
                f"float64 max / (4 * {cfg.ensemble_size} members)"
            )
        next_residue = _ensemble_mean_local_mean(residue, bank, len(imfs), beta)
        imfs.append(residue - next_residue)
        residue = next_residue
    with np.errstate(over="ignore", invalid="ignore"):
        miss = np.abs(sum(imfs, residue) - x).max()
    if not miss <= 1e-10 * peak:
        raise InvalidConfigError(
            f"epsilon0={cfg.epsilon0:g} ruins the decomposition: the IMFs and residue "
            f"miss the input by {miss / peak:.2g} of its peak (at most 1e-10)"
        )
    return Decomposition(imfs=imfs, residue=residue, noise_floor=floor)
