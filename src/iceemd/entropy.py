"""Approximate entropy via the binary distance matrix.

Templates of length 2 and 3 are compared through the diagonal-AND of the
pairwise |z_i - z_j| < a matrix, which is exactly a Chebyshev template
match. Self-matches are counted, so every log is finite and the entropy
is nonnegative.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSignalError
from .types import Decomposition, as_float_array


@dataclass(frozen=True)
class ApEnConfig:
    """Approximate-entropy parameters.

    The template length is fixed at 2 (the statistic compares 2- against
    3-long templates). The tolerance is tolerance_factor * std(series),
    or tolerance_factor * std_floor where the caller passes a larger
    floor.
    """

    tolerance_factor: float = 0.15

    def __post_init__(self):
        if not (math.isfinite(self.tolerance_factor) and self.tolerance_factor > 0):
            raise InvalidConfigError(
                f"tolerance_factor must be finite and > 0, got {self.tolerance_factor}"
            )
        if not 0.1 <= self.tolerance_factor <= 0.2:
            warnings.warn(
                f"tolerance_factor {self.tolerance_factor} is outside the "
                "usual 0.1..0.2 range",
                stacklevel=2,
            )


@dataclass
class ApEnReport:
    """Per-IMF approximate entropies and the indices above a threshold."""

    per_imf: list[tuple[int, float]]
    threshold: float
    flagged: list[int]


def approximate_entropy(
    series, cfg: ApEnConfig = ApEnConfig(), std_floor: float = 0.0
) -> float:
    """Approximate entropy of `series` with template length 2.

    C_i^2 counts diagonal-AND template matches of length 2 over the first
    n-1 rows, C_i^3 length-3 matches over the first n-2; the entropy is
    the difference of the mean-log match rates. The relative tolerance is
    cfg.tolerance_factor * max(std(series), std_floor). Constant input
    returns 0.
    """
    z = as_float_array(series)
    n = z.size
    if n < 10:
        raise InvalidSignalError(f"approximate entropy needs n >= 10, got {n}")
    sd = max(float(z.std()), std_floor)
    if sd == 0.0:
        return 0.0
    a = cfg.tolerance_factor * sd

    b = np.abs(z[:, None] - z[None, :]) < a
    pair = b[:-1, :-1] & b[1:, 1:]
    c2 = pair.sum(axis=1) / (n - 1)
    triple = pair[:-1, :-1] & b[2:, 2:]
    c3 = triple.sum(axis=1) / (n - 2)
    phi1 = float(np.mean(np.log(c2)))
    phi2 = float(np.mean(np.log(c3)))
    return phi1 - phi2


def apen_per_imf(
    dec: Decomposition, cfg: ApEnConfig = ApEnConfig(), threshold: float = 0.0
) -> ApEnReport:
    """Approximate entropy of every IMF (residue excluded), flagging the
    indices whose entropy exceeds `threshold`. dec.noise_floor bounds each
    mode's relative tolerance from below (see approximate_entropy)."""
    if not math.isfinite(threshold):
        raise InvalidConfigError(f"threshold must be finite, got {threshold}")
    per_imf = [
        (k, approximate_entropy(imf, cfg, dec.noise_floor))
        for k, imf in enumerate(dec.imfs)
    ]
    flagged = [k for k, value in per_imf if value > threshold]
    return ApEnReport(per_imf=per_imf, threshold=threshold, flagged=flagged)
