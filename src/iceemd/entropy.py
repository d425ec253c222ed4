"""Approximate entropy (Pincus 1991) counted over sorted windows.

The statistic counts, for every template of length 2 and 3, the templates
whose samples all lie within the tolerance a of its own (a Chebyshev
match, |z_i - z_j| < a). Self-matches are counted, so every log is finite
and the entropy is nonnegative.

Matches are counted exactly without an n-by-n matrix. The samples are
sorted once; a template's partner can only match if its first sample lies
within a of the template's first sample, so each block of sorted rows
needs only one contiguous slice of sorted columns, found by binary search
(the sorted-range idea of Manis, Aktaruzzaman & Sassi, 2017). Every
element of the slice is re-tested with the same floating-point predicate,
so the integer counts, and the entropy computed from them in the original
row order, are the ones a full pairwise comparison gives, bit for bit.
Memory is linear in n.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSignalError
from .types import Decomposition, as_float_array, std

# Sorted rows per block: working memory is _BLOCK times the window width.
_BLOCK = 32


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
                stacklevel=3,
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

    C_i^2 counts the templates z[j:j+2] (j <= n-2) that match z[i:i+2],
    C_i^3 those z[j:j+3] (j <= n-3) that match z[i:i+3]; the entropy is
    the mean log of C^2 / (n-1) over i <= n-2 minus the mean log of
    C^3 / (n-2) over i <= n-3. The tolerance is
    a = cfg.tolerance_factor * max(std(series), std_floor), the std taken
    at unit scale (types.std), so the statistic does not depend on the
    series' amplitude. Constant input returns 0 at any floor; a tolerance
    that underflows to 0 and so matches nothing (a series whose std is
    subnormal) raises InvalidSignalError.

    Rows are taken in sorted order, _BLOCK at a time, and a block's
    candidate columns are the sorted samples from fl(z_i - a) to
    fl(z_i + a) over its rows. That range holds every match: a is a float
    and rounding is monotone, so |fl(z_i - z_j)| < a implies
    z_i - a < z_j < z_i + a exactly, and then fl(z_i - a) <= z_j <=
    fl(z_i + a). Each candidate is re-tested with |z_i - z_j| < a, so the
    counts are the exact integers, and they are averaged in the original
    row order, so the result does not depend on the sorting or blocking.
    Templates that run past the end carry NaN, which matches nothing.
    Working memory is O(n + _BLOCK * window), at most O(_BLOCK * n).
    """
    z = as_float_array(series)
    n = z.size
    if n < 10:
        raise InvalidSignalError(f"approximate entropy needs n >= 10, got {n}")
    if z.min() == z.max():
        return 0.0
    a = cfg.tolerance_factor * max(std(z), std_floor)
    if a == 0.0:
        raise InvalidSignalError(
            "approximate entropy: the tolerance underflows to 0; rescale the input"
        )

    order = np.argsort(z, kind="stable")
    zs = z[order]
    pad = np.concatenate([z, [np.nan, np.nan]])
    zs1 = pad[order + 1]
    zs2 = pad[order + 2]
    c2 = np.empty(n, dtype=np.int64)
    c3 = np.empty(n, dtype=np.int64)
    # a bound or a difference beyond float64 overflows to an infinity of
    # its sign: a bound then reaches past every sample, and a difference
    # matches nothing
    with np.errstate(over="ignore"):
        lo = np.searchsorted(zs, zs - a, side="left")
        hi = np.searchsorted(zs, zs + a, side="right")
        for s in range(0, n, _BLOCK):
            e = min(s + _BLOCK, n)
            cols = slice(lo[s], hi[e - 1])
            pair = _within(zs[s:e], zs[cols], a)
            pair &= _within(zs1[s:e], zs1[cols], a)
            c2[order[s:e]] = pair.sum(axis=1)
            pair &= _within(zs2[s:e], zs2[cols], a)
            c3[order[s:e]] = pair.sum(axis=1)
    phi1 = float(np.mean(np.log(c2[: n - 1] / (n - 1))))
    phi2 = float(np.mean(np.log(c3[: n - 2] / (n - 2))))
    return phi1 - phi2


def _within(rows: np.ndarray, cols: np.ndarray, a: float) -> np.ndarray:
    """|rows_i - cols_j| < a for every pair, as a len(rows) x len(cols) mask."""
    diff = np.subtract.outer(rows, cols)
    return np.abs(diff, out=diff) < a


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
