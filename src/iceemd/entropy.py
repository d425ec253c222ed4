"""Approximate entropy (Pincus 1991) counted over bitsets of match sets.

The statistic counts, for every template of length 2 and 3, the templates
whose samples all lie within the tolerance a of its own (a Chebyshev
match, |z_i - z_j| < a). Self-matches are counted, so every log is finite
and the entropy is nonnegative.

Matches are counted exactly without an n-by-n matrix. The samples are
sorted once. A sample's match set is one contiguous range of sorted ranks
(rounding is monotone), found by binary search as in the sorted-range
counting of Manis, Aktaruzzaman & Sassi (2017) and then narrowed with the
same floating-point predicate. Each template start's set of matching
sample indices is a bitset, the difference of two prefixes of the sorted
order, and a template's matches are the AND of its samples' sets, shifted
into step, counted by popcount. The integer counts, and the entropy
computed from them in the original row order, are the ones a full
pairwise comparison gives, bit for bit. Memory is linear in n.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSignalError
from .types import Decomposition, as_float_array, unit_scaled

# Shortest series the statistic is defined for; pipeline.iceemd_de
# refuses shorter records up front.
MIN_SAMPLES = 10

# Template starts per block: working memory is a few times _ROWS * n / 8 B.
_ROWS = 256


def _stride(n: int) -> int:
    """Ranks between stored prefix bitsets: the table holds at most about
    2048 sets of n bits, so it is O(n) bytes."""
    return max(16, n // 2048)


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
    a = cfg.tolerance_factor * max(std(series), std_floor).

    The matches are counted on the series' copy at unit scale
    (types.unit_scaled), with std_floor scaled alike, so the statistic
    does not depend on the series' amplitude. The scaled floor may
    overflow to inf, and an infinite tolerance matches every pair. At
    unit scale a non-constant series has a std far above the smallest
    float64, so only a tolerance_factor below about 1e-300 can make the
    tolerance underflow to 0 and match nothing: that is an
    InvalidConfigError, as is a std_floor that is not finite and >= 0.
    Constant input returns 0 at any floor; n < MIN_SAMPLES raises
    InvalidSignalError.

    The counts are exact. Sort the samples; for the sample of rank q, the
    ranks r with |fl(zs[q] - zs[r])| < a form one interval [L, H): a is
    a float and rounding is monotone, so fl(zs[q] - zs[r]) does not rise
    as zs[r] does. Binary search for fl(zs[q] -/+ a) gives a range that
    holds it (|fl(x - y)| < a implies x - a < y < x + a exactly, and then
    fl(x - a) <= y <= fl(x + a)); where an end fails the same predicate,
    for a rounding edge, bisection finds the interval's end inside it.

    A_i, the set of j with |z_i - z_j| < a, is then Prefix(H) xor
    Prefix(L) for i's rank, where Prefix(r) is the set of the r smallest
    samples' indices: stored every _stride(n) ranks, with fewer than
    _stride(n) bits toggled on top. C_i^2 = |A_i & (A_{i+1} >> 1)| and
    C_i^3 = |A_i & (A_{i+1} >> 1) & (A_{i+2} >> 2)|, where >> k maps
    index j + k to j. Indices past the end are in no set, so templates
    that run past the end match nothing. The counts are averaged in the
    original row order, so the result is the dense formula's bit for bit.

    A set holds bit j in word j % W at position j // W (W words of 64
    bits), so >> 1 moves every word down by one and only the last word
    takes a bit shift: the shifted sets are views, not copies. Working
    memory is O(n): at most about 256 B per sample for the prefix table
    (n / 128 B per sample below 32,768 samples) and about 4 * _ROWS / 8 B
    per sample for one block of sets.
    """
    if not (math.isfinite(std_floor) and std_floor >= 0):
        raise InvalidConfigError(f"std_floor must be finite and >= 0, got {std_floor}")
    z = as_float_array(series)
    n = z.size
    if n < MIN_SAMPLES:
        raise InvalidSignalError(f"approximate entropy needs n >= {MIN_SAMPLES}, got {n}")
    if z.min() == z.max():
        return 0.0
    z, k = unit_scaled(z)
    with np.errstate(over="ignore"):
        a = cfg.tolerance_factor * max(float(z.std()), float(np.ldexp(std_floor, -k)))
    if a == 0.0:
        raise InvalidConfigError(
            f"tolerance_factor={cfg.tolerance_factor} is so small that the tolerance "
            "underflows to 0"
        )

    order = np.argsort(z, kind="stable")
    lo, hi = _match_ranks(z[order], a)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # two empty sets past the end, for the templates that run past it
    lo = np.append(lo[rank], [0, 0])
    hi = np.append(hi[rank], [0, 0])

    words = max(2, -(-n // 64))
    word = order % words
    bit = np.left_shift(np.uint64(1), (order // words).astype(np.uint64))
    k = _stride(n)
    stored = n // k
    # prefix[c] = Prefix(c * k), a running XOR of k bits per row
    prefix = np.zeros((stored + 1, words), dtype=np.uint64)
    r = np.arange(stored * k)
    np.bitwise_xor.at(prefix, (r // k + 1, word[r]), bit[r])
    np.bitwise_xor.accumulate(prefix, axis=0, out=prefix)

    c2 = np.empty(n, dtype=np.int64)
    c3 = np.empty(n, dtype=np.int64)
    for s in range(0, n, _ROWS):
        e = min(s + _ROWS, n)
        sets = _match_sets(prefix, k, word, bit, lo[s : e + 2], hi[s : e + 2])
        both = np.empty((e - s, words), dtype=np.uint64)
        np.bitwise_and(sets[:-2, :-1], sets[1:-1, 1:], out=both[:, :-1])
        np.bitwise_and(sets[:-2, -1], sets[1:-1, 0] >> 1, out=both[:, -1])
        c2[s:e] = np.bitwise_count(both).sum(axis=1)
        both[:, :-2] &= sets[2:, 2:]
        both[:, -2:] &= sets[2:, :2] >> 1
        c3[s:e] = np.bitwise_count(both).sum(axis=1)
    phi1 = float(np.mean(np.log(c2[: n - 1] / (n - 1))))
    phi2 = float(np.mean(np.log(c3[: n - 2] / (n - 2))))
    return phi1 - phi2


def _match_ranks(zs: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """For each rank q of the sorted zs, the interval [lo, hi) of ranks r
    with |zs[q] - zs[r]| < a. The samples are at unit scale, so no bound
    or difference overflows; an infinite a reaches past every sample."""
    lo = np.searchsorted(zs, zs - a, side="left")
    hi = np.searchsorted(zs, zs + a, side="right")
    # where an end fails the predicate, bisect for the first rank that
    # passes (a sample matches itself) or the first past that fails
    out = np.flatnonzero(~(np.abs(zs - zs[lo]) < a))
    lo[out] = _first(lambda r: np.abs(zs[out] - zs[r]) < a, lo[out], out)
    out = np.flatnonzero(~(np.abs(zs - zs[hi - 1]) < a))
    hi[out] = _first(lambda r: ~(np.abs(zs[out] - zs[r]) < a), out + 1, hi[out] - 1)
    return lo, hi


def _first(holds, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The first r in [left, right] where holds(r), elementwise, for a
    test that fails up to some rank and holds from there to right."""
    while np.any(left < right):
        mid = (left + right) // 2
        yes = holds(mid)
        right = np.where(yes, mid, right)
        left = np.where(yes, left, mid + 1)
    return left


def _match_sets(prefix, k, word, bit, lo, hi) -> np.ndarray:
    """Prefix(hi) xor Prefix(lo) for each row, as bitsets: the stored
    prefixes below each end, then the ranks from there to the end toggled."""
    sets = prefix[hi // k] ^ prefix[lo // k]
    ends = np.concatenate([hi, lo])
    rows = np.tile(np.arange(hi.size), 2)
    extra = ends % k
    first = ends - extra - (np.cumsum(extra) - extra)
    ranks = np.repeat(first, extra) + np.arange(int(extra.sum()))
    flat = sets.reshape(-1)
    np.bitwise_xor.at(flat, np.repeat(rows, extra) * sets.shape[1] + word[ranks], bit[ranks])
    return sets


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
