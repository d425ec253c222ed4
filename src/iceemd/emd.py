"""Plain empirical mode decomposition.

Extrema detection, cubic-spline envelopes with the boundary conditions of
Rilling, Flandrin & Goncalves (2003), sifting, and the local-mean operator
M the ensemble recursion is built from (M(x) = x minus the first IMF of x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InvalidConfigError, InvalidSignalError, NotEnoughExtremaError
from .types import Decomposition, Signal, as_float_array


@dataclass(frozen=True)
class SiftConfig:
    """Sifting parameters.

    sd_threshold is the Cauchy-style stop: sifting ends once the normalized
    squared change between successive iterates falls below it.
    boundary_extrema_count extrema are mirrored beyond each end before the
    envelope splines are fitted; an end sample outside the first pair of
    extrema is itself a knot (see mean_envelope).
    """

    sd_threshold: float = 0.2
    max_sift_iterations: int = 100
    boundary_extrema_count: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.sd_threshold) and self.sd_threshold > 0):
            raise InvalidConfigError(
                f"sd_threshold must be finite and > 0, got {self.sd_threshold}"
            )
        for name in ("max_sift_iterations", "boundary_extrema_count"):
            value = getattr(self, name)
            if value < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {value}")


def find_extrema(samples) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict interior maxima and minima, ascending.

    A plateau of equal values flanked by lower (higher) neighbors counts as
    one maximum (minimum) at its middle index, left-middle for even plateau
    length. Monotone input has no interior extrema.
    """
    y = as_float_array(samples)
    if y.size < 3:
        raise InvalidSignalError(f"need at least 3 samples, got {y.size}")

    slope = np.diff(y)
    nonzero = slope != 0.0
    sgn = np.sign(slope[nonzero])
    idx = np.nonzero(nonzero)[0]
    if sgn.size < 2:
        return np.array([], dtype=int), np.array([], dtype=int)

    turn = np.diff(sgn)
    where = np.nonzero(turn)[0]
    # extremum spans from the end of the rising run to the start of the
    # falling run (indices around a possible plateau); report its middle
    left = idx[where]
    right = idx[where + 1] + 1
    pos = (left + right) // 2
    maxima = pos[turn[where] < 0]
    minima = pos[turn[where] > 0]
    return maxima, minima


def _end_knots(d_max, v_max, d_min, v_min, y_end, count: int):
    """Envelope knots at one end, by the rule given in mean_envelope.

    d_max/d_min are the distances of the extrema nearest the end from it,
    ascending, and v_max/v_min their values. Returns the offsets and values
    of the upper, then the lower, envelope's added knots, offsets measured
    from the end (<= 0 lies beyond it) and nearest first.
    """
    max_first = d_max[0] < d_min[0]
    if max_first and y_end <= v_min[0]:
        # end sample below the first minimum: it is a lower-envelope knot
        return (-d_max[:count], v_max[:count],
                np.concatenate(([0], -d_min[:count - 1])),
                np.concatenate(([y_end], v_min[:count - 1])))
    if not max_first and y_end >= v_max[0]:
        # end sample above the first maximum: it is an upper-envelope knot
        return (np.concatenate(([0], -d_max[:count - 1])),
                np.concatenate(([y_end], v_max[:count - 1])),
                -d_min[:count], v_min[:count])
    sym = min(d_max[0], d_min[0])
    skip_max, skip_min = (1, 0) if max_first else (0, 1)
    o_max = 2 * sym - d_max[skip_max:skip_max + count]
    o_min = 2 * sym - d_min[skip_min:skip_min + count]
    if o_max.size and o_min.size and o_max[-1] <= 0 and o_min[-1] <= 0:
        return (o_max, v_max[skip_max:skip_max + count],
                o_min, v_min[skip_min:skip_min + count])
    # mirrored about the first extremum the knots would not reach past the
    # end: mirror about the end sample instead, without using it as a knot
    return -d_max[:count], v_max[:count], -d_min[:count], v_min[:count]


def _envelope_knots(y: np.ndarray, maxima: np.ndarray, minima: np.ndarray, count: int):
    """Upper and lower envelope knots, the extrema plus their boundary images."""
    last = y.size - 1
    near = count + 1
    v_max, v_min = y[maxima], y[minima]
    lux, luy, llx, lly = _end_knots(
        maxima[:near], v_max[:near], minima[:near], v_min[:near], y[0], count
    )
    rux, ruy, rlx, rly = _end_knots(
        last - maxima[::-1][:near], v_max[::-1][:near],
        last - minima[::-1][:near], v_min[::-1][:near], y[last], count,
    )
    ux = np.concatenate([lux[::-1], maxima, last - rux])
    uy = np.concatenate([luy[::-1], v_max, ruy])
    lx = np.concatenate([llx[::-1], minima, last - rlx])
    ly = np.concatenate([lly[::-1], v_min, rly])
    return ux, uy, lx, ly


def mean_envelope(samples, maxima, minima, cfg: SiftConfig = SiftConfig()) -> np.ndarray:
    """Half-sum of the upper and lower cubic-spline envelopes.

    Natural end conditions; `cfg.boundary_extrema_count` extrema are
    mirrored beyond each end before fitting so the splines never
    extrapolate over the signal support. The mirror follows Rilling,
    Flandrin & Goncalves (2003): when an end sample lies outside the first
    pair of extrema (below the first minimum when a maximum comes first,
    above the first maximum when a minimum does), the extrema are mirrored
    about that end sample and it becomes a knot of the envelope it bounds,
    taking the place of one mirrored extremum. Otherwise they are mirrored
    about the first extremum, or about the end sample where the images
    would not reach past it. An end sample outside the extrema thus bounds
    its envelope itself instead of lying outside both envelopes, which
    would make the sift subtract a spurious swing at the record end.
    """
    y = np.asarray(samples, dtype=np.float64)
    n = y.size
    maxima = np.asarray(maxima, dtype=int)
    minima = np.asarray(minima, dtype=int)
    if maxima.size < 1 or minima.size < 1:
        raise NotEnoughExtremaError(
            f"envelopes need interior maxima and minima "
            f"(got {maxima.size} maxima, {minima.size} minima)"
        )
    # each end adds at least one knot to each envelope, so both have >= 3
    ux, uy, lx, ly = _envelope_knots(y, maxima, minima, cfg.boundary_extrema_count)
    grid = np.arange(n)
    upper = CubicSpline(ux, uy, bc_type="natural")(grid)
    lower = CubicSpline(lx, ly, bc_type="natural")(grid)
    return (upper + lower) / 2.0


def _zero_crossings(y: np.ndarray) -> int:
    # samples at float-dust level carry no sign information
    tiny = 1e-9 * np.abs(y).max()
    s = np.sign(y[np.abs(y) > tiny])
    return int(np.sum(s[:-1] != s[1:]))


def _is_imf_like(y: np.ndarray, n_extrema: int) -> bool:
    """Extrema and zero-crossing counts differ by at most one."""
    return abs(n_extrema - _zero_crossings(y)) <= 1


def extract_imf(samples, cfg: SiftConfig = SiftConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Sift one intrinsic mode function out of `samples`.

    Iterates h <- h - mean_envelope(h); stops once the normalized squared
    change sum((h_prev - h)^2) / sum(h_prev^2) drops below
    cfg.sd_threshold AND the iterate has the defining mode property
    (extrema and zero-crossing counts differing by at most one), or when
    the iteration cap is hit. Returns (imf, proto_residue) with
    proto_residue = samples - imf.

    Raises NotEnoughExtremaError if the input cannot be sifted even once.
    """
    x = as_float_array(samples)
    h = x.copy()
    # the extrema of each iterate serve both its IMF check and its envelope
    maxima, minima = find_extrema(h)
    for iteration in range(cfg.max_sift_iterations):
        try:
            m = mean_envelope(h, maxima, minima, cfg)
        except NotEnoughExtremaError:
            if iteration == 0:
                raise
            break   # too smooth to sift further; accept h as the IMF
        denom = float(np.dot(h, h))
        if denom == 0.0:
            break
        h = h - m
        maxima, minima = find_extrema(h)
        if float(np.dot(m, m)) / denom < cfg.sd_threshold:
            if _is_imf_like(h, maxima.size + minima.size):
                break
    return h, x - h


def _decomposable(y: np.ndarray) -> bool:
    """True if the residue still carries an extractable oscillation: 3 or
    more extrema, which alternate, so its first envelope always exists."""
    if y.size < 3:
        return False
    maxima, minima = find_extrema(y)
    return maxima.size + minima.size >= 3


def emd(signal: Signal, cfg: SiftConfig = SiftConfig(), max_modes: int = 12) -> Decomposition:
    """Empirical mode decomposition of `signal`.

    Extracts IMFs from successive residues until the residue has fewer
    than 3 extrema (a monotone one has none) or `max_modes` is reached.
    The IMFs plus the final residue sum back to the input exactly up to
    float accumulation.
    """
    if max_modes < 1:
        raise InvalidConfigError(f"max_modes must be >= 1, got {max_modes}")
    x = as_float_array(signal.samples)
    if x.size < 4:
        raise InvalidSignalError(f"signal too short to decompose ({x.size} samples)")
    imfs: list[np.ndarray] = []
    residue = x.copy()
    while len(imfs) < max_modes and _decomposable(residue):
        imf, residue = extract_imf(residue, cfg)
        imfs.append(imf)
    return Decomposition(imfs=imfs, residue=residue)


def local_mean_operator(samples, cfg: SiftConfig = SiftConfig()) -> np.ndarray:
    """M: the signal minus its first EMD mode; identity when no mode exists."""
    x = as_float_array(samples)
    if not _decomposable(x):
        return x.copy()
    _, proto_residue = extract_imf(x, cfg)
    return proto_residue
