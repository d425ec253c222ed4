"""Plain empirical mode decomposition.

Extrema detection, cubic-spline envelopes with the boundary conditions of
Rilling, Flandrin & Goncalves (2003), sifting, and the local-mean operator
M the ensemble recursion is built from (M(x) = x minus the first IMF of x).
Each envelope is a natural cubic spline built with one LAPACK tridiagonal
solve, bit-identical to scipy's CubicSpline(bc_type="natural").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg.lapack import dgtsv

from .errors import InvalidConfigError, InvalidSignalError, NotEnoughExtremaError
from .types import Decomposition, Signal, as_float_array

# Mode cap of emd, and of EnsembleConfig.max_modes
DEFAULT_MAX_MODES = 12

# Cauchy-style stop: sifting ends once the normalized squared change
# between successive iterates falls below this
SD_THRESHOLD = 0.2

# Extrema mirrored beyond each end before the envelope splines are fitted;
# an end sample outside the first pair of extrema is itself a knot (see
# mean_envelope)
BOUNDARY_EXTREMA_COUNT = 2


@dataclass(frozen=True)
class SiftConfig:
    """The cap on sift iterations per IMF.

    The stop rule and the end mirroring are fixed: SD_THRESHOLD and
    BOUNDARY_EXTREMA_COUNT.
    """

    max_sift_iterations: int = 100

    def __post_init__(self):
        if self.max_sift_iterations < 1:
            raise InvalidConfigError(
                f"max_sift_iterations must be >= 1, got {self.max_sift_iterations}"
            )


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


def _end_knots(d_max, v_max, d_min, v_min, y_end):
    """Envelope knots at one end, by the rule given in mean_envelope.

    d_max/d_min are the distances of the extrema nearest the end from it,
    ascending, and v_max/v_min their values. Returns the offsets and values
    of the upper, then the lower, envelope's added knots, offsets measured
    from the end (<= 0 lies beyond it) and nearest first.
    """
    count = BOUNDARY_EXTREMA_COUNT
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


def _envelope_knots(y: np.ndarray, maxima: np.ndarray, minima: np.ndarray):
    """Upper and lower envelope knots, the extrema plus their boundary images."""
    last = y.size - 1
    near = BOUNDARY_EXTREMA_COUNT + 1
    v_max, v_min = y[maxima], y[minima]
    lux, luy, llx, lly = _end_knots(
        maxima[:near], v_max[:near], minima[:near], v_min[:near], y[0]
    )
    rux, ruy, rlx, rly = _end_knots(
        last - maxima[::-1][:near], v_max[::-1][:near],
        last - minima[::-1][:near], v_min[::-1][:near], y[last],
    )
    ux = np.concatenate([lux[::-1], maxima, last - rux])
    uy = np.concatenate([luy[::-1], v_max, ruy])
    lx = np.concatenate([llx[::-1], minima, last - rlx])
    ly = np.concatenate([lly[::-1], v_min, rly])
    return ux, uy, lx, ly


def CubicSpline(x, y) -> PPoly:
    """Natural cubic spline through the knots (x, y), x strictly increasing.

    scipy.interpolate.CubicSpline(x, y, bc_type="natural") without its
    input checks: the same tridiagonal system for the knot slopes, solved
    by the same LAPACK dgtsv, the same Hermite coefficients and the same
    PPoly evaluator, every operation in scipy's order, so the envelopes
    are bit-identical. The checks are not needed here: every iterate has
    passed find_extrema's finite check and the knot rule gives at least 3
    strictly increasing knots. The name is scipy's because tracers count
    and time envelope spline builds by wrapping emd.CubicSpline.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d = np.empty(x.size)
    du = np.empty(x.size - 1)
    dl = np.empty(x.size - 1)
    b = np.empty(x.size)
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # natural ends: scipy's rows for a zero second derivative, its 0.0
    # terms kept because they can change the sign of a zero
    d[0], du[0] = 2 * dx[0], dx[0]
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
    d[-1], dl[-1] = 2 * dx[-1], dx[-1]
    b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
    s = dgtsv(dl, d, du, b, 1, 1, 1, 1)[3]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
    return PPoly.construct_fast(c, x)


def mean_envelope(samples, maxima, minima) -> np.ndarray:
    """Half-sum of the upper and lower cubic-spline envelopes.

    Natural end conditions; BOUNDARY_EXTREMA_COUNT extrema are mirrored
    beyond each end before fitting so the splines never extrapolate over
    the signal support. The mirror follows Rilling, Flandrin & Goncalves
    (2003): when an end sample lies outside the first pair of extrema
    (below the first minimum when a maximum comes first, above the first
    maximum when a minimum does), the extrema are mirrored about that end
    sample and it becomes a knot of the envelope it bounds, taking the
    place of one mirrored extremum. Otherwise they are mirrored about the
    first extremum, or about the end sample where the images would not
    reach past it. An end sample outside the extrema thus bounds its
    envelope itself instead of lying outside both envelopes, which would
    make the sift subtract a spurious swing at the record end.
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
    ux, uy, lx, ly = _envelope_knots(y, maxima, minima)
    grid = np.arange(n)
    upper = CubicSpline(ux, uy)(grid)
    lower = CubicSpline(lx, ly)(grid)
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
    SD_THRESHOLD AND the iterate has the defining mode property
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
            m = mean_envelope(h, maxima, minima)
        except NotEnoughExtremaError:
            if iteration == 0:
                raise
            break   # too smooth to sift further; accept h as the IMF
        denom = float(np.dot(h, h))
        if denom == 0.0:
            break
        h = h - m
        maxima, minima = find_extrema(h)
        if float(np.dot(m, m)) / denom < SD_THRESHOLD:
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


def emd(signal: Signal, max_modes: int = DEFAULT_MAX_MODES) -> Decomposition:
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
        imf, residue = extract_imf(residue)
        imfs.append(imf)
    return Decomposition(imfs=imfs, residue=residue)


def local_mean_operator(samples) -> np.ndarray:
    """M(x): the residue of a one-mode EMD of x; x itself when x has no mode."""
    return emd(Signal(samples, sample_rate_hz=1.0), max_modes=1).residue
