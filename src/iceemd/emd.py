"""Plain empirical mode decomposition, many rows sifted in lockstep.

Extrema detection, cubic-spline envelopes with the boundary conditions of
Rilling, Flandrin & Goncalves (2003), sifting, and the local-mean operator
M the ensemble recursion is built from (M(x) = x minus the first IMF of x).

Every layer takes a (rows, n) array, a 1-D input being one row, and
treats each row exactly as it would treat that row alone, so every
output is bit-identical to a row-by-row run. Rows that stop sifting
leave the block; the others go on. emd and local_mean_operator take any
number of rows and sift at most _BATCH_SAMPLES samples at a time: this
module alone splits rows into batches, so a caller hands over all its
rows in one call. The envelopes of all rows are one piecewise cubic per
side, a block per row, each block solved by LAPACK's tridiagonal solver
and bit-identical to scipy's CubicSpline(bc_type="natural") of that
row's knots. The pieces are evaluated in numpy in the order of scipy's
PPoly evaluator, so the values are PPoly's bit for bit without importing
scipy.interpolate.

Every row is sifted at unit scale (see extract_imf), so a decomposition
does not depend on the amplitude: a row scaled by a power of two gives
modes scaled by it, bit for bit, wherever they stay normal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import InvalidConfigError, InvalidSignalError, NotEnoughExtremaError
from .types import Decomposition, Signal, as_float_array, peak_exponent

# Mode cap of emd, and of EnsembleConfig.max_modes
DEFAULT_MAX_MODES = 12

# Cauchy-style stop: sifting ends once the normalized squared change
# between successive iterates falls below this
SD_THRESHOLD = 0.2

# Extrema mirrored beyond each end before the envelope splines are fitted;
# an end sample outside the first pair of extrema is itself a knot (see
# mean_envelope)
BOUNDARY_EXTREMA_COUNT = 2

# Samples sifted together at most: emd and local_mean_operator split
# their rows into batches of at most this many samples (one row where a
# row is longer), so the sift's working memory does not grow with the
# number of rows
_BATCH_SAMPLES = 16384


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


def _batches(rows: int, n: int) -> list[slice]:
    """Near-equal consecutive slices of `rows` rows of n samples, each at
    most _BATCH_SAMPLES samples or one row."""
    per = max(1, _BATCH_SAMPLES // max(n, 1))
    count = -(-rows // per)
    bounds = [rows * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _as_rows(samples) -> np.ndarray:
    """Finite samples as a (rows, n) float64 array; a 1-D input is one row."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 2:
        return as_float_array(arr, ndim=2)
    return as_float_array(arr)[None]


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x, each scaled by 2**-k with peak_exponent's k for
    that row's peak, and the k as a column: the scale every row is sifted
    at."""
    k = peak_exponent(np.abs(x).max(axis=1, initial=0.0))[:, None]
    return np.ldexp(x, -k), k


def _row_bounds(flat: np.ndarray, rows: int, n: int) -> np.ndarray:
    """Where each row's run starts in ascending flat indices, plus the end."""
    return np.searchsorted(flat, np.arange(0, (rows + 1) * n, n))


def find_extrema(samples) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict interior maxima and minima, ascending.

    A plateau of equal values flanked by lower (higher) neighbors counts as
    one maximum (minimum) at its middle index, left-middle for even plateau
    length. Monotone input has no interior extrema. Each row of a (rows, n)
    array is searched on its own; the indices are flat, into
    samples.ravel(), so row r's lie in [r*n, (r+1)*n).
    """
    y = _as_rows(samples)
    rows, n = y.shape
    if n < 3:
        raise InvalidSignalError(f"need at least 3 samples, got {n}")

    slope = np.diff(y.ravel())
    # the step from one row's last sample to the next row's first is flat
    slope[n - 1::n] = 0.0
    idx = np.flatnonzero(slope != 0.0)
    rising = (slope > 0.0)[idx]
    turn = rising[:-1] != rising[1:]
    if rows > 1:
        # no turn from one row's last run to a later row's first
        first = np.searchsorted(idx, np.arange(1, rows) * n)
        turn[first[(first > 0) & (first < idx.size)] - 1] = False
    where = np.flatnonzero(turn)
    # extremum spans from the end of the rising run to the start of the
    # falling run (indices around a possible plateau); report its middle
    pos = idx[where]
    pos += idx[where + 1]
    pos += 1
    pos //= 2
    peak = rising[where]
    return pos[peak], pos[~peak]


def _end_knots(d, v, y_end):
    """Envelope knots at one end, by the rule given in mean_envelope.

    d[k] lists the distances from the end of the extrema of kind k
    nearest it (k = 0 for maxima, 1 for minima), ascending, and v[k]
    their values. Returns each kind's added knots as (offsets, values),
    offsets measured from the end (<= 0 lies beyond it), nearest first.
    """
    count = BOUNDARY_EXTREMA_COUNT
    near = int(d[1][0] < d[0][0])
    other = 1 - near
    # end sample beyond the other kind's first extremum (below the first
    # minimum, or above the first maximum)
    beyond = (y_end >= v[0][0], y_end <= v[1][0])[other]
    # mirror about the end sample then, else about the extremum nearest
    # the end, which is not itself imaged
    sym = 0 if beyond else d[near][0]
    knots = []
    for k in (0, 1):
        skip = int(k == near and not beyond)
        knots.append(([2 * sym - e for e in d[k][skip:skip + count]], v[k][skip:skip + count]))
    if beyond:
        # the end sample is a knot of the other kind's envelope, in place
        # of its farthest image
        o, w = knots[other]
        knots[other] = [0] + o[:count - 1], [y_end] + w[:count - 1]
    elif not all(o and o[-1] <= 0 for o, _ in knots):
        # mirrored about the first extremum the knots would not reach past
        # the end: mirror about the end sample instead, without using it
        # as a knot
        knots = [([-e for e in d[k][:count]], v[k][:count]) for k in (0, 1)]
    return knots


def _block_knots(y: np.ndarray, maxima, minima):
    """Upper and lower envelope knots of every row of y, the extrema plus
    their boundary images, row r's positions shifted by r * 4n.

    maxima and minima are find_extrema's flat indices into y. Each row
    needs one of each, or NotEnoughExtremaError is raised; each of its
    two ends then adds at least one knot to each envelope, so both have
    3 or more. Returns (ux, uy, ustarts, lx, ly, lstarts): each
    envelope's knots of all rows, concatenated, and the index where each
    row's knots start.
    """
    rows, n = y.shape
    flat = y.ravel()
    extrema = [np.asarray(e, dtype=np.intp) for e in (maxima, minima)]
    bounds = [_row_bounds(e, rows, n).tolist() for e in extrema]
    near = BOUNDARY_EXTREMA_COUNT + 1
    # a row's knots lie in [-(n-2), 2n-3] and its samples in [0, n-1], so
    # rows 4n apart never meet, and every position stays an exact integer
    stride = 4 * n
    end_x, end_v = ([], []), ([], [])
    for r in range(rows):
        runs = [e[b[r]:b[r + 1]] for e, b in zip(extrema, bounds)]
        if not (runs[0].size and runs[1].size):
            raise NotEnoughExtremaError(
                f"envelopes need interior maxima and minima "
                f"(got {runs[0].size} maxima, {runs[1].size} minima)"
            )
        for end, step in ((r * n, 1), (r * n + n - 1, -1)):
            # the extrema nearest this end: their distances from it and values
            d, v = [], []
            for run in runs:
                idx = run[::step][:near].tolist()
                d.append([(i - end) * step for i in idx])
                v.append([flat.item(i) for i in idx])
            at = end + r * (stride - n)
            for k, (o, w) in enumerate(_end_knots(d, v, flat.item(end))):
                end_x[k].extend([at + step * off for off in o])
                end_v[k].extend(w)

    knots = []
    for ext, b, x_end, v_end in zip(extrema, bounds, end_x, end_v):
        # the extrema and the end knots of all rows, put in position order
        shift = np.repeat(np.arange(rows) * (stride - n), np.diff(b))
        x = np.concatenate((ext + shift, x_end)).astype(np.float64)
        v = np.concatenate((flat[ext], v_end))
        order = np.argsort(x, kind="stable")
        x = x[order]
        knots += [x, v[order], np.searchsorted(x, np.arange(rows) * stride - n)]
    return tuple(knots)


@dataclass(frozen=True)
class PiecewiseCubic:
    """Cubic pieces as scipy's PPoly holds them: c[:, i] the coefficients
    of piece i, highest power first, in powers of the offset from its
    breakpoint x[i]. Evaluated in numpy, bit for bit as PPoly evaluates."""

    c: np.ndarray
    x: np.ndarray

    def __call__(self, grid) -> np.ndarray:
        """Values at an ascending grid. A point lies in the last piece
        whose breakpoint it reaches; points beyond either end fall in the
        end pieces, so PPoly's extrapolation is kept."""
        t = np.asarray(grid, dtype=np.float64)
        before = np.searchsorted(t, self.x[1:-1])
        return _evaluate(self.c, self.x[:-1], np.diff(before, prepend=0, append=t.size), t)


def _evaluate(c, left, counts, t) -> np.ndarray:
    """The cubic pieces c at the points t, where the first counts[0]
    points lie in piece 0, the next counts[1] in piece 1, and so on, at
    offsets t - left[piece].

    Every operation is scipy's PPoly evaluator's, in its order: Horner is
    not used, and 0.0 is added first, which turns a -0.0 into +0.0 as
    PPoly does. In the sift, positions and breakpoints are exact integers,
    so an offset formed from shifted positions (see _on_samples) equals
    PPoly's xval - x[i] exactly.
    """
    piece = np.repeat(np.arange(counts.size), counts)
    s = t - left.take(piece)
    res = c[3].take(piece) + 0.0
    res += c[2].take(piece) * s
    z = s * s
    res += c[1].take(piece) * z
    z *= s
    res += c[0].take(piece) * z
    return res


def CubicSpline(x, y, starts=(0,)) -> PiecewiseCubic:
    """Natural cubic splines through consecutive blocks of knots (x, y).

    Block r holds the knots from starts[r] up to the next start, at least
    3, x strictly increasing over all blocks. One block is
    scipy.interpolate.CubicSpline(x, y, bc_type="natural") without its
    input checks: the same tridiagonal system for the knot slopes, solved
    by the same LAPACK dgtsv, and the same Hermite coefficients, every
    operation in scipy's order, so the envelopes are bit-identical. The
    result reproduces PPoly's evaluation in numpy and no longer uses
    PPoly (see _evaluate). Each block is solved on its own, as scipy
    solves it: one shared block-diagonal solve would subtract 0 * (a
    neighbor's entry) at each join, which turns a -0.0 into +0.0. The
    result holds each block's pieces, and its last piece reaches on to
    the next block, so it evaluates as that block's own spline from its
    first knot to the next block's. The checks are not needed here:
    every iterate has passed find_extrema's finite check and the knot
    rule gives at least 3 strictly increasing knots per row. The name is
    scipy's because tracers count and time envelope spline builds by
    wrapping emd.CubicSpline.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    first = np.asarray(starts)
    last = np.append(first[1:], x.size) - 1
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
    d[first], du[first] = 2 * dx[first], dx[first]
    b[first] = -0.5 * 0.0 * dx[first] ** 2 + 3 * (y[first + 1] - y[first])
    d[last], dl[last - 1] = 2 * dx[last - 1], dx[last - 1]
    b[last] = 0.5 * 0.0 * dx[last - 1] ** 2 + 3 * (y[last] - y[last - 1])
    s = np.concatenate([dgtsv(dl[i:j], d[i:j + 1], du[i:j], b[i:j + 1], 1, 1, 1, 1)[3]
                        for i, j in zip(first.tolist(), last.tolist())])
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
    # a block's last knot moves onto the next block's first, so its last
    # piece reaches there and the join's piece is never used
    x = x.copy()
    x[last[:-1]] = x[first[1:]]
    return PiecewiseCubic(c, x)


def mean_envelope(samples, maxima, minima) -> np.ndarray:
    """Half-sum of the upper and lower cubic-spline envelopes, per row.

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

    maxima and minima are find_extrema's indices: flat, for a (rows, n)
    array. All rows' upper envelopes are one CubicSpline, and all lower
    ones another.
    """
    y = np.asarray(samples, dtype=np.float64)
    rows = y.reshape(-1, y.shape[-1])
    ux, uy, us, lx, ly, ls = _block_knots(rows, maxima, minima)
    upper, lower = CubicSpline(ux, uy, us), CubicSpline(lx, ly, ls)
    mean = _on_samples(upper, *rows.shape)
    mean += _on_samples(lower, *rows.shape)
    mean /= 2.0
    return mean.reshape(y.shape)


def _on_samples(spline: PiecewiseCubic, rows: int, n: int) -> np.ndarray:
    """The spline at every sample of `rows` rows of n samples, sample j of
    row r at position r*4n + j as _block_knots places it, with no search.

    A knot p lies in row r = (p + n) // 4n (see _block_knots), so
    r*n + clip(p - 4n*r, 0, n) samples come before it; the first piece
    starts at sample 0 and the last takes every sample to the end, as
    PPoly extrapolates. A sample's piece starts in its own row, so its
    offset is its flat index minus p - 3n*r.
    """
    p = spline.x.astype(np.intp)
    r = (p + n) // (4 * n)
    before = r * n + np.clip(p - 4 * n * r, 0, n)
    before[0], before[-1] = 0, rows * n
    left = spline.x[:-1] - 3 * n * r[:-1]
    return _evaluate(spline.c, left, np.diff(before), np.arange(rows * n, dtype=np.float64))


def _zero_crossings(y: np.ndarray) -> int:
    # samples at float-dust level carry no sign information
    tiny = 1e-9 * np.abs(y).max()
    s = np.sign(y[np.abs(y) > tiny])
    return int(np.sum(s[:-1] != s[1:]))


def _drop_rows(flat: np.ndarray, keep: np.ndarray, n: int) -> np.ndarray:
    """Flat indices of the kept rows once the dropped ones are closed up."""
    per_row = np.diff(_row_bounds(flat, keep.size, n))
    dropped_before = np.arange(keep.size) - np.cumsum(keep) + 1
    return (flat - np.repeat(dropped_before * n, per_row))[np.repeat(keep, per_row)]


def extract_imf(samples, cfg: SiftConfig = SiftConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Sift one intrinsic mode function out of `samples`, or out of each
    row of a (rows, n) array.

    Iterates h <- h - mean_envelope(h); stops once the normalized squared
    change sum((h_prev - h)^2) / sum(h_prev^2) drops below
    SD_THRESHOLD AND the iterate has the defining mode property
    (extrema and zero-crossing counts differing by at most one), or when
    the iteration cap is hit. Returns (imf, proto_residue) with
    proto_residue = samples - imf.

    Each row is sifted at unit scale, on a copy scaled by 2**-k with
    peak_exponent's k of its peak, so no square over- or underflows; the
    IMF is scaled back by 2**k, and the residue is taken at the input's
    scale. A row inside peak_exponent's band (k = 0) is sifted as it is,
    so its result does not move. An IMF or residue beyond float64 raises
    InvalidSignalError.

    The rows are sifted in lockstep, one mean_envelope call per pass for
    all of them. A row stops on its own test, or once its iterate has
    lost its maxima or minima; it then leaves the block. Each row's sums
    stay 1-D dot products, so every row gets the IMF it would get alone.

    Raises NotEnoughExtremaError if an input row cannot be sifted even once.
    """
    x = _as_rows(samples)
    n = x.shape[1]
    imf = np.empty_like(x)
    live, k = _unit_rows(x)       # the iterates of the rows still sifting,
    rows = np.arange(x.shape[0])  # the input rows they belong to
    # the extrema of each iterate serve both its IMF check and its envelope
    maxima, minima = find_extrema(live)
    for _ in range(cfg.max_sift_iterations):
        m = mean_envelope(live, maxima, minima)
        denom = np.array([np.dot(row, row) for row in live])
        live -= m
        maxima, minima = find_extrema(live)
        n_max = np.diff(_row_bounds(maxima, rows.size, n))
        n_min = np.diff(_row_bounds(minima, rows.size, n))
        # an iterate too smooth to sift further is done: accept it as the IMF
        done = (n_max == 0) | (n_min == 0)
        for p in np.flatnonzero(~done):
            sd = np.dot(m[p], m[p]) / denom[p]
            # the SD stop, then the mode property: extrema and zero crossings
            # differ by at most one
            done[p] = sd < SD_THRESHOLD and (
                abs(n_max[p] + n_min[p] - _zero_crossings(live[p])) <= 1)
        if done.any():
            imf[rows[done]] = live[done]
            keep = ~done
            live, rows = live[keep], rows[keep]
            if not rows.size:
                break
            maxima = _drop_rows(maxima, keep, n)
            minima = _drop_rows(minima, keep, n)
    imf[rows] = live
    # the residue is taken at the input's scale, so IMF plus residue is the
    # input exactly even where the IMF scaled back rounds
    with np.errstate(over="ignore"):
        np.ldexp(imf, k, out=imf)
        residue = x - imf
    if not (np.isfinite(imf).all() and np.isfinite(residue).all()):
        raise InvalidSignalError("an IMF or its residue overflows float64")
    if np.ndim(samples) == 1:
        return imf[0], residue[0]
    return imf, residue


def _decomposable(y: np.ndarray):
    """True if the residue still carries an extractable oscillation: 3 or
    more extrema, which alternate, so its first envelope always exists.
    Per row for a (rows, n) array; n must be 3 or more. The extrema are
    counted at the scale extract_imf sifts at, where scaling a large peak
    down flushes to 0 an extremum below 2**-1074 of it."""
    rows = _unit_rows(y.reshape(-1, y.shape[-1]))[0]
    maxima, minima = find_extrema(rows)
    found = (np.diff(_row_bounds(maxima, *rows.shape))
             + np.diff(_row_bounds(minima, *rows.shape))) >= 3
    return found if y.ndim == 2 else bool(found[0])


def _sift(x: np.ndarray, max_modes: int):
    """The sift loop over the rows of x, at most _BATCH_SAMPLES samples or
    one row: each row gives up a mode while it has 3 or more extrema, up
    to max_modes. Returns (each row's IMFs, residues)."""
    if x.shape[1] < 4:
        raise InvalidSignalError(f"signal too short to decompose ({x.shape[1]} samples)")
    residue = x.copy()
    imfs = [[] for _ in residue]
    live = np.arange(residue.shape[0])
    for _ in range(max_modes):
        # tested before each mode only, never after the last one allowed
        live = live[_decomposable(residue[live])]
        if not live.size:
            break
        imf, residue[live] = extract_imf(residue[live])
        for row, mode in zip(live, imf):
            imfs[row].append(mode)
    return imfs, residue


def emd(signal, max_modes: int = DEFAULT_MAX_MODES):
    """Empirical mode decomposition of `signal`, or of each row of a
    (rows, n) array: one Decomposition, or a list of them in row order.

    Extracts IMFs from successive residues until the residue has fewer
    than 3 extrema (a monotone one has none) or `max_modes` is reached.
    The IMFs plus the final residue sum back to the input exactly up to
    float accumulation.
    """
    if max_modes < 1:
        raise InvalidConfigError(f"max_modes must be >= 1, got {max_modes}")
    one = isinstance(signal, Signal)
    x = signal.samples[None] if one else as_float_array(signal, ndim=2)
    decs = []
    for batch in _batches(*x.shape):
        imfs, residue = _sift(x[batch], max_modes)
        decs += [Decomposition(imfs=i, residue=r) for i, r in zip(imfs, residue)]
    return decs[0] if one else decs


def local_mean_operator(samples) -> np.ndarray:
    """M(x): the residue of a one-mode EMD of x, or of each row of a
    (rows, n) array; a row with no mode is its own local mean."""
    x = _as_rows(samples)
    out = np.empty_like(x)
    for batch in _batches(*x.shape):
        out[batch] = _sift(x[batch], 1)[1]
    return out if np.ndim(samples) == 2 else out[0]
