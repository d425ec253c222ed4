"""Reference sift, used only to cross-check.

Plain empirical mode decomposition written with the choices
iceemd.emd makes, so the two agree bit for bit:

- extrema are found by a loop over runs of equal samples; a plateau
  extremum sits at its middle index, left-middle for even length;
- envelope knots follow the package's boundary rule, _block_knots;
- envelopes are scipy's CubicSpline with natural end conditions;
- an iterate h is replaced by h - m, m the half-sum of its envelopes,
  until sum(m^2) / sum(h^2) < 0.2 and the new iterate's extrema and
  zero-crossing counts differ by at most one, or for at most 100 passes;
- modes are extracted while the residue has 3 or more extrema.

The knot rule comes from the package; the extrema, the splines and both
loops are restated here.
"""
import numpy as np
from scipy.interpolate import CubicSpline

from iceemd.emd import _block_knots


def find_extrema(y):
    """(maxima, minima) index arrays of the interior extrema of y."""
    runs = []  # [first, last] index of each run of equal samples
    for i, v in enumerate(y):
        if runs and v == y[runs[-1][0]]:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    maxima, minima = [], []
    for before, (first, last), after in zip(runs, runs[1:], runs[2:]):
        v = y[first]
        if y[before[0]] < v > y[after[0]]:
            maxima.append((first + last) // 2)
        elif y[before[0]] > v < y[after[0]]:
            minima.append((first + last) // 2)
    return np.array(maxima, dtype=int), np.array(minima, dtype=int)


def zero_crossings(y):
    tiny = 1e-9 * np.abs(y).max()
    s = np.sign(y[np.abs(y) > tiny])
    return int(np.sum(s[:-1] != s[1:]))


def sift(x):
    """(imf, x - imf) of one mode sifted out of x, which has 3+ extrema."""
    h = x.copy()
    maxima, minima = find_extrema(h)
    for _ in range(100):
        if maxima.size == 0 or minima.size == 0:
            break
        ux, uy, _, lx, ly, _ = _block_knots(h[None], maxima, minima)
        grid = np.arange(h.size)
        upper = CubicSpline(ux, uy, bc_type="natural")(grid)
        lower = CubicSpline(lx, ly, bc_type="natural")(grid)
        m = (upper + lower) / 2.0
        denom = float(np.dot(h, h))
        if denom == 0.0:
            break
        h = h - m
        maxima, minima = find_extrema(h)
        n_extrema = maxima.size + minima.size
        if float(np.dot(m, m)) / denom < 0.2 and abs(n_extrema - zero_crossings(h)) <= 1:
            break
    return h, x - h


def emd_reference(x, max_modes=12):
    """(imfs, residue) of the plain EMD of the samples x."""
    residue = np.asarray(x, dtype=np.float64).copy()
    imfs = []
    while len(imfs) < max_modes and sum(e.size for e in find_extrema(residue)) >= 3:
        imf, residue = sift(residue)
        imfs.append(imf)
    return imfs, residue
