"""Reference ICEEMDAN recursion, used only to cross-check.

The stage recursion of Colominas, Schlotthauer & Torres (2014), written
plainly with the choices iceemd.ensemble.iceemd makes, so the two agree
bit for bit:

- stage 1 adds the first noise mode normalized to unit std, stage k >= 2
  the k-th mode as it is, both scaled by epsilon0 * std(residue);
- a realization with fewer than k modes adds an array of zeros at stage k;
- the local mean M(y) is the proto-residue of one sift, extract_imf(y)[1],
  or y itself when y has fewer than 3 extrema;
- the members' local means are averaged by a Kahan-compensated sum in
  member order;
- the stages stop after max_modes, or once the residue has fewer than 3
  extrema.

The noise bank and the single sift come from the package; only the
recursion is restated here.
"""
import numpy as np

from iceemd.emd import extract_imf, find_extrema
from iceemd.ensemble import generate_noise_bank


def extrema_count(y):
    if y.size < 3:
        return 0
    maxima, minima = find_extrema(y)
    return maxima.size + minima.size


def local_mean(y):
    if extrema_count(y) < 3:
        return y.copy()
    return extract_imf(y)[1]


def kahan_mean(terms):
    total = np.zeros_like(terms[0])
    compensation = np.zeros_like(terms[0])
    for term in terms:
        y = term - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total / len(terms)


def iceemd_reference(x, cfg):
    """(imfs, residue) of the ICEEMDAN of the samples x under an EnsembleConfig."""
    x = np.asarray(x, dtype=np.float64)
    bank = generate_noise_bank(x.size, cfg)
    imfs = []
    residue = x.copy()
    for k in range(cfg.max_modes):
        if extrema_count(residue) < 3:
            break
        beta = cfg.epsilon0 * residue.std()
        members = []
        for modes in bank:
            if k >= len(modes):
                noise = np.zeros(x.size)
            elif k == 0:
                noise = beta * modes[0] / modes[0].std()
            else:
                noise = beta * modes[k]
            members.append(local_mean(residue + noise))
        next_residue = kahan_mean(members)
        imfs.append(residue - next_residue)
        residue = next_residue
    return imfs, residue
