"""Reference approximate entropies, used only to cross-check.

apen_dense is the full n-by-n match-matrix formula: the same predicate,
counts and summation order as iceemd.entropy.approximate_entropy, so the
two agree bit for bit. apen_bruteforce is independent of both: it builds
the binary distance matrix element by element and counts template
matches with nested loops.
"""
import math

import numpy as np


def apen_dense(z, a):
    """Approximate entropy with template length 2 and tolerance a, from
    the diagonal-AND of the pairwise |z_i - z_j| < a matrix."""
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    b = np.abs(z[:, None] - z[None, :]) < a
    pair = b[:-1, :-1] & b[1:, 1:]
    c2 = pair.sum(axis=1) / (n - 1)
    triple = pair[:-1, :-1] & b[2:, 2:]
    c3 = triple.sum(axis=1) / (n - 2)
    phi1 = float(np.mean(np.log(c2)))
    phi2 = float(np.mean(np.log(c3)))
    return phi1 - phi2


def apen_bruteforce(series, a):
    """Approximate entropy with template length 2 and tolerance a."""
    z = list(map(float, series))
    n = len(z)
    b = [[1 if abs(z[i] - z[j]) < a else 0 for j in range(n)] for i in range(n)]

    log_c2 = []
    for i in range(n - 1):
        count = 0
        for j in range(n - 1):
            if b[i][j] and b[i + 1][j + 1]:
                count += 1
        log_c2.append(math.log(count / (n - 1)))

    log_c3 = []
    for i in range(n - 2):
        count = 0
        for j in range(n - 2):
            if b[i][j] and b[i + 1][j + 1] and b[i + 2][j + 2]:
                count += 1
        log_c3.append(math.log(count / (n - 2)))

    phi1 = sum(log_c2) / len(log_c2)
    phi2 = sum(log_c3) / len(log_c3)
    return phi1 - phi2
