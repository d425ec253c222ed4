import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline as ScipyCubicSpline

from iceemd import (
    EnsembleConfig,
    InvalidConfigError,
    InvalidSignalError,
    NotEnoughExtremaError,
    Signal,
    emd,
)
from iceemd.emd import (
    SiftConfig,
    extract_imf,
    find_extrema,
    local_mean_operator,
    mean_envelope,
)
from iceemd.ensemble import _realization, generate_noise_bank
from iceemd.signals import add_noise_snr, dominant_frequency, synth_echo_signal
from iceemd.types import binary_exponent

from sift_oracle import emd_reference

# iceemd/__init__ rebinds the name `emd` to the function
emd_module = sys.modules["iceemd.emd"]

FS = 1000.0


def sine(freq_hz, n=1000, fs=FS, amp=1.0):
    t = np.arange(n) / fs
    return amp * np.sin(2 * np.pi * freq_hz * t)


# short finite series: bounded floats, integer-valued ones with plateaus,
# and random walks
short_series = st.integers(3, 64).flatmap(
    lambda n: st.one_of(
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),
        arrays(np.int64, n, elements=st.integers(-3, 3)).map(lambda a: a.astype(float)),
        arrays(np.float64, n, elements=st.floats(-1.0, 1.0)).map(np.cumsum),
    )
)


def count_zero_crossings(x):
    s = np.sign(x)
    s = s[s != 0]
    return int(np.sum(s[:-1] != s[1:]))


class TestFindExtrema:
    def test_single_peak(self):
        maxima, minima = find_extrema([1, 3, 1])
        assert maxima.tolist() == [1]
        assert minima.tolist() == []

    def test_monotone(self):
        maxima, minima = find_extrema([1, 2, 3])
        assert maxima.size == 0 and minima.size == 0

    def test_plateau_left_middle(self):
        maxima, minima = find_extrema([0, 1, 1, 0])
        assert maxima.tolist() == [1]
        assert minima.tolist() == []

    def test_plateau_odd_middle(self):
        maxima, _ = find_extrema([0, 1, 1, 1, 0])
        assert maxima.tolist() == [2]

    def test_plateau_minimum(self):
        _, minima = find_extrema([1, 0, 0, 1])
        assert minima.tolist() == [1]

    def test_saddle_plateau_is_not_extremum(self):
        maxima, minima = find_extrema([0, 1, 1, 2])
        assert maxima.size == 0 and minima.size == 0

    def test_boundary_plateau_ignored(self):
        maxima, minima = find_extrema([1, 1, 0, 2, 0])
        assert maxima.tolist() == [3]
        assert minima.tolist() == [2]

    def test_alternation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.standard_normal(200)
            maxima, minima = find_extrema(y)
            merged = np.sort(np.concatenate([maxima, minima]))
            kinds = np.isin(merged, maxima)
            assert np.all(kinds[:-1] != kinds[1:]), "maxima and minima must alternate"

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidSignalError):
            find_extrema([1.0, np.nan, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(InvalidSignalError):
            find_extrema([1.0, 2.0])


class TestMeanEnvelope:
    def test_pure_sine_envelope_near_zero(self):
        y = sine(20, n=10 * 50)  # 10 periods at fs=1000
        env = mean_envelope(y, *find_extrema(y))
        assert env.shape == y.shape
        assert np.abs(env).max() < 0.05

    def test_constant_has_no_extrema(self):
        # one row, and a batch whose second row is constant: refused per row
        for y in (np.full(100, 3.0), np.stack([sine(20, n=100), np.full(100, 3.0)])):
            maxima, minima = find_extrema(y)
            with pytest.raises(NotEnoughExtremaError):
                mean_envelope(y, maxima, minima)

    def test_offset_sine_envelope_near_offset(self):
        y = sine(20) + 2.5
        env = mean_envelope(y, *find_extrema(y))
        assert np.abs(env - 2.5).max() < 0.05

    @settings(max_examples=300, deadline=None)
    @given(short_series)
    def test_every_envelope_has_three_increasing_knots(self, y):
        maxima, minima = find_extrema(y)
        assume(maxima.size >= 1 and minima.size >= 1)
        ux, _, _, lx, _, _ = emd_module._block_knots(y[None], maxima, minima)
        for knots in (ux, lx):
            assert knots.size >= 3
            assert np.all(np.diff(knots) > 0)
        env = mean_envelope(y, maxima, minima)
        assert env.shape == y.shape
        assert np.all(np.isfinite(env))


# natural-spline knots: 3-400 strictly increasing integers (gaps up to 60
# make dx[1] > 2 * dx[0] common, the pivoting branch of dgtsv), finite
# values from subnormal to 1e300 with both signed zeros, and an evaluation
# grid reaching up to 6 samples past each end knot
spline_knots = st.integers(3, 400).flatmap(
    lambda k: st.tuples(
        st.integers(-100, 100),
        arrays(np.int64, k - 1, elements=st.integers(1, 60)),
        arrays(np.float64, k, elements=st.one_of(
            st.floats(-1e300, 1e300), st.sampled_from([-0.0, 0.0]))),
        st.integers(0, 6),
    )
)


class TestNaturalSpline:
    @settings(max_examples=300, deadline=None)
    @given(spline_knots)
    @example((0, np.array([1, 3, 1]), np.array([0.0, -0.0, 1.0, -1.0]), 2))
    def test_equals_scipy_natural_spline_bit_for_bit(self, knots):
        start, gaps, y, beyond = knots
        x = start + np.concatenate(([0], np.cumsum(gaps)))
        grid = np.arange(x[0] - beyond, x[-1] + beyond + 1)
        ours = emd_module.CubicSpline(x, y)
        ref = ScipyCubicSpline(x, y, bc_type="natural")
        assert ours.c.tobytes() == ref.c.tobytes()
        assert ours(grid).tobytes() == ref(grid).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(spline_knots, min_size=1, max_size=6))
    @example([(0, np.array([1, 3, 1]), np.array([-1.0, -0.0, 1.0, -0.0]), 0),
              (0, np.array([3, 4, 3, 4]), np.array([0.0, -0.0, -0.0, 0.0, 0.0]), 0)])
    @example([(0, np.array([1, 5, 2]), np.array([1.0, -2.0, 3.0, 0.5]), 6),
              (0, np.array([60, 1, 1]), np.array([5e-324, 1e300, -0.0, 2.0]), 0),
              (0, np.array([2, 40, 3, 1]), np.array([0.0, -1e-310, 7.0, -3.0, 1.0]), 4)])
    def test_blocks_equal_scipy_natural_splines_bit_for_bit(self, blocks):
        # consecutive blocks of very different sizes in one call; each must
        # be scipy's natural spline of its own knots, from its first knot to
        # `beyond` samples past its last. The first example is a -0.0 in a
        # block's first right-hand side after a block whose eliminated last
        # entry is negative: one dgtsv solve shared by both blocks would
        # turn it into +0.0 and change that block's slopes
        xs, ys, grids, starts = [], [], [], []
        at = 0
        for start, gaps, y, beyond in blocks:
            x = at + start + 200 + np.concatenate(([0], np.cumsum(gaps)))
            starts.append(sum(k.size for k in xs))
            xs.append(x)
            ys.append(y)
            grids.append(np.arange(x[0], x[-1] + beyond + 1))
            at = x[-1] + beyond + 1
        ours = emd_module.CubicSpline(np.concatenate(xs), np.concatenate(ys), starts)
        for x, y, grid, first in zip(xs, ys, grids, starts):
            ref = ScipyCubicSpline(x, y, bc_type="natural")
            assert ours.c[:, first:first + x.size - 1].tobytes() == ref.c.tobytes()
            assert ours(grid).tobytes() == ref(grid).tobytes()


@st.composite
def uneven_extrema(draw, n):
    """Straight segments between alternating peaks and troughs 1-40
    samples apart, of heights 0.1-10."""
    gaps = draw(st.lists(st.integers(1, 40), min_size=1, max_size=n))
    pos = np.unique(np.minimum(np.cumsum([0] + gaps), n - 1))
    heights = draw(arrays(np.float64, pos.size, elements=st.floats(0.1, 10.0)))
    heights[1::2] *= -1.0
    return np.interp(np.arange(n), pos, heights)


# finite series of 8-400 samples at scales 1e-100, 1 and 1e100: random
# walks, integer levels with plateaus, and unevenly spaced extrema
sift_series = st.tuples(
    st.integers(8, 400).flatmap(
        lambda n: st.one_of(
            arrays(np.float64, n, elements=st.floats(-1.0, 1.0)).map(np.cumsum),
            arrays(np.int64, n, elements=st.integers(-3, 3)).map(lambda a: a.astype(float)),
            uneven_extrema(n),
        )
    ),
    st.sampled_from([1e-100, 1.0, 1e100]),
).map(lambda pair: pair[0] * pair[1])


class TestSiftOracle:
    @settings(max_examples=150, deadline=None)
    @given(sift_series)
    def test_emd_equals_oracle_bit_for_bit(self, y):
        dec = emd(Signal(y, FS))
        imfs, residue = emd_reference(y)
        assert len(dec.imfs) == len(imfs)
        for ours, ref in zip(dec.imfs, imfs):
            assert ours.tobytes() == ref.tobytes()
        assert dec.residue.tobytes() == residue.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(sift_series)
    def test_local_mean_equals_oracle_bit_for_bit(self, y):
        _, residue = emd_reference(y, max_modes=1)
        assert local_mean_operator(y).tobytes() == residue.tobytes()


# found by searching short piecewise-linear series: one pass leaves its
# iterate without an interior maximum, so its sift stops there
LOSES_EXTREMA = np.array([-5.2, -4.8, -4.3, -16.4, 11.5, 9.7])


@st.composite
def sift_batches(draw):
    """(rows, n) batches of 1-12 rows of 8-200 samples, each row of its own
    kind and scale: random walks, integer levels with plateaus, unevenly
    spaced extrema, and constants and ramps (no mode at all), at 1e-170
    (whose squared sums are 0), 1e-100, 1 and 1e100."""
    n = draw(st.integers(8, 200))
    kind = st.one_of(
        arrays(np.float64, n, elements=st.floats(-1.0, 1.0)).map(np.cumsum),
        arrays(np.int64, n, elements=st.integers(-3, 3)).map(lambda a: a.astype(float)),
        uneven_extrema(n),
        st.floats(-1e3, 1e3).map(lambda c: np.full(n, c)),
        arrays(np.float64, n, elements=st.floats(0.0, 1e3)).map(np.cumsum),
    )
    scale = st.sampled_from([1e-170, 1e-100, 1.0, 1e100])
    rows = draw(st.lists(st.tuples(kind, scale), min_size=1, max_size=12))
    return np.array([row * c for row, c in rows])


def batch_cap(rows_per_batch, n):
    """A batch size in samples: that many rows, or the package's (0)."""
    return rows_per_batch * n or emd_module._BATCH_SAMPLES


class TestBatches:
    """Rows sifted together equal the same rows sifted alone, as bytes."""

    @settings(max_examples=100, deadline=None)
    @given(sift_batches(), st.integers(1, 12), st.sampled_from([1, 2, 5, 0]))
    def test_rows_equal_single_rows_bit_for_bit(self, rows, max_modes, per_batch):
        with mock.patch.object(emd_module, "_BATCH_SAMPLES", batch_cap(per_batch, rows.shape[1])):
            decs = emd(rows, max_modes=max_modes)
            means = local_mean_operator(rows)
        assert len(decs) == rows.shape[0] and means.shape == rows.shape
        for row, dec, mean in zip(rows, decs, means):
            one = emd(Signal(row, FS), max_modes=max_modes)
            assert len(dec.imfs) == len(one.imfs)
            for got, want in zip(dec.imfs, one.imfs):
                assert got.tobytes() == want.tobytes()
            assert dec.residue.tobytes() == one.residue.tobytes()
            assert mean.tobytes() == local_mean_operator(row).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(sift_batches(), st.integers(1, 6))
    def test_sift_rows_equal_single_rows_under_any_cap(self, rows, cap):
        # rows stop after different pass counts, and some hit the cap
        rows = rows[[emd_module._decomposable(row) for row in rows]]
        assume(rows.shape[0] > 0)
        cfg = SiftConfig(max_sift_iterations=cap)
        imfs, proto_residues = extract_imf(rows, cfg)
        for row, imf, proto_residue in zip(rows, imfs, proto_residues):
            want, want_proto = extract_imf(row, cfg)
            assert imf.tobytes() == want.tobytes()
            assert proto_residue.tobytes() == want_proto.tobytes()

    def test_row_that_loses_its_extrema(self):
        maxima, minima = find_extrema(extract_imf(LOSES_EXTREMA, SiftConfig(1))[0])
        assert maxima.size == 0 or minima.size == 0
        rows = np.array([[0.0, 1, 0, 1, 0, 1], LOSES_EXTREMA, [3.0, 1, 4, 1, 5, 9],
                         LOSES_EXTREMA[::-1]])
        imfs, _ = extract_imf(rows)
        for row, imf in zip(rows, imfs):
            assert imf.tobytes() == extract_imf(row)[0].tobytes()

    def test_undecomposable_row_fails_the_batch(self):
        rows = np.array([sine(20, n=64), np.linspace(0, 1, 64)])
        with pytest.raises(NotEnoughExtremaError):
            extract_imf(rows)

    def test_batches_split_at_the_sample_cap(self):
        n = 1000
        rows = np.array([_realization(n, 3, i)
                         for i in range(emd_module._BATCH_SAMPLES // n + 3)])
        assert len(emd_module._batches(*rows.shape)) == 2
        decs = emd(rows)
        means = local_mean_operator(rows)
        for row, dec, mean in zip(rows, decs, means):
            one = emd(Signal(row, FS))
            assert [imf.tobytes() for imf in dec.imfs] == [imf.tobytes() for imf in one.imfs]
            assert dec.residue.tobytes() == one.residue.tobytes()
            assert mean.tobytes() == local_mean_operator(row).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 300), st.integers(1, 5), st.integers(1, 12),
           st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 0]))
    def test_noise_bank_equals_single_realizations(self, n, size, max_modes, seed, per_batch):
        cfg = EnsembleConfig(ensemble_size=size, seed=seed, max_modes=max_modes)
        with mock.patch.object(emd_module, "_BATCH_SAMPLES", batch_cap(per_batch, n)):
            bank = generate_noise_bank(n, cfg)
        assert len(bank) == size
        for i, modes in enumerate(bank):
            want = emd(Signal(_realization(n, seed, i), 1.0), max_modes=max_modes).imfs
            assert [m.tobytes() for m in modes] == [m.tobytes() for m in want]

    def test_local_mean_memory_does_not_grow_with_rows(self):
        # working memory is one batch's, however many rows come in
        def peak(rows):
            x = np.array([_realization(1000, 1, i) for i in range(rows)])
            tracemalloc.start()
            try:
                out = local_mean_operator(x)
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        assert abs(peak(256) - peak(64)) < 2**20


def reference_end_knots(d_max, v_max, d_min, v_min, y_end):
    """mean_envelope's knot rule at one end, on numpy arrays: the offsets
    and values of the upper, then the lower, envelope's added knots."""
    count = emd_module.BOUNDARY_EXTREMA_COUNT
    max_first = d_max[0] < d_min[0]
    if max_first and y_end <= v_min[0]:
        return (-d_max[:count], v_max[:count],
                np.concatenate(([0], -d_min[:count - 1])),
                np.concatenate(([y_end], v_min[:count - 1])))
    if not max_first and y_end >= v_max[0]:
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
    return -d_max[:count], v_max[:count], -d_min[:count], v_min[:count]


def reference_envelope_knots(y, maxima, minima):
    """(ux, uy, lx, ly) of one series by the knot rule, as float64."""
    last = y.size - 1
    near = emd_module.BOUNDARY_EXTREMA_COUNT + 1
    v_max, v_min = y[maxima], y[minima]
    lux, luy, llx, lly = reference_end_knots(
        maxima[:near], v_max[:near], minima[:near], v_min[:near], y[0])
    rux, ruy, rlx, rly = reference_end_knots(
        last - maxima[::-1][:near], v_max[::-1][:near],
        last - minima[::-1][:near], v_min[::-1][:near], y[last])
    knots = (np.concatenate([lux[::-1], maxima, last - rux]),
             np.concatenate([luy[::-1], v_max, ruy]),
             np.concatenate([llx[::-1], minima, last - rlx]),
             np.concatenate([lly[::-1], v_min, rly]))
    return tuple(k.astype(np.float64) for k in knots)


class TestEnvelopeKnots:
    """The package's knots, one row or many, equal the knot rule restated
    on numpy arrays, as bytes. The sift oracle borrows _block_knots, so
    this is what checks the knots themselves."""

    @settings(max_examples=300, deadline=None)
    @given(sift_series)
    def test_one_row_equals_reference(self, y):
        maxima, minima = find_extrema(y)
        assume(maxima.size and minima.size)
        ux, uy, _, lx, ly, _ = emd_module._block_knots(y[None], maxima, minima)
        got = ux, uy, lx, ly
        want = reference_envelope_knots(y, maxima, minima)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(sift_batches())
    def test_each_row_equals_reference(self, rows):
        # row r's knot positions are shifted by r * 4n
        rows = rows[[all(e.size for e in find_extrema(row)) for row in rows]]
        assume(rows.shape[0] > 0)
        n = rows.shape[1]
        maxima, minima = find_extrema(rows)
        ux, uy, us, lx, ly, ls = emd_module._block_knots(rows, maxima, minima)
        us, ls = np.append(us, ux.size), np.append(ls, lx.size)
        for r, row in enumerate(rows):
            wux, wuy, wlx, wly = reference_envelope_knots(row, *find_extrema(row))
            upper, lower = slice(us[r], us[r + 1]), slice(ls[r], ls[r + 1])
            assert ux[upper].tobytes() == (wux + r * 4 * n).tobytes()
            assert uy[upper].tobytes() == wuy.tobytes()
            assert lx[lower].tobytes() == (wlx + r * 4 * n).tobytes()
            assert ly[lower].tobytes() == wly.tobytes()


def test_negative_zero_knot_evaluates_as_scipy_does():
    # the knot at x = 3 holds -0.0 and the other three coefficients of its
    # piece are negative, so every term there is -0.0: PPoly adds 0.0
    # first and returns +0.0, and so must the package's evaluation
    x = np.array([3, 4, 6, 9, 12, 13])
    y = np.array([-0.0, -2.0, -4.0, 4.0, 1.0, 3.0])
    grid = np.arange(0, 16)
    ours = emd_module.CubicSpline(x, y)(grid)
    assert ours.tobytes() == ScipyCubicSpline(x, y, bc_type="natural")(grid).tobytes()
    assert not np.signbit(ours[3])


@st.composite
def envelope_batches(draw):
    """(rows, n) batches of 1-16 rows of n >= 4 samples, each row with an
    interior maximum and minimum. Values mix floats with both signed
    zeros and +-1, so rows whose end sample lies beyond the first extrema
    (and becomes a knot), rows with a single maximum or minimum (the
    mirror falls back to the end sample), plateaus and signed-zero knots
    all occur."""
    n = draw(st.integers(4, 80))
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0, -1.0, 1.0]))
    row = arrays(np.float64, n, elements=value).filter(
        lambda y: all(e.size for e in find_extrema(y)))
    return np.array(draw(st.lists(row, min_size=1, max_size=16)))


class TestMeanEnvelopeOracle:
    """mean_envelope of a batch equals, row by row and as bytes, the
    half-sum of scipy's natural splines through that row's own knots,
    evaluated on the row's samples."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(envelope_batches())
    # one maximum (mirror fallback at the left end), a first sample below
    # the first minimum after a maximum (an end knot), and signed zeros
    @example(np.array([[0.0, 1.0, -1.0, 0.0]]))
    @example(np.array([[-5.0, 1.0, -1.0, 1.0, -1.0, 0.5],
                       [-0.0, 1.0, 0.0, 2.0, -0.0, -1.0],
                       [0.0, -0.0, 1.0, -0.0, -0.0, 2.0]]))
    def test_rows_equal_scipy_natural_splines_bit_for_bit(self, rows):
        got = mean_envelope(rows, *find_extrema(rows))
        grid = np.arange(rows.shape[1])
        for row, mean in zip(rows, got):
            ux, uy, lx, ly = reference_envelope_knots(row, *find_extrema(row))
            want = ScipyCubicSpline(ux, uy, bc_type="natural")(grid)
            want += ScipyCubicSpline(lx, ly, bc_type="natural")(grid)
            want /= 2.0
            assert mean.tobytes() == want.tobytes()


class TestExtractImf:
    def test_pure_sine_is_its_own_imf(self):
        y = sine(20)
        imf, proto_residue = extract_imf(y)
        margin = slice(50, 950)  # skip the first/last 5%
        assert np.abs(proto_residue[margin]).max() < 0.05
        assert np.abs((imf - y)[margin]).max() < 0.1

    def test_monotone_ramp_fails(self):
        with pytest.raises(NotEnoughExtremaError):
            extract_imf(np.linspace(0, 1, 100))

    def test_imf_extrema_zero_crossing_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            # random smooth signal: sum of a few random tones
            t = np.arange(512) / 512
            y = sum(
                rng.uniform(0.5, 1.5) * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
                for f in rng.uniform(3, 60, size=4)
            )
            imf, _ = extract_imf(y)
            maxima, minima = find_extrema(imf)
            n_ext = maxima.size + minima.size
            if n_ext < 3:
                continue
            assert abs(n_ext - count_zero_crossings(imf)) <= 1

    def test_exact_split(self):
        y = sine(20) + 0.3 * sine(100)
        imf, proto_residue = extract_imf(y)
        assert np.allclose(imf + proto_residue, y, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(short_series)
    def test_decomposable_input_always_sifts(self, y):
        assume(emd_module._decomposable(y))
        imf, proto_residue = extract_imf(y)
        assert imf.shape == y.shape and proto_residue.shape == y.shape

    def test_one_extrema_pass_per_iterate(self, monkeypatch):
        # 25 Hz plus 0.3 x 69 Hz: the SD stop holds before the IMF check
        # does, so a sift that found the extrema twice for such an iterate
        # would make more passes than envelopes + 1
        calls = {"find_extrema": 0, "mean_envelope": 0}

        def counted(name):
            fn = getattr(emd_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(emd_module, name, wrapper)

        counted("find_extrema")
        counted("mean_envelope")
        y = sine(25) + 0.3 * sine(69)
        imf, _ = emd_module.extract_imf(y, SiftConfig())
        iterations = calls["mean_envelope"]
        assert 1 < iterations < SiftConfig().max_sift_iterations
        maxima, minima = find_extrema(imf)
        assert abs(maxima.size + minima.size - count_zero_crossings(imf)) <= 1
        assert calls["find_extrema"] == iterations + 1


def test_unit_rows_take_each_rows_binary_exponent():
    # zero rows, a subnormal peak, peaks at and just past both band
    # edges, 1e300 and 2**600
    edge = 2.0**500
    rows = np.array([
        [0.0, 0.0, -0.0, 0.0],
        [0.0, 5e-324, -1e-320, 0.0],
        [2.0**-500, -1.0e-151, 0.0, 0.0],
        [0.0, -np.nextafter(2.0**-500, 0.0), 1e-160, 0.0],
        [edge, -3.0, 0.0, 1.0],
        [0.0, -np.nextafter(edge, np.inf), 2.0, 0.0],
        [1e300, -1.0, 0.0, 2.0],
        [2.0**600, 0.0, -5e-324, 1.0],
    ])
    scaled, k = emd_module._unit_rows(rows)
    assert k.shape == (rows.shape[0], 1)
    for row, got, got_k in zip(rows, scaled, k[:, 0]):
        want_k = binary_exponent(row)
        assert got_k == want_k
        assert got.tobytes() == np.ldexp(row, -want_k).tobytes()


@pytest.mark.parametrize("max_modes", [1, 2])
def test_decomposability_is_tested_once_per_mode(monkeypatch, max_modes):
    # the residue after the last mode allowed is not tested: its answer
    # would be thrown away
    calls = []
    real = emd_module._decomposable

    def counted(y):
        calls.append(len(y))
        return real(y)

    monkeypatch.setattr(emd_module, "_decomposable", counted)
    rows = np.stack([sine(20) + 0.3 * sine(100), sine(35)])
    decs = emd(rows, max_modes=max_modes)
    assert [d.n_imfs for d in decs] == [max_modes, max_modes]
    assert calls == [2] * max_modes


def test_import_and_emd_leave_scipy_interpolate_unloaded():
    # the envelopes are evaluated in numpy; only scipy.linalg's LAPACK
    # is loaded, which keeps every process start lighter
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import iceemd\n"
        "iceemd.emd(iceemd.Signal(np.sin(np.arange(500) / 3.0) + np.arange(500) / 100.0, 1.0))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestEmd:
    def test_monotone_ramp_returns_residue_only(self):
        dec = emd(Signal(np.linspace(0, 1, 64), FS))
        assert dec.n_imfs == 0
        assert np.array_equal(dec.residue, np.linspace(0, 1, 64))

    def test_two_tone_ordering(self):
        dec = emd(Signal(sine(20) + sine(100), FS))
        assert dec.n_imfs >= 2
        assert dominant_frequency(dec.imfs[0], FS) == pytest.approx(100, abs=1)
        assert dominant_frequency(dec.imfs[1], FS) == pytest.approx(20, abs=1)

    def test_dominant_frequency_ordering_three_tones(self):
        # tones separated by >= 4x come out high to low
        t = np.arange(1000) / FS
        y = (
            np.sin(2 * np.pi * 8 * t)
            + np.sin(2 * np.pi * 40 * t)
            + np.sin(2 * np.pi * 160 * t)
        )
        dec = emd(Signal(y, FS))
        doms = [dominant_frequency(imf, FS) for imf in dec.imfs]
        substantive = [
            d for d, imf in zip(doms, dec.imfs) if float(np.dot(imf, imf)) > 100.0
        ]
        assert substantive == sorted(substantive, reverse=True)
        assert len(substantive) == 3

    def test_reconstruction_50_random_signals(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            y = rng.standard_normal(256)
            dec = emd(Signal(y, FS))
            err = np.abs(dec.reconstruct() - y).max()
            assert err <= 1e-10 * np.abs(y).max()

    def test_max_modes_cap(self):
        y = np.random.default_rng(5).standard_normal(1024)
        dec = emd(Signal(y, FS), max_modes=3)
        assert dec.n_imfs <= 3

    def test_determinism_bitwise(self):
        y = np.random.default_rng(9).standard_normal(512)
        a = emd(Signal(y, FS))
        b = emd(Signal(y, FS))
        assert a.n_imfs == b.n_imfs
        for ia, ib in zip(a.imfs, b.imfs):
            assert np.array_equal(ia, ib)
        assert np.array_equal(a.residue, b.residue)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidSignalError):
            emd(Signal([1.0, 2.0, 1.0], FS))

    @pytest.mark.parametrize("k", [-1000, -540, 530, 1010])
    def test_noisy_echo_at_any_power_of_two(self, k):
        # every row is sifted at unit scale, so the echo's modes scale with
        # it bit for bit, far outside the range where its squares are finite
        y = add_noise_snr(synth_echo_signal(), 5.0, seed=1)
        dec = emd(y)
        scaled = emd(y.with_samples(np.ldexp(y.samples, k)))
        assert dec.n_imfs >= 4 and scaled.n_imfs == dec.n_imfs
        for part, scaled_part in zip([*dec.imfs, dec.residue], [*scaled.imfs, scaled.residue]):
            assert _bits(np.ldexp(part, k)) == _bits(scaled_part)

    def test_step_of_the_size_of_float64_decomposes(self):
        # the sift's squares would overflow, and the first slope of the
        # residue does: neither is a warning or an error
        y = np.array([0.0, -5.99e307, 0.0, -1.0, 0.0])
        dec = emd(Signal(y, FS))
        assert dec.n_imfs == 1
        np.testing.assert_allclose(dec.reconstruct(), y, rtol=0, atol=1e-10 * 5.99e307)

    def test_imf_beyond_float64_rejected(self):
        # the envelope swings past this near-maximal peak: scaled back, the
        # IMF leaves float64, which is refused by name
        y = np.array([0.0, 1.7e308, -1.7e308, 1.7e308, 0.0, 1.7e308, 0.0])
        with pytest.raises(InvalidSignalError, match="overflows float64"):
            emd(Signal(y, FS))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


def _stays_normal(a, k):
    """Every nonzero element of a, scaled by 2**k, is a normal float64."""
    a = np.asarray(a)
    return bool(np.all(np.abs(np.ldexp(a[a != 0.0], k)) >= np.finfo(np.float64).tiny))


@settings(max_examples=200, deadline=None)
@given(short_series.filter(lambda y: y.size >= 4), st.integers(-1000, 1000))
def test_emd_is_equivariant_under_powers_of_two(y, k):
    # where the input and every part of the decomposition are normal at
    # both scales, emd(2**k y) is 2**k emd(y) bit for bit: each row is
    # sifted at unit scale, and scaling by a power of two is exact there
    dec = emd(Signal(y, FS))
    parts = [y, *dec.imfs, dec.residue]
    assume(all(_stays_normal(p, 0) and _stays_normal(p, k) for p in parts))
    scaled = emd(Signal(np.ldexp(y, k), FS))
    assert scaled.n_imfs == dec.n_imfs
    for part, scaled_part in zip(parts[1:], [*scaled.imfs, scaled.residue]):
        assert _bits(np.ldexp(part, k)) == _bits(scaled_part)


class TestOperators:
    def test_first_mode_of_sine_is_sine(self):
        y = sine(100)
        e1, _ = extract_imf(y)
        margin = slice(50, 950)
        assert np.abs((e1 - y)[margin]).max() < 0.1

    def test_first_mode_plus_local_mean_is_identity(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(512)
        e1, _ = extract_imf(y)
        m = local_mean_operator(y)
        assert np.abs(e1 + m - y).max() <= 1e-10 * np.abs(y).max()

    def test_local_mean_of_sine_near_zero(self):
        y = sine(20)
        m = local_mean_operator(y)
        assert np.abs(m[50:950]).max() < 0.05

    def test_local_mean_of_ramp_is_ramp(self):
        y = np.linspace(-1, 1, 128)
        assert np.array_equal(local_mean_operator(y), y)

    @pytest.mark.parametrize("seed", range(4))
    def test_ensemble_local_mean_has_no_end_swing(self, seed):
        # Stage 2 of the two-tone benchmark in small: a 20 Hz tone plus
        # seeded second noise modes at epsilon0 = 0.2. Noise extrema near an
        # end sit on the tone's flank; envelopes that do not enclose the end
        # samples make the first sift subtract about the tone's amplitude
        # there, and the ensemble-averaged local mean then swings by 0.7-1.1
        # at both ends instead of following the tone.
        tone = sine(20)
        members = 10
        bank = generate_noise_bank(
            tone.size, EnsembleConfig(ensemble_size=members, seed=seed, max_modes=2)
        )
        noise = [0.2 * tone.std() * modes[1] for modes in bank]
        mean = np.mean([local_mean_operator(tone + w) for w in noise], axis=0)
        amplitude = max(np.abs(w).max() for w in noise)
        assert abs(mean[0] - tone[0]) <= amplitude
        assert abs(mean[-1] - tone[-1]) <= amplitude

    def test_local_mean_of_sine_plus_ramp_is_ramp(self):
        t = np.arange(1000) / FS
        ramp = 0.5 * t
        y = sine(20) + ramp
        m = local_mean_operator(y)
        assert np.abs((m - ramp)[50:950]).max() < 0.1


class TestSiftConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_sift_iterations", 0),
    ])
    def test_config_error_names_field(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            SiftConfig(**{field: value})

    def test_max_modes_below_one_is_config_error(self):
        with pytest.raises(InvalidConfigError, match="max_modes"):
            emd(Signal(sine(20), FS), max_modes=0)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(4, 40),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_any_finite_array_reconstructs(y):
    # whatever its amplitudes, a finite record decomposes without a
    # warning into parts that sum back to it, or an IMF or residue beyond
    # float64 is refused by name. The sum is checked at unit scale, where
    # the parts' partial sums cannot overflow
    try:
        dec = emd(Signal(y, FS))
    except InvalidSignalError as err:
        assert "overflows float64" in str(err)
        return
    k = int(np.frexp(np.abs(y).max())[1])
    parts = np.ldexp(np.array([*dec.imfs, dec.residue]), -k)
    error = np.abs(parts.sum(axis=0) - np.ldexp(y, -k)).max()
    assert error <= 1e-12 * np.abs(parts).max()
