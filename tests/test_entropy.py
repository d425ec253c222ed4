import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import iceemd.entropy as entropy
from iceemd import (
    ApEnConfig,
    Decomposition,
    InvalidConfigError,
    InvalidSignalError,
    apen_per_imf,
    approximate_entropy,
)

from apen_oracle import apen_bruteforce, apen_dense
from float_checks import stays_normal


class TestApproximateEntropy:
    def test_constant_series_is_zero(self):
        assert approximate_entropy(np.full(64, 1.23)) == 0.0

    def test_constant_series_all_pairs_match(self):
        # a std floor of 2.0 sets the tolerance to 0.15 * 2.0 == 0.3, so the
        # match matrix is built; every template matches every other one
        z = np.full(16, 2.5)
        value = approximate_entropy(z, ApEnConfig(tolerance_factor=0.15), std_floor=2.0)
        assert apen_bruteforce(z, 0.3) == 0.0
        assert value == 0.0

    def test_period_two_matches_bruteforce(self):
        z = np.tile([1.0, -1.0], 50)
        cfg = ApEnConfig()
        a = z.std() * cfg.tolerance_factor
        assert approximate_entropy(z, cfg) == pytest.approx(
            apen_bruteforce(z, a), abs=1e-12
        )

    def test_bruteforce_equivalence_random(self):
        rng = np.random.default_rng(42)
        cfg = ApEnConfig()
        for _ in range(20):
            n = rng.integers(10, 120)
            z = rng.standard_normal(n)
            a = z.std() * cfg.tolerance_factor
            assert approximate_entropy(z, cfg) == pytest.approx(
                apen_bruteforce(z, a), abs=1e-12
            )

    def test_noise_more_irregular_than_sine(self):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(1000)
        t = np.arange(1000) / 1000.0
        sine = np.sin(2 * np.pi * 20 * t)
        cfg = ApEnConfig(tolerance_factor=0.15)
        apen_noise = approximate_entropy(noise, cfg)
        apen_sine = approximate_entropy(sine, cfg)
        assert apen_noise > apen_sine
        assert apen_noise >= 0 and apen_sine >= 0

    def test_nonnegative_on_random_series(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            z = rng.standard_normal(rng.integers(10, 200))
            assert approximate_entropy(z) >= 0

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(100)
        base = approximate_entropy(z)
        for c in (2.0, 0.5, 3.0, 117.0):
            assert approximate_entropy(c * z) == pytest.approx(base, abs=1e-12)

    def test_strict_inequality(self):
        # integer samples, tolerance 0.125 * 8.0 == 1.0 exactly: neighbours
        # one apart are at the tolerance and must not match
        z = np.random.default_rng(3).integers(0, 4, size=60).astype(float)
        assert z.std() < 8.0
        value = approximate_entropy(z, ApEnConfig(tolerance_factor=0.125), std_floor=8.0)
        assert value == pytest.approx(apen_bruteforce(z, 1.0), abs=1e-12)
        assert value != pytest.approx(apen_bruteforce(z, np.nextafter(1.0, 2.0)), abs=1e-6)

    def test_invalid_tolerance(self):
        for factor in (0.0, -0.15, float("nan"), float("inf")):
            with pytest.raises(InvalidConfigError):
                ApEnConfig(tolerance_factor=factor)

    def test_std_floor(self):
        z = np.random.default_rng(4).standard_normal(80)
        cfg = ApEnConfig()
        # a floor below the series' own std leaves the tolerance as it is
        plain = approximate_entropy(z, cfg)
        assert approximate_entropy(z, cfg, std_floor=0.5 * z.std()) == plain
        # a floor above it sets the tolerance to tolerance_factor * floor
        assert approximate_entropy(z, cfg, std_floor=3.0) == pytest.approx(
            apen_bruteforce(z, cfg.tolerance_factor * 3.0), abs=1e-12
        )
        assert approximate_entropy(np.full(20, 1.5), cfg, std_floor=1.0) == 0.0

    def test_short_series_rejected(self):
        with pytest.raises(InvalidSignalError):
            approximate_entropy(np.arange(9, dtype=float))

    def test_tolerance_factor_warning(self):
        # the warning points at the caller's line, not into the generated
        # dataclass __init__
        with pytest.warns(UserWarning) as record:
            ApEnConfig(tolerance_factor=0.5)
        assert record[0].filename == __file__


def _dense(z, cfg, std_floor=0.0):
    """The full-matrix entropy at the tolerance approximate_entropy uses."""
    return apen_dense(z, cfg.tolerance_factor * max(float(z.std()), std_floor))


class TestDenseIdentity:
    """The bitset counts give the full-matrix result bit for bit."""

    @pytest.mark.parametrize("n", [10, 11, 63, 64, 65, 500, 2048])
    def test_white_noise(self, n):
        z = np.random.default_rng(n).standard_normal(n)
        cfg = ApEnConfig()
        assert approximate_entropy(z, cfg) == _dense(z, cfg)

    @pytest.mark.parametrize("n", [10, 129, 1000, 2048])
    @pytest.mark.parametrize("cycles", [1.5, 20.0, 300.0])
    def test_sines(self, n, cycles):
        z = np.sin(2 * np.pi * cycles * np.arange(n) / n)
        cfg = ApEnConfig()
        assert approximate_entropy(z, cfg) == _dense(z, cfg)

    @pytest.mark.parametrize("levels", [2, 3, 7])
    @pytest.mark.parametrize("std_floor", [0.0, 1.0, 4.0])
    def test_integer_ties(self, levels, std_floor):
        z = np.random.default_rng(levels).integers(0, levels, size=700).astype(float)
        cfg = ApEnConfig()
        assert approximate_entropy(z, cfg, std_floor) == _dense(z, cfg, std_floor)

    def test_tolerance_equal_to_neighbour_gap(self):
        # the test_strict_inequality set-up: a == 1.0, the gap between levels
        z = np.random.default_rng(3).integers(0, 4, size=60).astype(float)
        value = approximate_entropy(z, ApEnConfig(tolerance_factor=0.125), std_floor=8.0)
        assert value == apen_dense(z, 1.0)

    def test_gap_just_inside_tolerance(self):
        # a == 1.0 and the levels are one ulp less than 1.0 apart, so
        # neighbouring levels match: the candidate range must reach them
        levels = np.random.default_rng(3).integers(0, 4, size=200).astype(float)
        z = levels * np.nextafter(1.0, 0.0)
        value = approximate_entropy(z, ApEnConfig(tolerance_factor=0.125), std_floor=8.0)
        assert value == apen_dense(z, 1.0)
        assert value != apen_dense(z, np.nextafter(1.0, 0.0))

    def test_every_pair_matches(self):
        z = np.random.default_rng(8).standard_normal(1000)
        cfg = ApEnConfig()
        value = approximate_entropy(z, cfg, std_floor=1e3)
        assert value == _dense(z, cfg, 1e3) == 0.0


def _finite_samples():
    """Arbitrary finite float64 arrays of 10-150 samples, plus scaled ones:
    integer-valued (ties) or uniform, at subnormal, unit and 1e300 scale."""
    shape = st.integers(10, 150)
    scale = st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300])
    arbitrary = arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))
    ties = arrays(np.float64, shape, elements=st.integers(-3, 3).map(float))
    uniform = arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))
    scaled = st.tuples(st.one_of(ties, uniform), scale).map(lambda zs: zs[0] * zs[1])
    return st.one_of(arbitrary, scaled)


def _bits(x):
    return np.float64(x).view(np.int64)


def _unit_exponent(z):
    """The frexp exponent of the largest magnitude, written out here so the
    oracle does not lean on types."""
    return math.frexp(float(np.abs(z).max()))[1]


@settings(max_examples=400, deadline=None)
@given(z=_finite_samples(), std_floor=st.one_of(st.just(0.0), st.floats(0.0, 1e308)))
def test_equals_dense_oracle_bit_for_bit(z, std_floor):
    # the oracle runs at unit scale: on z * 2**-k, the floor scaled alike
    # (to infinity where it dwarfs z, which still matches every pair), k
    # bringing the largest magnitude into [0.5, 1); there a tolerance of
    # 0.15 times the std cannot underflow
    cfg = ApEnConfig()
    k = _unit_exponent(z)
    unit = np.ldexp(z, -k)
    with np.errstate(over="ignore"):
        unit_floor = float(np.ldexp(std_floor, -k))
    value = approximate_entropy(z, cfg, std_floor)
    with np.errstate(all="ignore"):
        expected = 0.0 if z.min() == z.max() else apen_dense(
            unit, cfg.tolerance_factor * max(float(unit.std()), unit_floor)
        )
    assert _bits(value) == _bits(expected)


@settings(max_examples=300, deadline=None)
@given(
    z=st.integers(10, 150).flatmap(lambda n: st.one_of(
        arrays(np.float64, n, elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, n, elements=st.integers(-3, 3).map(float)),
        # ties near 0 a few ulps apart: their differences to the other
        # levels round, so one row's match interval sheds several runs
        arrays(np.float64, n, elements=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
            lambda ij: ij[0] + ij[1] * 2.0**-55)),
    )),
    factor=st.sampled_from([0.15, 0.125]),
    std_floor=st.one_of(st.sampled_from([0.0, 8.0, 16.0]), st.floats(0.0, 4.0)),
    stride=st.sampled_from([1, 7]),
    rows=st.sampled_from([1, 7]),
)
def test_kernel_seams_equal_dense_oracle(z, factor, std_floor, stride, rows):
    # a prefix stored every 1 or 7 ranks and blocks of 1 or 7 template
    # starts put prefix boundaries and block seams everywhere; on integer
    # ties a floor of 8 or 16 at factor 0.125 sets the tolerance to a gap
    # between levels, which the match intervals must shed
    # the dense oracle works at the input's scale, where the squares of a
    # tiny series underflow (log(0) on [2.2e-308, 0, ...]): keep to peaks
    # of 2**-500 and up, where its tolerance is the unit-scale one
    assume(np.abs(z).max() == 0.0 or np.abs(z).max() >= 2.0**-500)
    cfg = ApEnConfig(tolerance_factor=factor)
    with mock.patch.object(entropy, "_stride", lambda n: stride), \
            mock.patch.object(entropy, "_ROWS", rows):
        value = approximate_entropy(z, cfg, std_floor)
    expected = 0.0 if z.min() == z.max() else _dense(z, cfg, std_floor)
    assert _bits(value) == _bits(expected)


@settings(max_examples=200, deadline=None)
@given(
    z=st.integers(10, 120).flatmap(lambda n: st.one_of(
        arrays(np.float64, n, elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, n, elements=st.integers(-3, 3).map(float)),
    )),
    floor=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    k=st.integers(-1000, 1000),
)
def test_invariant_under_powers_of_two(z, floor, k):
    # the tolerance is relative to a std taken at unit scale, so scaling
    # the series and its floor by 2**k leaves the entropy as it is, bit
    # for bit, wherever the samples and the tolerance stay normal
    cfg = ApEnConfig()
    tolerance = cfg.tolerance_factor * max(float(z.std()), floor)
    assume(stays_normal(z, 0) and stays_normal(z, k))
    assume(stays_normal(tolerance, 0) and stays_normal(tolerance, k))
    value = approximate_entropy(z, cfg, floor)
    assert _bits(approximate_entropy(np.ldexp(z, k), cfg, math.ldexp(floor, k))) == _bits(value)


class TestBoundedMemory:
    """30,000 samples: the dense matrices would need about 9 GiB."""

    N = 30_000
    LIMIT = 64 * 2**20

    def _peak(self, z, std_floor):
        tracemalloc.start()
        try:
            value = approximate_entropy(z, ApEnConfig(), std_floor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return value, peak

    def test_white_noise(self):
        z = np.random.default_rng(30).standard_normal(self.N)
        value, peak = self._peak(z, 0.0)
        assert peak <= self.LIMIT
        assert math.isfinite(value) and value > 2.0

    def test_every_pair_matches(self):
        z = np.random.default_rng(30).standard_normal(self.N)
        value, peak = self._peak(z, 1e6)
        assert peak <= self.LIMIT
        assert value == 0.0


def _assert_entropy_at_unit_scale(z):
    """The entropy of z is, without a warning, that of z * 2**-k with the
    largest magnitude in [0.5, 1), and the oracle's there."""
    k = math.frexp(float(np.abs(z).max()))[1]
    unit = np.ldexp(z, -k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = approximate_entropy(z)
    assert value == approximate_entropy(unit)
    assert value == apen_dense(unit, ApEnConfig().tolerance_factor * float(unit.std()))


class TestOverflowingStd:
    @pytest.mark.parametrize("z", [
        np.array([1e308, -1e308] * 10),
        1e307 * np.random.default_rng(0).standard_normal(50),
    ], ids=["alternating-1e308", "noise-1e307"])
    def test_equals_entropy_at_unit_scale(self, z):
        # squares that overflow are summed at unit scale
        _assert_entropy_at_unit_scale(z)

    def test_finite_std_unaffected(self):
        z = 1e150 * np.random.default_rng(0).standard_normal(50)
        cfg = ApEnConfig()
        assert approximate_entropy(z, cfg) == _dense(z, cfg)


# ten samples of 1.5 * 2**-500, the fourth one ulp higher
_NEAR_CONSTANT = np.full(10, 1.5 * 2.0**-500)
_NEAR_CONSTANT[3] = np.nextafter(_NEAR_CONSTANT[3], 1.0)


class TestZeroRangeAndUnderflow:
    @pytest.mark.parametrize("z, std_floor", [
        (np.zeros(20), 5e-324),
        (np.full(20, 1.7976931348623157e308), 0.0),
    ], ids=["zero-subnormal-floor", "constant-max-float"])
    def test_zero_range_is_zero(self, z, std_floor):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert approximate_entropy(z, ApEnConfig(), std_floor) == 0.0

    @pytest.mark.parametrize("z, std_floor", [
        (np.array([5e-324, 0.0] * 10), 5e-324),
        (_NEAR_CONSTANT, 0.0),
    ], ids=["subnormal-steps", "near-constant"])
    def test_subnormal_std_taken_at_unit_scale(self, z, std_floor):
        # a std too small to square at the input's scale: the matches are
        # counted on the copy at unit scale, the floor scaled alike, without
        # a warning
        k = _unit_exponent(z)
        unit, unit_floor = np.ldexp(z, -k), math.ldexp(std_floor, -k)
        cfg = ApEnConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = approximate_entropy(z, cfg, std_floor)
        assert value == approximate_entropy(unit, cfg, unit_floor)
        assert value == apen_dense(unit, cfg.tolerance_factor * max(float(unit.std()), unit_floor))

    def test_underflowing_factor_is_a_config_error(self):
        # at unit scale only a tolerance_factor far below any usual one can
        # make the tolerance underflow to 0; the error names the factor
        z = np.random.default_rng(0).standard_normal(200)
        with pytest.warns(UserWarning, match="outside the usual"):
            cfg = ApEnConfig(tolerance_factor=5e-324)
        with pytest.raises(InvalidConfigError, match="tolerance_factor=5e-324"):
            approximate_entropy(z, cfg)

    @pytest.mark.parametrize("std_floor", [math.nan, -1.0, math.inf])
    def test_bad_floor_rejected(self, std_floor):
        z = np.random.default_rng(0).standard_normal(200)
        with pytest.raises(InvalidConfigError, match="std_floor must be finite and >= 0"):
            approximate_entropy(z, ApEnConfig(), std_floor)

    @pytest.mark.parametrize("z", [
        1e-300 * np.random.default_rng(0).standard_normal(50),
    ], ids=["noise-1e-300"])
    def test_squares_that_underflow_equal_unit_scale(self, z):
        # squares that underflow are summed at unit scale
        _assert_entropy_at_unit_scale(z)


class TestApenPerImf:
    def _dec(self, imfs):
        n = imfs[0].size
        return Decomposition(imfs=list(imfs), residue=np.zeros(n))

    def test_constant_imf_never_flagged(self):
        rng = np.random.default_rng(0)
        dec = self._dec([np.full(64, 2.0), rng.standard_normal(64)])
        report = apen_per_imf(dec, threshold=0.0)
        assert report.per_imf[0][1] == 0.0
        assert 0 not in report.flagged

    def test_negative_threshold_flags_all(self):
        rng = np.random.default_rng(1)
        dec = self._dec([rng.standard_normal(64) for _ in range(3)])
        report = apen_per_imf(dec, threshold=-1.0)
        assert report.flagged == [0, 1, 2]

    def test_residue_excluded(self):
        rng = np.random.default_rng(2)
        dec = self._dec([rng.standard_normal(64)])
        report = apen_per_imf(dec, threshold=-1.0)
        assert len(report.per_imf) == 1

    def test_tolerance_floored_at_noise_floor(self):
        z = np.random.default_rng(4).standard_normal(64)
        dec = Decomposition(imfs=[z], residue=np.zeros(64), noise_floor=3.0)
        cfg = ApEnConfig()
        assert apen_per_imf(dec, cfg).per_imf[0][1] == approximate_entropy(z, cfg, 3.0)

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        dec = self._dec([rng.standard_normal(64) for _ in range(4)])
        report = apen_per_imf(dec, threshold=-1.0)
        assert [k for k, _ in report.per_imf] == [0, 1, 2, 3]
