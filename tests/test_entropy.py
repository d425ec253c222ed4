import numpy as np
import pytest

from iceemd import (
    ApEnConfig,
    Decomposition,
    InvalidConfigError,
    InvalidSignalError,
    apen_per_imf,
    approximate_entropy,
    binary_distance_matrix,
)

from apen_oracle import apen_bruteforce


class TestBinaryDistanceMatrix:
    def test_three_point_example(self):
        b = binary_distance_matrix([0.0, 10.0, 0.0, 0.0], 1.0)
        expected = np.array(
            [
                [1, 0, 1, 1],
                [0, 1, 0, 0],
                [1, 0, 1, 1],
                [1, 0, 1, 1],
            ],
            dtype=bool,
        )
        assert np.array_equal(b, expected)

    def test_constant_series_all_ones(self):
        b = binary_distance_matrix(np.full(16, 2.5), 0.3)
        assert b.all()

    def test_diagonal_always_true(self):
        rng = np.random.default_rng(0)
        b = binary_distance_matrix(rng.standard_normal(50), 0.01)
        assert np.all(np.diag(b))

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.standard_normal(30)
            b = binary_distance_matrix(z, 0.5)
            assert np.array_equal(b, b.T)

    def test_strict_inequality(self):
        b = binary_distance_matrix([0.0, 1.0, 2.0, 3.0], 1.0)
        assert not b[0, 1]  # |0-1| == a is not < a

    def test_invalid_tolerance(self):
        with pytest.raises(InvalidConfigError):
            binary_distance_matrix([0.0, 1.0, 2.0, 3.0], 0.0)


class TestApproximateEntropy:
    def test_constant_series_is_zero(self):
        assert approximate_entropy(np.full(64, 1.23)) == 0.0

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

    def test_absolute_tolerance_override(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(80)
        cfg = ApEnConfig(absolute_tolerance=0.4)
        assert approximate_entropy(z, cfg) == pytest.approx(
            apen_bruteforce(z, 0.4), abs=1e-12
        )

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
        with pytest.warns(UserWarning):
            ApEnConfig(tolerance_factor=0.5)


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

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        dec = self._dec([rng.standard_normal(64) for _ in range(4)])
        report = apen_per_imf(dec, threshold=-1.0)
        assert [k for k, _ in report.per_imf] == [0, 1, 2, 3]
