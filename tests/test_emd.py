import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iceemd import (
    EnsembleConfig,
    InvalidConfigError,
    InvalidSignalError,
    NotEnoughExtremaError,
    SiftConfig,
    Signal,
    emd,
    extract_imf,
    find_extrema,
    local_mean_operator,
    mean_envelope,
)
from iceemd.ensemble import generate_noise_bank
from iceemd.signals import dominant_frequency

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
        y = np.full(100, 3.0)
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
        for count in (1, 2, 3):
            ux, _, lx, _ = emd_module._envelope_knots(y, maxima, minima, count)
            for knots in (ux, lx):
                assert knots.size >= 3
                assert np.all(np.diff(knots) > 0)
            env = mean_envelope(y, maxima, minima, SiftConfig(boundary_extrema_count=count))
            assert env.shape == y.shape
            assert np.all(np.isfinite(env))


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
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SiftConfig(sd_threshold=0.0)
        with pytest.raises(ValueError):
            SiftConfig(max_sift_iterations=0)
        with pytest.raises(ValueError):
            SiftConfig(boundary_extrema_count=0)

    @pytest.mark.parametrize("field, value", [
        ("sd_threshold", float("nan")),
        ("sd_threshold", float("inf")),
        ("sd_threshold", 0.0),
        ("max_sift_iterations", 0),
        ("boundary_extrema_count", 0),
    ])
    def test_config_error_names_field(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            SiftConfig(**{field: value})

    def test_max_modes_below_one_is_config_error(self):
        with pytest.raises(InvalidConfigError, match="max_modes"):
            emd(Signal(sine(20), FS), max_modes=0)
