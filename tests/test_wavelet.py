import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iceemd import (
    DenoiseConfig,
    InvalidConfigError,
    InvalidSignalError,
    dwt,
    idwt,
    soft_threshold,
    universal_threshold,
    wavelet_denoise,
    wavelet_spec,
)
from iceemd.wavelet import EXTENSION_MODES, SUPPORTED_WAVELETS, _max_levels

from float_checks import stays_normal


def _synthesis_reference(coeffs, name, mode):
    """The inverse written out from the filter bank: per level, upsample
    both bands, continue a periodic pair by L - 1 samples, convolve with the
    synthesis filters and keep the finer level's length."""
    spec = wavelet_spec(name)
    L = spec.length
    lengths = [coeffs.original_length]
    for _ in coeffs.details:
        n = lengths[-1]
        lengths.append(-(-n // 2) if mode == "periodic" else -(-(n + L - 1) // 2))
    approx = coeffs.approximation
    for level in range(len(coeffs.details), 0, -1):
        up = np.zeros((2, 2 * approx.size))
        up[0, ::2], up[1, ::2] = approx, coeffs.details[level - 1]
        if mode == "periodic":
            up = np.pad(up, ((0, 0), (0, L - 1)), mode="wrap")
        keep = lengths[level - 1]
        approx = (np.convolve(up[0], spec.rec_lo, mode="valid")[:keep]
                  + np.convolve(up[1], spec.rec_hi, mode="valid")[:keep])
    return approx


class TestFilters:
    @pytest.mark.parametrize("name", SUPPORTED_WAVELETS)
    def test_orthonormality(self, name):
        h = wavelet_spec(name).rec_lo
        L = h.size
        assert h.sum() == pytest.approx(math.sqrt(2), abs=1e-12)
        assert np.dot(h, h) == pytest.approx(1.0, abs=1e-12)
        for m in range(1, L // 2):
            assert np.dot(h[: L - 2 * m], h[2 * m:]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("name", SUPPORTED_WAVELETS)
    def test_highpass_annihilates_constants(self, name):
        spec = wavelet_spec(name)
        assert spec.dec_hi.sum() == pytest.approx(0.0, abs=1e-12)

    def test_unknown_name(self):
        # one rule and one message, whether the name reaches the filter
        # bank directly or through a DenoiseConfig
        for make in (wavelet_spec, lambda name: DenoiseConfig(wavelet=name)):
            with pytest.raises(InvalidConfigError, match="unknown wavelet 'haar9'; supported: db2,"):
                make("haar9")


class TestDwtIdwt:
    @pytest.mark.parametrize("name", ["db2", "db4", "db8", "sym4", "sym8"])
    @pytest.mark.parametrize("mode", EXTENSION_MODES)
    @pytest.mark.parametrize("n", [64, 100, 101, 257])
    def test_round_trip(self, name, mode, n):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(n)
        cfg = DenoiseConfig(wavelet=name, levels=2, extension_mode=mode)
        rec = idwt(dwt(x, cfg), cfg)
        assert rec.size == n
        assert np.abs(rec - x).max() <= 1e-10 * np.abs(x).max()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_round_trip_any_length(self, data):
        # any length from 8 up, even one shorter than the filter, and every
        # level count it supports (n >= 2**levels * 4)
        n = data.draw(st.integers(8, 300), label="n")
        x = data.draw(
            arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
            label="x",
        )
        cfg = DenoiseConfig(
            wavelet=data.draw(st.sampled_from(SUPPORTED_WAVELETS), label="wavelet"),
            levels=data.draw(st.integers(1, math.floor(math.log2(n / 4))), label="levels"),
            extension_mode=data.draw(st.sampled_from(EXTENSION_MODES), label="mode"),
        )
        rec = idwt(dwt(x, cfg), cfg)
        assert rec.size == n
        assert np.abs(rec - x).max() <= 1e-10 * np.abs(x).max()

    def test_impulse_matches_convolution(self):
        # one level of analysis must equal extend-convolve-downsample
        x = np.zeros(64)
        x[0] = 1.0
        cfg = DenoiseConfig(wavelet="db4", levels=1, extension_mode="periodic")
        coeffs = dwt(x, cfg)
        spec = wavelet_spec("db4")
        L = spec.length
        ext = np.concatenate([x[-(L - 1):], x, x[: L - 1]])
        ref_lo = np.convolve(ext, spec.dec_lo, mode="valid")[::2][:32]
        ref_hi = np.convolve(ext, spec.dec_hi, mode="valid")[::2][:32]
        assert np.allclose(coeffs.approximation, ref_lo, atol=1e-14)
        assert np.allclose(coeffs.details[0], ref_hi, atol=1e-14)

    @pytest.mark.parametrize("name", ["db2", "db4", "sym4"])
    def test_constant_signal_details_vanish(self, name):
        x = np.full(128, 3.25)
        coeffs = dwt(x, DenoiseConfig(wavelet=name, levels=3))
        for d in coeffs.details:
            assert np.abs(d).max() < 1e-10

    def test_periodic_subband_counts_halve(self):
        x = np.random.default_rng(0).standard_normal(101)
        coeffs = dwt(x, DenoiseConfig(levels=3, extension_mode="periodic"))
        assert coeffs.details[0].size == 51   # ceil(101/2)
        assert coeffs.details[1].size == 26   # ceil(51/2)
        assert coeffs.details[2].size == 13
        assert coeffs.approximation.size == 13

    def test_too_short_for_levels(self):
        with pytest.raises(InvalidConfigError):
            dwt(np.zeros(60), DenoiseConfig(levels=4))
        # a huge level count is refused by the same rule, naming the most
        # that 60 samples support
        with pytest.raises(InvalidConfigError, match="at most 3,"):
            dwt(np.zeros(60), DenoiseConfig(levels=10**6))

    def test_mismatched_band_rejected(self):
        coeffs = dwt(np.random.default_rng(2).standard_normal(100), DenoiseConfig(levels=3))
        coeffs.details[1] = coeffs.details[1][:-1]
        with pytest.raises(InvalidSignalError, match="level 2 bands"):
            idwt(coeffs)

    @pytest.mark.parametrize("mode", ["zero", "periodc"])
    def test_coefficients_own_mode_checked(self, mode):
        # without a cfg, the mode read from the coefficients is checked as a
        # DenoiseConfig's: not inverted as if symmetric, nor refused by a
        # band-length mismatch
        x = np.random.default_rng(2).standard_normal(64)
        coeffs = replace(dwt(x, DenoiseConfig(levels=2)), extension_mode=mode)
        with pytest.raises(InvalidConfigError, match=f"unknown extension_mode '{mode}'"):
            idwt(coeffs)

    @pytest.mark.parametrize("name", SUPPORTED_WAVELETS)
    @pytest.mark.parametrize("mode", EXTENSION_MODES)
    def test_inverse_is_the_coefficients_own(self, name, mode):
        # every level count each length supports: the inverse reads the
        # wavelet, mode and levels from the coefficients, with no cfg or an
        # agreeing one (whose sigma_estimator plays no part), and gives the
        # filter bank's synthesis bit for bit
        for n in (8, 37, 101, 256):
            x = np.random.default_rng(n).standard_normal(n)
            for levels in range(1, _max_levels(n) + 1):
                cfg = DenoiseConfig(wavelet=name, levels=levels, extension_mode=mode)
                coeffs = dwt(x, cfg)
                expected = _synthesis_reference(coeffs, name, mode).tobytes()
                assert idwt(coeffs).tobytes() == expected
                assert idwt(coeffs, cfg).tobytes() == expected
                agreeing = replace(cfg, sigma_estimator="mad_finest")
                assert idwt(coeffs, agreeing).tobytes() == expected

    @pytest.mark.parametrize("field, value, own", [
        ("wavelet", "sym8", "db4"),
        ("levels", 3, 2),
        ("extension_mode", "symmetric", "periodic"),
    ])
    def test_contradicting_cfg_refused(self, field, value, own):
        # a cfg that disagrees with what the coefficients record is a config
        # error naming the field and both values, not a silent inverse with
        # other filters nor a band-length mismatch
        x = np.random.default_rng(0).standard_normal(64)
        cfg = DenoiseConfig(wavelet="db4", levels=2, extension_mode="periodic")
        coeffs = dwt(x, cfg)
        message = f"cfg.{field} is {value!r}, the coefficients' is {own!r}"
        with pytest.raises(InvalidConfigError, match=message):
            idwt(coeffs, replace(cfg, **{field: value}))

    def test_energy_preserved_periodic(self):
        # orthonormal transform: coefficient energy equals signal energy
        rng = np.random.default_rng(3)
        x = rng.standard_normal(128)
        coeffs = dwt(x, DenoiseConfig(levels=4, extension_mode="periodic"))
        total = np.dot(coeffs.approximation, coeffs.approximation)
        total += sum(np.dot(d, d) for d in coeffs.details)
        assert total == pytest.approx(np.dot(x, x), rel=1e-12)


class TestThresholds:
    def test_universal_zero_sigma(self):
        assert universal_threshold(0.0, 1024) == 0.0

    def test_universal_n_one(self):
        assert universal_threshold(1.0, 1) == 0.0

    @pytest.mark.parametrize("sigma, n, name",
                             [(1.0, 0, "n"), (-0.1, 8, "sigma"), (math.nan, 8, "sigma")])
    def test_universal_bad_arguments_rejected(self, sigma, n, name):
        with pytest.raises(InvalidConfigError, match=f"{name} must be >= "):
            universal_threshold(sigma, n)

    def test_universal_frozen_value(self):
        expected = 0.1 * math.sqrt(2.0 * math.log(1024))
        assert expected == pytest.approx(0.3723297, abs=1e-7)
        assert universal_threshold(0.1, 1024) == pytest.approx(expected, abs=1e-15)

    def test_universal_monotone(self):
        prev = 0.0
        for n in (2, 8, 64, 1024):
            lam = universal_threshold(1.0, n)
            assert lam >= prev
            prev = lam
        assert universal_threshold(2.0, 64) > universal_threshold(1.0, 64)

    def test_soft_threshold_rule(self):
        assert soft_threshold([5.0], 2.0)[0] == 3.0
        assert soft_threshold([-1.0], 2.0)[0] == 0.0
        assert soft_threshold([-5.0], 2.0)[0] == -3.0

    def test_soft_threshold_exhaustive_grid(self):
        ws = np.array([-7.5, -3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 7.5])
        for lam in (0.0, 0.5, 1.0, 3.0):
            out = soft_threshold(ws, lam)
            for w, o in zip(ws, out):
                expected = math.copysign(abs(w) - lam, w) if abs(w) > lam else 0.0
                assert o == pytest.approx(expected, abs=1e-15)
            # ties map exactly to zero
            assert soft_threshold([lam, -lam], lam).tolist() == [0.0, 0.0]

    def test_shrinkage_law_elementwise(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(200)
        lam = 0.7
        out = soft_threshold(w, lam)
        assert np.all(np.abs(out) <= np.maximum(np.abs(w) - lam, 0.0) + 1e-15)
        assert np.all(np.sign(out[out != 0]) == np.sign(w[out != 0]))

    def test_negative_lambda_rejected(self):
        # a NaN threshold is refused too, not passed on as NaN output
        for lam in (-0.1, math.nan):
            with pytest.raises(InvalidConfigError, match="threshold must be >= 0"):
                soft_threshold([1.0], lam)


class TestDenoise:
    def test_zero_signal_fixed_point(self):
        out = wavelet_denoise(np.zeros(256))
        assert np.array_equal(out, np.zeros(256))

    def test_noisy_sine_improves_snr(self):
        rng = np.random.default_rng(8)
        t = np.arange(1000) / 1000.0
        clean = np.sin(2 * np.pi * 20 * t)
        noise = rng.standard_normal(1000)
        noise *= math.sqrt(np.dot(clean, clean) / 10**0.5 / np.dot(noise, noise))
        noisy = clean + noise
        for estimator in ("signal_std", "mad_finest"):
            out = wavelet_denoise(noisy, DenoiseConfig(sigma_estimator=estimator))
            err = out - clean
            snr_db = 10 * math.log10(np.dot(clean, clean) / np.dot(err, err))
            assert snr_db > 5.0

    def test_noiseless_sine_nearly_unchanged_with_mad(self):
        t = np.arange(1000) / 1000.0
        clean = np.sin(2 * np.pi * 20 * t)
        out = wavelet_denoise(clean, DenoiseConfig(sigma_estimator="mad_finest"))
        assert np.abs(out - clean).max() < 0.15

    def test_energy_never_grows_periodic(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.standard_normal(128)
            out = wavelet_denoise(x, DenoiseConfig(extension_mode="periodic"))
            assert np.dot(out, out) <= np.dot(x, x) * (1 + 1e-12)

    def test_determinism(self):
        x = np.random.default_rng(6).standard_normal(256)
        assert np.array_equal(wavelet_denoise(x), wavelet_denoise(x))

    @pytest.mark.parametrize("mode", EXTENSION_MODES)
    def test_levels_capped_at_what_the_series_supports(self, mode):
        # 48 samples support 3 levels (4 need 64): a request of 4 uses 3
        x = np.random.default_rng(7).standard_normal(48)
        four = wavelet_denoise(x, DenoiseConfig(levels=4, extension_mode=mode))
        three = wavelet_denoise(x, DenoiseConfig(levels=3, extension_mode=mode))
        assert four.tobytes() == three.tobytes()

    def test_fewer_than_eight_samples_rejected(self):
        # one level needs 8 samples; the caller set no level count, so the
        # signal is at fault, not the config
        with pytest.raises(InvalidSignalError, match="at least 8 samples, got 7"):
            wavelet_denoise(np.arange(7.0))
        assert wavelet_denoise(np.arange(8.0)).shape == (8,)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            DenoiseConfig(wavelet="nope")
        with pytest.raises(InvalidConfigError):
            DenoiseConfig(levels=0)
        with pytest.raises(InvalidConfigError):
            DenoiseConfig(sigma_estimator="mad")
        with pytest.raises(InvalidConfigError):
            DenoiseConfig(extension_mode="zero")


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(8, 200).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(-4.0, 4.0))
    ),
    k=st.integers(-1000, 1000),
    estimator=st.sampled_from(["signal_std", "mad_finest"]),
)
def test_denoise_equivariant_under_powers_of_two(x, k, estimator):
    # the noise scale is taken at unit scale, so wavelet_denoise(2**k x)
    # is 2**k wavelet_denoise(x) bit for bit, wherever the input, every
    # band and the output stay normal at both scales
    cfg = DenoiseConfig(sigma_estimator=estimator)
    out = wavelet_denoise(x, cfg)
    levels = min(cfg.levels, (x.size // 8).bit_length())
    bands = dwt(x, DenoiseConfig(levels=levels))
    for part in (x, out, bands.approximation, *bands.details):
        assume(stays_normal(part, 0) and stays_normal(part, k))
    scaled = wavelet_denoise(np.ldexp(x, k), cfg)
    assert np.ldexp(out, k).view(np.int64).tolist() == scaled.view(np.int64).tolist()
