import math

import numpy as np
import pytest

from iceemd import (
    InvalidConfigError,
    InvalidSignalError,
    Signal,
    SynthConfig,
    add_noise_snr,
    dominant_frequency,
    rmse,
    snr,
    spectrum,
    synth_echo_signal,
    synth_signal,
)


class TestSynthSignal:
    def test_default_grid(self):
        sig = synth_signal()
        assert len(sig) == 1000
        assert sig.sample_rate_hz == 1000.0

    def test_tone_crest_outside_gate(self):
        # t = 1/80 s: the 20 Hz tone is at its crest, the burst is gated
        # off; a 2 kHz grid puts that instant on a sample
        sig = synth_signal(SynthConfig(sample_rate_hz=2000.0))
        i = round(0.0125 * 2000)
        assert sig.samples[i] == pytest.approx(1.0, abs=1e-12)

    def test_both_tones_zero_crossing(self):
        sig = synth_signal()
        assert sig.samples[200] == pytest.approx(0.0, abs=1e-12)

    def test_value_inside_gate(self):
        # independent trig evaluation at t = 0.155, inside the burst gate
        sig = synth_signal()
        expected = math.sin(2 * math.pi * 20 * 0.155) + 0.4 * math.sin(
            2 * math.pi * 100 * 0.155
        )
        assert expected == pytest.approx(math.sin(0.2 * math.pi), abs=1e-12)
        assert sig.samples[155] == pytest.approx(expected, abs=1e-12)

    def test_gate_region(self):
        sig = synth_signal()
        t = sig.times()
        tone = np.sin(2 * np.pi * 20 * t)
        outside = (t < 0.15) | (t > 0.25)
        assert np.allclose(sig.samples[outside], tone[outside], atol=1e-12)
        inside = ~outside
        assert np.abs(sig.samples[inside] - tone[inside]).max() > 0.3

    def test_min_length_validation(self):
        with pytest.raises(InvalidConfigError):
            SynthConfig(sample_rate_hz=10.0, duration_s=1.0)


class TestEchoSignal:
    def test_shape_and_peak(self):
        sig = synth_echo_signal()
        assert len(sig) == 980
        assert sig.sample_rate_hz == 250_000.0
        # the echo envelope peaks exactly on its nominal sample
        after = int(0.5e-3 * sig.sample_rate_hz)
        arg = after + int(np.argmax(np.abs(sig.samples[after:])))
        assert arg == round(1.1e-3 * 250_000)


class TestMetrics:
    def test_snr_identical_is_infinite(self):
        sig = synth_signal()
        assert snr(sig, sig) == math.inf

    def test_snr_zero_db_when_error_equals_signal(self):
        sig = synth_signal()
        doubled = sig.with_samples(2.0 * sig.samples)
        assert snr(sig, doubled) == pytest.approx(0.0, abs=1e-12)

    def test_rmse_identical(self):
        sig = synth_signal()
        assert rmse(sig, sig) == 0.0

    def test_rmse_constant_offset(self):
        sig = synth_signal()
        shifted = sig.with_samples(sig.samples + 0.25)
        assert rmse(sig, shifted) == pytest.approx(0.25, abs=1e-12)

    def test_snr_rmse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = Signal(rng.standard_normal(300), 1000.0)
            y = Signal(x.samples + 0.1 * rng.standard_normal(300), 1000.0)
            n = len(x)
            lhs = snr(x, y)
            rhs = 10 * math.log10(
                float(np.dot(x.samples, x.samples)) / (n * rmse(x, y) ** 2)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_length_mismatch(self):
        a = Signal(np.zeros(10) + 1.0, 1000.0)
        b = Signal(np.zeros(11) + 1.0, 1000.0)
        with pytest.raises(InvalidSignalError):
            snr(a, b)
        with pytest.raises(InvalidSignalError):
            rmse(a, b)

    def test_zero_reference_rejected(self):
        z = Signal(np.zeros(10), 1000.0)
        with pytest.raises(InvalidSignalError):
            snr(z, z)


class TestAddNoise:
    def test_exact_target(self):
        sig = synth_signal()
        for target in (5.0, 0.0, 20.0):
            noisy = add_noise_snr(sig, target, seed=1)
            assert snr(sig, noisy) == pytest.approx(target, abs=1e-6)

    def test_determinism(self):
        sig = synth_signal()
        a = add_noise_snr(sig, 5.0, seed=7)
        b = add_noise_snr(sig, 5.0, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_high_snr_nearly_identity(self):
        sig = synth_signal()
        noisy = add_noise_snr(sig, 60.0, seed=2)
        # 60 dB means an exact 1e-3 rms-level perturbation; the worst
        # single sample stays within a few sigma of that
        rms_sig = math.sqrt(float(np.dot(sig.samples, sig.samples)) / len(sig))
        assert rmse(sig, noisy) == pytest.approx(1e-3 * rms_sig, rel=1e-9)
        assert np.abs(noisy.samples - sig.samples).max() < 2.5e-3 * np.abs(sig.samples).max()

    def test_infinite_target_rejected(self):
        with pytest.raises(InvalidConfigError):
            add_noise_snr(synth_signal(), math.inf, seed=0)

    @pytest.mark.parametrize("target", [-math.inf, math.nan, 1e308, -1e308, 3100.0])
    def test_target_without_finite_positive_scale_rejected(self, target):
        # 10 ** (target / 10) overflows (1e308, 3100) or reaches 0 (-1e308)
        with pytest.raises(InvalidConfigError, match="snr_db"):
            add_noise_snr(synth_signal(), target, seed=0)

    def test_zero_energy_rejected(self):
        with pytest.raises(InvalidSignalError):
            add_noise_snr(Signal(np.zeros(100), 1000.0), 5.0, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot")
    def test_overflowing_energy_rejected(self):
        # the signal's energy, not the target, leaves no finite noise scale
        with pytest.raises(InvalidSignalError, match="energy"):
            add_noise_snr(Signal(np.full(100, 1e160), 1000.0), 5.0, seed=0)


class TestSpectrum:
    def test_on_bin_tone(self):
        t = np.arange(1000) / 1000.0
        assert dominant_frequency(np.sin(2 * np.pi * 100 * t), 1000.0) == 100.0

    def test_constant_peaks_at_dc(self):
        spec = spectrum(np.full(64, 2.0), 1000.0)
        assert int(np.argmax(spec.magnitudes)) == 0
        assert spec.frequencies_hz[0] == 0.0

    def test_benchmark_two_peaks(self):
        sig = synth_signal()
        spec = spectrum(sig.samples, sig.sample_rate_hz)
        order = np.argsort(spec.magnitudes)[::-1]
        top2 = sorted(float(spec.frequencies_hz[k]) for k in order[:2])
        assert top2[0] == pytest.approx(20.0, abs=1.0)
        assert top2[1] == pytest.approx(100.0, abs=1.0)

    def test_axes(self):
        spec = spectrum(np.zeros(100) + 1.0, 200.0)
        assert spec.frequencies_hz[0] == 0.0
        assert spec.frequencies_hz[-1] == pytest.approx(100.0)  # Nyquist
        assert np.all(np.diff(spec.frequencies_hz) > 0)
        assert spec.frequencies_hz.size == spec.magnitudes.size

    def test_parseval(self):
        rng = np.random.default_rng(9)
        for n in (128, 129):
            x = rng.standard_normal(n)
            spec = spectrum(x, 1000.0)
            mags2 = spec.magnitudes**2
            total = mags2[0] + 2 * mags2[1:].sum()
            if n % 2 == 0:
                total -= mags2[-1]  # the Nyquist bin appears once
            assert total / n == pytest.approx(float(np.dot(x, x)), rel=1e-6)

    def test_dominant_skips_dc(self):
        # a tiny tone on a huge offset: DC must not win
        t = np.arange(256) / 256.0
        x = 100.0 + 0.01 * np.sin(2 * np.pi * 8 * t)
        assert dominant_frequency(x, 256.0) == 8.0

    def test_white_noise_total(self):
        x = np.random.default_rng(1).standard_normal(64)
        dominant_frequency(x, 1000.0)  # no assertion on the value

    def test_too_short(self):
        with pytest.raises(InvalidSignalError):
            spectrum(np.zeros(7), 1000.0)
