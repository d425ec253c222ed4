import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from iceemd.types import as_float_array, binary_exponent, std


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
        t = np.arange(len(sig)) / sig.sample_rate_hz
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

    def test_rmse_beyond_float64_rejected(self):
        top = float(np.finfo(np.float64).max)
        with pytest.raises(InvalidSignalError, match="RMSE overflows float64"):
            rmse(Signal([top, 0.0], 1.0), Signal([-top, 0.0], 1.0))

    def test_rmse_of_empty_signals_rejected(self):
        empty = Signal([], 1.0)
        with pytest.raises(InvalidSignalError, match="empty"):
            rmse(empty, empty)

    @pytest.mark.parametrize("k, expected", [
        (-1073, -1073), (-600, -600), (-500, -500), (-499, -499), (0, 0), (501, 501),
        (502, 502), (1024, 1024),
    ])
    def test_binary_exponent(self, k, expected):
        # the largest magnitude is 2**(k - 1): its frexp exponent is k
        x = np.array([0.0, -math.ldexp(0.5, k), math.ldexp(0.25, k)])
        assert binary_exponent(x) == expected
        assert binary_exponent(np.zeros(3), x) == expected
        assert binary_exponent(np.zeros(2), np.zeros(0)) == 0


    @pytest.mark.parametrize("samples, ndim", [(np.zeros((2, 3)), 1), (np.zeros(3), 2)])
    def test_as_float_array_refuses_wrong_rank(self, samples, ndim):
        with pytest.raises(InvalidSignalError, match=f"expected a {ndim}-D sequence"):
            as_float_array(samples, ndim)

    @pytest.mark.parametrize("k", [-1071, -1000, -501, -500, 0, 501, 502, 1000, 1022])
    def test_std_is_taken_at_unit_scale(self, k):
        # samples scaled by 2**k have 2**k times the std, whether their
        # squares over- or underflow; where none does (|k| <= 502 here) the
        # std is numpy's own
        unit = np.array([0.5, -0.25, 0.375, 0.0, -0.5])
        x = np.ldexp(unit, k)
        assert std(x) == math.ldexp(float(unit.std()), k)
        if abs(k) <= 502:
            assert std(x) == float(x.std())

    def test_std_of_near_constant_series(self):
        # ten samples of 1.5 * 2**-500, one an ulp higher: their deviations
        # square to below 2**-1074, so numpy's std is 0, but taken at unit
        # scale it is that of any copy scaled by a power of two
        x = np.full(10, 1.5 * 2.0**-500)
        x[3] = np.nextafter(x[3], 1.0)
        assert float(x.std()) == 0.0 < std(x)
        for k in (161, 400):
            assert std(np.ldexp(x, k)) == math.ldexp(std(x), k)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MAX = Fraction(np.finfo(np.float64).max)
SMALLEST_NORMAL = Fraction(np.finfo(np.float64).tiny)


def _db(ratio: Fraction) -> float:
    return 10.0 * (math.log10(ratio.numerator) - math.log10(ratio.denominator))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=8))
def test_metrics_exact_at_any_amplitude(pairs):
    # against exact rational arithmetic: snr and rmse are right to rounding
    # wherever their value is a normal float64, and refuse where it is far
    # outside; near the edges either outcome is allowed
    x, xhat = (np.array(column) for column in zip(*pairs))
    reference, estimate = Signal(x, 1.0), Signal(xhat, 1.0)
    fx, fe = [Fraction(v) for v in x], [Fraction(a) - Fraction(b) for a, b in pairs]
    signal_energy, error_energy = sum(v * v for v in fx), sum(e * e for e in fe)
    if signal_energy == 0:
        with pytest.raises(InvalidSignalError, match="zero energy"):
            snr(reference, estimate)
    elif error_energy == 0:
        assert snr(reference, estimate) == math.inf
    else:
        ratio = signal_energy / error_energy
        if SMALLEST_NORMAL * 2 <= ratio <= MAX / 2:
            assert snr(reference, estimate) == pytest.approx(_db(ratio), abs=1e-9)
        elif not SMALLEST_NORMAL / 2 <= ratio <= MAX * 2:
            with pytest.raises(InvalidSignalError, match="float64 range"):
                snr(reference, estimate)
    mean_square = error_energy / len(pairs)
    if mean_square > MAX * MAX * 2:
        with pytest.raises(InvalidSignalError, match="overflows"):
            rmse(reference, estimate)
    elif mean_square < MAX * MAX / 2:
        # differences below 2**-1074 of the largest magnitude are lost to
        # scaling, and the result itself may be subnormal
        got = Fraction(rmse(reference, estimate))
        lost = (Fraction(max(abs(v) for v in [*x, *xhat])) * Fraction(2) ** -1000) ** 2
        ulp = Fraction(2) ** -1074
        assert abs(got**2 - mean_square) <= (
            mean_square / 10**12 + lost + (2 * got + ulp) * ulp
        )


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

    @pytest.mark.parametrize("amplitude", [1e160, 1e300, 1e-300])
    def test_exact_target_at_any_amplitude(self, amplitude):
        # the energy is taken on a copy scaled by a power of two, so a
        # signal whose squares over- or underflow still gets its target
        sig = Signal(np.full(100, amplitude), 1000.0)
        noisy = add_noise_snr(sig, 5.0, seed=0)
        assert snr(sig, noisy) == pytest.approx(5.0, abs=1e-12)

    def test_signal_too_small_for_its_noise_rejected(self):
        # 5 dB is a fine target: the signal's peak, 5e-324, is at fault,
        # since its noise scale underflows to 0
        with pytest.raises(InvalidSignalError, match=r"snr_db=5.0, a signal of peak 5e-324 .* underflows"):
            add_noise_snr(Signal([0.0, 5e-324, 0.0, 0.0, 0.0], 1.0), 5.0, seed=1)

    def test_overflowing_noisy_signal_rejected(self):
        with pytest.raises(InvalidSignalError, match="overflows float64"):
            add_noise_snr(Signal([0.0, 1.7e308, 0.0, -1.0, 0.0], 1.0), 5.0, seed=1)


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

    @pytest.mark.parametrize("fs", [0.0, -1.0, math.inf, math.nan, 1e-320])
    def test_bad_rate_rejected(self, fs):
        x = np.sin(np.arange(64) / 3.0)
        for fn in (spectrum, dominant_frequency):
            with pytest.raises(InvalidConfigError, match="fs must be finite and > 0"):
                fn(x, fs)
