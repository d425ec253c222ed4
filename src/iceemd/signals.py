"""Synthetic benchmark signals, calibrated noise injection, and metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSignalError
from .types import Signal, as_float_array, binary_exponent, check_positive, check_seed, unit_scaled


@dataclass(frozen=True)
class SynthConfig:
    """Sampling grid for the synthetic two-tone benchmark."""

    sample_rate_hz: float = 1000.0
    duration_s: float = 1.0

    def __post_init__(self):
        check_positive("sample_rate_hz", self.sample_rate_hz)
        check_positive("duration_s", self.duration_s)
        n = self.sample_rate_hz * self.duration_s
        if n < 100:
            raise InvalidConfigError("need at least 100 samples (fs * duration)")
        if not math.isfinite(n):
            raise InvalidConfigError("fs * duration overflows")


_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)

# Bolt-echo test signal (synth_echo_signal): sampling, excitation decay,
# carrier, and the echo's peak time, amplitude and Gaussian width
ECHO_SAMPLE_RATE_HZ = 250_000.0
ECHO_DECAY_S = 0.15e-3
ECHO_CARRIER_HZ = 20_000.0
ECHO_TIME_S = 1.1e-3
ECHO_AMPLITUDE = 0.2
ECHO_WIDTH_S = 0.03e-3


@dataclass
class Spectrum:
    """One-sided magnitude spectrum, DC through Nyquist."""

    frequencies_hz: np.ndarray
    magnitudes: np.ndarray


def synth_signal(cfg: SynthConfig = SynthConfig()) -> Signal:
    """Two-tone vibration test signal: a 20 Hz sine plus a gated 100 Hz burst.

    s(t) = sin(2 pi 20 t) + 0.4 sin(2 pi 100 t) gated to 0.15 <= t <= 0.25,
    sampled at t_i = i / fs.
    """
    n = round(cfg.sample_rate_hz * cfg.duration_s)
    t = np.arange(n) / cfg.sample_rate_hz
    tone = np.sin(2.0 * np.pi * 20.0 * t)
    burst = 0.4 * np.sin(2.0 * np.pi * 100.0 * t)
    gate = (t >= 0.15) & (t <= 0.25)
    return Signal(tone + np.where(gate, burst, 0.0), cfg.sample_rate_hz)


def synth_echo_signal(n: int = 980) -> Signal:
    """Bolt-like test signal: a decaying excitation plus a delayed echo.

    The excitation is an exponentially damped carrier starting at t = 0;
    the echo is a Gaussian-windowed carrier burst whose envelope peaks
    exactly at ECHO_TIME_S, standing in for an end-of-anchor reflection.
    The envelope is narrow enough that the rectified peak stays on the
    central carrier lobe after decomposition and denoising.
    """
    t = np.arange(n) / ECHO_SAMPLE_RATE_HZ
    excitation = np.exp(-t / ECHO_DECAY_S) * np.cos(2.0 * np.pi * ECHO_CARRIER_HZ * t)
    u = t - ECHO_TIME_S
    echo = ECHO_AMPLITUDE * np.exp(-(u**2) / (2.0 * ECHO_WIDTH_S**2)) * np.cos(
        2.0 * np.pi * ECHO_CARRIER_HZ * u
    )
    return Signal(excitation + echo, ECHO_SAMPLE_RATE_HZ)


def _scaled_error(reference: Signal, estimate: Signal) -> tuple[np.ndarray, int]:
    """The difference of an equal-length pair at unit scale, and its k (see
    unit_scaled); the pair is scaled first, so that the difference cannot
    overflow."""
    x = as_float_array(reference.samples)
    xhat = as_float_array(estimate.samples)
    if x.size != xhat.size:
        raise InvalidSignalError(f"length mismatch: {x.size} vs {xhat.size}")
    k = binary_exponent(x, xhat)
    err, j = unit_scaled(np.ldexp(x, -k) - np.ldexp(xhat, -k))
    return err, k + j


def snr(reference: Signal, estimate: Signal) -> float:
    """Signal-to-noise ratio 10 log10(sum X^2 / sum (X - Xhat)^2), in dB.

    Returns +inf for identical samples. Both sums are taken on copies
    scaled by powers of two, so the result is exact at any amplitude; a
    ratio outside the normal float64 range (about +-3080 dB) is an
    InvalidSignalError.
    """
    err, j = _scaled_error(reference, estimate)
    if not reference.samples.any():
        raise InvalidSignalError("reference signal has zero energy")
    if np.array_equal(reference.samples, estimate.samples):
        return math.inf
    x, k = unit_scaled(reference.samples)
    try:
        ratio = math.ldexp(float(np.dot(x, x)) / float(np.dot(err, err)), 2 * (k - j))
    except (OverflowError, ZeroDivisionError):
        ratio = math.inf
    if not _SMALLEST_NORMAL <= ratio < math.inf:
        raise InvalidSignalError(
            "the SNR is outside float64 range: the ratio of signal to error energy "
            "over- or underflows"
        )
    return 10.0 * math.log10(ratio)


def rmse(reference: Signal, estimate: Signal) -> float:
    """Root-mean-square error between two equal-length signals.

    The error is squared on a copy scaled by a power of two; an RMSE
    beyond float64 range is an InvalidSignalError.
    """
    err, j = _scaled_error(reference, estimate)
    if not err.size:
        raise InvalidSignalError("the RMSE of two empty signals is undefined")
    try:
        return math.ldexp(math.sqrt(float(np.dot(err, err)) / err.size), j)
    except OverflowError:
        raise InvalidSignalError("the RMSE overflows float64") from None


def add_noise_snr(signal: Signal, target_snr_db: float, seed: int) -> Signal:
    """Add seeded Gaussian noise scaled so the realized SNR hits the target.

    The noise is rescaled against its own realized energy, so the measured
    SNR equals target_snr_db to machine precision. The signal's energy is
    taken on a copy scaled by a power of two, so any finite amplitude
    works. A target whose noise scale is not a finite positive number at
    unit scale (a non-finite one, or one so extreme that
    10 ** (target / 10) overflows or the scale under- or overflows) is an
    InvalidConfigError; a signal so small that its noise scale underflows
    float64, or a noisy signal whose samples overflow it, is an
    InvalidSignalError.
    """
    check_seed("seed", seed)
    x = as_float_array(signal.samples)
    scaled, k = unit_scaled(x)
    signal_energy = float(np.dot(scaled, scaled))
    if not signal_energy > 0.0:
        raise InvalidSignalError(f"cannot set an SNR against a signal of energy {signal_energy}")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(x.size)
    noise_energy = float(np.dot(noise, noise))
    try:
        target_energy = signal_energy / 10.0 ** (target_snr_db / 10.0)
        ratio = math.sqrt(target_energy / noise_energy)
    except (OverflowError, ZeroDivisionError):
        ratio = math.nan
    if not (math.isfinite(ratio) and ratio > 0):
        raise InvalidConfigError(
            f"snr_db={target_snr_db} gives no finite, positive noise scale"
        )
    with np.errstate(over="ignore"):
        scale = np.ldexp(ratio, k)
        noisy = x + scale * noise
    if not scale > 0:
        raise InvalidSignalError(
            f"at snr_db={target_snr_db}, a signal of peak {float(np.abs(x).max())!r} "
            "has a noise scale that underflows float64"
        )
    if not np.isfinite(noisy).all():
        raise InvalidSignalError("the noisy signal overflows float64")
    return signal.with_samples(noisy)


def spectrum(samples, fs: float) -> Spectrum:
    """One-sided magnitude spectrum with bin spacing fs / n. fs must be
    finite and positive, with a finite sample interval 1 / fs."""
    if not (math.isfinite(fs) and fs > 0 and math.isfinite(1.0 / fs)):
        raise InvalidConfigError(f"fs must be finite and > 0 with a finite 1 / fs, got {fs}")
    x = as_float_array(samples)
    if x.size < 8:
        raise InvalidSignalError(f"spectrum needs at least 8 samples, got {x.size}")
    mags = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.size, d=1.0 / fs)
    return Spectrum(frequencies_hz=freqs, magnitudes=mags)


def dominant_frequency(samples, fs: float) -> float:
    """Frequency of the largest-magnitude nonzero bin, in Hz."""
    spec = spectrum(samples, fs)
    k = 1 + int(np.argmax(spec.magnitudes[1:]))
    return float(spec.frequencies_hz[k])
