"""Synthetic benchmark signals, calibrated noise injection, and metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSignalError
from .types import Signal, as_float_array


@dataclass(frozen=True)
class SynthConfig:
    """Sampling grid for the synthetic two-tone benchmark."""

    sample_rate_hz: float = 1000.0
    duration_s: float = 1.0

    def __post_init__(self):
        for name in ("sample_rate_hz", "duration_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidConfigError(f"{name} must be finite and > 0, got {value}")
        n = self.sample_rate_hz * self.duration_s
        if n < 100:
            raise InvalidConfigError("need at least 100 samples (fs * duration)")
        if not math.isfinite(n):
            raise InvalidConfigError("fs * duration overflows")


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


def snr(reference: Signal, estimate: Signal) -> float:
    """Signal-to-noise ratio 10 log10(sum X^2 / sum (X - Xhat)^2), in dB.

    Returns +inf when the error energy is exactly zero.
    """
    x = as_float_array(reference.samples)
    xhat = as_float_array(estimate.samples)
    if x.size != xhat.size:
        raise InvalidSignalError(f"length mismatch: {x.size} vs {xhat.size}")
    signal_energy = float(np.dot(x, x))
    if signal_energy == 0.0:
        raise InvalidSignalError("reference signal has zero energy")
    err = x - xhat
    error_energy = float(np.dot(err, err))
    if error_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(signal_energy / error_energy)


def rmse(reference: Signal, estimate: Signal) -> float:
    """Root-mean-square error between two equal-length signals."""
    x = as_float_array(reference.samples)
    xhat = as_float_array(estimate.samples)
    if x.size != xhat.size:
        raise InvalidSignalError(f"length mismatch: {x.size} vs {xhat.size}")
    err = x - xhat
    return math.sqrt(float(np.dot(err, err)) / x.size)


def add_noise_snr(signal: Signal, target_snr_db: float, seed: int) -> Signal:
    """Add seeded Gaussian noise scaled so the realized SNR hits the target.

    The noise is rescaled against its own realized energy, so the measured
    SNR equals target_snr_db to machine precision. A target whose noise
    scale is not a finite positive number (a non-finite one, or one so
    extreme that 10 ** (target / 10) overflows or the scale underflows to
    0) is refused.
    """
    x = as_float_array(signal.samples)
    signal_energy = float(np.dot(x, x))
    if not 0.0 < signal_energy < math.inf:
        raise InvalidSignalError(f"cannot set an SNR against a signal of energy {signal_energy}")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(x.size)
    noise_energy = float(np.dot(noise, noise))
    try:
        target_energy = signal_energy / 10.0 ** (target_snr_db / 10.0)
        scale = math.sqrt(target_energy / noise_energy)
    except (OverflowError, ZeroDivisionError):
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise InvalidConfigError(
            f"snr_db={target_snr_db} gives no finite, positive noise scale"
        )
    return signal.with_samples(x + scale * noise)


def spectrum(samples, fs: float) -> Spectrum:
    """One-sided magnitude spectrum with bin spacing fs / n."""
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
