"""Core data containers: sampled signals and their decompositions.

Also the package's one amplitude rule: a sum of squares is taken at unit
scale, on a copy whose largest magnitude is in [0.5, 1) (binary_exponent,
unit_scaled, std), so no result depends on the float64 range or on the
record's amplitude. And its rules for config values (check_count,
check_seed, check_positive, check_finite), each of which raises
InvalidConfigError naming the value.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSignalError


def as_float_array(samples, ndim: int = 1) -> np.ndarray:
    """Coerce to a float64 array of `ndim` dimensions, rejecting non-finite values."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != ndim:
        raise InvalidSignalError(f"expected a {ndim}-D sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidSignalError("samples contain NaN or Inf")
    return arr


def binary_exponent(*arrays) -> int:
    """The frexp exponent k of the arrays' largest magnitude, which
    scaling by 2**-k brings into [0.5, 1) (0 if all are empty or zero)."""
    peak = max((float(np.max(np.abs(a))) for a in arrays if np.size(a)), default=0.0)
    return math.frexp(peak)[1]


def unit_scaled(samples) -> tuple[np.ndarray, int]:
    """samples scaled by 2**-k, k = binary_exponent(samples), and k: the
    copy at unit scale, whose largest square neither overflows nor
    underflows. Scaling by a power of two is exact, so a result taken on
    the copy and scaled back moves only where a sample is subnormal at
    one of the two scales."""
    k = binary_exponent(samples)
    return np.ldexp(samples, -k), k


def std(samples) -> float:
    """Population standard deviation, taken on the copy at unit scale and
    scaled back by 2**k, so no square over- or underflows and
    std(samples * 2**j) is std(samples) * 2**j wherever the samples and
    their std stay normal. The result is at most half the samples'
    range, so it is finite.
    """
    unit, k = unit_scaled(samples)
    return math.ldexp(float(unit.std()), k)


def check_sample_rate(sample_rate_hz, n_samples: int) -> None:
    """Refuse a rate that is not finite and positive, or whose last sample
    time (n_samples - 1) / sample_rate_hz overflows float64."""
    if not (np.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise InvalidSignalError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if not np.isfinite(max(n_samples - 1, 0) / float(sample_rate_hz)):
        raise InvalidSignalError(
            f"sample_rate_hz={sample_rate_hz} is too small for "
            f"{n_samples} samples: their sample times overflow float64"
        )


def check_count(name: str, value) -> None:
    """Refuse a count that is not an integer >= 1."""
    if not isinstance(value, numbers.Integral):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidConfigError(f"{name} must be >= 1, got {value!r}")


def check_seed(name: str, value) -> None:
    """Refuse a seed that is not an integer >= 0: the seeds, of any size,
    that numpy's default_rng and SeedSequence take."""
    if not (isinstance(value, numbers.Integral) and value >= 0):
        raise InvalidConfigError(f"{name} must be an integer >= 0, got {value!r}")


def check_positive(name: str, value) -> None:
    """Refuse a value that is not a finite real number > 0."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise InvalidConfigError(f"{name} must be finite and > 0, got {value!r}")


def check_finite(name: str, value) -> None:
    """Refuse a value that is not a finite real number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise InvalidConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real-valued time series.

    Parameters
    ----------
    samples : array_like
        Real amplitudes, finite, 1-D.
    sample_rate_hz : float
        Sampling rate in Hz, > 0, with a finite last sample time
        (len - 1) / sample_rate_hz.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", as_float_array(self.samples))
        check_sample_rate(self.sample_rate_hz, self.samples.size)

    def __len__(self) -> int:
        return self.samples.size

    def with_samples(self, samples) -> "Signal":
        """Same sample rate, new amplitudes."""
        return Signal(samples, self.sample_rate_hz)


@dataclass
class Decomposition:
    """Ordered intrinsic mode functions plus the final residue.

    The elementwise sum of ``imfs`` and ``residue`` reconstructs the
    decomposed signal (telescoping identity of the extraction loop). Every
    IMF must be as long as the residue, and every value finite.

    noise_floor is the std of the residual noise that the producing
    ensemble leaves in each mode; 0.0 where no noise was added (plain EMD).
    """

    imfs: list[np.ndarray]
    residue: np.ndarray
    noise_floor: float = 0.0

    def __post_init__(self):
        self.residue = np.asarray(self.residue, dtype=np.float64)
        self.imfs = [np.asarray(imf, dtype=np.float64) for imf in self.imfs]
        for k, imf in enumerate(self.imfs):
            if imf.size != self.residue.size:
                raise InvalidSignalError(
                    f"imf {k} has length {imf.size}, residue has {self.residue.size}"
                )
            if not np.all(np.isfinite(imf)):
                raise InvalidSignalError(f"imf {k} contains NaN or Inf")
        if not np.all(np.isfinite(self.residue)):
            raise InvalidSignalError("residue contains NaN or Inf")
        self.noise_floor = float(self.noise_floor)
        if not (np.isfinite(self.noise_floor) and self.noise_floor >= 0):
            raise InvalidSignalError(
                f"noise_floor must be finite and >= 0, got {self.noise_floor}"
            )

    @property
    def n_imfs(self) -> int:
        return len(self.imfs)

    def reconstruct(self) -> np.ndarray:
        """Elementwise sum of all IMFs and the residue."""
        total = self.residue.copy()
        for imf in self.imfs:
            total += imf
        return total
