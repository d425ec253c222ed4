"""Core data containers: sampled signals and their decompositions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSignalError


def as_float_array(samples, ndim: int = 1) -> np.ndarray:
    """Coerce to a float64 array of `ndim` dimensions, rejecting non-finite values."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != ndim:
        raise InvalidSignalError(f"expected a {ndim}-D sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidSignalError("samples contain NaN or Inf")
    return arr


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
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise InvalidSignalError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz}"
            )
        last_time = max(self.samples.size - 1, 0) / float(self.sample_rate_hz)
        if not np.isfinite(last_time):
            raise InvalidSignalError(
                f"sample_rate_hz={self.sample_rate_hz} is too small for "
                f"{self.samples.size} samples: their sample times overflow float64"
            )

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
    IMF must be as long as the residue.

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
