"""Decompose, gate by approximate entropy, denoise flagged modes, rebuild.

Mode-selective denoising: only the IMFs whose approximate entropy exceeds
the gate threshold are wavelet-denoised; everything else, including the
residue, passes through untouched, so a clean signal reconstructs
exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import EnsembleConfig, iceemd
from .entropy import MIN_SAMPLES, ApEnConfig, ApEnReport, apen_per_imf
from .errors import InvalidConfigError, InvalidSignalError
from .types import Decomposition, Signal
from .wavelet import DenoiseConfig, wavelet_denoise

# Gate value between the entropies of tone-carrying and noise-dominated
# modes: midpoint (0.868) between the largest entropy among the clean
# synthetic benchmark's tone modes (0.221, ensemble seed 0) and the
# entropy of seeded white noise (1.514, n = 1000), both at tolerance
# factor 0.15, rounded to one decimal. With the decomposition's
# residual-noise floor, no mode of a clean sine or the clean benchmark
# scores above 0.61 at ensemble seeds 0-11. See docs/calibration.md;
# regenerate with tools/calibrate_apen_threshold.py.
DEFAULT_APEN_THRESHOLD = 0.9


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration for the full decompose-gate-denoise pipeline."""

    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    apen: ApEnConfig = field(default_factory=ApEnConfig)
    apen_threshold: float = DEFAULT_APEN_THRESHOLD
    denoise: DenoiseConfig = field(default_factory=DenoiseConfig)

    def __post_init__(self):
        # apen_per_imf checks the same, but only after the decomposition
        if not math.isfinite(self.apen_threshold):
            raise InvalidConfigError(f"apen_threshold must be finite, got {self.apen_threshold}")


@dataclass
class DenoiseResult:
    """Everything a pipeline run produced.

    decomposition_denoised holds the modes after gating (denoised where
    flagged, the raw arrays themselves elsewhere), the raw residue and the
    raw noise_floor; output is its reconstruction.
    """

    decomposition_raw: Decomposition
    apen_report: ApEnReport
    decomposition_denoised: Decomposition
    output: Signal

    @property
    def denoised_indices(self) -> list[int]:
        """Indices of the flagged, hence denoised, modes."""
        return list(self.apen_report.flagged)

    def processed_imfs(self) -> list[np.ndarray]:
        """IMFs after gating: denoised where flagged, original elsewhere."""
        return list(self.decomposition_denoised.imfs)


def iceemd_de(signal: Signal, cfg: PipelineConfig = PipelineConfig()) -> DenoiseResult:
    """Run the full pipeline on `signal`.

    Ensemble-decompose, compute per-IMF approximate entropy, wavelet-
    denoise the modes above cfg.apen_threshold (the residue is a trend and
    is never denoised), and sum everything back into the output signal.
    Modes too short for the configured level count are denoised with as
    many levels as they support (see wavelet_denoise). Each mode's entropy
    tolerance is floored at the decomposition's noise_floor (see
    ensemble.iceemd), so a clean signal passes through unchanged. A record
    shorter than the gate's MIN_SAMPLES raises InvalidSignalError before
    any work.
    """
    n = signal.samples.size
    if n < MIN_SAMPLES:
        raise InvalidSignalError(
            f"the record has {n} samples; the entropy gate needs at least {MIN_SAMPLES}"
        )
    dec = iceemd(signal, cfg.ensemble)
    report = apen_per_imf(dec, cfg.apen, cfg.apen_threshold)
    processed = list(dec.imfs)
    for k in report.flagged:
        processed[k] = wavelet_denoise(processed[k], cfg.denoise)
    denoised = Decomposition(processed, dec.residue, dec.noise_floor)
    return DenoiseResult(
        decomposition_raw=dec,
        apen_report=report,
        decomposition_denoised=denoised,
        output=signal.with_samples(denoised.reconstruct()),
    )
