"""Decompose, gate by approximate entropy, denoise flagged modes, rebuild.

Mode-selective denoising: only the IMFs whose approximate entropy exceeds
the gate threshold are wavelet-denoised; everything else, including the
residue, passes through untouched, so a clean signal reconstructs
exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ensemble import EnsembleConfig, iceemd
from .entropy import ApEnConfig, ApEnReport, apen_per_imf
from .errors import InvalidConfigError
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

    imfs_denoised holds (index, before, after) for exactly the flagged
    modes; output sums the processed modes and the residue.
    """

    decomposition_raw: Decomposition
    apen_report: ApEnReport
    imfs_denoised: list[tuple[int, np.ndarray, np.ndarray]]
    output: Signal

    @property
    def denoised_indices(self) -> list[int]:
        """Indices of the flagged, hence denoised, modes."""
        return list(self.apen_report.flagged)

    def processed_imfs(self) -> list[np.ndarray]:
        """IMFs after gating: denoised where flagged, original elsewhere."""
        replaced = {k: after for k, _, after in self.imfs_denoised}
        return [
            replaced.get(k, imf) for k, imf in enumerate(self.decomposition_raw.imfs)
        ]


def _feasible_levels(n: int, requested: int) -> int:
    """Largest level count <= requested that n samples can support."""
    levels = requested
    while levels > 1 and n < 2**levels * 4:
        levels -= 1
    return levels


def iceemd_de(signal: Signal, cfg: PipelineConfig = PipelineConfig()) -> DenoiseResult:
    """Run the full pipeline on `signal`.

    Ensemble-decompose, compute per-IMF approximate entropy, wavelet-
    denoise the modes above cfg.apen_threshold (the residue is a trend and
    is never denoised), and sum everything back into the output signal.
    Modes too short for the configured level count fall back to as few as
    one level instead of failing. Each mode's entropy tolerance is floored
    at the decomposition's noise_floor (see ensemble.iceemd), so a clean
    signal passes through unchanged.
    """
    dec = iceemd(signal, cfg.ensemble)
    report = apen_per_imf(dec, cfg.apen, cfg.apen_threshold)
    denoised: list[tuple[int, np.ndarray, np.ndarray]] = []
    processed = list(dec.imfs)
    for k in report.flagged:
        before = dec.imfs[k]
        # entropy needs n >= 10, so one level (n >= 8) is always feasible
        levels = _feasible_levels(before.size, cfg.denoise.levels)
        after = wavelet_denoise(before, replace(cfg.denoise, levels=levels))
        processed[k] = after
        denoised.append((k, before, after))
    output = Decomposition(processed, dec.residue).reconstruct()
    return DenoiseResult(
        decomposition_raw=dec,
        apen_report=report,
        imfs_denoised=denoised,
        output=signal.with_samples(output),
    )
