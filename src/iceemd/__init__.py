"""Ensemble empirical mode decomposition with entropy-gated wavelet denoising.

Decomposes detection signals into intrinsic mode functions with an
improved complete ensemble EMD, ranks the modes by approximate entropy,
and soft-threshold denoises the noise-dominated ones in the wavelet
domain before reconstruction.
"""
from .emd import emd
from .ensemble import EnsembleConfig, iceemd
from .entropy import (
    ApEnConfig,
    ApEnReport,
    apen_per_imf,
    approximate_entropy,
)
from .errors import (
    IceemdError,
    InvalidConfigError,
    InvalidSignalError,
    NotEnoughExtremaError,
    SignalFormatError,
)
from .pipeline import (
    DEFAULT_APEN_THRESHOLD,
    DenoiseResult,
    PipelineConfig,
    iceemd_de,
)
from .signals import (
    Spectrum,
    SynthConfig,
    add_noise_snr,
    dominant_frequency,
    rmse,
    snr,
    spectrum,
    synth_echo_signal,
    synth_signal,
)
from .types import Decomposition, Signal
from .wavelet import (
    DenoiseConfig,
    WaveletCoefficients,
    WaveletSpec,
    dwt,
    idwt,
    soft_threshold,
    universal_threshold,
    wavelet_denoise,
    wavelet_spec,
)

__version__ = "0.1.0"

__all__ = [
    "ApEnConfig",
    "ApEnReport",
    "Decomposition",
    "DenoiseConfig",
    "DenoiseResult",
    "DEFAULT_APEN_THRESHOLD",
    "EnsembleConfig",
    "IceemdError",
    "InvalidConfigError",
    "InvalidSignalError",
    "NotEnoughExtremaError",
    "PipelineConfig",
    "Signal",
    "SignalFormatError",
    "Spectrum",
    "SynthConfig",
    "WaveletCoefficients",
    "WaveletSpec",
    "add_noise_snr",
    "apen_per_imf",
    "approximate_entropy",
    "dominant_frequency",
    "dwt",
    "emd",
    "iceemd",
    "iceemd_de",
    "idwt",
    "rmse",
    "snr",
    "soft_threshold",
    "spectrum",
    "synth_echo_signal",
    "synth_signal",
    "universal_threshold",
    "wavelet_denoise",
    "wavelet_spec",
    "__version__",
]
