"""Discrete wavelet filter bank with universal soft-threshold denoising.

Orthonormal two-channel bank: analyze by extend-filter-downsample,
synthesize by upsample-filter-sum. Both extension modes reconstruct any
input exactly (within float accumulation); denoising shrinks every detail
band by the universal threshold and leaves the approximation alone.
n samples support up to _max_levels(n) levels with every wavelet, even
where a band is shorter than the filter. dwt refuses more; wavelet_denoise
uses at most its configured levels, and at least one, so it needs at least
8 samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfigError, InvalidSignalError
from .types import as_float_array, check_count, std

# Orthonormal scaling filters (sum = sqrt 2, shifts pairwise orthogonal).
# Daubechies are the minimum-phase factorizations, symlets the
# least-asymmetric ones; both families are the standard published taps.
_SCALING_FILTERS: dict[str, tuple[float, ...]] = {
    "db2": (
        0.48296291314453416,
        0.8365163037378079,
        0.22414386804201336,
        -0.1294095225512604,
    ),
    "db3": (
        0.33267055295008263,
        0.8068915093110925,
        0.45987750211849154,
        -0.13501102001025458,
        -0.08544127388202667,
        0.03522629188570955,
    ),
    "db4": (
        0.2303778133088963,
        0.7148465705529153,
        0.6308807679298593,
        -0.027983769416859382,
        -0.18703481171909342,
        0.030841381835560656,
        0.032883011666885426,
        -0.010597401785069065,
    ),
    "db5": (
        0.1601023979741946,
        0.603829269797193,
        0.7243085284377713,
        0.13842814590131552,
        -0.2422948870663813,
        -0.032244869584635884,
        0.07757149384004466,
        -0.006241490212798662,
        -0.0125807519990815,
        0.0033357252854737765,
    ),
    "db6": (
        0.11154074335010462,
        0.4946238903984411,
        0.7511339080210959,
        0.3152503517092163,
        -0.22626469396543447,
        -0.1297668675672716,
        0.09750160558732276,
        0.027522865530309266,
        -0.031582039317486925,
        0.0005538422011610401,
        0.004777257510945819,
        -0.0010773010853084184,
    ),
    "db7": (
        0.07785205408506247,
        0.3965393194820902,
        0.7291320908463099,
        0.46978228740493483,
        -0.143906003928767,
        -0.22403618499372632,
        0.07130921926691927,
        0.08061260915098878,
        -0.03802993693502268,
        -0.01657454163063033,
        0.012550998556089543,
        0.0004295779729163896,
        -0.0018016407040440084,
        0.00035371379997390604,
    ),
    "db8": (
        0.054415842242197615,
        0.312871590910783,
        0.6756307362943882,
        0.5853546836585298,
        -0.015829105249931023,
        -0.284015542963158,
        0.00047248457008772503,
        0.12874742662203692,
        -0.017369301000353013,
        -0.04408825393189629,
        0.013981027917219646,
        0.008746094047809325,
        -0.00487035299354197,
        -0.00039174037342785967,
        0.0006754494064804461,
        -0.00011747678412930317,
    ),
    "sym4": (
        -0.07576571478950195,
        -0.029635527646001733,
        0.4976186676327756,
        0.803738751805132,
        0.29785779560530534,
        -0.09921954357663411,
        -0.012603967262031428,
        0.0322231006040515,
    ),
    "sym5": (
        0.019538882735249834,
        -0.021101834024689046,
        -0.17532808990805612,
        0.016602105764511394,
        0.6339789634567926,
        0.7234076904040405,
        0.19939753397685495,
        -0.039134249302313906,
        0.029519490925706264,
        0.027333068344998577,
    ),
    "sym6": (
        0.003055800659407484,
        -0.005960271179565144,
        -0.013700243566276572,
        0.05127615557587589,
        0.035794964543572824,
        -0.14751009133088805,
        0.0471723563028656,
        0.6458464961536865,
        0.7114823574095098,
        0.2027773985507778,
        -0.07669845416253157,
        -0.03932290658333941,
    ),
    "sym7": (
        0.010268176708471723,
        0.004010244871549512,
        -0.10780823770328005,
        -0.14004724044303965,
        0.28862963175045936,
        0.7677643170048316,
        0.536101917090716,
        0.017441255086971662,
        -0.049552834937026176,
        0.06789269350120988,
        0.030515513165888315,
        -0.012636303403234492,
        -0.0010473848886815482,
        0.0026818145682591292,
    ),
    "sym8": (
        0.0018899503327676913,
        -0.00030292051472178763,
        -0.014952258337057269,
        0.0038087520138934483,
        0.049137179673745396,
        -0.027219029917029635,
        -0.05194583810781468,
        0.3644418948361538,
        0.7771857516996049,
        0.48135965125908553,
        -0.06127335906784872,
        -0.14329423835136898,
        0.007607487324949737,
        0.031695087811545085,
        -0.0005421323317996186,
        -0.0033824159510098583,
    ),
}

SUPPORTED_WAVELETS = tuple(sorted(_SCALING_FILTERS))
EXTENSION_MODES = ("symmetric", "periodic")
SIGMA_ESTIMATORS = ("mad_finest", "signal_std")


@dataclass(frozen=True)
class WaveletSpec:
    """Four-filter bank: analysis and synthesis, low- and high-pass."""

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    @property
    def length(self) -> int:
        return self.rec_lo.size


def wavelet_spec(name: str) -> WaveletSpec:
    """Filter bank for a supported wavelet name (db2..db8, sym4..sym8)."""
    try:
        h = np.array(_SCALING_FILTERS[name], dtype=np.float64)
    except KeyError:
        raise InvalidConfigError(
            f"unknown wavelet {name!r}; supported: {', '.join(SUPPORTED_WAVELETS)}"
        ) from None
    rec_lo = h
    dec_lo = h[::-1].copy()
    rec_hi = ((-1.0) ** np.arange(h.size)) * h[::-1]
    dec_hi = rec_hi[::-1].copy()
    return WaveletSpec(name=name, dec_lo=dec_lo, dec_hi=dec_hi, rec_lo=rec_lo, rec_hi=rec_hi)


@dataclass
class WaveletCoefficients:
    """Multi-level transform output.

    details are ordered finest first; approximation is the coarsest
    lowpass band. original_length and the extension mode determine every
    intermediate length, so the inverse needs no extra bookkeeping.
    """

    approximation: np.ndarray
    details: list[np.ndarray]
    original_length: int
    extension_mode: str
    wavelet: str


@dataclass(frozen=True)
class DenoiseConfig:
    """Wavelet denoising parameters.

    levels is the most levels wavelet_denoise uses; a shorter series gets
    as many as it supports. sigma_estimator: "signal_std" takes the std of
    the series being denoised (right when that series is noise-dominated,
    as a flagged mode is); "mad_finest" rescales the median absolute value
    of the finest detail band (the robust choice for a structured whole
    signal).
    """

    wavelet: str = "db4"
    levels: int = 4
    sigma_estimator: str = "signal_std"
    extension_mode: str = "symmetric"

    def __post_init__(self):
        wavelet_spec(self.wavelet)
        check_count("levels", self.levels)
        if self.sigma_estimator not in SIGMA_ESTIMATORS:
            raise InvalidConfigError(f"unknown sigma_estimator {self.sigma_estimator!r}")
        if self.extension_mode not in EXTENSION_MODES:
            raise InvalidConfigError(f"unknown extension_mode {self.extension_mode!r}")


def _extend(x: np.ndarray, m: int, mode: str) -> np.ndarray:
    """x continued by m samples past each end, for any m and any length.

    Both modes extend periodically: periodic with period x, half-point
    symmetric (... x1 x0 | x0 x1 ... xn-1 | xn-1 xn-2 ...) with period
    [x, x reversed].
    """
    period = np.concatenate([x, x[::-1]]) if mode == "symmetric" else x
    return np.take(period, np.arange(-m, x.size + m), mode="wrap")


def _subband_length(n: int, filter_length: int, mode: str) -> int:
    if mode == "periodic":
        return -(-n // 2)
    return -(-(n + filter_length - 1) // 2)


def _max_levels(n: int) -> int:
    """Most levels n samples support: levels >= 1 need n >= 2**levels * 4."""
    return (n // 8).bit_length()


def _analyze_level(x: np.ndarray, spec: WaveletSpec, mode: str):
    L = spec.length
    half = _subband_length(x.size, L, mode)
    if mode == "periodic" and x.size % 2:
        x = np.concatenate([x, x[-1:]])  # repeat last sample to even length
    ext = _extend(x, L - 1, mode)
    lo = np.convolve(ext, spec.dec_lo, mode="valid")[::2]
    hi = np.convolve(ext, spec.dec_hi, mode="valid")[::2]
    return lo[:half], hi[:half]


def _synthesize_level(
    approx: np.ndarray, detail: np.ndarray, spec: WaveletSpec, mode: str, out_length: int
) -> np.ndarray:
    """Upsample both bands and keep out_length samples of their valid
    convolutions with the synthesis filters. A periodic band wraps past its
    end; the samples kept never read a wrap before its start."""
    L = spec.length
    up = np.zeros((2, 2 * approx.size))
    up[:, ::2] = approx, detail
    if mode == "periodic":
        up = up.take(np.arange(up.shape[1] + L - 1), axis=1, mode="wrap")
    lo = np.convolve(up[0], spec.rec_lo, mode="valid")
    hi = np.convolve(up[1], spec.rec_hi, mode="valid")
    return lo[:out_length] + hi[:out_length]


def _level_lengths(n: int, levels: int, filter_length: int, mode: str) -> list[int]:
    lengths = [n]
    for _ in range(levels):
        lengths.append(_subband_length(lengths[-1], filter_length, mode))
    return lengths


def dwt(signal, cfg: DenoiseConfig = DenoiseConfig()) -> WaveletCoefficients:
    """Multi-level analysis: filter and downsample cfg.levels times.

    Requires at least 2**levels * 4 samples (see _max_levels); a band may
    be shorter than the filter.
    """
    x = as_float_array(signal)
    if cfg.levels > _max_levels(x.size):
        raise InvalidConfigError(
            f"{x.size} samples support a level count of at most "
            f"{_max_levels(x.size)}, got {cfg.levels}"
        )
    spec = wavelet_spec(cfg.wavelet)
    details: list[np.ndarray] = []
    approx = x
    for _ in range(cfg.levels):
        approx, detail = _analyze_level(approx, spec, cfg.extension_mode)
        details.append(detail)
    return WaveletCoefficients(
        approximation=approx,
        details=details,
        original_length=x.size,
        extension_mode=cfg.extension_mode,
        wavelet=cfg.wavelet,
    )


def idwt(coeffs: WaveletCoefficients, cfg: DenoiseConfig | None = None) -> np.ndarray:
    """Inverse of the transform the coefficients record, trimmed to
    coeffs.original_length samples.

    The wavelet, the extension mode and the level count (len(details))
    are the coefficients' own, the first two checked as DenoiseConfig
    checks them. A cfg selects nothing: one that disagrees with the
    coefficients on any of the three raises InvalidConfigError, and its
    sigma_estimator plays no part.
    """
    own = DenoiseConfig(wavelet=coeffs.wavelet, extension_mode=coeffs.extension_mode)
    spec, mode, levels = wavelet_spec(own.wavelet), own.extension_mode, len(coeffs.details)
    for field, value in (("wavelet", spec.name), ("levels", levels), ("extension_mode", mode)):
        given = value if cfg is None else getattr(cfg, field)
        if given != value:
            raise InvalidConfigError(f"cfg.{field} is {given!r}, the coefficients' is {value!r}")
    lengths = _level_lengths(coeffs.original_length, levels, spec.length, mode)
    approx = coeffs.approximation
    for level in range(levels, 0, -1):
        detail = coeffs.details[level - 1]
        if approx.size != lengths[level] or detail.size != lengths[level]:
            raise InvalidSignalError(
                f"level {level} bands have length {approx.size}/{detail.size}, "
                f"expected {lengths[level]}"
            )
        approx = _synthesize_level(approx, detail, spec, mode, lengths[level - 1])
    if approx.size != lengths[0]:  # no levels: the approximation is the signal
        raise InvalidSignalError(f"approximation has length {approx.size}, expected {lengths[0]}")
    return approx


def universal_threshold(sigma: float, n: int) -> float:
    """lambda = sigma * sqrt(2 ln n)."""
    check_count("n", n)
    if not sigma >= 0:
        raise InvalidConfigError(f"sigma must be >= 0, got {sigma}")
    return sigma * math.sqrt(2.0 * math.log(n))


def soft_threshold(coefficients, lam: float) -> np.ndarray:
    """Shrink toward zero by lam; magnitudes at or below lam map to 0."""
    if not lam >= 0:
        raise InvalidConfigError(f"threshold must be >= 0, got {lam}")
    w = as_float_array(coefficients)
    return np.sign(w) * np.maximum(np.abs(w) - lam, 0.0)


def _estimate_sigma(x: np.ndarray, coeffs: WaveletCoefficients, estimator: str) -> float:
    if estimator == "signal_std":
        return std(x)
    finest = coeffs.details[0]
    return float(np.median(np.abs(finest))) / 0.6745


def wavelet_denoise(signal, cfg: DenoiseConfig = DenoiseConfig()) -> np.ndarray:
    """Universal soft-threshold denoising.

    Analyze with at most cfg.levels levels (as many as the series supports,
    at least one, so at least 8 samples), estimate the noise scale, shrink
    the detail bands by sigma * sqrt(2 ln n) (approximation untouched),
    synthesize.
    """
    x = as_float_array(signal)
    if x.size < 8:
        raise InvalidSignalError(f"wavelet denoising needs at least 8 samples, got {x.size}")
    coeffs = dwt(x, replace(cfg, levels=min(cfg.levels, _max_levels(x.size))))
    sigma = _estimate_sigma(x, coeffs, cfg.sigma_estimator)
    lam = universal_threshold(sigma, x.size)
    shrunk = [soft_threshold(d, lam) for d in coeffs.details]
    return idwt(replace(coeffs, details=shrunk))
