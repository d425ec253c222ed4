"""Seeded denoising comparison on the synthetic two-tone benchmark.

For every seed, noise is injected at the requested SNR and the signal is
denoised twice: with the full decompose-gate-denoise pipeline and with
plain whole-signal wavelet shrinkage. Mean and std of SNR and RMSE are
reported for the noisy input and both methods.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .pipeline import PipelineConfig, iceemd_de
from .signals import SynthConfig, add_noise_snr, rmse, snr, synth_signal
from .wavelet import wavelet_denoise

# ensemble seeds are offset from noise seeds so the injected measurement
# noise and the internal decomposition noise never share a stream
ENSEMBLE_SEED_OFFSET = 1_000_003


def run_benchmark(n_seeds: int, input_snr_db: float, base_seed: int) -> dict:
    """Run the comparison over seeds base_seed..base_seed+n_seeds-1, with
    the default SynthConfig and PipelineConfig."""
    clean = synth_signal(SynthConfig())
    pipeline = PipelineConfig()
    scores: dict[str, list[tuple[float, float]]] = {
        "original": [], "iceemd_de": [], "wavelet": []
    }
    for i in range(n_seeds):
        noise_seed = base_seed + i
        noisy = add_noise_snr(clean, input_snr_db, seed=noise_seed)
        cfg = replace(
            pipeline,
            ensemble=replace(pipeline.ensemble, seed=ENSEMBLE_SEED_OFFSET + noise_seed),
        )
        denoised = iceemd_de(noisy, cfg).output
        wavelet_only = noisy.with_samples(wavelet_denoise(noisy.samples, pipeline.denoise))
        for method, estimate in (
            ("original", noisy), ("iceemd_de", denoised), ("wavelet", wavelet_only)
        ):
            scores[method].append((snr(clean, estimate), rmse(clean, estimate)))

    result = {}
    for method, pairs in scores.items():
        snrs, rmses = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
        result[method] = {
            "snr_mean": float(snrs.mean()),
            "snr_std": float(snrs.std()),
            "rmse_mean": float(rmses.mean()),
            "rmse_std": float(rmses.std()),
            "per_seed_snr_db": snrs.tolist(),
            "per_seed_rmse": rmses.tolist(),
        }
    return result
