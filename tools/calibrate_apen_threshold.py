#!/usr/bin/env python3
"""Regenerate the default entropy gate threshold.

The gate must separate tone-carrying modes (approximate entropy well
below 1) from noise-dominated ones (well above 1). The default is the
midpoint between the largest entropy among the clean benchmark's tone
modes and the entropy of standardized white noise, rounded to one
decimal. It then runs the pipeline on two clean signals, the pure 20 Hz
sine and the clean benchmark, at ensemble seeds 0-11 and reports the
largest gate entropy over all their modes: the margin by which clean
input passes through unflagged. Run this after changing sifting or
ensemble defaults and update docs/calibration.md plus
DEFAULT_APEN_THRESHOLD if the numbers move.
"""
import numpy as np

from iceemd import (
    ApEnConfig,
    EnsembleConfig,
    PipelineConfig,
    Signal,
    approximate_entropy,
    dominant_frequency,
    iceemd,
    iceemd_de,
    synth_signal,
)

TONE_BANDS_HZ = ((18.0, 22.0), (98.0, 102.0))
ENSEMBLE_SEED = 0
NOISE_SEEDS = (0, 1, 2)
N_NOISE = 1000
CLEAN_SEEDS = range(12)


def main():
    clean = synth_signal()
    fs = clean.sample_rate_hz
    apen_cfg = ApEnConfig()
    dec = iceemd(clean, EnsembleConfig(seed=ENSEMBLE_SEED))
    total_energy = sum(float(np.dot(i, i)) for i in dec.imfs)

    print(f"clean benchmark decomposition (ensemble seed {ENSEMBLE_SEED}):")
    tone_entropies = []
    for k, imf in enumerate(dec.imfs):
        freq = dominant_frequency(imf, fs)
        entropy = approximate_entropy(imf, apen_cfg)
        energy = float(np.dot(imf, imf))
        is_tone = energy >= 0.01 * total_energy and any(
            lo <= freq <= hi for lo, hi in TONE_BANDS_HZ
        )
        if is_tone:
            tone_entropies.append(entropy)
        print(
            f"  IMF{k + 1}: apen={entropy:.4f} dominant={freq:7.1f} Hz "
            f"energy={energy:10.4f} {'tone' if is_tone else ''}"
        )

    noise_entropies = []
    for seed in NOISE_SEEDS:
        w = np.random.default_rng(seed).standard_normal(N_NOISE)
        noise_entropies.append(approximate_entropy(w, apen_cfg))
    print(f"white noise (n={N_NOISE}, seeds {NOISE_SEEDS}):")
    for seed, entropy in zip(NOISE_SEEDS, noise_entropies):
        print(f"  seed {seed}: apen={entropy:.4f}")

    clean_max = max(tone_entropies)
    noise_min = min(noise_entropies)
    midpoint = (clean_max + noise_min) / 2.0
    default = round(midpoint, 1)
    print(f"\nmax tone-mode entropy : {clean_max:.4f}")
    print(f"min white-noise entropy: {noise_min:.4f}")
    print(f"midpoint               : {midpoint:.4f}")
    print(f"default (one decimal)  : {default}")

    t = np.arange(len(clean)) / fs
    sine = Signal(np.sin(2 * np.pi * 20.0 * t), fs)
    print(f"\nclean-input gate entropies, ensemble seeds 0-{CLEAN_SEEDS[-1]}:")
    largest = 0.0
    for name, sig in (("pure 20 Hz sine", sine), ("clean benchmark", clean)):
        entropies = [
            value
            for seed in CLEAN_SEEDS
            for _, value in iceemd_de(
                sig, PipelineConfig(ensemble=EnsembleConfig(seed=seed))
            ).apen_report.per_imf
        ]
        largest = max(largest, max(entropies))
        print(f"  {name}: largest {max(entropies):.4f}")
    print(f"largest clean-input gate entropy: {largest:.4f} (gate {default})")


if __name__ == "__main__":
    main()
