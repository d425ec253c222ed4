#!/usr/bin/env python3
"""Seeded denoising comparison: full pipeline vs plain wavelet shrinkage.

Noise is injected into the two-tone benchmark at 5 dB; both methods are
scored against the clean signal over several seeds. The pipeline wins
because it removes the noise-dominated modes wholesale and never touches
the tone-carrying ones.
"""
from iceemd.benchmark import run_benchmark

N_SEEDS = 5

table = run_benchmark(n_seeds=N_SEEDS, input_snr_db=5.0, base_seed=0)
print(f"{N_SEEDS} seeds, 5 dB input\n")
print(f"{'method':12s} {'SNR (dB)':>16s} {'RMSE':>16s}")
for method in ("original", "iceemd_de", "wavelet"):
    row = table[method]
    print(
        f"{method:12s} {row['snr_mean']:8.3f} ± {row['snr_std']:5.3f} "
        f"{row['rmse_mean']:8.4f} ± {row['rmse_std']:6.4f}"
    )
print("\nper-seed pipeline SNR:", [round(v, 2) for v in table["iceemd_de"]["per_seed_snr_db"]])
