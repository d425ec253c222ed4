#!/usr/bin/env python3
"""Decompose the synthetic two-tone benchmark into intrinsic mode functions.

The test signal is a 20 Hz sine carrying a short 100 Hz burst between
0.15 s and 0.25 s. Ensemble decomposition separates the burst from the
tone even though the burst only lives on a tenth of the record, which is
exactly where plain EMD mode-mixes.
"""
import pathlib

import numpy as np

from iceemd import EnsembleConfig, dominant_frequency, emd, iceemd, synth_signal
from iceemd.io import write_decomposition_csv

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

signal = synth_signal()
fs = signal.sample_rate_hz
print(f"signal: {len(signal)} samples at {fs:.0f} Hz")

print("\n-- plain EMD (mode mixing on the gated burst) --")
plain = emd(signal)
for k, imf in enumerate(plain.imfs):
    print(
        f"  IMF{k + 1}: dominant {dominant_frequency(imf, fs):6.1f} Hz, "
        f"energy {np.dot(imf, imf):8.3f}"
    )

print("\n-- ensemble decomposition (seed 0, 50 realizations) --")
dec = iceemd(signal, EnsembleConfig(seed=0))
for k, imf in enumerate(dec.imfs):
    print(
        f"  IMF{k + 1}: dominant {dominant_frequency(imf, fs):6.1f} Hz, "
        f"energy {np.dot(imf, imf):8.3f}"
    )
print(f"  residue energy {np.dot(dec.residue, dec.residue):8.3f}")

err = np.abs(dec.reconstruct() - signal.samples).max()
print(f"\nreconstruction error (max abs): {err:.2e}")

dest = OUT / "two_tone_decomposition.csv"
write_decomposition_csv(dec, dest, fs)
print(f"decomposition written to {dest}")
