import numpy as np
import pytest

from iceemd import (
    EnsembleConfig,
    InvalidSignalError,
    SiftConfig,
    Signal,
    emd,
    extract_imf,
    generate_noise_bank,
    iceemd,
    local_mean_operator,
)
from iceemd.ensemble import _realization
from iceemd.signals import dominant_frequency, synth_signal

FS = 1000.0


def two_tone(n=1000, fs=FS):
    t = np.arange(n) / fs
    return np.sin(2 * np.pi * 20 * t) + 0.5 * np.sin(2 * np.pi * 100 * t)


class TestNoiseBank:
    def test_bitwise_reproducible(self):
        cfg = EnsembleConfig(ensemble_size=2, seed=7)
        a = generate_noise_bank(1024, cfg)
        b = generate_noise_bank(1024, cfg)
        for i in range(cfg.ensemble_size):
            assert np.array_equal(_realization(1024, 7, i), _realization(1024, 7, i))
        for ma, mb in zip(a, b):
            assert len(ma) == len(mb)
            for ia, ib in zip(ma, mb):
                assert np.array_equal(ia, ib)

    def test_realization_depends_only_on_seed_and_index(self):
        big = generate_noise_bank(1024, EnsembleConfig(ensemble_size=16, seed=7))
        small = generate_noise_bank(1024, EnsembleConfig(ensemble_size=14, seed=7))
        assert len(big[13]) == len(small[13])
        for mb, ms in zip(big[13], small[13]):
            assert np.array_equal(mb, ms)

    def test_standardization(self):
        n = 1024
        for i in range(8):
            w = _realization(n, 3, i)
            assert abs(w.mean()) <= 3 / np.sqrt(n)
            assert 0.9 <= w.std() <= 1.1

    def test_modes_rebuild_realization(self):
        # the cached modes are the EMD of the standardized realization
        bank = generate_noise_bank(256, EnsembleConfig(ensemble_size=3, seed=5, max_modes=1))
        for i, modes in enumerate(bank):
            imf, _ = extract_imf(_realization(256, 5, i))
            assert np.array_equal(modes[0], imf)

    def test_four_samples_have_no_modes(self):
        # four samples never hold the three extrema a mode needs
        bank = generate_noise_bank(4, EnsembleConfig(ensemble_size=3, seed=0))
        assert bank == [[], [], []]

    def test_too_short(self):
        with pytest.raises(InvalidSignalError):
            generate_noise_bank(3, EnsembleConfig(ensemble_size=1, seed=0))


class TestIceemd:
    def test_reconstruction_identity(self):
        sig = Signal(two_tone(), FS)
        dec = iceemd(sig, EnsembleConfig(ensemble_size=8, seed=1))
        err = np.abs(dec.reconstruct() - sig.samples).max()
        assert err <= 1e-10 * np.abs(sig.samples).max()

    def test_reconstruction_random_signals(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            y = rng.standard_normal(400)
            dec = iceemd(Signal(y, FS), EnsembleConfig(ensemble_size=3, seed=seed))
            assert np.abs(dec.reconstruct() - y).max() <= 1e-10 * np.abs(y).max()

    def test_seed_determinism(self):
        sig = Signal(two_tone(n=512), FS)
        cfg = EnsembleConfig(ensemble_size=4, seed=21)
        a = iceemd(sig, cfg)
        b = iceemd(sig, cfg)
        assert a.n_imfs == b.n_imfs
        for ia, ib in zip(a.imfs, b.imfs):
            assert np.array_equal(ia, ib)
        assert np.array_equal(a.residue, b.residue)

    def test_stage_beyond_bank_modes_adds_no_noise(self):
        # at this seed and length the signal yields 4 IMFs but the single
        # noise realization only 3 modes, so stage 4 perturbs nothing and its
        # IMF is the residue minus its own local mean
        n, seed = 64, 2
        y = np.random.default_rng(seed).standard_normal(n)
        cfg = EnsembleConfig(ensemble_size=1, seed=seed)
        assert len(generate_noise_bank(n, cfg)[0]) == 3
        dec = iceemd(Signal(y, FS), cfg)
        assert dec.n_imfs == 4
        # stopping after stage 3 leaves the residue stage 4 starts from
        first3 = iceemd(Signal(y, FS), EnsembleConfig(ensemble_size=1, seed=seed, max_modes=3))
        assert first3.n_imfs == 3
        assert all(np.array_equal(a, b) for a, b in zip(first3.imfs, dec.imfs))
        r = first3.residue
        assert np.array_equal(dec.imfs[3], r - local_mean_operator(r))

    def test_degenerate_noise_matches_plain_emd(self):
        # off-grid frequencies and phases: no exact sample plateaus whose
        # ties the vanishing noise could break
        t = np.arange(600) / FS
        y = np.sin(2 * np.pi * 19.3 * t + 0.3) + 0.5 * np.sin(2 * np.pi * 97.7 * t + 1.1)
        cfg = EnsembleConfig(ensemble_size=1, epsilon0=1e-12, seed=0)
        ens = iceemd(Signal(y, FS), cfg)
        plain = emd(Signal(y, FS), SiftConfig(), max_modes=cfg.max_modes)
        assert ens.n_imfs == plain.n_imfs
        for ia, ib in zip(ens.imfs, plain.imfs):
            assert np.abs(ia - ib).max() < 1e-6
        assert np.abs(ens.residue - plain.residue).max() < 1e-6

    def test_positive_homogeneity(self):
        y = two_tone(n=600)
        cfg = EnsembleConfig(ensemble_size=4, seed=9)
        base = iceemd(Signal(y, FS), cfg)
        scaled = iceemd(Signal(3.7 * y, FS), cfg)
        assert base.n_imfs == scaled.n_imfs
        ref = max(np.abs(i).max() for i in base.imfs)
        for ia, ib in zip(base.imfs, scaled.imfs):
            assert np.abs(3.7 * ia - ib).max() <= 1e-6 * 3.7 * ref
        assert np.abs(3.7 * base.residue - scaled.residue).max() <= 1e-6 * 3.7 * ref

    def test_monotone_input_returns_residue(self):
        x = np.linspace(0, 1, 64)
        dec = iceemd(Signal(x, FS), EnsembleConfig(ensemble_size=2, seed=0))
        assert dec.n_imfs == 0
        assert dec.noise_floor == 0.2 * float(x.std()) / np.sqrt(2)

    def test_benchmark_separation(self):
        # the gated-burst mode peaks within 2 bins of its carrier and the
        # full-duration tone lands exactly on its bin, high before low
        dec = iceemd(synth_signal(), EnsembleConfig(seed=0))
        doms = [dominant_frequency(imf, FS) for imf in dec.imfs]
        energies = [float(np.dot(imf, imf)) for imf in dec.imfs]
        burst_idx = [
            k for k, (d, e) in enumerate(zip(doms, energies)) if 98 <= d <= 102 and e > 2.0
        ]
        tone_idx = [k for k, d in enumerate(doms) if abs(d - 20) <= 1]
        assert burst_idx, f"no burst mode found in {doms}"
        assert tone_idx, f"no 20 Hz mode found in {doms}"
        assert burst_idx[0] < tone_idx[0]

    def test_noise_floor(self):
        sig = Signal(two_tone(n=400), FS)
        cfg = EnsembleConfig(ensemble_size=3, epsilon0=0.3, seed=2)
        floor = cfg.epsilon0 * float(sig.samples.std()) / np.sqrt(cfg.ensemble_size)
        assert iceemd(sig, cfg).noise_floor == floor
        assert emd(sig).noise_floor == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(ensemble_size=0)
        with pytest.raises(ValueError):
            EnsembleConfig(epsilon0=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(seed=-1)
