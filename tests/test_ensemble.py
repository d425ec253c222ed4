import re
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import iceemd.ensemble as ensemble_module
from iceemd import EnsembleConfig, InvalidConfigError, InvalidSignalError, Signal, emd, iceemd
from iceemd.emd import extract_imf, local_mean_operator
from iceemd.ensemble import _realization, generate_noise_bank
from iceemd.signals import add_noise_snr, dominant_frequency, synth_signal

from iceemd_oracle import iceemd_reference

# iceemd/__init__ rebinds the name `emd` to the function
emd_module = sys.modules["iceemd.emd"]

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
        plain = emd(Signal(y, FS), max_modes=cfg.max_modes)
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

    def test_zero_max_modes_rejected(self):
        with pytest.raises(InvalidConfigError, match="max_modes must be >= 1, got 0"):
            EnsembleConfig(max_modes=0)

    def test_too_short(self):
        with pytest.raises(InvalidSignalError, match="too short to decompose"):
            iceemd(Signal([1.0, -1.0, 1.0], FS), EnsembleConfig(ensemble_size=1, seed=0))

    def test_peak_beyond_the_ensemble_headroom_rejected(self):
        # a stage sums 4 members before it divides: a peak of float64 max / 16
        # decomposes, one ulp above it is refused before the noise bank
        cfg = EnsembleConfig(ensemble_size=4, seed=0)
        y = two_tone(n=400)
        y = y / np.abs(y).max() * (np.finfo(np.float64).max / 16)
        dec = iceemd(Signal(y, FS), cfg)
        assert dec.n_imfs >= 2 and np.all(np.isfinite(dec.reconstruct()))
        y[np.argmax(np.abs(y))] = np.nextafter(np.abs(y).max(), np.inf)
        with mock.patch.object(ensemble_module, "generate_noise_bank") as bank:
            with pytest.raises(InvalidSignalError, match=r"float64 max / \(4 \* 4 members\)"):
                iceemd(Signal(y, FS), cfg)
        bank.assert_not_called()


class TestRuinousEpsilon0:
    """Each stage scales its noise by epsilon0 * std(residue), and the
    residue already holds the previous stage's noise, so for a large
    epsilon0 the residues grow geometrically and cancel. Such a run is a
    config error, raised before a stage's noise would pass the headroom
    or, after the recursion, when the parts miss the input."""

    @pytest.mark.parametrize("ensemble_size", [10, 50])
    @pytest.mark.parametrize("epsilon0", [1e4, 1e60, 1e306])
    def test_refused_without_warnings(self, epsilon0, ensemble_size):
        # the 5 dB benchmark: at 1e4 the parts miss the input by 6.9e-3
        # (ensemble 10) or 4.0e-4 (ensemble 50) of its peak; from 1e60 on
        # a stage's noise would pass float64 max / (4 * ensemble_size)
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        cfg = EnsembleConfig(ensemble_size=ensemble_size, epsilon0=epsilon0, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match=re.escape(f"epsilon0={epsilon0:g} ")):
                iceemd(noisy, cfg)

    def test_overflowing_noise_floor_is_a_config_error(self):
        # a ramp runs no stage, so only the floor epsilon0 * std / sqrt(size)
        # sees epsilon0; it overflows, which is the config's fault, not the
        # data's. Refused before the noise bank is built
        ramp = Signal(np.linspace(0.0, 1e3, 100), 1.0)
        cfg = EnsembleConfig(ensemble_size=2, epsilon0=1e306)
        message = r"epsilon0=1e\+306 overflows the noise floor"
        with warnings.catch_warnings(), \
                mock.patch.object(ensemble_module, "_noise_bank") as bank:
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match=message):
                iceemd(ramp, cfg)
        bank.assert_not_called()
        # a tenth of that epsilon0 keeps the floor finite, and runs
        assert np.isfinite(iceemd(ramp, replace(cfg, epsilon0=1e305)).noise_floor)

    def test_epsilon0_100_is_the_reference_recursion(self):
        x = two_tone(n=400)
        cfg = EnsembleConfig(ensemble_size=3, epsilon0=100.0, seed=2)
        dec = iceemd(Signal(x, FS), cfg)
        imfs, residue = iceemd_reference(x, cfg)
        assert [imf.tobytes() for imf in dec.imfs] == [imf.tobytes() for imf in imfs]
        assert dec.residue.tobytes() == residue.tobytes()


class TestLockstep:
    """The ensemble sifts its members in batches, within a memory bound."""

    def test_envelopes_are_built_per_batch(self, monkeypatch):
        # one mean_envelope call per pass of a batch: sifting each member
        # on its own makes about 2,400 on this run
        calls = []
        mean_envelope = emd_module.mean_envelope

        def counted(*args, **kwargs):
            calls.append(1)
            return mean_envelope(*args, **kwargs)

        monkeypatch.setattr(emd_module, "mean_envelope", counted)
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        iceemd(noisy, EnsembleConfig(ensemble_size=50, seed=1))
        assert 0 < len(calls) < 600

    def test_peak_memory(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        cfg = EnsembleConfig(ensemble_size=50, seed=1)
        iceemd(Signal(noisy.samples[:100], FS), EnsembleConfig(ensemble_size=2))
        tracemalloc.start()
        try:
            iceemd(noisy, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2**20


def _key(n, cfg):
    return n, cfg.seed, cfg.ensemble_size, cfg.max_modes


@pytest.fixture
def builds(monkeypatch):
    """An empty bank cache, and the key of every bank built from here on."""
    monkeypatch.setattr(ensemble_module, "_last_bank", {})
    keys = []
    build = ensemble_module.generate_noise_bank

    def counted(n, cfg):
        keys.append(_key(n, cfg))
        return build(n, cfg)

    monkeypatch.setattr(ensemble_module, "generate_noise_bank", counted)
    return keys


class TestBankCache:
    """iceemd reuses its last noise bank for the same (n, seed,
    ensemble_size, max_modes), and holds one bank at most."""

    def test_second_record_equals_cold_run_and_reference(self, builds):
        cfg = EnsembleConfig(ensemble_size=3, seed=4)
        first = add_noise_snr(Signal(two_tone(n=600), FS), 5.0, seed=1)
        second = add_noise_snr(Signal(two_tone(n=600), FS), 5.0, seed=2)
        iceemd(first, cfg)
        warm = iceemd(second, cfg)
        assert builds == [_key(600, cfg)]
        ensemble_module._last_bank.clear()
        cold = iceemd(second, cfg)
        assert builds == [_key(600, cfg)] * 2
        imfs, residue = iceemd_reference(second.samples, cfg)
        assert len(warm.imfs) == len(cold.imfs) == len(imfs)
        for w, c, r in zip([*warm.imfs, warm.residue], [*cold.imfs, cold.residue],
                           [*imfs, residue]):
            assert w.tobytes() == c.tobytes() == r.tobytes()

    def test_epsilon0_shares_the_bank(self, builds):
        sig = Signal(two_tone(n=400), FS)
        iceemd(sig, EnsembleConfig(ensemble_size=2, seed=1, epsilon0=0.2))
        cfg = EnsembleConfig(ensemble_size=2, seed=1, epsilon0=0.05)
        dec = iceemd(sig, cfg)
        assert builds == [_key(400, cfg)]
        imfs, residue = iceemd_reference(sig.samples, cfg)
        assert [i.tobytes() for i in dec.imfs] == [i.tobytes() for i in imfs]
        assert dec.residue.tobytes() == residue.tobytes()

    @pytest.mark.parametrize("n, change", [
        (399, {}), (400, {"seed": 2}), (400, {"ensemble_size": 3}), (400, {"max_modes": 4})],
        ids=["n", "seed", "ensemble_size", "max_modes"])
    def test_any_key_change_rebuilds(self, builds, n, change):
        base = EnsembleConfig(ensemble_size=2, seed=1)
        runs = [(400, base), (n, replace(base, **change)), (400, base)]
        for size, cfg in runs:
            iceemd(Signal(two_tone(n=size), FS), cfg)
        assert builds == [_key(size, cfg) for size, cfg in runs]

    def test_cached_modes_are_read_only(self, builds):
        iceemd(Signal(two_tone(n=400), FS), EnsembleConfig(ensemble_size=2, seed=1))
        (bank,) = ensemble_module._last_bank.values()
        modes = [mode for realization in bank for mode in realization]
        assert modes
        for mode in modes:
            with pytest.raises(ValueError):
                mode[0] = 1.0

    def test_miss_releases_the_old_bank_before_building(self, monkeypatch):
        monkeypatch.setattr(ensemble_module, "_last_bank", {})
        build = ensemble_module.generate_noise_bank
        old_modes, alive_at_entry = [], []

        def watched(n, cfg):
            alive_at_entry.append([ref() is not None for ref in old_modes])
            bank = build(n, cfg)
            old_modes.append(weakref.ref(bank[0][0]))
            return bank

        monkeypatch.setattr(ensemble_module, "generate_noise_bank", watched)
        sig = Signal(two_tone(n=400), FS)
        iceemd(sig, EnsembleConfig(ensemble_size=2, seed=1))
        assert old_modes[0]() is not None  # the cache holds it
        iceemd(sig, EnsembleConfig(ensemble_size=2, seed=2))
        assert alive_at_entry == [[], [False]]


def _oracle_inputs():
    """Finite arrays of 4-160 samples: bounded floats at three scales,
    integer-valued ones with plateaus, random walks, monotone and constant
    ones, and 4-8 samples, where realizations run out of modes first."""
    n = st.integers(4, 160)
    bounded = st.tuples(
        arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),
        st.sampled_from([1e-100, 1.0, 1e100]),
    ).map(lambda xs: xs[0] * xs[1])
    plateaus = arrays(np.float64, n, elements=st.integers(-3, 3).map(float))
    walks = arrays(np.float64, n, elements=st.floats(-1.0, 1.0)).map(np.cumsum)
    monotone = arrays(np.float64, n, elements=st.floats(0.0, 1e3)).map(np.cumsum)
    constant = st.tuples(n, st.floats(-1e3, 1e3)).map(lambda c: np.full(*c))
    tiny = arrays(np.float64, st.integers(4, 8), elements=st.floats(-1e3, 1e3))
    return st.one_of(bounded, plateaus, walks, monotone, constant, tiny)


@settings(max_examples=150, deadline=None)
@given(
    x=_oracle_inputs(),
    ensemble_size=st.integers(1, 5),
    max_modes=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    per_batch=st.sampled_from([1, 2, 0]),
)
def test_equals_reference_recursion_bit_for_bit(x, ensemble_size, max_modes, seed, per_batch):
    # per_batch rows of samples per batch (0: the package's cap), so a
    # stage's members and the bank's realizations span several batches;
    # the reference sifts each member alone and builds its bank unpatched
    cfg = EnsembleConfig(ensemble_size=ensemble_size, seed=seed, max_modes=max_modes)
    cap = per_batch * x.size or emd_module._BATCH_SAMPLES
    with (mock.patch.object(emd_module, "_BATCH_SAMPLES", cap),
          mock.patch.object(ensemble_module, "_last_bank", {})):
        dec = iceemd(Signal(x, FS), cfg)
    imfs, residue = iceemd_reference(x, cfg)
    assert len(dec.imfs) == len(imfs)
    for got, want in zip(dec.imfs, imfs):
        assert got.tobytes() == want.tobytes()
    assert dec.residue.tobytes() == residue.tobytes()
    scale = np.abs(x).max()
    assert np.abs(dec.reconstruct() - x).max() <= 1e-10 * scale
