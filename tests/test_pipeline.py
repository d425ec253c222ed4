import math

import numpy as np
import pytest

from iceemd import (
    DEFAULT_APEN_THRESHOLD,
    Decomposition,
    DenoiseConfig,
    EnsembleConfig,
    InvalidSignalError,
    PipelineConfig,
    Signal,
    add_noise_snr,
    dominant_frequency,
    iceemd_de,
    synth_signal,
)
from iceemd.cli import run_cli
from iceemd.io import read_report, write_decomposition_csv, write_signal_csv

FS = 1000.0


def fast_config(seed=0, **kwargs):
    return PipelineConfig(ensemble=EnsembleConfig(ensemble_size=6, seed=seed), **kwargs)


def assert_gated(result):
    """The denoised decomposition holds the raw array of every unflagged
    mode, a changed array for every flagged one, and the raw residue and
    noise floor; the output is its reconstruction."""
    raw, denoised = result.decomposition_raw, result.decomposition_denoised
    assert denoised.n_imfs == raw.n_imfs
    for k, (before, after) in enumerate(zip(raw.imfs, denoised.imfs)):
        if k in result.denoised_indices:
            assert not np.array_equal(after, before)
        else:
            assert after is before
    assert denoised.residue is raw.residue
    assert denoised.noise_floor == raw.noise_floor
    assert np.array_equal(result.output.samples, denoised.reconstruct())


class TestReconstruct:
    def test_empty_sum_is_residue(self):
        r = np.arange(8.0)
        assert np.array_equal(Decomposition([], r).reconstruct(), r)

    def test_single_mode_plus_zeros(self):
        x = np.random.default_rng(0).standard_normal(32)
        assert np.array_equal(Decomposition([x], np.zeros(32)).reconstruct(), x)

    def test_length_mismatch(self):
        with pytest.raises(InvalidSignalError):
            Decomposition([np.zeros(8)], np.zeros(9))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_parts_rejected(self, value):
        # as a Signal's samples are, so write_decomposition_csv never writes
        # a file that read_decomposition_csv refuses
        with pytest.raises(InvalidSignalError, match="imf 1 contains NaN or Inf"):
            Decomposition([np.zeros(4), np.array([1.0, value, 2.0, 0.0])], np.zeros(4))
        with pytest.raises(InvalidSignalError, match="residue contains NaN or Inf"):
            Decomposition([np.zeros(4)], np.array([0.0, 0.0, value, 0.0]))

    @pytest.mark.parametrize("floor", [-1.0, float("nan"), float("inf")])
    def test_bad_noise_floor(self, floor):
        with pytest.raises(InvalidSignalError):
            Decomposition([], np.zeros(8), noise_floor=floor)


class TestGate:
    def test_pure_sine_gate_closed(self):
        t = np.arange(1000) / FS
        sine = Signal(np.sin(2 * np.pi * 20 * t), FS)
        result = iceemd_de(sine, PipelineConfig(ensemble=EnsembleConfig(seed=3)))
        assert result.denoised_indices == []
        assert_gated(result)
        err = np.abs(result.output.samples - sine.samples).max()
        assert err <= 1e-8 * np.abs(sine.samples).max()

    def test_negative_threshold_denoises_everything(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=0)
        result = iceemd_de(noisy, fast_config(apen_threshold=-1.0))
        k = result.decomposition_raw.n_imfs
        assert result.denoised_indices == list(range(k))
        rebuilt = Decomposition(
            result.processed_imfs(), result.decomposition_raw.residue
        ).reconstruct()
        assert np.array_equal(result.output.samples, rebuilt)

    def test_flagged_indices_consistent(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        result = iceemd_de(noisy, fast_config(seed=2))
        report = result.apen_report
        expected = [k for k, v in report.per_imf if v > report.threshold]
        assert result.denoised_indices == expected
        assert_gated(result)

    def test_noisy_benchmark_flags_first_two_modes(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        result = iceemd_de(noisy, PipelineConfig(ensemble=EnsembleConfig(seed=1000004)))
        assert {0, 1} <= set(result.denoised_indices)
        assert 2 not in result.denoised_indices


def pure_sine():
    t = np.arange(1000) / FS
    return Signal(np.sin(2 * np.pi * 20 * t), FS)


CLEAN_SIGNALS = {"pure_sine": pure_sine, "clean_benchmark": synth_signal}


@pytest.fixture(scope="module")
def clean_run():
    """Default-config pipeline runs on the clean signals, one per seed."""
    runs = {}

    def run(name, seed):
        if (name, seed) not in runs:
            sig = CLEAN_SIGNALS[name]()
            cfg = PipelineConfig(ensemble=EnsembleConfig(seed=seed))
            runs[name, seed] = (sig, iceemd_de(sig, cfg))
        return runs[name, seed]

    return run


class TestSeedSweep:
    """Acceptance 02 and 09 hold by cause, not only at the seeds they use.

    Envelopes that enclose the record ends keep the burst mode on its
    carrier; the gate's residual-noise tolerance floor keeps the ensemble's
    own noise remnant from being taken for measurement noise.
    """

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("name", sorted(CLEAN_SIGNALS))
    def test_clean_input_passes_through(self, clean_run, name, seed):
        sig, result = clean_run(name, seed)
        assert result.denoised_indices == []
        assert_gated(result)
        err = np.abs(result.output.samples - sig.samples).max()
        assert err <= 1e-8 * np.abs(sig.samples).max()

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("name", sorted(CLEAN_SIGNALS))
    def test_stored_decomposition_gets_pipeline_verdict(self, clean_run, tmp_path, name, seed):
        sig, result = clean_run(name, seed)
        dec_path, rep_path = tmp_path / "dec.csv", tmp_path / "apen.json"
        write_decomposition_csv(result.decomposition_raw, dec_path, sig.sample_rate_hz)
        assert run_cli(["apen", str(dec_path), "-o", str(rep_path)]) == 0
        rows = read_report(rep_path)["apen_table"]["per_imf"]
        assert [(row["imf_index"] - 1, row["apen"]) for row in rows] == result.apen_report.per_imf
        assert [row["imf_index"] - 1 for row in rows if row["flagged"]] == result.denoised_indices

    @pytest.mark.parametrize("seed", range(5))
    def test_burst_mode_on_carrier(self, clean_run, seed):
        _, result = clean_run("clean_benchmark", seed)
        doms = [dominant_frequency(imf, FS) for imf in result.decomposition_raw.imfs]
        burst = [k for k, d in enumerate(doms) if abs(d - 100.0) <= 1.0]
        tone = [k for k, d in enumerate(doms) if abs(d - 20.0) <= 1.0]
        assert burst and tone and burst[0] < tone[0], doms


class TestOutput:
    def test_output_is_processed_sum(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=3)
        result = iceemd_de(noisy, fast_config(seed=4))
        rebuilt = Decomposition(
            result.processed_imfs(), result.decomposition_raw.residue
        ).reconstruct()
        assert np.abs(result.output.samples - rebuilt).max() <= 1e-8

    def test_unflagged_modes_pass_through(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=5)
        result = iceemd_de(noisy, fast_config(seed=6))
        processed = result.processed_imfs()
        for k, imf in enumerate(result.decomposition_raw.imfs):
            if k not in result.denoised_indices:
                assert np.array_equal(processed[k], imf)

    def test_denoising_improves_snr_at_5db(self):
        clean = synth_signal()
        noisy = add_noise_snr(clean, 5.0, seed=6)
        result = iceemd_de(noisy, PipelineConfig(ensemble=EnsembleConfig(seed=7)))
        from iceemd import snr

        assert snr(clean, result.output) > 10.0

    def test_determinism(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=8)
        a = iceemd_de(noisy, fast_config(seed=9))
        b = iceemd_de(noisy, fast_config(seed=9))
        assert np.array_equal(a.output.samples, b.output.samples)
        assert a.denoised_indices == b.denoised_indices

    def test_sample_rate_preserved(self):
        noisy = add_noise_snr(synth_signal(), 5.0, seed=10)
        result = iceemd_de(noisy, fast_config(seed=11))
        assert result.output.sample_rate_hz == noisy.sample_rate_hz


class TestShortSignals:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_record_length_floor(self, tmp_path, capsys, n):
        # one rule for every length: below the gate's 10 samples the record
        # is refused up front, naming its length, and the CLI exits 2
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        short = noisy.with_samples(noisy.samples[:n])
        cfg = fast_config(seed=2)
        sig, out = tmp_path / "sig.csv", tmp_path / "out.csv"
        write_signal_csv(short, sig)
        code = run_cli(["denoise", str(sig), "--seed", "2", "--ensemble-size", "6", "-o", str(out)])
        if n < 10:
            with pytest.raises(InvalidSignalError, match=f"the record has {n} samples"):
                iceemd_de(short, cfg)
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"error: data: the record has {n} samples; the entropy gate needs at least 10\n"
            assert not out.exists()
        else:
            assert iceemd_de(short, cfg).output.samples.size == n
            assert code == 0

    def test_short_imf_level_fallback(self):
        # 48 samples cannot support 4 levels (needs 64); the pipeline must
        # fall back to fewer levels instead of failing
        rng = np.random.default_rng(12)
        sig = Signal(rng.standard_normal(48), FS)
        result = iceemd_de(sig, fast_config(seed=13, apen_threshold=-1.0))
        assert result.denoised_indices == list(range(result.decomposition_raw.n_imfs))

    @pytest.mark.parametrize("wavelet", ["db8", "sym8"])
    def test_modes_shorter_than_the_filter(self, wavelet):
        # 12 samples are fewer than the 16 taps; one level must still run
        sig = Signal(np.random.default_rng(14).standard_normal(12), FS)
        cfg = fast_config(seed=15, apen_threshold=-1.0, denoise=DenoiseConfig(wavelet=wavelet))
        result = iceemd_de(sig, cfg)
        assert result.decomposition_raw.n_imfs >= 1
        assert result.denoised_indices == list(range(result.decomposition_raw.n_imfs))
        assert result.output.samples.size == 12
        assert np.all(np.isfinite(result.output.samples))


def test_huge_level_count_falls_back_to_the_most_supported():
    # 1,000 samples support 7 levels; a request of 10**9 must not build
    # 2**levels and must give the 7-level run bit for bit
    noisy = add_noise_snr(synth_signal(), 5.0, seed=16)
    ensemble = EnsembleConfig(ensemble_size=2, seed=17)
    runs = [
        iceemd_de(noisy, PipelineConfig(ensemble=ensemble, denoise=DenoiseConfig(levels=levels)))
        for levels in (10**9, 7)
    ]
    assert runs[0].denoised_indices
    assert np.array_equal(runs[0].output.samples, runs[1].output.samples)


@pytest.mark.parametrize("k", [-1000, -600, 510, 1000])
def test_benchmark_at_any_power_of_two(k):
    # every sum of squares is taken at unit scale, so the benchmark scaled
    # by 2**k gives the same gate and 2**k times every mode and the output
    noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
    cfg = PipelineConfig(ensemble=EnsembleConfig(ensemble_size=3, seed=2))
    runs = [iceemd_de(noisy.with_samples(np.ldexp(noisy.samples, j)), cfg) for j in (0, k)]
    assert runs[1].apen_report.per_imf == runs[0].apen_report.per_imf
    assert runs[0].denoised_indices
    raw, scaled = (r.decomposition_raw for r in runs)
    assert scaled.noise_floor == math.ldexp(raw.noise_floor, k)
    for part, scaled_part in zip(
        [*raw.imfs, raw.residue, runs[0].output.samples],
        [*scaled.imfs, scaled.residue, runs[1].output.samples],
    ):
        assert np.ldexp(part, k).tobytes() == scaled_part.tobytes()


def test_default_threshold_value():
    assert DEFAULT_APEN_THRESHOLD == 0.9
