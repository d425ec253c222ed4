import contextlib
import io
import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iceemd import (
    ApEnConfig,
    Decomposition,
    EnsembleConfig,
    InvalidSignalError,
    PipelineConfig,
    Signal,
    SynthConfig,
    __version__,
    add_noise_snr,
    synth_signal,
)
from iceemd.cli import _build_parser, run_cli
from iceemd.io import read_report, read_signal_csv, write_decomposition_csv, write_signal_csv
from iceemd.pipeline import DEFAULT_APEN_THRESHOLD
from iceemd.wavelet import DenoiseConfig


def run(argv):
    return run_cli([str(a) for a in argv])


class TestSynth:
    def test_writes_benchmark_signal(self, tmp_path):
        out = tmp_path / "clean.csv"
        assert run(["synth", "-o", out]) == 0
        sig = read_signal_csv(out)
        assert np.array_equal(sig.samples, synth_signal().samples)

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["synth", "--snr-db", 5, "--seed", 9, "-o", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_requires_seed(self, tmp_path, capsys):
        code = run(["synth", "--snr-db", 5, "-o", tmp_path / "x.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1


class TestDecomposeApen:
    def test_emd_and_report(self, tmp_path):
        sig_path = tmp_path / "sig.csv"
        run(["synth", "-o", sig_path])
        dec_path = tmp_path / "dec.csv"
        rep_path = tmp_path / "rep.json"
        code = run(
            ["decompose", sig_path, "--method", "emd", "-o", dec_path, "--report", rep_path]
        )
        assert code == 0
        report = read_report(rep_path)
        assert set(report) == {"config_echo", "apen_table", "metrics", "artifact_paths", "versions"}
        assert report["config_echo"]["method"] == "emd"
        assert report["artifact_paths"] == [str(dec_path)]

    def test_iceemd_requires_seed(self, tmp_path):
        sig_path = tmp_path / "sig.csv"
        run(["synth", "-o", sig_path])
        assert run(["decompose", sig_path, "-o", tmp_path / "d.csv"]) == 1

    def test_decompose_then_apen(self, tmp_path):
        sig_path = tmp_path / "sig.csv"
        run(["synth", "--snr-db", 5, "--seed", 1, "-o", sig_path])
        dec_path = tmp_path / "dec.csv"
        assert (
            run(
                [
                    "decompose", sig_path, "--method", "iceemd",
                    "--ensemble-size", 8, "--seed", 4, "-o", dec_path,
                ]
            )
            == 0
        )
        apen_path = tmp_path / "apen.json"
        assert run(["apen", dec_path, "--threshold", -1.0, "-o", apen_path]) == 0
        table = read_report(apen_path)["apen_table"]
        assert table["threshold"] == -1.0
        assert len(table["per_imf"]) >= 2
        assert all(row["flagged"] for row in table["per_imf"])
        assert [row["imf_index"] for row in table["per_imf"]] == list(
            range(1, len(table["per_imf"]) + 1)
        )


class TestDenoise:
    def test_with_reference_metrics(self, tmp_path):
        clean_path = tmp_path / "clean.csv"
        noisy_path = tmp_path / "noisy.csv"
        run(["synth", "-o", clean_path])
        run(["synth", "--snr-db", 5, "--seed", 2, "-o", noisy_path])
        out_path = tmp_path / "out.csv"
        rep_path = tmp_path / "rep.json"
        code = run(
            [
                "denoise", noisy_path, "--reference", clean_path,
                "--ensemble-size", 10, "--seed", 3,
                "-o", out_path, "--report", rep_path,
            ]
        )
        assert code == 0
        report = read_report(rep_path)
        assert report["metrics"]["snr_db"] > 5.0
        assert report["metrics"]["rmse"] < 0.411
        assert report["config_echo"]["ensemble"]["ensemble_size"] == 10
        assert report["config_echo"]["denoise"]["wavelet"] == "db4"
        assert read_signal_csv(out_path).sample_rate_hz == 1000.0

    def test_seed_required(self, tmp_path):
        sig_path = tmp_path / "sig.csv"
        run(["synth", "-o", sig_path])
        assert run(["denoise", sig_path, "-o", tmp_path / "out.csv"]) == 1


class TestDefaults:
    """A flag left out takes the config type's default, and the report
    echoes exactly the config the run used."""

    @pytest.fixture
    def short_signal(self, tmp_path):
        path = tmp_path / "sig.csv"
        assert run(["synth", "--duration", 0.2, "--snr-db", 5, "--seed", 1, "-o", path]) == 0
        return path

    def test_denoise_echoes_pipeline_defaults(self, tmp_path, short_signal):
        rep_path = tmp_path / "rep.json"
        argv = ["denoise", short_signal, "--seed", 5, "-o", tmp_path / "out.csv"]
        assert run([*argv, "--report", rep_path]) == 0
        echo = read_report(rep_path)["config_echo"]
        expected = asdict(PipelineConfig(ensemble=EnsembleConfig(seed=5)))
        assert list(echo) == ["input", "reference", *expected, "sample_rate_hz"]
        assert {key: echo[key] for key in expected} == expected

    def test_decompose_echoes_ensemble_defaults(self, tmp_path, short_signal):
        rep_path = tmp_path / "rep.json"
        argv = ["decompose", short_signal, "--method", "iceemd", "--seed", 6]
        assert run([*argv, "-o", tmp_path / "dec.csv", "--report", rep_path]) == 0
        assert read_report(rep_path)["config_echo"]["ensemble"] == asdict(EnsembleConfig(seed=6))

    def test_decompose_emd_echoes_max_modes_only(self, tmp_path, short_signal):
        # the sifting rules are fixed, so no report echoes them
        rep_path = tmp_path / "rep.json"
        argv = ["decompose", short_signal, "--method", "emd"]
        assert run([*argv, "-o", tmp_path / "dec.csv", "--report", rep_path]) == 0
        echo = read_report(rep_path)["config_echo"]
        assert list(echo) == ["method", "max_modes", "input", "sample_rate_hz"]

    def test_apen_echoes_apen_defaults(self, tmp_path, short_signal):
        dec_path, rep_path = tmp_path / "dec.csv", tmp_path / "apen.json"
        assert run(["decompose", short_signal, "--method", "emd", "-o", dec_path]) == 0
        assert run(["apen", dec_path, "-o", rep_path]) == 0
        assert read_report(rep_path)["config_echo"]["apen"] == asdict(ApEnConfig())


class TestParser:
    """Each subcommand's options, in the order --help lists them, with
    their defaults; and the top-level keys of each report kind."""

    @pytest.mark.parametrize("argv, expected", [
        (["synth", "-o", "o"], {
            "fs": SynthConfig.sample_rate_hz, "duration": SynthConfig.duration_s,
            "snr_db": None, "seed": None, "output": "o",
        }),
        (["decompose", "i", "-o", "o"], {
            "input": "i", "method": "iceemd", "ensemble_size": EnsembleConfig.ensemble_size,
            "epsilon0": EnsembleConfig.epsilon0, "max_modes": EnsembleConfig.max_modes,
            "seed": None, "output": "o", "report": None,
        }),
        (["apen", "i", "-o", "o"], {
            "input": "i", "tolerance_factor": ApEnConfig.tolerance_factor,
            "threshold": DEFAULT_APEN_THRESHOLD, "output": "o",
        }),
        (["denoise", "i", "--seed", "3", "-o", "o"], {
            "input": "i", "reference": None, "apen_threshold": DEFAULT_APEN_THRESHOLD,
            "wavelet": DenoiseConfig.wavelet, "levels": DenoiseConfig.levels,
            "sigma_estimator": DenoiseConfig.sigma_estimator,
            "ensemble_size": EnsembleConfig.ensemble_size, "epsilon0": EnsembleConfig.epsilon0,
            "seed": 3, "output": "o", "report": None,
        }),
        (["bench", "-o", "o"], {"seeds": 10, "snr_db": 5.0, "base_seed": 0, "output": "o"}),
        (["metrics", "r", "e"], {"reference": "r", "estimate": "e"}),
    ], ids=["synth", "decompose", "apen", "denoise", "bench", "metrics"])
    def test_options_and_defaults(self, argv, expected):
        parsed = vars(_build_parser().parse_args(argv))
        parsed.pop("run", None)
        assert list(parsed.items()) == [("command", argv[0]), *expected.items()]

    def test_report_key_order(self, tmp_path):
        sig, dec = tmp_path / "sig.csv", tmp_path / "dec.csv"
        assert run(["synth", "--duration", 0.2, "--snr-db", 5, "--seed", 1, "-o", sig]) == 0
        small = ["--ensemble-size", 2, "--seed", 1]
        runs = [
            ["decompose", sig, *small, "-o", dec, "--report", tmp_path / "decompose.json"],
            ["apen", dec, "-o", tmp_path / "apen.json"],
            ["denoise", sig, "--reference", sig, *small, "-o", tmp_path / "out.csv",
             "--report", tmp_path / "denoise.json"],
            ["bench", "--seeds", 1, "-o", tmp_path / "bench.json"],
        ]
        for argv in runs:
            assert run(argv) == 0
        versions = {"tool": __version__, "formats": dict.fromkeys(
            ["signal_csv", "decomposition_csv", "report_json"], "1")}
        run_keys = ["config_echo", "apen_table", "metrics", "artifact_paths", "versions"]
        for kind, keys in [
            ("decompose", run_keys), ("apen", run_keys), ("denoise", run_keys),
            ("bench", ["config_echo", "original", "iceemd_de", "wavelet", "versions"]),
        ]:
            report = read_report(tmp_path / f"{kind}.json")
            assert list(report) == keys, kind
            assert report["versions"] == versions, kind


class TestMetrics:
    def test_identical_inputs(self, tmp_path, capsys):
        sig_path = tmp_path / "sig.csv"
        run(["synth", "-o", sig_path])
        assert run(["metrics", sig_path, sig_path]) == 0
        out = capsys.readouterr().out
        assert "snr_db=inf" in out
        assert "rmse=0" in out

    def test_known_pair(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["synth", "-o", a])
        sig = read_signal_csv(a)
        write_signal_csv(sig.with_samples(sig.samples + 0.5), b)
        run(["metrics", a, b])
        out = capsys.readouterr().out
        rmse_line = [ln for ln in out.splitlines() if ln.startswith("rmse=")][0]
        assert float(rmse_line.split("=")[1]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("reference, estimate", [
        ([0, 1, 0, -1, 0], [0, 1e300, 0, -1, 0]),  # the ratio underflows
        ([0, 2e154, 0, -1, 0], [0, 2e154, 0, -1, 1]),  # the ratio overflows
    ], ids=["ratio-underflows", "ratio-overflows"])
    def test_ratio_outside_float64_exit_2(self, tmp_path, capsys, reference, estimate):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_signal_csv(Signal(reference, 1000.0), a)
        write_signal_csv(Signal(estimate, 1000.0), b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["metrics", a, b]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: data:") and "float64 range" in err
        assert err.count("\n") == 1

    def test_exact_at_large_amplitude(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_signal_csv(Signal([0, 1e200, 0, -1e200, 0], 1000.0), a)
        write_signal_csv(Signal([0, 1.1e200, 0, -1e200, 0], 1000.0), b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["metrics", a, b]) == 0
        out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert list(out) == ["snr_db", "rmse"]
        # 2e400 / 1e398 = 200, and sqrt(1e398 / 5)
        assert float(out["snr_db"]) == pytest.approx(10 * np.log10(200.0), rel=1e-14)
        assert float(out["rmse"]) == pytest.approx(1e199 / np.sqrt(5.0), rel=1e-14)


class TestErrors:
    def test_format_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        for content in (
            b"1\n2\n3\n",  # no sampling metadata
            b"# sample_rate_hz=1000\n1\n\xff\n3\n",  # not UTF-8
        ):
            bad.write_bytes(content)
            assert run(["decompose", bad, "--method", "emd", "-o", tmp_path / "d.csv"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: format:") and err.count("\n") == 1

    @pytest.mark.parametrize("header, row", [
        ("# sample_rate_hz=nan", "0.001,-1,2"),
        ("# sample_rate_hz=1000", "0.001,nan,2"),
    ])
    def test_bad_decomposition_exit_2_with_line(self, tmp_path, capsys, header, row):
        bad = tmp_path / "dec.csv"
        bad.write_text(f"{header}\nt,imf1,residue\n0,1,2\n{row}\n0.002,1,2\n")
        assert run(["apen", bad, "-o", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: format:") and err.count("\n") == 1
        assert "line " in err

    def test_bad_noise_floor_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "dec.csv"
        bad.write_text("# sample_rate_hz=1000\n# noise_floor=-1\nt,imf1,residue\n0,1,2\n")
        assert run(["apen", bad, "-o", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: format: line 2:") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_apen_overflowing_squares_exit_0(self, tmp_path):
        # the squares of this mode overflow, but its std is taken at unit
        # scale: the entropy is that of the mode scaled by 2**-k
        imf = 1e307 * np.random.default_rng(0).standard_normal(50)
        k = np.frexp(np.abs(imf).max())[1]
        entropies = []
        for mode in (imf, np.ldexp(imf, -k)):
            dec = Decomposition(imfs=[mode], residue=np.zeros(50))
            path, report = tmp_path / "dec.csv", tmp_path / "r.json"
            write_decomposition_csv(dec, path, 1000.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["apen", path, "-o", report]) == 0
            entropies.append(read_report(report)["apen_table"]["per_imf"][0]["apen"])
        assert entropies[0] == entropies[1]

    def test_apen_zero_mode_at_subnormal_floor_is_zero(self, tmp_path):
        # a tolerance of 0.15 * 5e-324 underflows to 0; the all-zero mode
        # still scores 0.0, not NaN
        dec = Decomposition(imfs=[np.zeros(50)], residue=np.zeros(50), noise_floor=5e-324)
        path, report = tmp_path / "dec.csv", tmp_path / "r.json"
        write_decomposition_csv(dec, path, 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["apen", path, "-o", report]) == 0
        assert read_report(report)["apen_table"]["per_imf"][0]["apen"] == 0.0

    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-160, 1e200, 1e300])
    def test_denoise_at_any_amplitude_exit_0(self, tmp_path, scale):
        # squares of these records under- or overflow, but every sum of
        # squares is taken at unit scale: the scale-1 flags give the scale-1
        # gate decisions and output, up to the rounding of a decimal scale
        # (and of subnormal samples at 1e-310)
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        outputs, flags = [], []
        for s in (1.0, scale):
            sig, out, report = tmp_path / "sig.csv", tmp_path / "out.csv", tmp_path / "r.json"
            write_signal_csv(noisy.with_samples(s * noisy.samples), sig)
            argv = ["denoise", sig, "--seed", 1, "--ensemble-size", 10, "-o", out,
                    "--report", report]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(argv) == 0
            outputs.append(read_signal_csv(out).samples / s)
            flags.append([row["flagged"] for row in read_report(report)["apen_table"]["per_imf"]])
        assert flags[1] == flags[0] and any(flags[0])
        np.testing.assert_allclose(outputs[1], outputs[0], rtol=0,
                                   atol=1e-12 * np.abs(outputs[0]).max())

    def test_denoise_overflowing_std_exit_2(self, tmp_path, capsys):
        # at 2**1021 a stage's sum over 10 members could overflow: refused
        # before any work, naming float64, without a numpy warning
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        sig = tmp_path / "sig.csv"
        write_signal_csv(noisy.with_samples(np.ldexp(noisy.samples, 1021)), sig)
        out = tmp_path / "out.csv"
        argv = ["denoise", sig, "--seed", 1, "--ensemble-size", 10, "-o", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "float64" in err
        assert "NaN" not in err and "Inf" not in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_sample_times_exit_2(self, tmp_path, capsys):
        # 1 / 1e-307 is finite but the 40th sample time, 39 / 1e-307, is not
        samples = np.sin(0.7 * np.arange(40))
        with pytest.raises(InvalidSignalError, match=r"sample_rate_hz=1e-307 .* 40 samples"):
            Signal(samples, 1e-307)
        with pytest.raises(InvalidSignalError):
            Signal(samples[:2], 1e-307).with_samples(samples)
        sig, out = tmp_path / "sig.csv", tmp_path / "dec.csv"
        sig.write_text("# sample_rate_hz=1e-307\n" + "".join(f"{v!r}\n" for v in samples.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["decompose", sig, "--method", "emd", "-o", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "sample_rate_hz=1e-307" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["metrics", tmp_path / "no.csv", tmp_path / "no.csv"]) == 2

    def test_unknown_subcommand_exit_1(self):
        assert run(["frobnicate"]) == 1

    def test_bad_flag_value_exit_1(self, tmp_path):
        sig = tmp_path / "sig.csv"
        run(["synth", "-o", sig])
        assert run(["decompose", sig, "--method", "nope", "-o", tmp_path / "d.csv"]) == 1


class TestBench:
    def test_small_bench_shape(self, tmp_path):
        out = tmp_path / "table.json"
        assert run(["bench", "--seeds", 2, "--snr-db", 5, "-o", out]) == 0
        table = json.loads(out.read_text())
        for key in ("original", "iceemd_de", "wavelet"):
            assert {"snr_mean", "snr_std", "rmse_mean", "rmse_std"} <= set(table[key])
        assert table["original"]["snr_mean"] == pytest.approx(5.0, abs=1e-6)
        assert table["config_echo"]["seeds"] == 2

    def test_zero_seeds_usage_error(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert run(["bench", "--seeds", 0, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err == "error: usage: --seeds must be >= 1\n"
        assert not out.exists()


class TestConfigErrors:
    def test_bad_ensemble_size_single_line(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        run(["synth", "-o", sig])
        code = run(
            [
                "decompose", sig, "--method", "iceemd", "--ensemble-size", 0,
                "--seed", 1, "-o", tmp_path / "d.csv",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1

    def test_ruinous_epsilon0(self, tmp_path, capsys):
        # refused before the first stage's noise overflows: no RuntimeWarning,
        # and a config error rather than a data error about NaN or Inf
        sig, out = tmp_path / "sig.csv", tmp_path / "out.csv"
        run(["synth", "-o", sig])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["denoise", sig, "--ensemble-size", 3, "--epsilon0", "1e308",
                        "--seed", 0, "-o", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: epsilon0=1e+308") and err.count("\n") == 1
        assert not out.exists()

    def test_too_few_samples_for_synth(self, tmp_path, capsys):
        code = run(["synth", "--fs", 10, "--duration", 1, "-o", tmp_path / "x.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config:")


class TestNonFiniteFlags:
    """Flag values the config validators must refuse: exit 1, one line."""

    @pytest.fixture
    def files(self, tmp_path):
        sig, dec = tmp_path / "sig.csv", tmp_path / "dec.csv"
        run(["synth", "-o", sig])
        run(["decompose", sig, "--method", "emd", "-o", dec])
        return sig, dec

    @pytest.mark.parametrize("command, flags, names", [
        ("synth", ["--fs", "inf"], "sample_rate_hz"),
        ("synth", ["--duration", "inf"], "duration_s"),
        ("synth", ["--fs", "nan"], "sample_rate_hz"),
        ("synth", ["--fs", "-1000", "--duration", "-1"], "sample_rate_hz"),
        ("synth", ["--fs", "1e300", "--duration", "1e300"], "overflows"),
        ("denoise", ["--epsilon0", "inf"], "epsilon0"),
        ("denoise", ["--epsilon0", "nan"], "epsilon0"),
        ("denoise", ["--apen-threshold", "nan"], "apen_threshold"),
        ("apen", ["--tolerance-factor", "0"], "tolerance_factor"),
        ("apen", ["--tolerance-factor", "-0.15"], "tolerance_factor"),
        ("apen", ["--tolerance-factor", "nan"], "tolerance_factor"),
        ("apen", ["--tolerance-factor", "inf"], "tolerance_factor"),
        ("apen", ["--threshold", "nan"], "threshold"),
        ("synth", ["--snr-db", "nan", "--seed", "1"], "snr_db"),
        ("synth", ["--snr-db", "inf", "--seed", "1"], "snr_db"),
        ("bench", ["--seeds", "1", "--snr-db", "nan"], "snr_db"),
        ("bench", ["--seeds", "1", "--snr-db", "inf"], "snr_db"),
        ("synth", ["--snr-db=1e308", "--seed", "1"], "snr_db"),
        ("synth", ["--snr-db=-1e308", "--seed", "1"], "snr_db"),
        ("bench", ["--seeds", "1", "--snr-db=1e308"], "snr_db"),
    ], ids=[
        "synth-fs-inf", "synth-duration-inf", "synth-fs-nan", "synth-negative-grid",
        "synth-grid-overflow", "denoise-epsilon0-inf", "denoise-epsilon0-nan",
        "denoise-apen-threshold-nan", "apen-tolerance-factor-0",
        "apen-tolerance-factor-negative", "apen-tolerance-factor-nan",
        "apen-tolerance-factor-inf", "apen-threshold-nan", "synth-snr-db-nan",
        "synth-snr-db-inf", "bench-snr-db-nan", "bench-snr-db-inf",
        "synth-snr-db-1e308", "synth-snr-db-minus-1e308", "bench-snr-db-1e308",
    ])
    def test_config_error_exit_1(self, files, tmp_path, capsys, command, flags, names):
        sig, dec = files
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", *flags, "-o", out],
            "denoise": ["denoise", sig, *flags, "--seed", 0, "-o", out],
            "apen": ["apen", dec, *flags, "-o", out],
            "bench": ["bench", *flags, "-o", out],
        }[command]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert names in err
        assert not out.exists()


# a file body: arbitrary bytes, or text made of what CSV numbers and
# headers are made of, so that some bodies parse and some do not, or a
# well-formed column of any finite float64 values, up to +-max and subnormal
file_bodies = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.-+eEinfa,# =\n\r\t", max_size=200).map(str.encode),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40).map(
        lambda values: "".join(f"{v!r}\n" for v in values).encode()
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    header=st.sampled_from([
        b"# sample_rate_hz=1000\n", b"# sample_interval_s=0.001\n",
        b"# sample_rate_hz=1e-307\n", b"# sample_interval_s=1e307\n",
    ]),
    body=file_bodies,
    other=file_bodies,
)
def test_cli_exit_contract_on_any_file(tmp_path_factory, header, body, other):
    # whatever a signal file holds, a command exits 0 or 2, and a refusal
    # is one stderr line; the readers refuse a non-finite value themselves,
    # so no refusal blames "NaN or Inf" met on the way. A warning on the
    # way, numpy's or another, fails too. apen reads the same body under a
    # decomposition's column row
    folder = tmp_path_factory.mktemp("any")
    path, other_path, out = folder / "sig.csv", folder / "other.csv", folder / "dec.csv"
    dec_path, apen_out = folder / "in_dec.csv", folder / "apen.json"
    path.write_bytes(header + body)
    other_path.write_bytes(header + other)
    dec_path.write_bytes(header + b"t,imf1,residue\n" + body)
    for argv in (
        ["decompose", path, "--method", "emd", "-o", out], ["metrics", path, other_path],
        ["apen", dec_path, "-o", apen_out],
    ):
        stderr = io.StringIO()
        with (
            contextlib.redirect_stderr(stderr),
            contextlib.redirect_stdout(io.StringIO()),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error")
            code = run(argv)
        assert code in (0, 2)
        if code == 2:
            assert stderr.getvalue().count("\n") == 1
            assert "NaN or Inf" not in stderr.getvalue()
