import json
from dataclasses import asdict

import numpy as np
import pytest

from iceemd import ApEnConfig, EnsembleConfig, PipelineConfig, synth_signal
from iceemd.cli import run_cli
from iceemd.io import read_report, read_signal_csv, write_signal_csv


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

    def test_apen_echoes_apen_defaults(self, tmp_path, short_signal):
        dec_path, rep_path = tmp_path / "dec.csv", tmp_path / "apen.json"
        assert run(["decompose", short_signal, "--method", "emd", "-o", dec_path]) == 0
        assert run(["apen", dec_path, "-o", rep_path]) == 0
        assert read_report(rep_path)["config_echo"]["apen"] == asdict(ApEnConfig())


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


class TestErrors:
    def test_format_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1\n2\n3\n")  # no sampling metadata
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
