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
    add_noise_snr,
    synth_signal,
)
from iceemd.cli import run_cli
from iceemd.io import read_report, read_signal_csv, write_decomposition_csv, write_signal_csv


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

    def test_apen_overflowing_std_exit_2(self, tmp_path, capsys):
        imf = 1e307 * np.random.default_rng(0).standard_normal(50)
        dec = Decomposition(imfs=[imf], residue=np.zeros(50))
        path = tmp_path / "dec.csv"
        write_decomposition_csv(dec, path, 1000.0)
        assert run(["apen", path, "-o", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "overflow" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

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

    @pytest.mark.parametrize("scale", [1e-300, 1e-310])
    def test_denoise_underflowing_tolerance_exit_2(self, tmp_path, capsys, scale):
        # the std of these modes underflows, so their entropy tolerance is 0
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        sig = tmp_path / "sig.csv"
        write_signal_csv(noisy.with_samples(scale * noisy.samples), sig)
        out = tmp_path / "out.csv"
        argv = ["denoise", sig, "--seed", 1, "--ensemble-size", 10, "-o", out]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "underflow" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_denoise_overflowing_std_exit_2(self, tmp_path, capsys):
        # the input's std, and so the ensemble's noise scale, overflows
        noisy = add_noise_snr(synth_signal(), 5.0, seed=1)
        sig = tmp_path / "sig.csv"
        write_signal_csv(noisy.with_samples(1e300 * noisy.samples), sig)
        out = tmp_path / "out.csv"
        argv = ["denoise", sig, "--seed", 1, "--ensemble-size", 10, "-o", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "standard deviation" in err
        assert "overflows" in err and "NaN" not in err
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


# a file body: arbitrary bytes, or text made of what CSV numbers and
# headers are made of, so that some bodies parse and some do not
file_bodies = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.-+eEinfa,# =\n\r\t", max_size=200).map(str.encode),
)


@settings(max_examples=150, deadline=None)
@given(
    header=st.sampled_from([
        b"# sample_rate_hz=1000\n", b"# sample_interval_s=0.001\n",
        b"# sample_rate_hz=1e-307\n", b"# sample_interval_s=1e307\n",
    ]),
    body=file_bodies,
)
def test_cli_exit_contract_on_any_file(tmp_path_factory, header, body):
    # whatever a signal file holds, a command exits 0 or 2, and a refusal
    # is one stderr line; a numpy overflow on the way to exit 0 fails too
    folder = tmp_path_factory.mktemp("any")
    path, out = folder / "sig.csv", folder / "dec.csv"
    path.write_bytes(header + body)
    for argv in (["decompose", path, "--method", "emd", "-o", out], ["metrics", path, path]):
        stderr = io.StringIO()
        with (
            contextlib.redirect_stderr(stderr),
            contextlib.redirect_stdout(io.StringIO()),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv)
        assert code in (0, 2)
        if code == 2:
            assert stderr.getvalue().count("\n") == 1
