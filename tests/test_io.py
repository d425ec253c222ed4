import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from iceemd import (
    ApEnConfig,
    Decomposition,
    EnsembleConfig,
    Signal,
    SignalFormatError,
    __version__,
    approximate_entropy,
    emd,
    iceemd,
)
from iceemd.cli import run_cli
from iceemd.io import (
    read_decomposition_csv,
    read_report,
    read_signal_csv,
    write_decomposition_csv,
    write_report,
    write_signal_csv,
)


def random_signal(n=100, seed=0, fs=10498.0):
    return Signal(np.random.default_rng(seed).standard_normal(n), fs)


class TestSignalCsv:
    def test_round_trip_lossless(self, tmp_path):
        sig = random_signal(n=257, fs=10498.0)
        path = tmp_path / "sig.csv"
        write_signal_csv(sig, path, label="field run")
        back = read_signal_csv(path)
        assert back.sample_rate_hz == sig.sample_rate_hz
        assert np.array_equal(back.samples, sig.samples)

    def test_field_style_header(self, tmp_path):
        path = tmp_path / "field.csv"
        values = np.random.default_rng(1).standard_normal(980)
        lines = ["# sample_rate_hz=10498"] + [f"{float(v):.17g}" for v in values]
        path.write_text("\n".join(lines) + "\n")
        sig = read_signal_csv(path)
        assert len(sig) == 980
        assert sig.sample_rate_hz == 10498.0

    def test_interval_header(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# sample_interval_s=0.001\n0\n1\n0\n")
        sig = read_signal_csv(path)
        assert sig.sample_rate_hz == pytest.approx(1000.0)
        assert sig.samples.tolist() == [0.0, 1.0, 0.0]

    def test_contradictory_rate_and_interval(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# sample_rate_hz=10498\n# sample_interval_s=4.0e-6\n0\n1\n0\n")
        with pytest.raises(SignalFormatError):
            read_signal_csv(path)

    def test_consistent_rate_and_interval(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# sample_rate_hz=1000\n# sample_interval_s=0.001\n0\n1\n0\n")
        assert read_signal_csv(path).sample_rate_hz == 1000.0

    def test_missing_metadata(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("0\n1\n0\n")
        with pytest.raises(SignalFormatError):
            read_signal_csv(path)

    def test_two_column_uniform(self, tmp_path):
        path = tmp_path / "sig.csv"
        rows = "\n".join(f"{i/1000.0!r},{v}" for i, v in enumerate([0.5, 1.5, -0.5, 2.0]))
        path.write_text("# sample_rate_hz=1000\n" + rows + "\n")
        sig = read_signal_csv(path)
        assert sig.samples.tolist() == [0.5, 1.5, -0.5, 2.0]

    def test_two_column_non_uniform(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# sample_rate_hz=1000\n0.000,1\n0.001,2\n0.005,3\n")
        with pytest.raises(SignalFormatError):
            read_signal_csv(path)

    def test_non_numeric_row_reports_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# sample_rate_hz=1000\n1.0\nbogus\n2.0\n")
        with pytest.raises(SignalFormatError) as err:
            read_signal_csv(path)
        assert "line 3" in str(err.value)

    def test_n_samples_mismatch(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# sample_rate_hz=1000\n# n_samples=5\n1\n2\n3\n")
        with pytest.raises(SignalFormatError):
            read_signal_csv(path)

    def test_non_finite_sample(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# sample_rate_hz=1000\n1\nnan\n3\n")
        with pytest.raises(SignalFormatError):
            read_signal_csv(path)

    def test_missing_file(self):
        with pytest.raises(OSError):
            read_signal_csv("/nonexistent/sig.csv")


class TestDecompositionCsv:
    def test_round_trip(self, tmp_path):
        sig = random_signal(n=128, seed=2, fs=1000.0)
        dec = emd(sig)
        path = tmp_path / "dec.csv"
        write_decomposition_csv(dec, path, sig.sample_rate_hz)
        back, rate = read_decomposition_csv(path)
        assert rate == 1000.0
        assert back.n_imfs == dec.n_imfs
        for a, b in zip(back.imfs, dec.imfs):
            assert np.array_equal(a, b)
        assert np.array_equal(back.residue, dec.residue)

    def test_noise_floor_round_trip(self, tmp_path):
        sig = random_signal(n=128, seed=4, fs=1000.0)
        dec = iceemd(sig, EnsembleConfig(ensemble_size=3, seed=5))
        assert dec.noise_floor > 0
        path = tmp_path / "dec.csv"
        write_decomposition_csv(dec, path, sig.sample_rate_hz)
        back, _ = read_decomposition_csv(path)
        assert back.noise_floor == dec.noise_floor

    def test_file_without_noise_floor_gets_plain_tolerance(self, tmp_path):
        # a decomposition CSV written before the noise floor was stored; the
        # sine's first modes are remnants with a std below the floor, so the
        # plain and the floored tolerance give different entropies
        sig = Signal(np.sin(2 * np.pi * 20 * np.arange(200) / 1000.0), 1000.0)
        dec = iceemd(sig, EnsembleConfig(ensemble_size=3, seed=0))
        path = tmp_path / "dec.csv"
        write_decomposition_csv(dec, path, sig.sample_rate_hz)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln for ln in lines if not ln.startswith("# noise_floor=")))
        back, _ = read_decomposition_csv(path)
        assert back.noise_floor == 0.0
        report_path = tmp_path / "apen.json"
        assert run_cli(["apen", str(path), "-o", str(report_path)]) == 0
        report = read_report(report_path)
        assert report["config_echo"]["noise_floor"] == 0.0
        cfg = ApEnConfig()
        plain = [approximate_entropy(imf, cfg) for imf in dec.imfs]
        assert [row["apen"] for row in report["apen_table"]["per_imf"]] == plain
        assert plain[0] != approximate_entropy(dec.imfs[0], cfg, dec.noise_floor)

    def test_empty_imf_columns(self, tmp_path):
        dec = Decomposition(imfs=[], residue=np.linspace(0, 1, 16))
        path = tmp_path / "dec.csv"
        write_decomposition_csv(dec, path, 500.0)
        header = [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        ][0]
        assert header == "t,residue"
        back, _ = read_decomposition_csv(path)
        assert back.n_imfs == 0

    def test_many_mode_column_count(self, tmp_path):
        rng = np.random.default_rng(3)
        imfs = [rng.standard_normal(32) for _ in range(6)]
        dec = Decomposition(imfs=imfs, residue=rng.standard_normal(32))
        path = tmp_path / "dec.csv"
        write_decomposition_csv(dec, path, 10498.0)
        header = [
            line for line in path.read_text().splitlines() if not line.startswith("#")
        ][0]
        assert header.split(",") == ["t"] + [f"imf{i}" for i in range(1, 7)] + ["residue"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("# sample_rate_hz=1000\nfoo,bar\n0,1\n")
        with pytest.raises(SignalFormatError):
            read_decomposition_csv(path)


BAD_RATES = ["0", "-5", "nan", "inf", "1e-320"]  # 1 / 1e-320 overflows
DEC_BODY = "t,imf1,residue\n0,1,2\n0.001,-1,2\n0.002,1,2\n"


class TestHeaderAndRows:
    """Both readers share one header parser and one row parser."""

    @pytest.mark.parametrize("rate", BAD_RATES)
    @pytest.mark.parametrize("reader, body", [
        (read_decomposition_csv, DEC_BODY),
        (read_signal_csv, "0\n1\n0\n"),
    ])
    def test_bad_rate_rejected_with_line(self, tmp_path, reader, body, rate):
        path = tmp_path / "file.csv"
        path.write_text(f"# label=x\n# sample_rate_hz={rate}\n" + body)
        with pytest.raises(SignalFormatError) as err:
            reader(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("reader, body", [
        (read_decomposition_csv, DEC_BODY),
        (read_signal_csv, "0\n1\n0\n"),
    ])
    def test_overflowing_interval_rejected_with_line(self, tmp_path, reader, body):
        path = tmp_path / "file.csv"
        path.write_text("# label=x\n# sample_interval_s=1e-320\n" + body)
        with pytest.raises(SignalFormatError, match="sample_interval_s") as err:
            reader(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("reader", [read_decomposition_csv, read_signal_csv])
    def test_non_utf8_rejected_with_line(self, tmp_path, reader):
        # lines end at \n, \r\n or \r, as text mode counts them
        path = tmp_path / "file.csv"
        path.write_bytes(b"# sample_rate_hz=1000\r\n0\r1\n0.\xff5\n")
        with pytest.raises(SignalFormatError, match="UTF-8") as err:
            reader(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("floor", ["-1", "nan", "inf", "abc"])
    def test_bad_noise_floor_rejected_with_line(self, tmp_path, floor):
        path = tmp_path / "dec.csv"
        path.write_text(f"# sample_rate_hz=1000\n# noise_floor={floor}\n" + DEC_BODY)
        with pytest.raises(SignalFormatError) as err:
            read_decomposition_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("n_samples", ["abc", "-3", "nan"])
    def test_bad_n_samples_rejected_with_line(self, tmp_path, n_samples):
        path = tmp_path / "sig.csv"
        path.write_text(f"# sample_rate_hz=1000\n# n_samples={n_samples}\n0\n1\n0\n")
        with pytest.raises(SignalFormatError, match="n_samples") as err:
            read_signal_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_decomposition_non_finite_row_rejected(self, tmp_path, value):
        path = tmp_path / "dec.csv"
        body = DEC_BODY.replace("0.001,-1,2", f"0.001,{value},2")
        path.write_text("# sample_rate_hz=1000\n" + body)
        with pytest.raises(SignalFormatError) as err:
            read_decomposition_csv(path)
        assert err.value.line == 4

    def test_decomposition_interval_header(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("# sample_interval_s=0.001\n" + DEC_BODY)
        _, rate = read_decomposition_csv(path)
        assert rate == pytest.approx(1000.0)

    def test_decomposition_no_rows(self, tmp_path):
        path = tmp_path / "dec.csv"
        path.write_text("# sample_rate_hz=1000\nt,residue\n")
        with pytest.raises(SignalFormatError):
            read_decomposition_csv(path)


# float64 edges: the extremes, the smallest subnormal and normal, -0.0
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
)
edge_floats = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@settings(max_examples=100, deadline=None)
@given(samples=arrays(np.float64, st.integers(1, 40), elements=edge_floats))
def test_signal_csv_round_trip_is_bit_exact(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("sig") / "sig.csv"
    write_signal_csv(Signal(samples, 1000.0), path)
    back = read_signal_csv(path)
    assert back.sample_rate_hz == 1000.0
    assert back.samples.tobytes() == samples.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n_imfs=st.integers(0, 3),
    noise_floor=st.sampled_from([0.0, 5e-324, 1e308]),
)
def test_decomposition_csv_round_trip_is_bit_exact(tmp_path_factory, data, n_imfs, noise_floor):
    n = data.draw(st.integers(1, 40), label="n")
    columns = [
        data.draw(arrays(np.float64, n, elements=edge_floats), label="column")
        for _ in range(n_imfs + 1)
    ]
    dec = Decomposition(imfs=columns[:-1], residue=columns[-1], noise_floor=noise_floor)
    path = tmp_path_factory.mktemp("dec") / "dec.csv"
    write_decomposition_csv(dec, path, 1000.0)
    back, rate = read_decomposition_csv(path)
    assert rate == 1000.0
    assert back.noise_floor == noise_floor
    assert [imf.tobytes() for imf in back.imfs] == [imf.tobytes() for imf in dec.imfs]
    assert back.residue.tobytes() == dec.residue.tobytes()


def test_writers_exact_bytes(tmp_path):
    # the text itself, not only the values it reads back as: header order,
    # the label's whitespace collapsed, %.17g numbers and \n line endings
    sig_path, dec_path = tmp_path / "sig.csv", tmp_path / "dec.csv"
    write_signal_csv(Signal([0.1, -0.0, 1 / 3], 10498.0), sig_path, label="  bolt \t run  two ")
    assert sig_path.read_bytes() == (
        b"# sample_rate_hz=10498\n"
        b"# n_samples=3\n"
        b"# label=bolt run two\n"
        b"# format_version=1\n"
        b"0.10000000000000001\n"
        b"-0\n"
        b"0.33333333333333331\n"
    )
    dec = Decomposition(
        imfs=[[-0.0, 5e-324], [2.2250738585072014e-308, 1.7976931348623157e308]],
        residue=[0.1, 1 / 3],
    )
    write_decomposition_csv(dec, dec_path, 1000.0)
    assert dec_path.read_bytes() == (
        b"# sample_rate_hz=1000\n"
        b"# noise_floor=0\n"
        + f"# tool_version={__version__}\n".encode()
        + b"# format_version=1\n"
        b"t,imf1,imf2,residue\n"
        b"0,-0,2.2250738585072014e-308,0.10000000000000001\n"
        b"0.001,4.9406564584124654e-324,1.7976931348623157e+308,0.33333333333333331\n"
    )


class TestReport:
    def test_round_trip(self, tmp_path):
        report = {
            "config_echo": {"seed": 7, "epsilon0": 0.2},
            "apen_table": {"threshold": 0.9, "per_imf": []},
            "metrics": {"snr_db": 12.25, "rmse": 0.174},
            "artifact_paths": ["out.csv"],
            "versions": {"tool": "0.1.0"},
        }
        path = tmp_path / "report.json"
        write_report(report, path)
        assert read_report(path) == report

    def test_infinity_round_trip(self, tmp_path):
        report = {"metrics": {"snr_db": float("inf"), "rmse": 0.0}}
        path = tmp_path / "report.json"
        write_report(report, path)
        assert read_report(path)["metrics"]["snr_db"] == float("inf")
