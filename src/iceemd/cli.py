"""Command-line front end.

Subcommands: synth, decompose, apen, denoise, bench, metrics. Every run
is deterministic given its flags; anything random requires an explicit
--seed. Exit codes: 0 success, 1 usage/config error, 2 data/format/IO
error. Errors print one machine-parsable line to stderr.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import __version__
from .benchmark import ENSEMBLE_SEED_OFFSET, run_benchmark
from .emd import emd
from .ensemble import EnsembleConfig, iceemd
from .entropy import ApEnConfig, apen_per_imf
from .errors import IceemdError, SignalFormatError
from .io import (
    FORMAT_VERSION,
    read_decomposition_csv,
    read_signal_csv,
    write_decomposition_csv,
    write_report,
    write_signal_csv,
)
from .pipeline import DEFAULT_APEN_THRESHOLD, PipelineConfig, iceemd_de
from .signals import SynthConfig, add_noise_snr, rmse, snr, synth_signal
from .wavelet import SIGMA_ESTIMATORS, SUPPORTED_WAVELETS, DenoiseConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _report(path, config_echo, **sections) -> None:
    """Write a JSON report: config_echo, the sections in the order given,
    then the versions of the tool and of its file formats."""
    formats = ("signal_csv", "decomposition_csv", "report_json")
    versions = {"tool": __version__, "formats": dict.fromkeys(formats, FORMAT_VERSION)}
    write_report({"config_echo": config_echo, **sections, "versions": versions}, path)


def _apen_table(report) -> dict:
    return {
        "threshold": report.threshold,
        "per_imf": [
            {"imf_index": k + 1, "apen": value, "flagged": k in report.flagged}
            for k, value in report.per_imf
        ],
    }


def _metrics(reference, estimate) -> dict:
    return {"snr_db": snr(reference, estimate), "rmse": rmse(reference, estimate)}


def _ensemble_flags(p) -> None:
    p.add_argument("--ensemble-size", type=int, default=EnsembleConfig.ensemble_size)
    p.add_argument("--epsilon0", type=float, default=EnsembleConfig.epsilon0)


def _ensemble(args, **fields) -> EnsembleConfig:
    return EnsembleConfig(
        ensemble_size=args.ensemble_size, epsilon0=args.epsilon0, seed=args.seed, **fields
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="iceemd", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit the synthetic two-tone benchmark signal")
    p.set_defaults(run=_cmd_synth)
    p.add_argument(
        "--fs", type=float, default=SynthConfig.sample_rate_hz, help="sample rate in Hz"
    )
    p.add_argument("--duration", type=float, default=SynthConfig.duration_s, help="duration in s")
    p.add_argument("--snr-db", type=float, default=None, help="inject noise at this SNR")
    p.add_argument("--seed", type=int, default=None, help="noise seed")
    p.add_argument("-o", "--output", required=True, help="output signal CSV")

    p = sub.add_parser("decompose", help="decompose a signal CSV into IMFs")
    p.set_defaults(run=_cmd_decompose)
    p.add_argument("input", help="input signal CSV")
    p.add_argument("--method", choices=("emd", "iceemd"), default="iceemd")
    _ensemble_flags(p)
    p.add_argument("--max-modes", type=int, default=EnsembleConfig.max_modes)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True, help="output decomposition CSV")
    p.add_argument("--report", default=None, help="optional JSON report path")

    p = sub.add_parser("apen", help="approximate entropy of a decomposition CSV")
    p.set_defaults(run=_cmd_apen)
    p.add_argument("input", help="decomposition CSV")
    p.add_argument("--tolerance-factor", type=float, default=ApEnConfig.tolerance_factor)
    p.add_argument("--threshold", type=float, default=DEFAULT_APEN_THRESHOLD)
    p.add_argument("-o", "--output", required=True, help="output JSON report")

    p = sub.add_parser("denoise", help="run the full decompose-gate-denoise pipeline")
    p.set_defaults(run=_cmd_denoise)
    p.add_argument("input", help="input signal CSV")
    p.add_argument("--reference", default=None, help="clean reference CSV for SNR/RMSE")
    p.add_argument("--apen-threshold", type=float, default=DEFAULT_APEN_THRESHOLD)
    p.add_argument("--wavelet", choices=SUPPORTED_WAVELETS, default=DenoiseConfig.wavelet)
    p.add_argument("--levels", type=int, default=DenoiseConfig.levels)
    p.add_argument(
        "--sigma-estimator", choices=SIGMA_ESTIMATORS, default=DenoiseConfig.sigma_estimator
    )
    _ensemble_flags(p)
    p.add_argument("--seed", type=int, required=True, help="ensemble noise seed")
    p.add_argument("-o", "--output", required=True, help="output denoised signal CSV")
    p.add_argument("--report", default=None, help="optional JSON report path")

    p = sub.add_parser("bench", help="seeded denoising comparison on the benchmark signal")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--snr-db", type=float, default=5.0, help="input SNR")
    p.add_argument("--base-seed", type=int, default=0, help="first noise seed")
    p.add_argument("-o", "--output", required=True, help="output JSON table")

    p = sub.add_parser("metrics", help="print SNR and RMSE between two signal CSVs")
    p.set_defaults(run=_cmd_metrics)
    p.add_argument("reference")
    p.add_argument("estimate")
    return parser


def _cmd_synth(args) -> int:
    cfg = SynthConfig(sample_rate_hz=args.fs, duration_s=args.duration)
    signal = synth_signal(cfg)
    if args.snr_db is not None:
        if args.seed is None:
            raise UsageError("--snr-db requires --seed (no silent entropy)")
        signal = add_noise_snr(signal, args.snr_db, seed=args.seed)
    write_signal_csv(signal, args.output, label="synthetic two-tone benchmark")
    return 0


def _cmd_decompose(args) -> int:
    signal = read_signal_csv(args.input)
    if args.method == "iceemd":
        if args.seed is None:
            raise UsageError("--method iceemd requires --seed (no silent entropy)")
        cfg = _ensemble(args, max_modes=args.max_modes)
        dec = iceemd(signal, cfg)
        config_echo = {"method": "iceemd", "ensemble": asdict(cfg)}
    else:
        dec = emd(signal, max_modes=args.max_modes)
        config_echo = {"method": "emd", "max_modes": args.max_modes}
    config_echo.update(input=args.input, sample_rate_hz=signal.sample_rate_hz)
    write_decomposition_csv(dec, args.output, signal.sample_rate_hz)
    if args.report:
        _report(args.report, config_echo, apen_table=None, metrics=None,
                artifact_paths=[args.output])
    return 0


def _cmd_apen(args) -> int:
    dec, _rate = read_decomposition_csv(args.input)
    cfg = ApEnConfig(tolerance_factor=args.tolerance_factor)
    table = _apen_table(apen_per_imf(dec, cfg, threshold=args.threshold))
    config_echo = {
        "input": args.input,
        "apen": asdict(cfg),
        "threshold": args.threshold,
        "noise_floor": dec.noise_floor,
    }
    _report(args.output, config_echo, apen_table=table, metrics=None, artifact_paths=[])
    return 0


def _cmd_denoise(args) -> int:
    signal = read_signal_csv(args.input)
    cfg = PipelineConfig(
        ensemble=_ensemble(args),
        apen_threshold=args.apen_threshold,
        denoise=DenoiseConfig(
            wavelet=args.wavelet,
            levels=args.levels,
            sigma_estimator=args.sigma_estimator,
        ),
    )
    result = iceemd_de(signal, cfg)
    write_signal_csv(result.output, args.output, label="iceemd-de denoised")
    metrics = None
    if args.reference:
        metrics = _metrics(read_signal_csv(args.reference), result.output)
    if args.report:
        config_echo = {
            "input": args.input,
            "reference": args.reference,
            **asdict(cfg),
            "sample_rate_hz": signal.sample_rate_hz,
        }
        _report(args.report, config_echo, apen_table=_apen_table(result.apen_report),
                metrics=metrics, artifact_paths=[args.output])
    return 0


def _cmd_bench(args) -> int:
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    table = run_benchmark(
        n_seeds=args.seeds, input_snr_db=args.snr_db, base_seed=args.base_seed
    )
    config_echo = {
        "seeds": args.seeds,
        "snr_db": args.snr_db,
        "base_seed": args.base_seed,
        "ensemble_seed_offset": ENSEMBLE_SEED_OFFSET,
        "synth": asdict(SynthConfig()),
        **asdict(PipelineConfig()),
    }
    _report(args.output, config_echo, **table)
    return 0


def _cmd_metrics(args) -> int:
    reference = read_signal_csv(args.reference)
    for name, value in _metrics(reference, read_signal_csv(args.estimate)).items():
        print(f"{name}={value:.17g}")
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except SignalFormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 2
    except IceemdError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
