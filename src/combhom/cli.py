"""Command-line interface: sweep, predict, verify.

Exit codes: 0 success, 1 validation/config error, 2 numerical-consistency
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import checks, engine, feynman
# preset_config stays bound here: the benchmark's setup step calls cli.preset_config.
from .config import (ENGINE_CHOICES, FORMAT_CHOICES, KEYS, PRESET_NAMES, RunConfig,
                     build_config, parse_config, preset_config)
from .engine import CoincidenceTrace, Engine
from .errors import ConfigError, NumericalConsistencyError
from .spectral import C_UM_PER_PS


def _format_csv(trace: CoincidenceTrace) -> str:
    lines = ["tau_ps,rate,normalized_rate"]
    for t, r, n in zip(trace.tau, trace.raw_rate, trace.normalized_rate):
        lines.append(f"{t:.12g},{r:.12g},{n:.12g}")
    return "\n".join(lines) + "\n"


def run_sweep(config: RunConfig, check_convergence: bool = True) -> CoincidenceTrace:
    """Run the configured sweep and write the trace plus sidecar metadata."""
    extra: dict = {}
    eng = Engine(config.setup, config.grid)
    trace = eng.sweep(config.sweep, direct=config.engine == "direct")
    if config.engine == "both":  # fft result, recorded against the direct reference
        direct = eng.sweep(config.sweep, direct=True)
        delta = float(np.abs(trace.normalized_rate - direct.normalized_rate).max())
        extra["direct_fft_sup_delta"] = delta

    if check_convergence:
        report = engine.convergence_report(config.setup, config.sweep, config.grid, trace)
        extra["convergence"] = {"delta_points": report.delta_points,
                                "delta_span": report.delta_span,
                                "tolerance": report.tolerance,
                                "passed": report.passed}
        if not report.passed:
            extra["convergence_warning"] = True
    else:
        extra["convergence"] = "skipped"

    meta = {"preset": config.preset, "engine": config.engine,
            "baseline_rate": trace.baseline_rate, **trace.metadata, **extra}
    if config.out_path:
        if config.out_format == "csv":
            with open(config.out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_format_csv(trace))
            with open(config.out_path + ".meta.json", "w", encoding="utf-8") as fh:
                json.dump(meta, fh, indent=2)
                fh.write("\n")
        else:
            payload = {"metadata": meta,
                       "tau_ps": trace.tau.tolist(),
                       "rate": trace.raw_rate.tolist(),
                       "normalized_rate": trace.normalized_rate.tolist()}
            with open(config.out_path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    return replace(trace, metadata=meta)


def run_predict(delta_phi: float, reflectivity: float, coherence_time: float,
                j_max: int, round_trip_time: float, equal_weights: bool,
                out=sys.stdout) -> list:
    predictions = feynman.predict_trace_skeleton(
        delta_phi, reflectivity, coherence_time, round_trip_time, j_max,
        equal_weights=equal_weights)
    out.write(f"{'j':>3} {'tau_ps':>9} {'relative_rate':>14} {'class':>6}\n")
    for p in predictions:
        tau_j = 0.5 * p.j * round_trip_time
        out.write(f"{p.j:>3} {tau_j:>9.4f} {p.relative_rate:>14.6f} "
                  f"{p.classification.value:>6}\n")
    return predictions


def run_verify(quick: bool = False, out=sys.stdout) -> int:
    failures = 0
    for name, check in checks.registry(quick):
        passed, detail = check()
        status = "PASS" if passed else "FAIL"
        out.write(f"{status} {name}: {detail}\n")
        failures += 0 if passed else 1
    out.write(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}\n")
    return 0 if failures == 0 else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="combhom",
                                     description="Coincidence-rate simulation for a "
                                                 "HOM interferometer with an intracavity etalon")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag whose dest is a config key sets that key, over the --config file's value
    sweep = sub.add_parser("sweep", help="run a delay sweep and write the trace")
    sweep.add_argument("--config", help="flat key = value config file")
    sweep.add_argument("--preset", choices=PRESET_NAMES)
    sweep.add_argument("--tau-start", dest="sweep.start", type=float)
    sweep.add_argument("--tau-end", dest="sweep.end", type=float)
    sweep.add_argument("--steps", dest="sweep.steps", type=int)
    sweep.add_argument("--grid", dest="grid.points", type=int, help="points per axis")
    sweep.add_argument("--span-sigma", dest="grid.span_sigma", type=float,
                       help="grid half-width in filter intensity sigmas")
    sweep.add_argument("--engine", choices=ENGINE_CHOICES)
    sweep.add_argument("--out", dest="output.path", help="output path")
    sweep.add_argument("--format", dest="output.format", choices=FORMAT_CHOICES)
    sweep.add_argument("--no-convergence", action="store_true",
                       help="skip the convergence self-test in the metadata")

    predict = sub.add_parser("predict", help="firing-scheme dip/peak/flat table")
    predict.add_argument("--delta-phi", type=float, required=True,
                         help="inter-pulse phase in rad")
    predict.add_argument("--reflectivity", type=float, default=0.9)
    predict.add_argument("--coherence-time", type=float, default=math.inf,
                         help="pump coherence time in ps")
    predict.add_argument("--j-max", type=int, default=6)
    predict.add_argument("--round-trip-time", type=float,
                         default=2.0 * 100.0 / C_UM_PER_PS)
    predict.add_argument("--equal-weights", action="store_true",
                         help="high-reflectivity limit with unit weights")

    verify = sub.add_parser("verify", help="run the oracle suite")
    verify.add_argument("--quick", action="store_true",
                        help="smaller grids, fewer presets")
    return parser


def _config_from_args(args) -> RunConfig:
    if not (args.config or args.preset):
        raise ConfigError("sweep needs --config or --preset")
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = parse_config(fh.read())
    values.update((key, value) for key, value in vars(args).items()
                  if key in KEYS and value is not None)
    return build_config(values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            config = _config_from_args(args)
            trace = run_sweep(config, check_convergence=not args.no_convergence)
            if not config.out_path:
                sys.stdout.write(_format_csv(trace))
            return 0
        if args.command == "predict":
            run_predict(args.delta_phi, args.reflectivity, args.coherence_time,
                        args.j_max, args.round_trip_time, args.equal_weights)
            return 0
        if args.command == "verify":
            return run_verify(quick=args.quick)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
