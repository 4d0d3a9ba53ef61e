"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 config/parse/I-O error,
3 numerical failure (fit, calibration, or g2 normalization).
All numeric output files are CSV with documented headers; every run
writes a manifest.json recording the inputs and the produced files
(timestamps live only in the manifest, so reruns with the same config
and seed are byte-identical elsewhere).

Each parser declares only the flags its handler reads (`--shots` only on
simulate, area-sweep and protocols); `main` loads the config once, and
the manifest records the shots that ran and the config text's sha256.

The module level imports only the standard library: each handler imports
the spinshot modules it calls, so `fit` and `g2` never load the
simulator stack or the config reader.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Rated maxima of the count flags, checked before anything is allocated.
# protocols at MAX_SHOTS peaks at 0.3 GB RSS and runs 2 minutes (2-core
# x86 VM); an area-sweep point takes about 4 ms per 20000 shots at
# paper.cfg, whatever eta_detect, and 10 ms where flips are dense
# (a = b = 0.3).  g2's pair count costs records x lags: at MAX_LAGS a
# fully occupied 10-shot x 10^4-pulse records file (10^5 cells, every lag
# in reach) takes 10 s at 40 MB RSS, and 1000 lags take 2.3 s.
MAX_SHOTS = 10**6
MAX_POINTS = 1000
MAX_LAGS = 10**4
_DP_CAPACITY = " (the exact-DP capacity, readout.CAPACITY_PULSES)"  # --n-pulses/--n-max

# `protocols`: sweep grid (np.linspace arguments), fit model and its
# component count per protocol
PROTOCOLS = {
    "t1": ((0.0, 2.2, 24), "exp_decay", None),           # s
    "odmr": ((-6.0, 6.0, 49), "gaussian_sum", 3),        # MHz around the drive
    "rabi": ((0.05, 20.0, 120), "damped_sine", None),    # us
    "echo": ((0.0, 120.0, 30), "gaussian_echo", None),   # us total evolution
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _check_flag(flag: str, value, high=math.inf, high_is="", interval=None):
    """Usage error, with the check's message, unless a flag is unset or
    passes check_range over ``interval`` or, without one, check_count from
    1 to ``high`` (``high_is``, added past high, names it)."""
    from .estimators import InvalidConfigError, check_count, check_range
    try:
        if value is not None and interval:
            check_range(flag, value, *interval)
        elif value is not None:
            check_count(flag, value, 1, high)
    except InvalidConfigError as exc:
        raise UsageError(f"{exc}{high_is if value > high else ''}") from None


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class OutputDir:
    """Collects output files and writes the closing manifest."""

    def __init__(self, path: str):
        self.root = path
        os.makedirs(path, exist_ok=True)
        self.files: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def record(self, name: str) -> str:
        self.files.append(name)
        return self.path(name)

    def write_text(self, name: str, text: str):
        with open(self.record(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def write_manifest(self, **fields):
        fields["outputs"] = sorted(self.files)
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(fields, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _shots_flag(parser, default: int):
    parser.add_argument("--shots", type=int, default=default,
                        help=f"Monte Carlo shots, at most {MAX_SHOTS} "
                             f"(default {default})")


def build_parser() -> _Parser:
    from .estimators import MODEL_KINDS

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="random seed (default 0)")
    common.add_argument("--out-dir", default="spinshot-out",
                        help="output directory (default ./spinshot-out)")
    common.add_argument("--format", choices=("csv", "report"), default="report",
                        help="csv: data files only; report: also a text report")
    # every command but fit and g2 reads a config
    configured = _Parser(add_help=False, parents=[common])
    configured.add_argument("--config", default="paper.cfg",
                            help="config file (falls back to packaged presets)")

    parser = _Parser(prog="spinshot",
                     description="Cavity-enhanced single-spin readout toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("levels", parents=[configured],
                       help="optical transition frequencies for a config")

    p = sub.add_parser("readout-optimize", parents=[configured],
                       help="scan pulse number and threshold for best fidelity")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=150)

    p = sub.add_parser("simulate", parents=[configured],
                       help="Monte Carlo run of a pulse-sequence file")
    p.add_argument("sequence", help="sequence DSL file")
    _shots_flag(p, 1000)

    p = sub.add_parser("fit", parents=[common],
                       help="least-squares fit of a CSV series")
    p.add_argument("series", help="CSV with columns x,y[,sigma]")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--components", type=int, default=3,
                   help="components for gaussian_sum (default 3)")

    p = sub.add_parser("g2", parents=[common],
                       help="pulsed autocorrelation of a photon-records file")
    p.add_argument("records", help="event file: shot_id pulse_index timestamp origin")
    p.add_argument("--lags", type=int, default=20,
                   help=f"cross lags used for normalization, at most {MAX_LAGS} "
                        "(default 20)")

    p = sub.add_parser("area-sweep", parents=[configured],
                       help="cyclicity and fidelity vs excitation pulse area")
    p.add_argument("--area-min", type=float, default=0.1)
    p.add_argument("--area-max", type=float, default=1.0)
    p.add_argument("--points", type=int, default=10,
                   help=f"area grid points, at most {MAX_POINTS} (default 10)")
    _shots_flag(p, 20000)
    p.add_argument("--flip-slope", type=float, default=0.0,
                   help="extra bright-state flip probability per unit area")

    p = sub.add_parser("calibrate", parents=[configured],
                       help="invert the flip asymmetry for a target fidelity")
    p.add_argument("--target-f", type=float, default=None,
                   help="target fidelity (default: [readout] target_fidelity)")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--n-pulses", type=int, default=None,
                   help="pulse count (default: [readout] n_pulses)")

    p = sub.add_parser("protocols", parents=[configured],
                       help="T1, ODMR, Rabi and echo curves, each with its fit")
    _shots_flag(p, 5000)

    return parser


# ---------------------------------------------------------------------------
# handlers (return the report text)
# ---------------------------------------------------------------------------

def _cmd_levels(args, cfg, out: OutputDir) -> str:
    from .config import cavity_config, emitter_config, zeeman_config
    from .estimators import write_csv
    from .physics import cavity_linewidth, effective_lifetime, zeeman_transitions

    em, cav, z = emitter_config(cfg), cavity_config(cfg), zeeman_config(cfg)
    levels = zeeman_transitions(em, z)
    kappa = cavity_linewidth(cav)
    by_label = levels.by_label()
    write_csv(out.record("levels.csv"), "label,frequency_ghz",
              by_label.keys(), by_label.values())
    report = [
        f"optical transitions at B = {z.magnetic_field_t:g} T "
        f"(axis {z.field_axis}):",
    ]
    for label, freq in levels.by_label().items():
        report.append(f"  {label} = {freq:.12g} GHz")
    report += [
        f"ground splitting:  {levels.ground_splitting_ghz:.6g} GHz",
        f"excited splitting: {levels.excited_splitting_ghz:.6g} GHz",
        f"A-D splitting:     "
        f"{levels.freq_a_ghz - levels.freq_d_ghz:.6g} GHz",
        f"cavity linewidth:  {kappa:.6g} GHz",
        f"effective lifetime on resonance: "
        f"{effective_lifetime(em, cav, 0.0):.6g} us",
    ]
    return "\n".join(report) + "\n"


def _cmd_readout_optimize(args, cfg, out: OutputDir) -> str:
    from dataclasses import replace

    from .config import readout_params
    from .readout import (CAPACITY_PULSES, dark_count_penalty, format_fidelity_report,
                          optimize_readout, readout_report)

    _check_flag("--n-max", args.n_max, CAPACITY_PULSES, _DP_CAPACITY)
    _check_flag("--n-min", args.n_min, args.n_max)
    params = readout_params(cfg, n_pulses=args.n_max)
    result = optimize_readout(params, (args.n_min, args.n_max))
    result.to_csv(out.record("fidelity_vs_n.csv"))
    best = replace(params, n_pulses=result.n_star)
    report_obj = readout_report(best, result.threshold_star)
    penalty = dark_count_penalty(best, result.threshold_star)
    lines = [
        f"scanned N = {args.n_min}..{args.n_max}, thresholds 1..N",
        f"best pulse number: {result.n_star}",
        f"best threshold:    {result.threshold_star}",
        f"best fidelity:     {result.f_star:.12g}",
        "",
        format_fidelity_report(report_obj).rstrip("\n"),
        f"dark-count penalty at threshold "
        f"{result.threshold_star}: {penalty:.12g}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_simulate(args, cfg, out: OutputDir) -> str:
    from .config import (ConfigError, bath_params, cavity_config, emitter_config,
                         microwave_settings, readout_params)
    from .montecarlo import run_timeline
    from .physics import effective_lifetime
    from .readout import CapacityError
    from .sequence import compile_sequence, duration_report, parse_sequence

    with open(args.sequence, "r", encoding="utf-8") as fh:
        text = fh.read()
    program = parse_sequence(text, filename=args.sequence)
    em, cav = emitter_config(cfg), cavity_config(cfg)
    timeline = compile_sequence(program)
    # the gates come from the sequence and no DP runs: n_pulses, gate_window_us unread
    params = readout_params(cfg, n_pulses=1, gate_window=0.0)
    bath = bath_params(cfg)
    mw = microwave_settings(cfg)
    try:
        run = run_timeline(
            timeline, params, bath, shots=args.shots, seed=args.seed,
            emission_lifetime_us=effective_lifetime(em, cav, 0.0),
            mw_rabi_khz=mw["mw_rabi_khz"],
            spectral_diffusion_fwhm_mhz=em.spectral_diffusion_fwhm_mhz)
    except CapacityError as exc:
        raise ConfigError(f"{cfg.origin}: [detection] dark_rate_hz: {exc}") from exc
    run.histogram.to_csv(out.record("counts.csv"))
    run.records.to_file(out.record("events.txt"))
    durations = duration_report(program)
    lines = [
        f"sequence: {args.sequence}",
        f"events: {len(timeline.start_us)}   detection gates: {run.gate_count}",
        f"total duration: {durations.total_ms:.12g} ms",
        f"shots: {args.shots}   seed: {args.seed}",
        f"mean detected photons per shot: {run.histogram.mean():.12g}",
        f"detected events on file: {len(run.records)}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_fit(args, _cfg, out: OutputDir) -> str:
    _check_flag("--components", args.components)
    from .estimators import fit_model, format_fit_report, read_series_csv

    x, y, sigma = read_series_csv(args.series)
    kind = args.model
    result = fit_model(kind, x, y, sigma=sigma,
                       n_components=args.components if kind == "gaussian_sum" else None)
    _write_fit_csv(out.record("fit_params.csv"), result)
    return format_fit_report(result)


def _write_fit_csv(path, result):
    from .estimators import write_csv

    write_csv(path, "parameter,value,uncertainty", result.params.keys(),
              result.params.values(),
              [result.uncertainties[name] for name in result.params])


def _cmd_g2(args, _cfg, out: OutputDir) -> str:
    _check_flag("--lags", args.lags, MAX_LAGS)
    from .estimators import PhotonRecords, g2_pulsed, write_csv

    records = PhotonRecords.from_file(args.records)
    result = g2_pulsed(records, n_lags=args.lags)
    write_csv(out.record("g2.csv"), "lag,pair_rate", result.lags,
              result.pair_rates)
    return (f"events: {len(records)}   shots: {records.n_shots}   "
            f"pulses per shot: {records.n_pulses}\n"
            f"g2(0) = {result.g2_zero:.12g} "
            f"(normalized over lags 1..{int(result.lags[-1])})\n")


def _cmd_area_sweep(args, cfg, out: OutputDir) -> str:
    _check_flag("--points", args.points, MAX_POINTS)
    for flag, value in (("--area-min", args.area_min),
                        ("--area-max", args.area_max),
                        ("--flip-slope", args.flip_slope)):
        _check_flag(flag, value, interval=(-math.inf, math.inf, True, True))
    reach = max(abs(args.area_min), abs(args.area_max))
    if not math.isfinite(2.0 * reach * max(abs(args.flip_slope), 1.0)):
        raise UsageError("--area-min, --area-max and --flip-slope overflow "
                         "the area grid or a(area)")
    import numpy as np

    from .config import readout_params
    from .montecarlo import pulse_area_scan

    params = readout_params(cfg)
    areas = np.linspace(args.area_min, args.area_max, args.points)
    a0, b0 = params.flip_bright, params.flip_dark
    slope = args.flip_slope
    negative = np.flatnonzero(a0 + slope * areas < 0.0)
    if negative.size:
        raise UsageError(f"--flip-slope {slope:g} gives a(area) = {a0:.6g} + "
                         f"{slope:g}*area < 0 at area {areas[negative[0]]:g}")
    scan = pulse_area_scan(areas, params, slope, shots=args.shots,
                           seed=args.seed)
    scan.to_csv(out.record("area_sweep.csv"))
    finite = np.isfinite(scan.zeta)
    if finite.any():
        zeta_se = (scan.p_excite * scan.n0_se)[finite]
        zeta_line = (f"cyclicity range: {scan.zeta[finite].min():.6g}"
                     f"..{scan.zeta[finite].max():.6g} "
                     f"(largest SE {zeta_se.max():.3g})")
    else:
        zeta_line = ("cyclicity: no finite values (needs p_excite > 0, an "
                     "observed spin flip and a + b < 1)")
    lines = [
        f"areas: {areas[0]:g}..{areas[-1]:g} ({args.points} points)",
        f"flip model: a(area) = {a0:.6g} + {slope:.6g}*area, b = {b0:.6g}",
        zeta_line,
        f"fidelity range: {scan.f_min.min():.6g}..{scan.f_min.max():.6g}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_calibrate(args, cfg, out: OutputDir) -> str:
    from .config import readout_params, relaxation_constant
    from .estimators import write_csv
    from .readout import CALIBRATION_RANGES, CAPACITY_PULSES, calibrate_flip_asymmetry

    _check_flag("--n-pulses", args.n_pulses, CAPACITY_PULSES, _DP_CAPACITY)
    _check_flag("--target-f", args.target_f, interval=CALIBRATION_RANGES["target_f"])
    params = readout_params(cfg, n_pulses=args.n_pulses)
    _check_flag("--threshold", args.threshold, params.n_pulses)
    relaxation = relaxation_constant(cfg)
    target = args.target_f
    if target is None:
        target = cfg.bounded("readout", "target_fidelity", *CALIBRATION_RANGES["target_f"])
    cal = calibrate_flip_asymmetry(params, relaxation, target, args.threshold)
    write_csv(out.record("calibration.csv"), "a,b,asymmetry,achieved_f,f_max",
              [cal.a], [cal.b], [cal.asymmetry], [cal.achieved_f], [cal.f_max])
    return (
        f"relaxation constant: {relaxation:g} pulses\n"
        f"target fidelity: {target:.12g} at N={params.n_pulses}, "
        f"threshold {args.threshold}\n"
        f"flip_bright (a): {cal.a:.12g}\n"
        f"flip_dark  (b): {cal.b:.12g}\n"
        f"asymmetry s = a/(a+b): {cal.asymmetry:.12g}\n"
        f"achieved fidelity: {cal.achieved_f:.12g} "
        f"(model maximum {cal.f_max:.12g})\n")


def _cmd_protocols(args, cfg, out: OutputDir) -> str:
    import numpy as np

    from .config import bath_params, microwave_settings
    from .estimators import FitError, fit_model, format_fit_report
    from .montecarlo import run_protocol

    bath = bath_params(cfg)
    mw = microwave_settings(cfg)
    sections = []
    for name, (grid, kind, n_components) in PROTOCOLS.items():
        curve = run_protocol(name, np.linspace(*grid), bath, shots=args.shots,
                             seed=args.seed, **mw)
        curve.to_csv(out.record(f"{name}_curve.csv"))
        try:
            result = fit_model(kind, curve.x, curve.mean,
                               sigma=np.clip(curve.stderr, 1e-4, None),
                               n_components=n_components)
        except FitError as exc:
            raise FitError(f"{name}: {exc}", exc.diagnostics) from None
        _write_fit_csv(out.record(f"{name}_fit.csv"), result)
        sections.append(f"--- {name} ({name}_curve.csv, {name}_fit.csv) ---\n"
                        + format_fit_report(result))
    return "\n".join(sections)


_HANDLERS = {
    "levels": _cmd_levels,
    "readout-optimize": _cmd_readout_optimize,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "g2": _cmd_g2,
    "area-sweep": _cmd_area_sweep,
    "calibrate": _cmd_calibrate,
    "protocols": _cmd_protocols,
}


def main(argv=None) -> int:
    from .estimators import NumericalError

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage())
        shots = getattr(args, "shots", None)
        _check_flag("--shots", shots, MAX_SHOTS)
        started = _utc_now()
        config = getattr(args, "config", None)
        cfg = digest = None
        if config is not None:
            from .config import load_config
            cfg = load_config(config)
        out = OutputDir(args.out_dir)
        report = _HANDLERS[args.command](args, cfg, out)
        if args.format == "report":
            out.write_text("report.txt", report)
            sys.stdout.write(report)
        if cfg is not None:     # hashlib's pages stay off the handler's peak RSS
            import hashlib
            digest = hashlib.sha256(cfg.text.encode("utf-8")).hexdigest()
        out.write_manifest(
            command=args.command,
            seed=args.seed,
            shots=shots,
            version=__version__,
            started_at=started,
            finished_at=_utc_now(),
            config=config,
            config_sha256=digest,
        )
        return EXIT_OK
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:   # config, parse and compile errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
