"""The four benchmark workloads: seeded inputs, command jobs, output checks.

Each workload is a fixed job of ``spinshot`` subcommands run one after
another.  The first command of a job is its *main* command; the rest
are its *aux* commands.  Every command's outputs are checked against
the exact model; a check returns a list of ``(key, message)`` failures,
where the key names the property that was violated.
"""
from __future__ import annotations

import json
import math
import os
import re

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
Z_LIMIT = 5.0          # standard errors allowed between an MC mean and its exact value
G2_LIMIT = 0.1         # "well below 0.5": a single emitter gives ~0 plus dark-count pairs
README_SEQUENCE = """\
# excite on the readout line, collect, let the emitter relax
repeat 71 {
  pulse optical A 0.02us 1pi
  detect 3us
  wait 6.98us
}
pulse mw 3598.43MHz 2.3us 0deg    # ground-state pi rotation
"""
READOUT_PULSES = 71
GATE_US = 3.0
CYCLE_US = 0.02 + 3.0 + 6.98


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _report_number(report, pattern, cast=float):
    m = re.search(pattern, report)
    if m is None:
        raise ValueError(f"report line {pattern!r} not found")
    return cast(m.group(1))


def _csv_rows(path):
    lines = _read(path).strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _paper_config():
    from spinshot.config import load_config
    return load_config("paper.cfg")


def _detection_params(n_pulses=READOUT_PULSES):
    """Readout chain as the timeline executor sees it: a photon emitted at
    the end of a pulse counts only if it falls inside the following gate."""
    from dataclasses import replace

    from spinshot.config import cavity_config, emitter_config, readout_params
    from spinshot.physics import effective_lifetime

    cfg = _paper_config()
    params = readout_params(cfg, n_pulses=n_pulses)
    tau = effective_lifetime(emitter_config(cfg), cavity_config(cfg), 0.0)
    eta = params.eta_detect * (1.0 - math.exp(-GATE_US / tau))
    return replace(params, eta_detect=eta)


def _exact_mean_photons(n_pulses=READOUT_PULSES):
    from spinshot.readout import expected_trace

    params = _detection_params(n_pulses)
    dark = params.dark_rate * GATE_US * 1e-6 * n_pulses
    return float(expected_trace(params, "bright").sum()) + dark


def _event_rows(path):
    """(shot_id, pulse_index) columns of a photon-records file."""
    rows = [line.split() for line in _read(path).splitlines()
            if line.strip() and not line.startswith("#")]
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    data = np.array([(int(r[0]), int(r[1])) for r in rows], dtype=np.int64)
    return data[:, 0], data[:, 1]


def _check_counts_csv(out, fails):
    _, rows = _csv_rows(os.path.join(out, "counts.csv"))
    k = np.array([int(r[0]) for r in rows], dtype=float)
    p = np.array([float(r[1]) for r in rows])
    if abs(p.sum() - 1.0) > 1e-9:
        fails.append(("counts_sum", f"counts.csv sums to {p.sum():.12g}"))
    return k, p


def _check_timeline_report(out, fails, events, gates, duration_ms):
    """Event/gate counts and duration against the generator; returns
    (report, detected event rows) for the statistical checks."""
    report = _read(os.path.join(out, "report.txt"))
    got_events = _report_number(report, r"events: (\d+)", int)
    got_gates = _report_number(report, r"detection gates: (\d+)", int)
    got_ms = _report_number(report, r"total duration: (\S+) ms")
    if (got_events, got_gates) != (events, gates):
        fails.append(("event_count", f"report has {got_events} events / {got_gates} "
                                     f"gates, generator {events} / {gates}"))
    if not _close(got_ms, duration_ms, 1e-9):
        fails.append(("duration", f"report duration {got_ms} ms, generator "
                                  f"{duration_ms:.12g} ms"))
    shot_id, pulse = _event_rows(os.path.join(out, "events.txt"))
    on_file = _report_number(report, r"detected events on file: (\d+)", int)
    if on_file != shot_id.size:
        fails.append(("events_rows", f"events.txt has {shot_id.size} rows, "
                                     f"report says {on_file}"))
    return report, shot_id, pulse


def _check_mean(fails, mean, se, exact, what):
    z = (mean - exact) / se if se > 0 else math.inf
    if not abs(z) <= Z_LIMIT:
        fails.append(("mean", f"{what}: mean {mean:.6g} vs exact {exact:.6g} "
                              f"(z = {z:.3g})"))


def check_g2(out, job, ref):
    """g2 read what simulate wrote, and g2(0) is well below 0.5."""
    fails = []
    report = _read(os.path.join(out, "report.txt"))
    g2 = _report_number(report, r"g2\(0\) = (\S+)")
    events = _report_number(report, r"events: (\d+)", int)
    on_file = _report_number(_read(os.path.join(job, "simulate", "report.txt")),
                             r"detected events on file: (\d+)", int)
    if events != on_file:
        fails.append(("g2_events", f"g2 read {events} events, simulate wrote {on_file}"))
    if not g2 < G2_LIMIT:
        fails.append(("g2_zero", f"g2(0) = {g2} is not below {G2_LIMIT}"))
    return fails


class Step:
    """One command of a job: ``argv`` excludes --seed and --out-dir."""

    def __init__(self, name, command, argv, check):
        self.name = name
        self.command = command
        self.argv = argv
        self.check = check          # check(out_dir, job_dir, reference) -> fails


class _TimelineJob:
    """simulate a sequence file, then g2 on the photon records it wrote."""

    def steps(self, files, job):
        return [
            Step("simulate", "simulate",
                 [files["sequence"], "--shots", str(self.shots)], self.check_simulate),
            Step("g2", "g2", [os.path.join(job, "simulate", "events.txt")], check_g2),
        ]


# ---------------------------------------------------------------------------
# readout-sim: many shots of the README's 71-pulse readout sequence
# ---------------------------------------------------------------------------

class ReadoutSim(_TimelineJob):
    name = "readout-sim"
    why = ("timeline executor's per-shot loop on the README 71-pulse sequence at "
           "4000 shots, then g2 on its records; ROADMAP item 2 should show here")
    shots = 4000

    def make_inputs(self, seed, inputs):
        path = os.path.join(inputs, "readout.seq")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(README_SEQUENCE)
        return {"sequence": path}

    def reference(self, files):
        return {"mean": _exact_mean_photons()}

    def check_simulate(self, out, job, ref):
        fails = []
        report, _, _ = _check_timeline_report(
            out, fails, events=3 * READOUT_PULSES + 1, gates=READOUT_PULSES,
            duration_ms=(READOUT_PULSES * CYCLE_US + 2.3) * 1e-3)
        k, p = _check_counts_csv(out, fails)
        mean = _report_number(report, r"mean detected photons per shot: (\S+)")
        shots = _report_number(report, r"shots: (\d+)", int)
        var = float(p @ k**2) - float(p @ k) ** 2
        _check_mean(fails, mean, math.sqrt(max(var, 0.0) / shots), ref["mean"],
                    "photons per shot")
        return fails


# ---------------------------------------------------------------------------
# long-sequence: a ~2e5-event nested program at few shots
# ---------------------------------------------------------------------------

class LongSequence(_TimelineJob):
    name = "long-sequence"
    why = ("215k-event nested program at 2 shots: DSL compile, timeline memory and "
           "per-event cost, where shot vectorization cannot help")
    rounds = 1000
    shots = 2
    round_text = ("  pulse mw 0MHz 2.3us 0deg\n"
                  "  pulse optical D 0.02us 1pi\n"
                  "  repeat 71 {\n"
                  "    pulse optical A 0.02us 1pi\n"
                  "    detect 3us\n"
                  "    wait 6.98us\n"
                  "  }\n")

    def make_inputs(self, seed, inputs):
        path = os.path.join(inputs, "long.seq")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# MW pulse, D pump back to bright, 71 readout cycles\n"
                     f"repeat {self.rounds} {{\n{self.round_text}}}\n")
        return {"sequence": path}

    def reference(self, files):
        return {"round_mean": _exact_mean_photons()}

    def check_simulate(self, out, job, ref):
        fails = []
        per_round = 2 + 3 * READOUT_PULSES
        _, shot_id, pulse = _check_timeline_report(
            out, fails, events=self.rounds * per_round,
            gates=self.rounds * READOUT_PULSES,
            duration_ms=self.rounds * (2.3 + 0.02 + READOUT_PULSES * CYCLE_US) * 1e-3)
        _check_counts_csv(out, fails)
        # the D pump resets every round to bright, so round totals are i.i.d.
        rounds = pulse // READOUT_PULSES
        totals = np.bincount(shot_id * self.rounds + rounds,
                             minlength=self.shots * self.rounds)
        if totals.size != self.shots * self.rounds:
            fails.append(("event_index", "events.txt has gate indices beyond the program"))
            return fails
        se = float(np.std(totals, ddof=1)) / math.sqrt(totals.size)
        _check_mean(fails, float(totals.mean()), se, ref["round_mean"],
                    "photons per round")
        return fails


# ---------------------------------------------------------------------------
# readout-design: the exact DP alone
# ---------------------------------------------------------------------------

REFERENCE_FILE = os.path.join(HERE, "reference.json")


def _load_frozen():
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


class ReadoutDesign:
    name = "readout-design"
    why = ("exact count DP only: readout-optimize over N = 1..3000 and calibrate "
           "to F = 0.869 at N = 71 and N = 500; no MC engine, no sequence layer")
    n_max = 3000
    target = 0.869

    def make_inputs(self, seed, inputs):
        return {}

    def steps(self, files, job):
        return [
            Step("readout-optimize", "readout-optimize",
                 ["--n-max", str(self.n_max)], self.check_optimize),
            Step("calibrate-71", "calibrate", ["--target-f", str(self.target)],
                 self.check_calibrate),
            Step("calibrate-500", "calibrate",
                 ["--target-f", str(self.target), "--n-pulses", "500"],
                 self.check_calibrate),
        ]

    def reference(self, files):
        return _load_frozen()[f"readout-optimize --n-max {self.n_max}"]

    def check_optimize(self, out, job, ref):
        fails = []
        report = _read(os.path.join(out, "report.txt"))
        got = {
            "n_star": _report_number(report, r"best pulse number: (\d+)", int),
            "threshold_star": _report_number(report, r"best threshold:\s+(\d+)", int),
            "f_star": _report_number(report, r"best fidelity:\s+(\S+)"),
        }
        for key, value in got.items():
            if not _close(value, ref[key], 1e-9):
                fails.append(("optimum", f"{key} = {value}, frozen {ref[key]}"))
        _, rows = _csv_rows(os.path.join(out, "fidelity_vs_n.csv"))
        if len(rows) != self.n_max:
            fails.append(("rows", f"fidelity_vs_n.csv has {len(rows)} rows, "
                                  f"expected {self.n_max}"))
        return fails

    def check_calibrate(self, out, job, ref):
        from dataclasses import replace

        from spinshot.config import readout_params
        from spinshot.readout import count_distribution, readout_fidelity

        fails = []
        report = _read(os.path.join(out, "report.txt"))
        n = _report_number(report, r"at N=(\d+)", int)
        header, rows = _csv_rows(os.path.join(out, "calibration.csv"))
        row = dict(zip(header, map(float, rows[0])))
        if abs(row["achieved_f"] - self.target) > 1e-4:
            fails.append(("target", f"achieved_f {row['achieved_f']} misses "
                                    f"{self.target} by more than 1e-4"))
        cfg = _paper_config()
        relaxation = cfg.number("readout", "relaxation_constant")
        if not _close(row["a"] + row["b"], 1.0 / relaxation, 1e-9):
            fails.append(("a_plus_b", f"a + b = {row['a'] + row['b']:.12g}, "
                                      f"1/R = {1.0 / relaxation:.12g}"))
        params = replace(readout_params(cfg, n_pulses=n),
                         flip_bright=row["a"], flip_dark=row["b"])
        f = readout_fidelity(count_distribution(params, "bright"),
                             count_distribution(params, "dark"), 1).f_min
        if abs(f - row["achieved_f"]) > 1e-9:
            fails.append(("re_evaluated", f"F at (a, b) is {f:.12g}, file says "
                                          f"{row['achieved_f']:.12g}"))
        return fails


# ---------------------------------------------------------------------------
# characterize: area sweep (readout engine + fitter) and four curve fits
# ---------------------------------------------------------------------------

def _exp_decay(x, amplitude, tau, offset):
    return amplitude * np.exp(-x / tau) + offset


def _gaussian_echo(x, amplitude, t2, offset):
    return amplitude * np.exp(-((x / t2) ** 2)) + offset


def _damped_sine(x, amplitude, frequency, tau, phase, offset):
    return amplitude * np.exp(-x / tau) * np.cos(2 * np.pi * frequency * x + phase) + offset


def _gaussian_sum(x, **p):
    y = np.full_like(x, p["offset"])
    for i in (1, 2, 3):
        y += p[f"amplitude_{i}"] * np.exp(
            -0.5 * ((x - p[f"center_{i}"]) / p[f"sigma_{i}"]) ** 2)
    return y


# name -> (model, extra CLI args, x grid, truth, noise SD, formula)
SERIES = {
    "t1": ("exp_decay", [], (0.0, 2.0, 80),
           {"amplitude": 0.5, "tau": 0.44, "offset": 0.5}, 0.01, _exp_decay),
    "odmr": ("gaussian_sum", ["--components", "3"], (-10.0, 10.0, 201),
             {"amplitude_1": 0.1, "center_1": -3.3, "sigma_1": 1.0065,
              "amplitude_2": 0.2, "center_2": 0.0, "sigma_2": 1.0065,
              "amplitude_3": 0.1, "center_3": 3.3, "sigma_3": 1.0065,
              "offset": 0.05}, 0.006, _gaussian_sum),
    "rabi": ("damped_sine", [], (0.0, 20.0, 161),
             {"amplitude": 0.5, "frequency": 0.2174, "tau": 8.0,
              "phase": math.pi, "offset": 0.5}, 0.02, _damped_sine),
    "echo": ("gaussian_echo", [], (0.0, 150.0, 101),
             {"amplitude": 0.9, "t2": 48.0, "offset": 0.05}, 0.01, _gaussian_echo),
}


def write_series(seed, inputs):
    """Model formula plus Gaussian noise, independent of the MC engines."""
    rng = np.random.default_rng([seed, 0x5E1E5])
    paths = {}
    for name, (_, _, grid, truth, noise, formula) in SERIES.items():
        x = np.linspace(*grid)
        y = formula(x, **truth) + rng.normal(0.0, noise, x.size)
        path = os.path.join(inputs, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,sigma\n")
            for xi, yi in zip(x, y):
                fh.write(f"{xi:.12g},{yi:.12g},{noise:.12g}\n")
        paths[name] = path
    return paths


def _fit_params(out):
    _, rows = _csv_rows(os.path.join(out, "fit_params.csv"))
    return {r[0]: (float(r[1]), float(r[2])) for r in rows}


def check_fit(series, out):
    """Every fitted parameter within Z_LIMIT reported SDs of the truth."""
    model, _, _, truth, _, _ = SERIES[series]
    fitted = _fit_params(out)
    fails = []
    if model == "gaussian_sum":       # components are matched by center
        f_idx = sorted((k[7:] for k in fitted if k.startswith("center_")),
                       key=lambda i: fitted["center_" + i][0])
        t_idx = sorted((k[7:] for k in truth if k.startswith("center_")),
                       key=lambda i: truth["center_" + i])
        pairs = [(f"{stem}{fi}", f"{stem}{ti}") for fi, ti in zip(f_idx, t_idx)
                 for stem in ("amplitude_", "center_", "sigma_")]
        pairs.append(("offset", "offset"))
    else:
        pairs = [(k, k) for k in truth]
    if sorted(f for f, _ in pairs) != sorted(fitted):
        return [("fit_params", f"{series}: parameters {sorted(fitted)} do not match "
                               f"the model")]
    for f_name, t_name in pairs:
        value, sd = fitted[f_name]
        diff = value - truth[t_name]
        if f_name == "phase":
            diff = math.remainder(diff, 2 * math.pi)
        if not (sd > 0 and abs(diff) <= Z_LIMIT * sd):
            fails.append(("fit_recovery", f"{series}: {f_name} = {value:.6g} +- "
                                          f"{sd:.3g}, truth {truth[t_name]:.6g}"))
    return fails


class Characterize:
    name = "characterize"
    why = ("area-sweep (readout MC engine, histogram only, plus LM fits) and four "
           "fits of generated T1/ODMR/Rabi/echo series: readout engine and fitter")
    points = 20
    shots = 20000
    flip_slope = 0.004

    def make_inputs(self, seed, inputs):
        return write_series(seed, inputs)

    def steps(self, files, job):
        steps = [Step("area-sweep", "area-sweep",
                      ["--points", str(self.points), "--shots", str(self.shots),
                       "--flip-slope", str(self.flip_slope)], self.check_sweep)]
        for series, (model, extra, *_rest) in SERIES.items():
            steps.append(Step(f"fit-{series}", "fit",
                              [files[series], "--model", model, *extra],
                              lambda out, job_dir, ref, s=series: check_fit(s, out)))
        return steps

    def reference(self, files):
        from dataclasses import replace

        from spinshot.config import readout_params
        from spinshot.montecarlo import excitation_probability
        from spinshot.readout import readout_report

        params = readout_params(_paper_config())
        rows = []
        for area in np.linspace(0.1, 1.0, self.points):
            point = replace(params, p_excite=excitation_probability(area),
                            flip_bright=min(params.flip_bright + self.flip_slope * area,
                                            1.0))
            report = readout_report(point)
            rows.append((float(area), report.threshold, report.f_min))
        return {"rows": rows}

    def check_sweep(self, out, job, ref):
        fails = []
        header, rows = _csv_rows(os.path.join(out, "area_sweep.csv"))
        if len(rows) != len(ref["rows"]):
            return [("rows", f"area_sweep.csv has {len(rows)} rows, expected "
                             f"{len(ref['rows'])}")]
        col = {name: i for i, name in enumerate(header)}
        for row, (area, threshold, f_min) in zip(rows, ref["rows"]):
            if not _close(float(row[col["area"]]), area, 1e-9):
                fails.append(("area", f"area {row[col['area']]} != {area:.12g}"))
            if int(row[col["threshold"]]) != threshold:
                fails.append(("threshold", f"area {area:.6g}: threshold "
                                           f"{row[col['threshold']]} != {threshold}"))
            if not _close(float(row[col["f_min"]]), f_min, 1e-9):
                fails.append(("f_min", f"area {area:.6g}: f_min {row[col['f_min']]} "
                                       f"!= {f_min:.12g}"))
        return fails


WORKLOADS = {w.name: w for w in (ReadoutSim(), LongSequence(), ReadoutDesign(),
                                 Characterize())}
