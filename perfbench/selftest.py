#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one job of every workload in process, asserts that every check
passes on the real outputs, then feeds each check a corrupted copy
(shifted mean, perturbed optimum, missing CSV row, ...) and asserts that
the check reports the violated property, so that no check is vacuous.
It also asserts that BENCHMARK.json lists exactly the metrics run.py
reports.  Exits non-zero on the first failed assertion.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys

import run
import tracing
import workloads

SEED = 7


def edit(path, change):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    new = change(text)
    assert new != text, f"corruption left {path} unchanged"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new)


def scale_number(label, factor):
    """Multiply the number after ``label`` in a report."""
    def change(text):
        return re.sub(rf"({re.escape(label)}\s*)(\S+)",
                      lambda m: f"{m.group(1)}{float(m.group(2)) * factor:.12g}",
                      text, count=1)
    return change


def drop_line(index):
    def change(text):
        lines = text.splitlines(keepends=True)
        del lines[index]
        return "".join(lines)
    return change


def set_csv_cell(row, column, transform):
    def change(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        cells = lines[row].split(",")
        col = header.index(column) if isinstance(column, str) else column
        cells[col] = transform(cells[col])
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return change


def shift_fit_param(name, n_sd):
    def change(text):
        lines = text.splitlines()
        for i, line in enumerate(lines):
            param, value, sd = line.split(",")
            if param == name:
                lines[i] = f"{param},{float(value) + n_sd * float(sd):.12g},{sd}"
        return "\n".join(lines) + "\n"
    return change


def thin_emitter_events(text):
    """Drop every fourth photon and keep the report consistent with the file."""
    kept = [line for i, line in enumerate(text.splitlines(keepends=True))
            if line.startswith("#") or i % 4]
    return "".join(kept)


def fix_event_count(out):
    with open(os.path.join(out, "events.txt"), encoding="utf-8") as fh:
        rows = sum(1 for line in fh if not line.startswith("#"))
    edit(os.path.join(out, "report.txt"),
         lambda t: re.sub(r"detected events on file: \d+",
                          f"detected events on file: {rows}", t))


def thin_and_fix(out):
    edit(os.path.join(out, "events.txt"), thin_emitter_events)
    fix_event_count(out)


def on(file, change):
    return lambda out: edit(os.path.join(out, file), change)


# (workload, step, corruption of that step's output dir, key the check must report)
CORRUPTIONS = [
    ("readout-sim", "simulate",
     on("report.txt", scale_number("mean detected photons per shot:", 1.1)), "mean"),
    ("readout-sim", "simulate", on("events.txt", drop_line(-1)), "events_rows"),
    ("readout-sim", "simulate", on("counts.csv", drop_line(3)), "counts_sum"),
    ("readout-sim", "g2", on("report.txt", lambda t: re.sub(
        r"g2\(0\) = \S+", "g2(0) = 0.6", t)), "g2_zero"),
    ("long-sequence", "simulate", thin_and_fix, "mean"),
    ("long-sequence", "simulate", on("report.txt", scale_number("total duration:", 1.001)),
     "duration"),
    ("long-sequence", "simulate", on("report.txt", lambda t: t.replace(
        "events: 215000", "events: 214999")), "event_count"),
    ("readout-design", "readout-optimize",
     on("report.txt", scale_number("best fidelity:", 1 + 1e-6)), "optimum"),
    ("readout-design", "readout-optimize", on("fidelity_vs_n.csv", drop_line(-1)), "rows"),
    ("readout-design", "calibrate-71", on("calibration.csv", set_csv_cell(
        1, "achieved_f", lambda v: f"{float(v) + 2e-4:.12g}")), "target"),
    ("readout-design", "calibrate-500", on("calibration.csv", set_csv_cell(
        1, "a", lambda v: f"{float(v) * (1 + 1e-6):.12g}")), "a_plus_b"),
    ("readout-design", "calibrate-71", on("calibration.csv", set_csv_cell(
        1, "achieved_f", lambda v: f"{float(v) + 1e-6:.12g}")), "re_evaluated"),
    ("characterize", "area-sweep", on("area_sweep.csv", drop_line(5)), "rows"),
    ("characterize", "area-sweep", on("area_sweep.csv", set_csv_cell(
        4, "f_min", lambda v: f"{float(v) * (1 + 1e-6):.12g}")), "f_min"),
    ("characterize", "area-sweep", on("area_sweep.csv", set_csv_cell(
        4, "threshold", lambda v: str(int(v) + 1))), "threshold"),
    ("characterize", "fit-rabi", on("fit_params.csv", shift_fit_param("frequency", 6.0)),
     "fit_recovery"),
    ("characterize", "fit-odmr", on("fit_params.csv", shift_fit_param("center_2", -6.0)),
     "fit_recovery"),
]


def produce(wl, work):
    from spinshot import cli

    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    files = wl.make_inputs(SEED, inputs)
    job = os.path.join(work, "job")
    for step in wl.steps(files, job):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(run.cli_argv(step, SEED, os.path.join(job, step.name)))
        assert code == 0, f"{wl.name}/{step.name} exited {code}"
    return files, wl.reference(files), job


def check_metric_lists():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(run.END_TO_END)
    layer = list(tracing.job_metrics(tracing.Tracer(), 0))
    layer += list(tracing.fit_latency([])) + ["trace.overhead_s"]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(layer)
    for m in bench["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"]), m
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    print("BENCHMARK.json metric lists match run.py")


def main():
    check_metric_lists()
    root = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    try:
        for wl in workloads.WORKLOADS.values():
            files, ref, job = produce(wl, os.path.join(root, wl.name))
            for step in wl.steps(files, job):
                fails = run.check_step(step, os.path.join(job, step.name), job, ref)
                assert not fails, f"{wl.name}/{step.name} fails on real output: {fails}"
            cases = [c for c in CORRUPTIONS if c[0] == wl.name]
            for n, (_, step_name, corrupt, key) in enumerate(cases):
                bad = os.path.join(root, wl.name, f"bad{n}")
                shutil.copytree(job, bad)
                step = next(s for s in wl.steps(files, bad) if s.name == step_name)
                out = os.path.join(bad, step_name)
                corrupt(out)
                keys = {k for k, _ in run.check_step(step, out, bad, ref)}
                assert key in keys, (f"{wl.name}/{step_name}: corruption expected to "
                                     f"trip {key!r}, check reported {sorted(keys)}")
                print(f"{wl.name:<15} {step_name:<17} corrupted -> {key}")
                shutil.rmtree(bad)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"all {len(CORRUPTIONS)} corruptions caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
