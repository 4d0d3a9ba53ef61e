"""Span and counter wrappers installed around spinshot's public functions.

The wrappers live in the benchmark, not in the program: ``installed()``
swaps each traced function for a timing wrapper in every ``spinshot``
module namespace that holds it (``cli`` binds names at import, so
patching only the defining module would let nested calls escape), and
restores the originals on exit.  Private helpers stay invisible.

A span's busy time is its wall duration; its self time is the busy time
minus the part covered by wrapped child calls.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """Per-job span totals and counters; one instance per traced job."""

    def __init__(self):
        self.stack = []                      # [name, child seconds]
        self.calls = defaultdict(int)
        self.returned = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)        # named counters
        self.durations = defaultdict(list)   # per-call seconds

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name, fn, before=None, after=None):
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before() if before else None
            self.stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, children = self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dt
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - children
                self.durations[name].append(dt)
            self.returned[name] += 1
            if after:
                after(self, bound(args, kwargs), result, state)
            return result

        return wrapper


# --- counters taken at the call boundaries -------------------------------

def _after_compile(tr, a, result, rss_before):
    tr.count["sequence.compile_sequence.events"] += len(result.events)
    tr.count["sequence.compile_sequence.rss_growth"] += _rss_bytes() - rss_before


def _after_run_timeline(tr, a, result, _):
    tr.count["montecarlo.run_timeline.event_shots"] += (
        len(a["timeline"].events) * a["shots"])
    if result.records is not None:
        tr.count["montecarlo.run_timeline.records"] += len(result.records)


def _after_readout_shots(tr, a, result, _):
    tr.count["montecarlo.simulate_readout_shots.shot_pulses"] += (
        a["shots"] * a["params"].n_pulses)


def _after_records_write(tr, a, result, _):
    tr.count["montecarlo.records_write.bytes"] += os.path.getsize(a["path"])


def _after_records_read(tr, a, result, _):
    tr.count["montecarlo.records_read.records"] += len(result)


def _after_count_distribution(tr, a, result, _):
    tr.count["readout.count_distribution.pulse_steps"] += a["params"].n_pulses
    if tr.active("readout.calibrate_flip_asymmetry"):
        tr.count["readout.calibrate_flip_asymmetry.dp_evals"] += 1


def _after_optimize(tr, a, result, _):
    # one bright-start and one dark-start chain, each to the top of the range
    tr.count["readout.optimize_readout.pulse_steps"] += 2 * int(a["n_range"][1])


def _after_fit_model(tr, a, result, _):
    tr.count["estimators.fit_model.iterations"] += result.iterations


# (span name, module, attribute, before, after); a dotted attribute names a
# method on a class of that module.
TARGETS = (
    ("config.load_config", "spinshot.config", "load_config", None, None),
    ("sequence.parse_sequence", "spinshot.sequence", "parse_sequence", None, None),
    ("sequence.compile_sequence", "spinshot.sequence", "compile_sequence",
     _rss_bytes, _after_compile),
    ("sequence.duration_report", "spinshot.sequence", "duration_report", None, None),
    ("montecarlo.run_timeline", "spinshot.montecarlo", "run_timeline",
     None, _after_run_timeline),
    ("montecarlo.simulate_readout_shots", "spinshot.montecarlo",
     "simulate_readout_shots", None, _after_readout_shots),
    ("montecarlo.pulse_area_scan", "spinshot.montecarlo", "pulse_area_scan",
     None, None),
    ("montecarlo.records_write", "spinshot.montecarlo", "PhotonRecords.to_file",
     None, _after_records_write),
    ("montecarlo.records_read", "spinshot.montecarlo", "PhotonRecords.from_file",
     None, _after_records_read),
    ("readout.count_distribution", "spinshot.readout", "count_distribution",
     None, _after_count_distribution),
    ("readout.optimize_readout", "spinshot.readout", "optimize_readout",
     None, _after_optimize),
    ("readout.calibrate_flip_asymmetry", "spinshot.readout",
     "calibrate_flip_asymmetry", None, None),
    ("readout.readout_report", "spinshot.readout", "readout_report", None, None),
    ("readout.fit_decay_constant", "spinshot.readout", "fit_decay_constant",
     None, None),
    ("estimators.fit_model", "spinshot.estimators", "fit_model",
     None, _after_fit_model),
    ("estimators.g2_pulsed", "spinshot.estimators", "g2_pulsed", None, None),
)


def _spinshot_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "spinshot" or name.startswith("spinshot."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its wrapper; restore the originals on exit."""
    undo = []
    modules = _spinshot_modules()
    try:
        for name, module_name, attr, before, after in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:                       # method on a class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(tracer.wrap(name, raw.__func__, before, after))
                else:
                    wrapped = tracer.wrap(name, raw, before, after)
                setattr(cls, meth, wrapped)
                undo.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))
        yield
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


# --- per-layer metrics -----------------------------------------------------

def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def job_metrics(tr: Tracer, output_bytes: int) -> dict:
    """Per-layer values of one traced job (name -> value); units from unit_of."""
    b, s, c, n = tr.busy, tr.self_time, tr.count, tr.calls
    fit_calls = n["estimators.fit_model"]
    return {
        "config.load_config.s": b["config.load_config"],
        "sequence.parse_sequence.s": b["sequence.parse_sequence"],
        "sequence.compile_sequence.s": b["sequence.compile_sequence"],
        "sequence.compile_sequence.events": c["sequence.compile_sequence.events"],
        "sequence.compile_sequence.events_per_s": _rate(
            c["sequence.compile_sequence.events"], b["sequence.compile_sequence"]),
        "sequence.compile_sequence.rss_growth_mb":
            c["sequence.compile_sequence.rss_growth"] / 2**20,
        "sequence.duration_report.s": b["sequence.duration_report"],
        "montecarlo.run_timeline.s": b["montecarlo.run_timeline"],
        "montecarlo.run_timeline.event_shots": c["montecarlo.run_timeline.event_shots"],
        "montecarlo.run_timeline.event_shots_per_s": _rate(
            c["montecarlo.run_timeline.event_shots"], b["montecarlo.run_timeline"]),
        "montecarlo.run_timeline.records": c["montecarlo.run_timeline.records"],
        "montecarlo.simulate_readout_shots.calls": n["montecarlo.simulate_readout_shots"],
        "montecarlo.simulate_readout_shots.s": b["montecarlo.simulate_readout_shots"],
        "montecarlo.simulate_readout_shots.shot_pulses_per_s": _rate(
            c["montecarlo.simulate_readout_shots.shot_pulses"],
            b["montecarlo.simulate_readout_shots"]),
        "montecarlo.pulse_area_scan.self_s": s["montecarlo.pulse_area_scan"],
        "montecarlo.records_write.s": b["montecarlo.records_write"],
        "montecarlo.records_write.bytes": c["montecarlo.records_write.bytes"],
        "montecarlo.records_read.s": b["montecarlo.records_read"],
        "montecarlo.records_read.records_per_s": _rate(
            c["montecarlo.records_read.records"], b["montecarlo.records_read"]),
        "readout.count_distribution.calls": n["readout.count_distribution"],
        "readout.count_distribution.s": b["readout.count_distribution"],
        "readout.count_distribution.pulse_steps":
            c["readout.count_distribution.pulse_steps"],
        "readout.optimize_readout.s": b["readout.optimize_readout"],
        "readout.optimize_readout.pulse_steps": c["readout.optimize_readout.pulse_steps"],
        "readout.calibrate_flip_asymmetry.self_s": s["readout.calibrate_flip_asymmetry"],
        "readout.calibrate_flip_asymmetry.dp_evals":
            c["readout.calibrate_flip_asymmetry.dp_evals"],
        "readout.readout_report.calls": n["readout.readout_report"],
        "readout.readout_report.self_s": s["readout.readout_report"],
        "readout.fit_decay_constant.calls": n["readout.fit_decay_constant"],
        "readout.fit_decay_constant.s": b["readout.fit_decay_constant"],
        "estimators.fit_model.calls": fit_calls,
        "estimators.fit_model.s": b["estimators.fit_model"],
        "estimators.fit_model.iterations": c["estimators.fit_model.iterations"],
        # no attempts means nothing was wasted
        "estimators.fit_model.ok_ratio": (tr.returned["estimators.fit_model"] / fit_calls
                                          if fit_calls else 1.0),
        "estimators.g2_pulsed.s": b["estimators.g2_pulsed"],
        "cli.main.s": b["cli.main"],
        "cli.main.self_s": s["cli.main"],
        "cli.output.bytes": output_bytes,
    }


# Counts that must repeat exactly for a fixed seed.
EXACT = (
    "sequence.compile_sequence.events",
    "montecarlo.run_timeline.event_shots",
    "montecarlo.run_timeline.records",
    "montecarlo.simulate_readout_shots.calls",
    "montecarlo.records_write.bytes",
    "readout.count_distribution.calls",
    "readout.count_distribution.pulse_steps",
    "readout.optimize_readout.pulse_steps",
    "readout.calibrate_flip_asymmetry.dp_evals",
    "readout.readout_report.calls",
    "readout.fit_decay_constant.calls",
    "estimators.fit_model.calls",
    "estimators.fit_model.iterations",
    "cli.output.bytes",
)

_PERCENTILES = (99.9, 99.0, 90.0)


def _nearest_rank(sorted_values, pct):
    k = max(math.ceil(pct / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[k]


def fit_latency(durations_s) -> dict:
    """p50 and the highest percentile with at least ten calls beyond it.

    With fewer than 20 calls no tail percentile qualifies and the tail is
    the median.
    """
    values = sorted(durations_s)
    if not values:
        return {"estimators.fit_model.p50_ms": 0.0, "estimators.fit_model.tail_ms": 0.0,
                "estimators.fit_model.tail_pct": 0.0,
                "estimators.fit_model.tail_samples": 0}
    tail_pct = next((p for p in _PERCENTILES
                     if len(values) * (1.0 - p / 100.0) >= 10), 50.0)
    return {
        "estimators.fit_model.p50_ms": 1e3 * _nearest_rank(values, 50.0),
        "estimators.fit_model.tail_ms": 1e3 * _nearest_rank(values, tail_pct),
        "estimators.fit_model.tail_pct": tail_pct,
        "estimators.fit_model.tail_samples": len(values),
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"
