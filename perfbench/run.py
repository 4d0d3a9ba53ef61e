#!/usr/bin/env python3
"""spinshot benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload readout-sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a fixed job of
``python -m spinshot.cli`` subcommands, run one after another as
subprocesses (closed loop, one client) and repeated until ``--seconds``
have passed; every output is checked against the exact model.

--trace 0  end-to-end metrics from the untraced subprocess jobs (medians
           over the jobs of the run) and the set-up time of fresh
           interpreters.
--trace 1  per-layer metrics: one untraced subprocess job as the output
           reference, then in-process ``spinshot.cli.main`` jobs that
           alternate untraced and traced (span wrappers from
           ``tracing.py``).  Every in-process job must write outputs
           byte-identical to the reference.

The last stdout line is the JSON result; the exit code is 0 only if
every command succeeded and every check passed.  See BENCHMARK.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PINNED_ENV = {"SPINSHOT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# pinned before numpy is first imported, here and in every child
os.environ.update(PINNED_ENV)
sys.path.insert(0, SRC)
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)
COMMAND_LIMIT_S = 150      # a hung command is killed and counted as failed
SETUP_PROBES_PER_JOB = 2   # spread over the run, so one noisy moment cannot dominate
SETUP_PROBES_MIN = 8
SETUP_PROBE = """\
import spinshot
from spinshot.config import (bath_params, cavity_config, emitter_config,
                             load_config, microwave_settings, readout_params,
                             zeeman_config)
cfg = load_config("paper.cfg")
for build in (emitter_config, cavity_config, zeeman_config, readout_params,
              bath_params, microwave_settings):
    build(cfg)
"""

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("main_s", "s"), ("aux_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def spawn(argv, stderr_path):
    """Run a child to completion; (seconds, exit code, peak RSS in MB)."""
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def digest_tree(out):
    """sha256 of every output file except the manifest (it holds timestamps)."""
    digests, size = {}, 0
    for name in sorted(os.listdir(out)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def check_step(step, out, job_dir, ref):
    try:
        return step.check(out, job_dir, ref)
    except Exception as exc:     # an unreadable output is a failed check
        return [("unreadable", f"{type(exc).__name__}: {exc}")]


class Job:
    """Timings, outcomes and output digests of one pass over a workload."""

    def __init__(self, steps):
        self.steps = steps
        self.seconds = []
        self.fails = []
        self.digests = []
        self.output_bytes = 0
        self.peak_rss_mb = 0.0
        self.wall = 0.0

    def finish(self, job_dir, ref, reference_digests):
        for i, step in enumerate(self.steps):
            out = os.path.join(job_dir, step.name)
            if not self.fails[i]:
                self.fails[i] = check_step(step, out, job_dir, ref)
            if os.path.isdir(out):
                digests, size = digest_tree(out)
                self.output_bytes += size
            else:
                digests = {}
            if reference_digests is not None and digests != reference_digests[i]:
                self.fails[i].append(("bytes", f"{step.name}: outputs differ from "
                                               f"the reference job's"))
            self.digests.append(digests)
        shutil.rmtree(job_dir, ignore_errors=True)
        return self

    def failed(self):
        return sum(1 for f in self.fails if f)


def cli_argv(step, seed, out):
    return [step.command, *step.argv, "--seed", str(seed), "--out-dir", out]


def subprocess_job(wl, files, job_dir, seed, ref, reference_digests):
    job = Job(wl.steps(files, job_dir))
    os.makedirs(job_dir)
    t0 = time.perf_counter()
    for step in job.steps:
        out = os.path.join(job_dir, step.name)
        err = os.path.join(job_dir, step.name + ".stderr")
        seconds, code, rss = spawn([sys.executable, "-m", "spinshot.cli",
                                    *cli_argv(step, seed, out)], err)
        job.seconds.append(seconds)
        job.peak_rss_mb = max(job.peak_rss_mb, rss)
        if code == 0:
            job.fails.append([])
        else:
            with open(err, errors="replace") as fh:
                job.fails.append([("exit", f"{step.name} exited {code}: "
                                           f"{fh.read()[-300:]!r}")])
    job.wall = time.perf_counter() - t0
    return job.finish(job_dir, ref, reference_digests)


def inprocess_job(wl, files, job_dir, seed, ref, reference_digests, tracer=None):
    from spinshot import cli

    job = Job(wl.steps(files, job_dir))
    main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    hooks = tracing.installed(tracer) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with hooks:
        for step in job.steps:
            sink = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(cli_argv(step, seed, os.path.join(job_dir, step.name)))
            job.seconds.append(time.perf_counter() - t)
            job.fails.append([] if code == 0 else
                             [("exit", f"{step.name} returned {code}: "
                                       f"{sink.getvalue()[-300:]!r}")])
    job.wall = time.perf_counter() - t0
    return job.finish(job_dir, ref, reference_digests)


# ---------------------------------------------------------------------------
# context recorded with every run
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout from .git files, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def reference_loop_s():
    """Fixed pure-numpy work; tracks machine speed, not the program."""
    a = np.random.default_rng(0).random(1 << 16)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(100):
            np.sort(a)
            np.cumsum(a)
            float(a @ a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def provenance():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "ref_loop_s": reference_loop_s(),
        "env": PINNED_ENV,
    }


def setup_probe(work):
    """Wall time of a fresh interpreter that imports spinshot and builds config."""
    seconds, code, _ = spawn([sys.executable, "-c", SETUP_PROBE],
                             os.path.join(work, "setup.stderr"))
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return seconds


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _loop(deadline, run_one):
    jobs = []
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_one(jobs))
    return jobs


def end_to_end(wl, files, work, seed, seconds, ref):
    # untimed warm-up: compiles .pyc files and touches every module
    spawn([sys.executable, "-m", "spinshot.cli", "levels", "--out-dir",
           os.path.join(work, "warmup")], os.path.join(work, "warmup.stderr"))
    deadline = time.perf_counter() + seconds
    setup = []

    def run_one(done):
        # every job of the run must write the same bytes as the first
        job = subprocess_job(wl, files, os.path.join(work, f"job{len(done)}"), seed,
                             ref, done[0].digests if done else None)
        setup.extend(setup_probe(work) for _ in range(SETUP_PROBES_PER_JOB))
        return job

    jobs = _loop(deadline, run_one)
    while len(setup) < SETUP_PROBES_MIN:
        setup.append(setup_probe(work))
    attempted = sum(len(j.steps) for j in jobs)
    failed = sum(j.failed() for j in jobs)
    median = statistics.median
    metrics = {
        "wall_s": median(j.wall for j in jobs),
        "setup_s": median(setup),
        "main_s": median(j.seconds[0] for j in jobs),
        "aux_s": median(sum(j.seconds[1:]) for j in jobs),
        "peak_rss_mb": max(j.peak_rss_mb for j in jobs),
        "ok_ratio": (attempted - failed) / attempted,
    }
    per_command = {}
    for j in jobs:
        totals = {}
        for step, s in zip(j.steps, j.seconds):
            key = step.command.replace("-", "_") + "_s"
            totals[key] = totals.get(key, 0.0) + s
        for key, s in totals.items():
            per_command.setdefault(key, []).append(s)
    detail = {"jobs": len(jobs), "setup_probes": len(setup),
              "fail_ratio": f"{failed}/{attempted}",
              "wall_s_per_job": [round(j.wall, 4) for j in jobs],
              "per_command_s": {k: median(v) for k, v in per_command.items()},
              "main": jobs[0].steps[0].name,
              "aux": [s.name for s in jobs[0].steps[1:]]}
    return jobs, metrics, detail


def layer_trace(wl, files, work, seed, seconds, ref):
    reference = subprocess_job(wl, files, os.path.join(work, "reference"), seed, ref, None)
    deadline = time.perf_counter() + seconds
    plain, traced, tracers = [], [], []

    def run_one(done):
        job_dir = os.path.join(work, f"job{len(done)}")
        if len(done) % 2 == 0:
            job = inprocess_job(wl, files, job_dir, seed, ref, reference.digests)
            plain.append(job)
        else:
            tracer = tracing.Tracer()
            job = inprocess_job(wl, files, job_dir, seed, ref, reference.digests, tracer)
            traced.append(job)
            tracers.append(tracer)
        return job

    loop_jobs = _loop(deadline, run_one)
    if not traced:
        loop_jobs.append(run_one(loop_jobs))
    jobs = [reference] + loop_jobs
    per_job = [tracing.job_metrics(tr, job.output_bytes)
               for tr, job in zip(tracers, traced)]
    metrics = {name: (per_job[0][name] if name in tracing.EXACT
                      else statistics.median(m[name] for m in per_job))
               for name in per_job[0]}
    unstable = [name for name in tracing.EXACT
                if len({m[name] for m in per_job}) > 1]
    metrics.update(tracing.fit_latency(
        [d for tr in tracers for d in tr.durations["estimators.fit_model"]]))
    metrics["trace.overhead_s"] = (statistics.median(j.wall for j in traced)
                                   - statistics.median(j.wall for j in plain))
    detail = {"jobs": {"reference": 1, "untraced": len(plain), "traced": len(traced)},
              "inexact_counts": unstable}
    if unstable:
        traced[-1].fails[0].append(("exact", f"counts differ between traced jobs: "
                                             f"{unstable}"))
    return jobs, metrics, detail


def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        files = wl.make_inputs(seed, inputs)
        ref = wl.reference(files)
        body = layer_trace if trace else end_to_end
        jobs, metrics, detail = body(wl, files, work, seed, seconds, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(j.steps) for j in jobs)
    failed = sum(j.failed() for j in jobs)
    failures = [msg for j in jobs for f in j.fails for _, msg in f]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail, failures


def _unit(name, trace):
    return tracing.unit_of(name) if trace else dict(END_TO_END)[name]


def print_summary(name, seed, trace, result, detail, failures):
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"fail_ratio {result['failed']}/{result['attempted']}")
    for key, value in result["metrics"].items():
        print(f"  {key:<52} {value:>16.6g} {_unit(key, trace)}")
    for key, value in detail.items():
        print(f"  {key}: {json.dumps(value)}")
    for msg in failures[:20]:
        print(f"  FAILED: {msg}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinshot", "cli.py")):
        print(f"error: no spinshot sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, detail, failures = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(name, args.seed, args.trace, result, detail, failures)
        results[name] = result
    print("env: " + json.dumps(provenance(), sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    final["metrics"] = {k: {"value": v, "unit": _unit(k.split("/")[-1], args.trace)}
                        for k, v in final["metrics"].items()}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
