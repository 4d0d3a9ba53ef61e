"""The benchmark tracer (perfbench/tracing.py) wraps spinshot functions by
name and its hooks read their arguments and results by name.  A rename
or deletion in the package that would make a traced benchmark run raise
fails here instead."""
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

from spinshot.estimators import PhotonRecords
from spinshot.sequence import compile_sequence, parse_sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WRAPPED = ("config", "sequence", "montecarlo", "readout", "estimators")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(modules):
    found = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    found.update((("PhotonRecords", k), v) for k, v in vars(PhotonRecords).items())
    return found


def test_installs_and_restores():
    tracing = load_tracing()
    modules = [importlib.import_module(f"spinshot.{name}") for name in WRAPPED]
    before = bindings(modules)
    with tracing.installed(tracing.Tracer()):
        assert bindings(modules) != before
    assert bindings(modules) == before


# perfbench/run.py's traced jobs enter installed() with the package loaded
# only through spinshot.config, which its workload references import
CONFIG_ONLY = """\
import importlib.util, sys
import spinshot.config
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
with tracing.installed(tracing.Tracer()):
    pass
"""


def test_installs_after_importing_only_config():
    # installed() looks up every module it wraps in sys.modules, so a
    # module that config stops importing at load time fails here
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", CONFIG_ONLY,
                          os.path.join(ROOT, "perfbench", "tracing.py")],
                         capture_output=True, text=True, env=env, cwd=ROOT)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("module,attr,names", [
    ("montecarlo", "run_timeline", ("timeline", "shots")),
    ("montecarlo", "simulate_readout_shots", ("params", "shots")),
    ("montecarlo", "PhotonRecords.to_file", ("path",)),
    ("readout", "count_distribution", ("params",)),
    ("readout", "optimize_readout", ("n_range",)),
])
def test_hooked_arguments_exist(module, attr, names):
    target = importlib.import_module(f"spinshot.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert set(names) <= set(inspect.signature(target).parameters)


def test_compiled_timeline_has_events():
    # the compile and run_timeline hooks count len(timeline.events)
    timeline = compile_sequence(parse_sequence("detect 3us\nwait 1us\n"))
    assert len(timeline.events) == 2
