"""The package's internal import graph has no cycle, and each command
loads only what it runs.

Every ``src/spinshot/*.py`` is parsed with ``ast``, imports inside
functions included, and each import of a sibling module is an edge.
"""
import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spinshot

PACKAGE_DIR = os.path.dirname(spinshot.__file__)


def _module_names():
    return sorted(name[:-3] for name in os.listdir(PACKAGE_DIR)
                  if name.endswith(".py"))


def import_graph():
    """{module: set of sibling modules it imports}; the package itself is
    ``__init__``."""
    modules = set(_module_names())
    graph = {}
    for module in modules:
        with open(os.path.join(PACKAGE_DIR, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "spinshot":
                        targets.add(parts[1] if len(parts) > 1 else "__init__")
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    base = node.module
                elif node.level == 0 and (node.module or "").split(".")[0] == "spinshot":
                    base = node.module.partition(".")[2] or None
                else:
                    continue
                if base is not None:
                    targets.add(base.split(".")[0])
                else:                                   # from . import name
                    targets.update(alias.name if alias.name in modules
                                   else "__init__" for alias in node.names)
        graph[module] = targets & modules - {module}
    return graph


def find_cycle(graph):
    """One import cycle as a list of modules (first == last), or None."""
    state = {}                                          # 1 on stack, 2 done
    stack = []

    def visit(module):
        state[module] = 1
        stack.append(module)
        for target in sorted(graph[module]):
            if state.get(target) == 1:
                return stack[stack.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        stack.pop()
        state[module] = 2
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module)
            if cycle:
                return cycle
    return None


def test_graph_sees_imports():
    graph = import_graph()
    assert {"config", "estimators", "readout"} <= graph["cli"]
    assert "__init__" in graph["cli"]                   # from . import __version__


def test_find_cycle_reports_the_loop():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_no_import_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, " -> ".join(cycle)


def test_public_names_resolve():
    for name in spinshot.__all__:
        assert getattr(spinshot, name) is not None, name
    assert set(spinshot.__all__) <= set(dir(spinshot))
    namespace = {}
    exec("from spinshot import *", namespace)
    assert set(spinshot.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        spinshot.no_such_name


def test_records_class_is_shared():
    from spinshot import estimators, montecarlo
    assert montecarlo.PhotonRecords is estimators.PhotonRecords
    assert spinshot.PhotonRecords is estimators.PhotonRecords


# modules that fit and g2 never call; each costs every command its import
SIMULATOR_STACK = ("spinshot.config", "spinshot.readout", "spinshot.sequence",
                   "spinshot.montecarlo", "spinshot.physics",
                   "concurrent.futures", "hashlib")

# the spinshot modules each command loads.  config imports the simulator
# stack at module level, so every configured command loads all of it: the
# benchmark's tracer finds its targets in sys.modules after importing config.
CONFIGURED = {"spinshot", "spinshot.cli", "spinshot.config", "spinshot.estimators",
              "spinshot.montecarlo", "spinshot.physics", "spinshot.readout",
              "spinshot.sequence"}
COMMAND_MODULES = {
    "levels": CONFIGURED,
    "calibrate": CONFIGURED,
    "readout-optimize": CONFIGURED,
    "simulate": CONFIGURED,
    "area-sweep": CONFIGURED,
    "protocols": CONFIGURED,
    "fit": {"spinshot", "spinshot.cli", "spinshot.estimators"},
    "g2": {"spinshot", "spinshot.cli", "spinshot.estimators"},
}

LOADED = """\
import json, sys
from spinshot import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _command_argv(command, tmp_path):
    if command == "fit":
        x = np.linspace(0.0, 3.0, 20)
        series = tmp_path / "t1.csv"
        series.write_text("".join(f"{xi:.6g},{np.exp(-xi / 0.4):.9g}\n"
                                  for xi in x))
        return ["fit", str(series), "--model", "exp_decay"]
    if command == "g2":
        records = tmp_path / "events.txt"
        records.write_text("# shots=2 pulses=3\n0 0 1.5 emitter\n"
                           "0 1 12.5 dark\n1 1 11.5 emitter\n")
        return ["g2", str(records), "--lags", "2"]
    if command == "simulate":
        program = tmp_path / "readout.seq"
        program.write_text("repeat 3 {\n  pulse optical A 0.02us 1pi\n"
                           "  detect 3us\n  wait 6.98us\n}\n")
        return ["simulate", str(program), "--shots", "10"]
    return {"readout-optimize": ["readout-optimize", "--n-max", "50"],
            "area-sweep": ["area-sweep", "--points", "2", "--shots", "100"],
            "protocols": ["protocols", "--shots", "1000", "--seed", "0"],
            }.get(command, [command])


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_each_command_loads_only_what_it_runs(command, tmp_path):
    # -S: no site hook runs, so a module loaded here is the program's; numpy's
    # directory goes on the path in its place
    src = os.path.dirname(PACKAGE_DIR)
    numpy_dir = os.path.dirname(os.path.dirname(np.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, numpy_dir)),
               SPINSHOT_THREADS="2")
    res = subprocess.run([sys.executable, "-S", "-c", LOADED,
                          *_command_argv(command, tmp_path), "--format", "csv",
                          "--out-dir", str(tmp_path / "o")],
                         capture_output=True, text=True, env=env, check=True)
    code, modules = json.loads(res.stdout.splitlines()[-1])
    assert code == 0, res.stderr
    assert {m for m in modules if m.startswith("spinshot")} == COMMAND_MODULES[command]
    # the packaged presets are plain files, found by path
    assert not [m for m in modules if m.startswith("importlib.resources")]
    if "spinshot.config" not in COMMAND_MODULES[command]:
        assert not set(SIMULATOR_STACK) & set(modules)
