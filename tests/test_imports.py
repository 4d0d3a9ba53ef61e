"""The package's internal import graph has no cycle.

Every ``src/spinshot/*.py`` is parsed with ``ast``, imports inside
functions included, and each import of a sibling module is an edge.
"""
import ast
import os

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
