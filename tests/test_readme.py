import contextlib
import io
import os
import re
import textwrap

import pytest

from spinshot.sequence import compile_sequence, parse_sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
GRAMMAR = os.path.join(ROOT, "docs", "sequence_grammar.ebnf")


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_quick_start_runs_verbatim():
    (block,) = re.findall(r"```python\n(.*?)```", read(README), flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("{'A': ") and lines[1].startswith("lifetime")


# each DSL example: the first fenced block after README's DSL heading, and
# the grammar's closing "(* Example ... *)" comment
DSL_EXAMPLES = {
    "README": (README, r"## Pulse-sequence DSL.*?```\n(.*?)```", 3 * 71 + 1),
    "grammar": (GRAMMAR, r"\(\* Example\n(.*?)\*\)", 3 * 71 + 2),
}


@pytest.mark.parametrize("name", DSL_EXAMPLES)
def test_dsl_example_compiles(name):
    path, pattern, events = DSL_EXAMPLES[name]
    (block,) = re.findall(pattern, read(path), flags=re.S)
    timeline = compile_sequence(parse_sequence(textwrap.dedent(block), filename=path))
    assert len(timeline.start_us) == events
