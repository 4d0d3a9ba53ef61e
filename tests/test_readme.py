import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_quick_start_runs_verbatim():
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("{'A': ") and lines[1].startswith("lifetime")
