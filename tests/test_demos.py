"""Every script in demos/, and README's library quick start, runs to
completion against the source tree."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_library_quick_start():
    """The README block runs on the shipped lexicon, and each line with a
    commented value evaluates to it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(library\)\n\n```python\n(.*?)```",
                      readme, re.S).group(1)
    scope = {}
    exec(block, scope)
    shown = re.findall(r"^(\S.*?)\s+# (.+)$", block, re.M)
    assert [value for _, value in shown] == ["((0, 1), (3, 4))", "1074.0"]
    for expr, value in shown:
        assert eval(expr, scope) == ast.literal_eval(value), expr
