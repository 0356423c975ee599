"""README's quick start runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = quick_start_block()
    # each print's comment starts with the expected line; two spaces end it
    expected = [
        line.split("#", 1)[1].strip().split("  ")[0]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["5 2 2", "5/2 5/2 3", "0.027 True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
