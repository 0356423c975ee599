"""README's quick start runs as written and prints what its comments say,
and its command line table lists each command's flags and defaults."""

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


# a flag in backticks, with its default after a space if it has one
FLAG = re.compile(r"`(-[-\w]+)(?: ([^`]+))?`")


def command_table() -> dict:
    """README's command line table: {command words: {flag: default or ""}}."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    table = {}
    for row in re.findall(r"^\| `.*", section, re.M):
        first, *rest = row.strip("|").split("|")
        flags = dict(FLAG.findall("|".join(rest)))
        for command in re.findall(r"`([^`]+)`", first):
            table[tuple(w for w in command.split() if not w.isupper())] = flags
    return table


def test_command_table_lists_each_parsers_flags(command_parsers):
    table = command_table()
    assert sorted(table) == sorted(command_parsers)
    for command, parser in command_parsers.items():
        want = {
            a.option_strings[0]: "" if a.default is None else str(a.default)
            for a in parser._actions
            if a.option_strings and a.dest != "help"
        }
        assert table[command] == want, command
