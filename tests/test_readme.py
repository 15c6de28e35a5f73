"""The README's examples hold: the witness it shows is what `analyze --tree`
prints, and every value shown in a comment of its Library block is computed."""

import ast
import re
from pathlib import Path

from incidence_scrolls.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that starts with one of these shows a value; any other is prose
VALUE_START = tuple("([{'\"-0123456789") + ("True", "False", "None")


def library_block():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example():
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
            continue
        result = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
        # the value ends where the comment does or a second comment starts
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        shown = comment.removeprefix("#").split("  #")[0].strip()
        if shown.startswith(VALUE_START):
            assert result == ast.literal_eval(shown), lines[stmt.end_lineno - 1]
            checked.append(shown)
    assert checked == ["(14, 8, 6)", "((3, 9),)", "14"]


def test_classify_one_base_example(capsys):
    command = "scrolls analyze -n 6 --base 2,3,3,4,4 --tree"
    shown = re.search(re.escape(command) + r"\n```\n\n```text\n(.*?)\n```",
                      README.read_text(), re.S)
    assert shown, f"README shows no output block after {command!r}"
    assert main(command.split()[1:]) == 0
    # the text grid pads its last column, which the README cannot show
    assert [line.rstrip() for line in capsys.readouterr().out.splitlines()] == \
        [line.rstrip() for line in shown.group(1).splitlines()]
