"""The README's library quick tour runs and shows what it documents."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from pertlab.cli import parse_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_results():
    """Each bare expression of the ```python block is evaluated and its repr
    compared with the comment that documents it, on the same line or alone on
    the next."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    lines = block.splitlines() + [""]
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                         namespace)
            comment = (lines[stmt.end_lineno - 1].partition("#")[2]
                       or lines[stmt.end_lineno].partition("#")[2])
            shown.append((comment.strip(), repr(value)))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert shown == [("True", "True"),
                     ("(1, 1, 0, 0, 0, 0, 0)", "(1, 1, 0, 0, 0, 0, 0)"),
                     ("'verified'", "'verified'")]


def test_readme_manifest_blocks_parse():
    """Every ```ini block of the README is a manifest that parses as shown."""
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        parse_manifest(block)
