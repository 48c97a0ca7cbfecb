"""Exit-status guard: in `cli.py` only `main` decides exit status 2.  The
runners raise instead (a ValueError for unusable input, an OSError for a
report that cannot be written), and `main` turns each into one `error:`
line on stderr and status 2.  So no other function returns the literal 2
or writes a line that starts with "error:"."""

from __future__ import annotations

import ast
from pathlib import Path

import curvebounds.cli


def _is_error_text(node: ast.AST) -> bool:
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return isinstance(node, ast.Constant) and str(node.value).startswith("error:")


def _status_2_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(function, line) of each `return 2` and each call whose first
    argument is text that starts with "error:", outside `main`."""
    sites = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant):
                if node.value.value == 2:
                    sites.append((fn.name, node.lineno))
            elif isinstance(node, ast.Call) and node.args and _is_error_text(node.args[0]):
                sites.append((fn.name, node.lineno))
    return sorted(sites)


def test_only_main_decides_exit_status_2():
    source = Path(curvebounds.cli.__file__).read_text(encoding="utf-8")
    assert _status_2_sites(ast.parse(source)) == []


def test_guard_finds_error_exits_outside_main():
    text = (
        "def main():\n"
        '    print("error: fine here")\n'
        "    return 2\n"
        "def run(path):\n"
        "    if not path:\n"
        '        print(f"error: {path}", file=sys.stderr)\n'
        "        return 2\n"
        '    sys.stderr.write("error: also\\n")\n'
        '    lines.append(f"g={path}  error: a table cell")\n'
        "    return 1\n"
    )
    assert _status_2_sites(ast.parse(text)) == [("run", 6), ("run", 7), ("run", 8)]
