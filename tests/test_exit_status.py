"""Exit-status guard: in `cli.py` only `main` decides exit status 2.  The
runners raise instead (a ValueError for unusable input, an OSError for a
report that cannot be written), and `main` turns each into one `error:`
line on stderr and status 2.  So no other function returns the literal 2
or writes a line that starts with "error:".  Usage errors take the same
road: the parser's `error` override raises ValueError, so no function but
`main` and that override ends a run by `SystemExit`, `sys.exit`, or a
parser's `.error`/`.exit`."""

from __future__ import annotations

import ast
from pathlib import Path

import curvebounds.cli

EXIT_ATTRS = frozenset({"error", "exit", "_exit"})
EXIT_NAMES = frozenset({"SystemExit", "exit", "quit"})


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


def _parser_error_overrides(tree: ast.AST) -> set[ast.AST]:
    """The `error` methods of classes derived from an `ArgumentParser`."""
    overrides = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bases = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "") for b in cls.bases}
        if "ArgumentParser" in bases:
            overrides.update(
                f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "error"
            )
    return overrides


def _exit_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(function, line) of each `raise SystemExit`, each `.error(...)` or
    `.exit(...)` call (`sys.exit`, `parser.error`) and each call of a bare
    `exit`, outside `main` and the parser's `error` override."""
    exempt = _parser_error_overrides(tree)
    sites = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name == "main" or fn in exempt:
            continue
        for node in ast.walk(fn):
            target = None
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            elif isinstance(node, ast.Call):
                target = node.func
            if isinstance(target, ast.Attribute) and target.attr in EXIT_ATTRS:
                sites.append((fn.name, node.lineno))
            elif isinstance(target, ast.Name) and target.id in EXIT_NAMES:
                sites.append((fn.name, node.lineno))
    return sorted(set(sites))


def _cli_tree() -> ast.AST:
    return ast.parse(Path(curvebounds.cli.__file__).read_text(encoding="utf-8"))


def test_only_main_decides_exit_status_2():
    assert _status_2_sites(_cli_tree()) == []


def test_only_main_ends_a_run():
    assert _exit_sites(_cli_tree()) == []


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


def test_guard_finds_exits_outside_main():
    text = (
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        self.exit(2, message)\n"
        "class Other:\n"
        "    def error(self, message):\n"
        "        sys.exit(2)\n"
        "def main():\n"
        "    sys.exit(2)\n"
        "def run(parser, args):\n"
        "    if args.bad:\n"
        '        parser.error("bad")\n'
        "    if args.worse:\n"
        "        raise SystemExit(2)\n"
        "    if args.worst:\n"
        "        raise SystemExit\n"
        "    exit(1)\n"
        "    return 0\n"
    )
    assert _exit_sites(ast.parse(text)) == [
        ("error", 6), ("run", 11), ("run", 13), ("run", 15), ("run", 16),
    ]
