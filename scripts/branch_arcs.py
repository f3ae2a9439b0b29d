"""Report the one-sided branches of ``src/masharness`` over a test run.

A pytest plugin.  Run it with the suite::

    PYTHONPATH=src:scripts python -m pytest -q -p branch_arcs

It records the line-to-line arcs of every frame whose code lives under
``src/masharness``, through ``sys.settrace`` and ``threading.settrace``,
and at the end of the session prints one line for each ``if`` or
``while`` taken only one way, each ``for`` never entered and each
``except`` never taken.  A header that spans several lines counts the
arcs from every one of its lines.  A frame's entry and exit are marked
by the negated first line of its code object.  Each file is read when its
first frame is traced, and judged on that source, so an edit made while
the suite runs does not shift the lines its arcs are reported against.

It sees statements only: not conditional expressions, ``and``/``or``,
comprehension filters or a one-line ``if x: y``.  It uses the standard
library only, and slows the suite about threefold.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "masharness"

_PREFIX = f"{ROOT}/"

#: file path -> {(from line, to line)}
ARCS: dict[str, set[tuple[int, int]]] = defaultdict(set)

#: file path -> its source when its first frame was traced
SOURCES: dict[str, str] = {}


def _trace(frame, event, arg):
    """Global trace function: a local tracer for each frame of a file under ROOT."""
    code = frame.f_code
    if not code.co_filename.startswith(_PREFIX):
        return None
    if code.co_filename not in SOURCES:
        SOURCES[code.co_filename] = Path(code.co_filename).read_text(encoding="utf-8")
    arcs, edge = ARCS[code.co_filename], -code.co_firstlineno
    last = edge

    def local(frame, event, arg):
        nonlocal last
        if event == "line":
            arcs.add((last, frame.f_lineno))
            last = frame.f_lineno
        elif event == "return":
            arcs.add((last, edge))
        return local

    return local


def _first_line(node: ast.AST) -> int:
    """The line a statement's code starts on, decorators included."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _header(node: ast.AST) -> range | None:
    """The lines of a branch statement's header, or None for any other node."""
    if isinstance(node, (ast.If, ast.While)):
        end = node.test.end_lineno
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        end = node.iter.end_lineno
    elif isinstance(node, ast.ExceptHandler):
        end = node.type.end_lineno if node.type else node.lineno
    else:
        return None
    return range(node.lineno, end + 1)


def one_sided(source: str, arcs) -> list[tuple[int, str]]:
    """``(line, finding)`` for each one-sided branch of ``source`` under ``arcs``.

    ``arcs`` holds ``(from, to)`` line pairs, with a scope's entry and exit
    marked by the negated first line of its code object (1 for a module).
    """
    found = []

    def visit(node: ast.AST, scope: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = _first_line(node)
        header = _header(node)
        if header is not None and _first_line(node.body[0]) > header[-1]:
            body = range(_first_line(node.body[0]), node.body[-1].end_lineno + 1)
            leaving = [to for frm, to in arcs if frm in header and to not in header]
            into = any(to in body for to in leaving)
            past = any(to == -scope or to > 0 and to not in body for to in leaving)
            if isinstance(node, (ast.If, ast.While)) and into != past:
                kind = "if" if isinstance(node, ast.If) else "while"
                found.append((node.lineno, f"{kind} never {'false' if into else 'true'}"))
            elif isinstance(node, (ast.For, ast.AsyncFor)) and not into:
                found.append((node.lineno, "for never entered"))
            elif isinstance(node, ast.ExceptHandler) and not into:
                found.append((node.lineno, "except never taken"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), 1)
    return sorted(found)


def pytest_configure(config):
    sys.settrace(_trace)
    threading.settrace(_trace)


def report(root: Path = ROOT) -> list[str]:
    """``<file>:<line>: <finding>`` for each one-sided branch of each file under ``root``."""
    lines = []
    for path in sorted(root.rglob("*.py")):
        source = SOURCES.get(str(path))
        if source is None:  # never traced
            source = path.read_text(encoding="utf-8")
        for line, finding in one_sided(source, ARCS[str(path)]):
            lines.append(f"{path.relative_to(root)}:{line}: {finding}")
    return lines


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("one-sided branches in src/masharness")
    for line in report():
        terminalreporter.write_line(line)
