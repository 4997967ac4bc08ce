"""Raise-coverage ratchet: every ``raise`` statement and ``except`` arm in
``src/pathguard/`` that the tier-1 suite never runs is listed in
``tests/untested_raises.txt``, and the list can only shrink.

    PYTHONPATH=src python tests/raise_coverage.py          # check
    PYTHONPATH=src python tests/raise_coverage.py --write  # rewrite the list

It runs the suite in this process (hypothesis seed 0, so that generated
inputs are drawn alike on every run) under a ``sys.settrace`` collector of
the lines run in ``src/pathguard/``. A ``raise`` ran when one of its lines
ran, an ``except`` arm when the first statement of its body ran. Each arm is
keyed by its module, its enclosing function and its source text, not by its
line number, so edits elsewhere in a module move no entry; two arms of one
key count as two. The check fails, naming the arms, when an unrun arm is
missing from the list (a new failure path with no test) or when a listed
arm now runs (a test was added: take the line out of the list).
"""

from __future__ import annotations

import argparse
import ast
import collections
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pathguard"
LIST = ROOT / "tests" / "untested_raises.txt"


def arms(path: Path) -> list[tuple[str, tuple[int, ...]]]:
    """``(key, lines)`` of each raise and except arm in ``path``: the key is
    ``module::function::text`` and ``lines`` are those whose run means the
    arm ran."""
    source = path.read_text()
    module = path.relative_to(SRC.parent).as_posix()
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Raise):
                text = " ".join(ast.get_source_segment(source, child).split())
                lines = tuple(range(child.lineno, child.end_lineno + 1))
                found.append((f"{module}::{'.'.join(scope) or '<module>'}::{text}", lines))
            elif isinstance(child, ast.ExceptHandler):
                header = source.splitlines()[child.lineno - 1].strip()
                key = f"{module}::{'.'.join(scope) or '<module>'}::{header}"
                found.append((key, (child.body[0].lineno,)))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def run_suite() -> tuple[int, set[tuple[str, int]]]:
    """The suite's exit code and the (file, line) pairs it ran in ``SRC``."""
    import pytest

    ran: set[tuple[str, int]] = set()
    prefix = str(SRC) + "/"

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
    return int(code), ran


def unrun(ran: set[tuple[str, int]]) -> collections.Counter:
    missed: collections.Counter = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        name = str(path)
        for key, lines in arms(path):
            if not any((name, line) in ran for line in lines):
                missed[key] += 1
    return missed


def listed() -> collections.Counter:
    lines = LIST.read_text().splitlines() if LIST.exists() else []
    return collections.Counter(
        line for line in lines if line.strip() and not line.startswith("#")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the list from this run")
    args = parser.parse_args(argv)
    code, ran = run_suite()
    if code != 0:
        print(f"raise coverage: the suite failed (exit {code})", file=sys.stderr)
        return 1
    missed = unrun(ran)
    if args.write:
        head = (
            "# raise statements and except arms in src/pathguard/ that no tier-1 test runs,\n"
            "# as module::function::source; written by tests/raise_coverage.py --write\n"
        )
        LIST.write_text(head + "".join(f"{key}\n" for key in sorted(missed.elements())))
        print(f"raise coverage: {sum(missed.values())} unrun arms written to {LIST.name}")
        return 0
    have = listed()
    new, now_run = missed - have, have - missed
    for key in sorted(new.elements()):
        print(f"raise coverage: no test runs {key}", file=sys.stderr)
    for key in sorted(now_run.elements()):
        print(f"raise coverage: a test now runs {key}; take it out of {LIST.name}",
              file=sys.stderr)
    if new or now_run:
        return 1
    print(f"raise coverage: {sum(missed.values())} unrun arms, all listed in {LIST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
