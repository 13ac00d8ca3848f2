"""The statement lines of src/dynbla that no pinned run executes.

    PYTHONPATH=src python tests/traffic_lines.py
    PYTHONPATH=src python tests/traffic_lines.py --tests

Line-traces, with sys.settrace set before the library is imported, every
run that tests/test_golden_traces.py pins (golden_runs()), the checks of
each run, the attack verifier of each attack run, and a save, load and
check of each stored scenario file's run. Then prints each statement line
of the library that none of it executed, as path:line and its text (a
module never imported as one line), and their count. A statement line is the first line of a statement that
compiles to code; docstrings are not counted.

A line listed is one that no pinned run needs, a candidate for deletion or
for a pin, to be confirmed by reading. The script exits 1 when the count is
above LIMIT, the count last recorded; a change that lowers the count
records the new one here.

With --tests it also runs tier-1 (pytest over tests/) under the tracer,
after the pins, and prints the lines that neither executes; their count is
held to TESTS_LIMIT in the same way, and a test that fails under the tracer
exits 1 too. The tracer is armed afresh before each test, since a
RecursionError inside a trace function unsets it. The two tests of
UNTRACEABLE are left out, and hypothesis is derandomized, so the count is
the same on every run.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import tempfile
import types

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dynbla"
LIMIT = 297
TESTS_LIMIT = 39
# tier-1's tests that count garbage, which fail under the tracer: its closures keep frames alive
UNTRACEABLE = ("test_a_dropped_run_leaves_no_cyclic_garbage",
               "test_memory_does_not_grow_across_runs_without_the_cyclic_collector")


def statement_lines(path: pathlib.Path) -> set[int]:
    """The first lines of path's statements that compile to code."""
    text = path.read_text()
    stmts = {
        node.lineno for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.stmt)
        and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str))
    }
    coded, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return stmts & coded


STATEMENTS = {str(p): statement_lines(p) for p in sorted(SRC.rglob("*.py"))}
executed: dict[str, set[int]] = {name: set() for name in STATEMENTS}
# per code object of the library, its statement lines not executed yet; a
# code object with none left is no longer traced
left: dict[types.CodeType, set[int]] = {}


def _trace(frame, event, arg):
    code = frame.f_code
    todo = left.get(code)
    if todo is None:
        stmts = STATEMENTS.get(os.path.abspath(code.co_filename), ())
        todo = left[code] = {line for _, _, line in code.co_lines() if line in stmts}
        if code.co_name != "<module>":
            # a function's first line, its def, runs where it is defined
            todo.discard(code.co_firstlineno)
    if not todo:
        return None
    seen = executed[os.path.abspath(code.co_filename)]

    def line(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
            todo.discard(frame.f_lineno)
        return line

    return line


def run_pins() -> None:
    """Every pinned run with its checks and attack verifier, and a save, load
    and check of each stored file's run."""
    sys.path.insert(0, str(TESTS))
    from test_golden_traces import golden_runs

    import dynbla
    from dynbla.harness import ATTACKS, run_scenario

    if os.path.dirname(os.path.abspath(dynbla.__file__)) != str(SRC):
        raise SystemExit(f"dynbla is imported from {dynbla.__file__}, not from {SRC}")
    from dynbla.harness.checks import run_checks
    from dynbla.harness.runner import load_trace, save_trace

    with tempfile.TemporaryDirectory() as tmp:
        for name, build in golden_runs().items():
            rep = run_scenario(build())
            run_checks(rep.bundle())
            attack = name.split("/")[0]
            if attack in ATTACKS:
                ATTACKS[attack][1](rep)
            if name.startswith("file/"):
                path = pathlib.Path(tmp) / "run.jsonl"
                save_trace(path, rep.bundle())
                run_checks(load_trace(path))


class _Rearm:
    """A pytest plugin that arms the tracer before each test."""

    @staticmethod
    def pytest_runtest_setup(item):
        sys.settrace(_trace)


def run_tests() -> int:
    """Tier-1 under the tracer, but for UNTRACEABLE, with hypothesis derandomized; pytest's exit code."""
    import pytest
    from hypothesis import settings

    settings.register_profile("traffic-lines", derandomize=True, database=None, deadline=None)
    return pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-profile=traffic-lines",
                        "-k", " and ".join(f"not {name}" for name in UNTRACEABLE), str(TESTS)],
                       plugins=[_Rearm()])


def main() -> None:
    if sys.argv[1:] not in ([], ["--tests"]):
        raise SystemExit(f"usage: {sys.argv[0]} [--tests]")
    with_tests = len(sys.argv) > 1
    limit = TESTS_LIMIT if with_tests else LIMIT
    what = "no pinned run or tier-1 test executes" if with_tests else "no pinned run executes"
    sys.settrace(_trace)
    try:
        run_pins()
        failed = run_tests() if with_tests else 0
    finally:
        sys.settrace(None)
    root = SRC.parent.parent
    total = 0
    for name, stmts in STATEMENTS.items():
        path = pathlib.Path(name).relative_to(root)
        missed = sorted(stmts - executed[name])
        total += len(missed)
        if not executed[name]:
            print(f"{path}: never imported ({len(missed)} statement lines)")
            continue
        text = pathlib.Path(name).read_text().splitlines()
        for line in missed:
            print(f"{path}:{line}: {text[line - 1].strip()}")
    print(f"{total} statement lines of {sum(map(len, STATEMENTS.values()))} {what}")
    if failed:
        print(f"tier-1 under the tracer failed (pytest exit code {failed})")
    if total > limit:
        print(f"above the recorded limit of {limit}")
    if failed or total > limit:
        sys.exit(1)

if __name__ == "__main__":
    main()
