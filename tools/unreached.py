"""List package code that the benchmark rounds and the acceptance tests never run.

    python3 tools/unreached.py

Under ``sys.settrace`` (and ``threading.settrace``, for the worker pools),
with line events recorded only in ``src/toxtraj``, it runs in-process:

- for each workload in ``BENCHMARK.json``, ``perfbench/workloads.py``'s
  ``setup`` and then its ``operations`` at seed 1, each call through
  ``toxtraj.cli.main``;
- then ``tests/test_acceptance.py`` through ``pytest.main``.

It prints every function none of whose statements ran, and per module the
number of statements that did not run. The output lists candidates, not
verdicts: CLI paths the benchmark never takes, such as the ``report`` and
``synth`` commands, ``--scorer external`` or an ISO ``t0``, appear too, and
each candidate needs a look at its callers before it goes. The whole run
takes a few minutes. It uses the standard library alone, besides what the
package and its tests import.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toxtraj"
SEED = 1


def statement_spans(tree: ast.Module) -> tuple[list[tuple[int, int]], list[tuple[str, list[tuple[int, int]]]]]:
    """The line span of every statement, decorators included, and each
    function's qualified name with the spans of its body's statements.
    Docstrings are not statements. A statement ran when any line in its span
    ran: its body cannot run unless it did."""
    spans: list[tuple[int, int]] = []
    functions: list[tuple[str, list[tuple[int, int]]]] = []

    def visit(body: list[ast.stmt], prefix: str) -> list[tuple[int, int]]:
        own = []
        for i, stmt in enumerate(body):
            if i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                continue
            span = (min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])]), stmt.end_lineno)
            spans.append(span)
            own.append(span)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((prefix + stmt.name, visit(stmt.body, prefix + stmt.name + ".")))
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, prefix + stmt.name + ".")
            else:
                blocks = [getattr(stmt, name, None) or [] for name in ("body", "orelse", "finalbody")]
                blocks += [part.body for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", [])]
                for block in blocks:
                    visit(block, prefix)
        return own

    visit(tree.body, "")
    return spans, functions


class LineRecorder:
    """Records (file, line) for every line executed in the package."""

    def __init__(self, root: Path):
        self.root = str(root) + os.sep
        self.lines: dict[str, set[int]] = defaultdict(set)

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.root):
            return None
        hit = self.lines[filename]

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local

        hit.add(frame.f_lineno)
        return local

    @contextlib.contextmanager
    def installed(self):
        threading.settrace(self)
        sys.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_workloads() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import toxtraj.cli as cli
    from workloads import WORKLOADS, operations, setup

    for name in [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]:
        with tempfile.TemporaryDirectory() as tmp:
            in_dir, out_dir = Path(tmp) / "inputs", Path(tmp) / "round" / "out"
            out_dir.mkdir(parents=True)
            with contextlib.redirect_stdout(io.StringIO()):
                setup(WORKLOADS[name], SEED, in_dir)
                codes = [cli.main(op["argv"]) for op in operations(WORKLOADS[name], in_dir, out_dir, SEED)]
        print(f"{name} seed {SEED}: exit codes {codes}", file=sys.stderr)


def run_acceptance() -> None:
    import pytest

    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    summary = log.getvalue().strip().splitlines()[-1:]
    print(f"tests/test_acceptance.py: exit code {int(code)}, {''.join(summary)}", file=sys.stderr)


def report(recorder: LineRecorder) -> None:
    print("functions none of whose statements ran:")
    totals = []
    for path in sorted(PACKAGE.glob("*.py")):
        spans, functions = statement_spans(ast.parse(path.read_text(encoding="utf-8")))
        hit = recorder.lines.get(str(path), set())

        def ran(span: tuple[int, int]) -> bool:
            return any(line in hit for line in range(span[0], span[1] + 1))

        for name, own in functions:
            if own and not any(map(ran, own)):
                print(f"  {path.name}:{own[0][0]}  {name}")
        totals.append((path.name, sum(not ran(span) for span in spans), len(spans)))
    print("statements that did not run, per module:")
    for name, missed, total in totals:
        print(f"  {name:<16} {missed:>4} of {total}")


def main() -> int:
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    recorder = LineRecorder(PACKAGE)
    with recorder.installed():
        run_workloads()
        run_acceptance()
    report(recorder)
    return 0


if __name__ == "__main__":
    sys.exit(main())
