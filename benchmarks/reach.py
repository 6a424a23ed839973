#!/usr/bin/env python
"""Line-reach collector for ``src/repro`` (stdlib only; CI ``reach``).

``coverage`` is not a dependency, so this script measures which source
lines the tests and the smoke jobs execute with the interpreter's own
hooks: ``sys.monitoring`` on Python 3.12+, ``sys.settrace`` before.

    python benchmarks/reach.py run DIR -- python -m pytest -x -q
    python benchmarks/reach.py run DIR -- python benchmarks/chaos_smoke.py
    python benchmarks/reach.py report DIR --json REACH.json --check

``run`` executes one command with the collector started in every
interpreter the command creates: the command itself, its threads, its
``multiprocessing`` workers (forked or spawned) and every child
interpreter that inherits the environment.  It does so by putting a
generated ``sitecustomize`` first on ``PYTHONPATH``.  Each process
writes one ``hits-*.json`` into DIR when it exits; runs accumulate.
A forked ``multiprocessing`` worker needs care: the child clears the
finalizer registry when it starts, so a dump registered before the
fork never runs.  The collector registers its dump after the fork
instead (``multiprocessing.util.register_after_fork``), and also on
SIGTERM, which is how a pool stops a worker that does not exit.

``report`` merges every dump in DIR and compares the lines reached
with each file's executable lines: the line numbers of its compiled
code objects, docstrings excluded.  It prints a per-package table
(``--files`` adds one row per file) and writes the JSON.  ``--check``
fails when a function under the root never started and is not in
``ALLOWLIST``, or is listed there but ran.  ``--root`` measures
another directory (the self-test in ``tests/test_reach.py`` does).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_ROOT = os.path.join(REPO, "src", "repro")

#: Functions under ``src/repro`` that the reach job never starts, each
#: with the reason it stays.  Keys are ``<path under the root>::<qualname>``.
ALLOWLIST: dict[str, str] = {
    "algebra/analysis.py::FactAnalyzer._exchange": (
        "facts of Exchange: only a validated parallel run (fuzz --workers) analyzes one"
    ),
    "algebra/expressions.py::Expression.dtype": "abstract: every expression overrides it",
    "algebra/expressions.py::Expression.with_children": "abstract: every expression overrides it",
    "algebra/operators.py::EnforceSingleRow.with_children": (
        "rewrites never rebuild above an EnforceSingleRow in these runs"
    ),
    "algebra/operators.py::JoinKind.__repr__": "debugging repr",
    "algebra/operators.py::PlanNode.output_columns": "abstract: every operator overrides it",
    "algebra/operators.py::PlanNode.with_children": (
        "leaf default: rewrites rebuild only nodes that have children"
    ),
    "algebra/schema.py::Schema.__contains__": "public container protocol of Schema",
    "algebra/schema.py::Schema.__iter__": "public container protocol of Schema",
    "algebra/schema.py::Schema.__len__": "public container protocol of Schema",
    "cli.py::fuzz_main": "`repro fuzz`: run by the fuzz jobs, not by the reach job",
    "cli.py::fuzz_main.<locals>.progress": "`repro fuzz` progress line (fuzz jobs)",
    "engine/metrics.py::QueryMetrics.profile_report": "the CLI's --profile report",
    "engine/plan_cache.py::PlanCache.summary": "the CLI's --cache summary line",
    "fusion/mapping.py::ColumnMapping.__contains__": "public container protocol of ColumnMapping",
    "fusion/mapping.py::ColumnMapping.__len__": "public container protocol of ColumnMapping",
    "fusion/mapping.py::ColumnMapping.__repr__": "debugging repr",
    "optimizer/fusion_rules/base.py::JoinGraphRule.apply": "abstract: every region rule overrides it",
    "optimizer/rule.py::PlanPass.run": "abstract: every pass overrides it",
    "optimizer/rule.py::RewriteRule.rewrite": "abstract: every rule overrides it",
    "sql/lexer.py::Token.__repr__": "debugging repr",
    "testing/oracle.py::DifferentialOracle._pool": "the oracle's worker axis (`repro fuzz --workers`)",
    "testing/oracle.py::Divergence.__str__": "printed only when the fuzzer finds a divergence",
    "testing/runner.py::FuzzFailure.to_dict": "serialized only when the fuzzer finds a divergence",
}


# -- collecting (runs inside every measured interpreter) --------------------


class _Collector:
    def __init__(self, out_dir: str, root: str):
        self.out_dir = out_dir
        self.root = os.path.realpath(root) + os.sep
        self.lines: set[tuple[str, int]] = set()
        self.starts: set[tuple[str, int, str]] = set()
        self._inside: dict[str, bool] = {}
        self._dumped = False

    def inside(self, filename: str) -> bool:
        verdict = self._inside.get(filename)
        if verdict is None:
            path = os.path.realpath(os.path.abspath(filename))
            verdict = self._inside[filename] = path.startswith(self.root)
        return verdict

    def start(self) -> None:
        if hasattr(sys, "monitoring"):
            self._start_monitoring()
        else:
            self._start_settrace()
        atexit.register(self.dump)
        import multiprocessing.util

        multiprocessing.util.register_after_fork(self, _Collector._after_fork)

    def _start_monitoring(self) -> None:
        monitoring = sys.monitoring
        tool = monitoring.COVERAGE_ID
        monitoring.use_tool_id(tool, "reach")
        lines_add, starts_add, inside = self.lines.add, self.starts.add, self.inside

        def on_line(code, line):
            if inside(code.co_filename):
                lines_add((code.co_filename, line))
            return monitoring.DISABLE

        def on_start(code, offset):
            if inside(code.co_filename):
                starts_add((code.co_filename, code.co_firstlineno, code.co_name))
            return monitoring.DISABLE

        monitoring.register_callback(tool, monitoring.events.LINE, on_line)
        monitoring.register_callback(tool, monitoring.events.PY_START, on_start)
        monitoring.set_events(tool, monitoring.events.LINE | monitoring.events.PY_START)

    def _start_settrace(self) -> None:
        lines_add, starts_add, inside = self.lines.add, self.starts.add, self.inside

        def local(frame, event, arg):
            if event == "line":
                lines_add((frame.f_code.co_filename, frame.f_lineno))
            return local

        def on_call(frame, event, arg):
            code = frame.f_code
            if not inside(code.co_filename):
                return None
            starts_add((code.co_filename, code.co_firstlineno, code.co_name))
            return local

        threading.settrace(on_call)
        sys.settrace(on_call)

    def _after_fork(self) -> None:
        # The child inherited the parent's hits, which the parent dumps.
        self.lines.clear()
        self.starts.clear()
        self._dumped = False
        import multiprocessing.util
        import signal

        multiprocessing.util.Finalize(None, self.dump, exitpriority=-100)
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:

            def on_term(signum, frame):
                self.dump()
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

            signal.signal(signal.SIGTERM, on_term)

    def dump(self) -> None:
        if self._dumped:
            return
        self._dumped = True
        files: dict[str, dict[str, list]] = {}
        for filename, line in self.lines:
            files.setdefault(filename, {"lines": [], "starts": []})["lines"].append(line)
        for filename, first, name in self.starts:
            files.setdefault(filename, {"lines": [], "starts": []})["starts"].append(
                [first, name]
            )
        data = {
            os.path.realpath(os.path.abspath(name)): hits for name, hits in files.items()
        }
        # The random part keeps a reused pid from overwriting a dump.
        path = os.path.join(self.out_dir, f"hits-{os.getpid()}-{os.urandom(6).hex()}.json")
        with open(path, "w") as handle:
            json.dump(data, handle)


def start(out_dir: str, root: str) -> None:
    """Collect in this interpreter until it exits (the sitecustomize
    hook).  The exit hooks hold the collector alive."""
    _Collector(out_dir, root).start()


_SITECUSTOMIZE = """\
import importlib.util as _util
import sys as _sys

_spec = _util.spec_from_file_location("_reach_collector", {script!r})
_module = _util.module_from_spec(_spec)
_sys.modules["_reach_collector"] = _module
_spec.loader.exec_module(_module)
_module.start({out_dir!r}, {root!r})
"""


def run(out_dir: str, root: str, command: list[str]) -> int:
    """Run ``command`` with the collector in every interpreter it starts."""
    import subprocess

    out_dir = os.path.abspath(out_dir)
    boot = os.path.join(out_dir, "boot")
    os.makedirs(boot, exist_ok=True)
    with open(os.path.join(boot, "sitecustomize.py"), "w") as handle:
        handle.write(
            _SITECUSTOMIZE.format(
                script=os.path.abspath(__file__),
                out_dir=out_dir,
                root=os.path.abspath(root),
            )
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (boot, env.get("PYTHONPATH")) if p)
    return subprocess.run(command, env=env).returncode


# -- reporting ---------------------------------------------------------------


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _docstring_lines(tree) -> set[int]:
    import ast

    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def executable(path: str) -> tuple[set[int], dict[tuple[int, str], str]]:
    """Executable line numbers of ``path`` and its functions, keyed by
    ``(first line, name)`` with the qualified name as value."""
    import ast

    with open(path) as handle:
        source = handle.read()
    module = compile(source, path, "exec")
    lines: set[int] = set()
    functions: dict[tuple[int, str], str] = {}
    for code in _code_objects(module):
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        if code is not module and not code.co_name.startswith("<"):
            qualname = getattr(code, "co_qualname", code.co_name)
            functions[(code.co_firstlineno, code.co_name)] = qualname
    lines -= _docstring_lines(ast.parse(source))
    lines.discard(0)
    return lines, functions


def _ranges(lines: list[int]) -> str:
    spans: list[tuple[int, int]] = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1] = (spans[-1][0], line)
        else:
            spans.append((line, line))
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def merge(out_dir: str) -> dict[str, dict[str, set]]:
    """Every dump in ``out_dir``: file -> {"lines", "starts"}."""
    merged: dict[str, dict[str, set]] = {}
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("hits-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name)) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError:
                continue  # a process killed mid-dump
        for filename, hits in data.items():
            entry = merged.setdefault(filename, {"lines": set(), "starts": set()})
            entry["lines"].update(hits["lines"])
            entry["starts"].update(tuple(s) for s in hits["starts"])
    return merged


def report(out_dir: str, root: str) -> dict:
    root = os.path.realpath(root)
    merged = merge(out_dir)
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            lines, functions = executable(path)
            hits = merged.get(path, {"lines": set(), "starts": set()})
            unreached = sorted(lines - hits["lines"])
            rel = os.path.relpath(path, root)
            files[rel] = {
                "executable": len(lines),
                "unreached": len(unreached),
                "unreached_lines": _ranges(unreached),
                "unreached_functions": sorted(
                    qualname
                    for key, qualname in functions.items()
                    if key not in hits["starts"]
                ),
            }
    packages: dict[str, dict[str, int]] = {}
    for rel, entry in files.items():
        parts = rel.split(os.sep)
        package = parts[0] if len(parts) > 1 else "."
        row = packages.setdefault(package, {"executable": 0, "unreached": 0})
        row["executable"] += entry["executable"]
        row["unreached"] += entry["unreached"]
    packages["total"] = {
        key: sum(row[key] for row in packages.values()) for key in ("executable", "unreached")
    }
    return {"root": root, "packages": packages, "files": files}


def print_report(result: dict, per_file: bool) -> None:
    print(f"line reach under {result['root']}:")
    print(f"  {'package':<28} {'executable':>10} {'unreached':>10}")
    for package, row in result["packages"].items():
        print(f"  {package:<28} {row['executable']:>10} {row['unreached']:>10}")
    if per_file:
        for rel, entry in result["files"].items():
            if entry["unreached"]:
                print(f"{rel}: {entry['unreached']} of {entry['executable']} unreached: "
                      f"{entry['unreached_lines']}")


def check(result: dict) -> list[str]:
    """Unreached functions missing from ALLOWLIST, and allowlisted
    functions that ran."""
    unreached = {
        f"{rel}::{qualname}"
        for rel, entry in result["files"].items()
        for qualname in entry["unreached_functions"]
    }
    return [
        f"{key} never ran and is not in ALLOWLIST" for key in sorted(unreached - set(ALLOWLIST))
    ] + [
        f"{key} is allowlisted but ran; take it out of ALLOWLIST"
        for key in sorted(set(ALLOWLIST) - unreached)
    ]


def main(argv: list[str]) -> int:
    import argparse

    command: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, command = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run_parser = sub.add_parser("run", help="run one command (after --) under the collector")
    run_parser.add_argument("dir")
    run_parser.add_argument("--root", default=DEFAULT_ROOT)
    report_parser = sub.add_parser("report", help="merge the dumps and report")
    report_parser.add_argument("dir")
    report_parser.add_argument("--root", default=DEFAULT_ROOT)
    report_parser.add_argument("--json", help="write the report here")
    report_parser.add_argument("--files", action="store_true", help="one row per file")
    report_parser.add_argument(
        "--check", action="store_true", help="fail unless ALLOWLIST names exactly the unreached functions"
    )
    args = parser.parse_args(argv)
    if args.action == "run":
        if not command:
            parser.error("run needs a command after --")
        return run(args.dir, args.root, command)
    result = report(args.dir, args.root)
    print_report(result, args.files)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    if not args.check:
        return 0
    problems = check(result)
    for problem in problems:
        print(f"REACH: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
