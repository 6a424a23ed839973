#!/usr/bin/env python
"""Repo-specific structural lint (stdlib only; CI `static-analysis`).

Checks conventions a generic linter cannot know:

* every ``_fuse_<op>`` handler defined on :class:`repro.fusion.fuse.
  Fuser` is registered in ``Fuser._HANDLERS`` (a handler written but
  never wired silently falls back to structural fusion);
* every concrete optimizer pass/rewrite rule overrides the default
  ``name`` — blame messages ("rule 'pass' produced …") are useless
  with the base-class placeholder;
* no bare ``except:`` anywhere under ``src/`` (they swallow
  ``KeyboardInterrupt``/``SystemExit``; the engine's error taxonomy
  depends on typed handlers);
* no ``exec``/``eval`` call anywhere under ``src/``, and none of the
  names of the retired kernel generator (``RETIRED_NAMES``);
* every memo slot written into a node's ``__dict__`` under
  ``src/repro/algebra`` is named in ``expressions.MEMO_SLOTS``, the
  list ``Expression.__getstate__`` strips (a cache missing from it
  would travel in every pickled plan);
* every package under ``src/repro`` — and their total — stays at or
  under its entry in ``PACKAGE_LINE_CEILINGS``.  The table (non-blank,
  non-comment, non-docstring lines) is printed on every run so the
  trend is visible PR over PR; a PR that shrinks a package lowers its
  ceiling to the new count, so the numbers only ratchet down;
* nothing tracked by git is matched by ``.gitignore`` (build products
  and run outputs that were committed before the ignore rule existed).

Exit status is the number of violations.
"""

from __future__ import annotations

import ast
import inspect
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

#: Names of the pipeline code generator deleted in PR 22; none may
#: come back under ``src/``.
RETIRED_NAMES = (
    "_KERNEL_CACHE",
    "_CODE_CACHE",
    "kernel_audit",
    "audit_kernels",
    "_build_kernel",
)


def lint_fuser_handlers() -> list[str]:
    from repro.fusion.fuse import Fuser

    problems = []
    registered = set(Fuser._HANDLERS.values())
    for name, member in inspect.getmembers(Fuser, inspect.isfunction):
        if not name.startswith("_fuse_") or name == "_fuse_structural":
            continue
        if member not in registered:
            problems.append(
                f"Fuser.{name} is defined but not registered in "
                f"Fuser._HANDLERS (it will never dispatch)"
            )
    return problems


def lint_pass_names() -> list[str]:
    import repro.optimizer.pipeline  # noqa: F401 - registers the passes
    import repro.optimizer.rewrites  # noqa: F401
    from repro.optimizer.rule import PlanPass, RewriteRule

    problems = []
    stack = [PlanPass]
    seen = set()
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub in seen:
                continue
            seen.add(sub)
            stack.append(sub)
            if inspect.isabstract(sub):
                continue
            if sub.name in (PlanPass.name, RewriteRule.name):
                problems.append(
                    f"{sub.__module__}.{sub.__qualname__} does not override "
                    f"the default pass name {sub.name!r}; rule blame "
                    f"messages would be anonymous"
                )
    return problems


def lint_source_trees() -> list[str]:
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        text = path.read_text()
        problems += [
            f"{rel}: mentions {name}, part of the deleted kernel generator"
            for name in RETIRED_NAMES
            if name in text
        ]
        tree = ast.parse(text, filename=str(rel))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                problems.append(f"{rel}:{node.lineno}: bare 'except:'")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "eval")
            ):
                problems.append(f"{rel}:{node.lineno}: {node.func.id}() call")
    return problems


#: Calls that write a memo slot, and which argument names the slot.
_SLOT_WRITERS = {"object.__setattr__": 1, "transform_memoized": 2}


def lint_memo_slots() -> list[str]:
    from repro.algebra.expressions import MEMO_SLOTS

    problems = []
    for path in sorted((SRC / "repro" / "algebra").glob("*.py")):
        tree = ast.parse(path.read_text())
        # A declared dataclass field set in __post_init__ is no memo.
        declared = {
            node.target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            position = _SLOT_WRITERS.get(ast.unparse(node.func))
            if position is None or len(node.args) <= position:
                continue
            slot = node.args[position]
            if (
                isinstance(slot, ast.Constant)
                and isinstance(slot.value, str)
                and slot.value.startswith("_")
                and slot.value not in MEMO_SLOTS
                and slot.value not in declared
            ):
                problems.append(
                    f"{path.relative_to(SRC)}:{node.lineno}: memo slot "
                    f"{slot.value!r} is not in expressions.MEMO_SLOTS, so "
                    f"Expression.__getstate__ would pickle it"
                )
    return problems


#: Ratchet for source lines per package (ROADMAP aim 2): each entry is
#: the count at the last PR that changed it; lower it freely, raise it
#: only by the net growth the PR's issue budgeted and CHANGES.md records.
PACKAGE_LINE_CEILINGS = {
    "repro": 497,
    "repro.algebra": 3552,
    "repro.catalog": 90,
    "repro.engine": 3866,
    "repro.fusion": 579,
    "repro.optimizer": 3109,
    "repro.server": 846,
    "repro.sql": 1313,
    "repro.storage": 584,
    "repro.testing": 1068,
    "repro.tpcds": 1077,
    "total": 16581,
}

_NON_CODE_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
)


def count_source_lines(text: str) -> int:
    """Lines of ``text`` holding code: not blank, not comment-only, and
    not part of a module/class/function docstring."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NON_CODE_TOKENS:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(code)


def package_source_lines(root: Path = SRC / "repro") -> dict[str, int]:
    """Source lines per package directly under ``root`` (top-level
    modules count under ``repro``)."""
    table: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        package = f"repro.{rel.parts[0]}" if len(rel.parts) > 1 else "repro"
        table[package] = table.get(package, 0) + count_source_lines(path.read_text())
    return table


def lint_source_lines() -> list[str]:
    table = package_source_lines()
    table["total"] = sum(table.values())
    print("source lines per package (non-blank, non-comment, non-docstring):")
    for package in sorted(table, key=lambda name: (name == "total", name)):
        print(f"  {package:<18} {table[package]:>6}")
    return [
        f"{package} has {lines} source lines, over the committed ceiling "
        f"of {PACKAGE_LINE_CEILINGS.get(package, 0)}; delete code or justify "
        f"raising PACKAGE_LINE_CEILINGS in benchmarks/lint_repo.py"
        for package, lines in table.items()
        if lines > PACKAGE_LINE_CEILINGS.get(package, 0)
    ]


def lint_tracked_ignored() -> list[str]:
    """Tracked files that ``.gitignore`` matches."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--ignored", "--exclude-standard"],
        cwd=REPO,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    return [f"{path} is tracked but matched by .gitignore" for path in listed]


def main() -> int:
    problems = (
        lint_fuser_handlers()
        + lint_pass_names()
        + lint_source_trees()
        + lint_memo_slots()
        + lint_source_lines()
        + lint_tracked_ignored()
    )
    for problem in problems:
        print(f"LINT: {problem}")
    if not problems:
        print("repo lint: ok")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
