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
  names of deleted code (``RETIRED_NAMES``): the kernel generator, the
  no-NumPy mode, the vector router (its own join, its dispatch hook and
  its breaker counters), spooling, the strict block modes, the plan
  substitution helper, fragment speculation, the renderer's second
  expression renderer, ``AggregateAssignment.with_mask``, the
  shuffle fragments (``Repartition`` and its jobs), the four cleanup
  passes ``Cleanup`` replaced, the per-rule fusion switches, the
  column chunk's lazy second copy (its cache fields, its second
  checksum check and ``invalidate_vector``), the options only tests
  set and the modules and functions nothing called, and the second
  default block size and the private copies of ``child_bounded`` and
  ``concat_column``, scalar aggregation's own fold, the list-only
  AND/OR narrowing, the service's degradation lattice, the fault
  injector's stalls, scope filters and table outage, ``repro serve``
  and the error nothing raised;
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
  and run outputs that were committed before the ignore rule existed);
* every ``OptimizerConfig`` and ``ServiceConfig`` field has a caller:
  something under ``src/``, ``benchmarks/`` or ``examples/`` sets it by
  name (``name=`` or ``"name":``).  An option only tests set is a
  constant.

Exit status is the number of violations.
"""

from __future__ import annotations

import ast
import inspect
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

#: Names of deleted code — the pipeline code generator, the no-NumPy
#: mode, the vector router (its join, its dispatch hook, its breaker
#: counters), spooling (its operator, pass, switch, metrics and
#: bookkeeping), the strict block modes, the plan substitution helper,
#: fragment speculation, the renderer's second expression renderer, an
#: unused aggregate helper, the shuffle fragments (the Repartition
#: operator, its two scheduler jobs and their constants), the four
#: cleanup passes that one ``Cleanup`` fixpoint replaced and the
#: per-rule fusion switches (``enable_union_all`` also covers
#: ``enable_union_all_on_join``), and the column chunk's lazily built
#: second copy (its cache fields, its per-read check, its invalidation
#: hook), the options that only tests set (now constants), the
#: session's fault-injector lock, and the code nothing called (the plan
#: properties module, the workload comparison, ``implied_by``), and
#: the session's unread binder, and scalar aggregation's own fold (its
#: block feeder, its array fold, its lane-order sum, the accumulator's
#: block method) and the list-only AND/OR narrowing, and the service's
#: degradation lattice (its supervisor, its per-rung breakers and their
#: error, the rungs tried and the open-breaker step), and the fault
#: injector's stalls, scope filters and table outage, ``repro serve``,
#: the worker-pool error nothing raised, and the four options only tests
#: set (``FRAGMENT_RETRIES`` is now a constant of ``engine/parallel.py``,
#: ``QUEUE_TIMEOUT_MS`` / ``QUERY_TIMEOUT_MS`` of ``server/service.py``);
#: none may come back under ``src/``.
RETIRED_NAMES = (
    "_KERNEL_CACHE",
    "_CODE_CACHE",
    "kernel_audit",
    "audit_kernels",
    "_build_kernel",
    "REPRO_DISABLE_NUMPY",
    "numpy_enabled",
    "_run_join_nv",
    "install_dispatch",
    "block_dispatch",
    "dispatch_blocks_batch",
    "_fetch_buffered",
    "breakers_vectorized",
    "breakers_batch",
    "Spool",
    "SpoolDuplicateSubtrees",
    "enable_spooling",
    "spooled_rows",
    "spool_read_rows",
    "spool_cache",
    "next_spool_id",
    "strict_blocks",
    "substitute_in_plan",
    "fragment_timeout_ms",
    "_check_stalls",
    "_render_with_names",
    "_render_marked",
    "_RawName",
    "with_mask",
    "Repartition",
    "_ShuffleGroupByJob",
    "_ShuffleJoinJob",
    "_SHUFFLE_JOIN_KINDS",
    "_TAG_CID_BASE",
    "SimplifyExpressions",
    "RemoveTrivialFilters",
    "MergeProjections",
    "PruneUnionBranches",
    "fusion_rules_enabled",
    "enable_groupby_join_to_window",
    "enable_join_on_keys",
    "enable_union_all",
    "invalidate_vector",
    "_vector_state",
    "_vector_crc",
    "_chunk_intact",
    "fusion_min_rows",
    "cache_max_populate",
    "breaker_window_s",
    "breaker_failure_threshold",
    "breaker_min_samples",
    "breaker_cooldown_s",
    "health_interval_s",
    "_key_range_boundaries",
    "shed_retry_ms",
    "retry_rejected",
    "max_delay_ms",
    "_STORE_CONFIG_LOCK",
    "algebra.properties",
    "candidate_keys",
    "contains_aggregate_or_join",
    "compare_workloads",
    "WorkloadReport",
    "QueryComparison",
    "implied_by",
    "self._binder",
    "DEFAULT_BLOCK_ROWS",
    "_child_bounded",
    "_concat_column",
    "accumulate_block",
    "_accumulate",
    "_fold_left",
    "add_block",
    "_NARROW_MIN_NODES",
    "_NARROW_LANE_COST",
    "eval_terms",
    "DegradationSupervisor",
    "CircuitBreaker",
    "CircuitOpenError",
    "ladder_path",
    "step_down",
    "stall_rate",
    "stalls_at",
    "fail_gets",
    "on_get",
    "serve_main",
    "WorkerPoolError",
    "lower_distinct_before_fusion",
    "fragment_retries",
    "queue_timeout_ms",
    "query_timeout_ms",
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
            f"{rel}: mentions {name}, a name of deleted code"
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
    "repro": 373,
    "repro.algebra": 3092,
    "repro.catalog": 90,
    "repro.engine": 3253,
    "repro.fusion": 482,
    "repro.optimizer": 2809,
    "repro.server": 598,
    "repro.sql": 1322,
    "repro.storage": 535,
    "repro.testing": 1063,
    "repro.tpcds": 989,
    "total": 14606,
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


def lint_config_callers() -> list[str]:
    """Config fields that no caller outside ``tests/`` sets by name."""
    from dataclasses import fields

    from repro.optimizer.config import OptimizerConfig
    from repro.server.service import ServiceConfig

    this = Path(__file__).resolve()
    corpus = "\n".join(
        path.read_text()
        for root in ("src", "benchmarks", "examples")
        for path in sorted((REPO / root).rglob("*.py"))
        if path.resolve() != this
    )
    return [
        f"{config.__name__}.{field.name} is set by no caller outside tests/; "
        f"make it a module constant"
        for config in (OptimizerConfig, ServiceConfig)
        for field in fields(config)
        if not re.search(rf"\b{field.name}=(?!=)|[\"']{field.name}[\"']\s*:", corpus)
    ]


def main() -> int:
    problems = (
        lint_fuser_handlers()
        + lint_pass_names()
        + lint_source_trees()
        + lint_memo_slots()
        + lint_source_lines()
        + lint_tracked_ignored()
        + lint_config_callers()
    )
    for problem in problems:
        print(f"LINT: {problem}")
    if not problems:
        print("repo lint: ok")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
