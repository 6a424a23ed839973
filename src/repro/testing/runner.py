"""The fuzz campaign driver: generate → check → minimize → report.

``run_fuzz(seed, count)`` is what both ``repro fuzz`` (CLI) and the CI
fuzz-smoke job call.  It is fully deterministic for a given
(seed, count, scale, data_seed) tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.catalog.catalog import Catalog
from repro.storage.columnar import Store
from repro.testing.generator import QueryGenerator, QuerySpec
from repro.testing.minimizer import minimize
from repro.testing.oracle import DifferentialOracle, Divergence
from repro.tpcds.generator import generate_dataset


@dataclass
class FuzzFailure:
    """One divergence, with its delta-debugged minimal reproduction."""

    index: int
    kind: str
    detail: str
    sql: str
    minimized_sql: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "detail": self.detail,
            "sql": self.sql,
            "minimized_sql": self.minimized_sql,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seed: int
    count: int
    executed: int = 0
    passed: int = 0
    benign: Counter = field(default_factory=Counter)
    #: Queries generated per generator shape (coverage of the matrix).
    shapes: Counter = field(default_factory=Counter)
    #: Predicates drawn per ``QueryGenerator._predicate`` form (only
    #: ``bucket`` nests AND/OR deep enough for narrowing inside narrowing).
    predicate_forms: Counter = field(default_factory=Counter)
    #: Queries per operator in some cell's optimized plan ("GroupBy" =
    #: a keyed one): Window and MarkDistinct exist only after rewrites.
    operators: Counter = field(default_factory=Counter)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.executed}/{self.count} queries, "
            f"{self.passed} agreed across the full matrix, "
            f"{sum(self.benign.values())} uniformly unbindable, "
            f"{len(self.failures)} divergences"
        ]
        for title, counts in (
            ("shapes", self.shapes),
            ("predicate forms", self.predicate_forms),
            ("plan operators", self.operators),
        ):
            lines.append(
                f"  {title}: "
                + ", ".join(f"{name}={n}" for name, n in sorted(counts.items()))
            )
        for cls, n in sorted(self.benign.items()):
            lines.append(f"  benign {cls}: {n}")
        for failure in self.failures:
            lines.append(f"  FAILURE #{failure.index} [{failure.kind}] {failure.detail}")
            lines.append(f"    minimized: {failure.minimized_sql}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "executed": self.executed,
            "passed": self.passed,
            "benign": dict(self.benign),
            "shapes": dict(self.shapes),
            "predicate_forms": dict(self.predicate_forms),
            "operators": dict(self.operators),
            "failures": [f.to_dict() for f in self.failures],
            "ok": self.ok,
        }


def run_fuzz(
    seed: int = 0,
    count: int = 100,
    scale: float = 0.01,
    data_seed: int = 7,
    store: Store | None = None,
    minimize_failures: bool = True,
    fail_fast: bool = False,
    analysis: bool = True,
    workers: tuple[int, ...] = (),
    cost_axis: bool = False,
    progress: Callable[[int, "FuzzReport"], None] | None = None,
) -> FuzzReport:
    """Run ``count`` seeded queries through the differential oracle.

    ``store`` lets callers (tests) reuse an already generated dataset;
    otherwise one is generated at ``scale`` with ``data_seed``.
    ``analysis`` arms the static-facts runtime check in every cell
    (see :class:`~repro.testing.oracle.DifferentialOracle`).
    ``workers`` adds parallel-execution cells to the matrix: each
    count > 1 re-runs every query on the batch engine at ``workers=n``
    against one shared fragment worker pool.  ``cost_axis`` adds
    costed-vs-heuristic cells: the batch engine re-runs every query
    with cost-based rewrite selection, and the rows must match.
    """
    if store is None:
        store = generate_dataset(scale=scale, seed=data_seed)
    catalog = Catalog()
    store.load_catalog(catalog)
    generator = QueryGenerator(catalog, seed=seed)
    report = FuzzReport(seed=seed, count=count)

    with DifferentialOracle(
        store,
        analysis=analysis,
        worker_counts=tuple(workers),
        cost_axis=cost_axis,
    ) as oracle:
        for index in range(count):
            spec = generator.generate()
            report.shapes[spec.shape] += 1
            report.predicate_forms.update(spec.predicate_forms)
            divergence = oracle.check(spec.render())
            report.operators.update(oracle.last_operators)
            report.executed += 1
            if divergence is None:
                if oracle.last_status == "benign":
                    report.benign[oracle.last_error_class] += 1
                else:
                    report.passed += 1
            else:
                minimized = spec
                if minimize_failures:
                    minimized = minimize(spec, _same_kind(oracle, divergence))
                report.failures.append(
                    FuzzFailure(
                        index=index,
                        kind=divergence.kind,
                        detail=divergence.detail,
                        sql=spec.render(),
                        minimized_sql=minimized.render(),
                    )
                )
                if fail_fast:
                    break
            if progress is not None:
                progress(index + 1, report)
    return report


def _same_kind(
    oracle: DifferentialOracle, original: Divergence
) -> Callable[[QuerySpec], bool]:
    def still_fails(spec: QuerySpec) -> bool:
        candidate = oracle.check(spec.render())
        return candidate is not None and candidate.kind == original.kind

    return still_fails
