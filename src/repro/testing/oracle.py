"""Differential oracle: one query, twelve answers, zero tolerance.

Each query runs across the full configuration matrix

    {row, batch, batch-lists} engine
        × {fusion on, off} × {cache cold, warm replay}

— twelve cells, every one with ``validate_plans=True`` so the
per-rule plan invariant validator is armed.  ``worker_counts`` adds a
parallel-execution axis: for each count ``n > 1`` the batch engine
re-runs the query at ``workers=n`` (fusion on/off × cold/warm) against
a shared persistent fragment worker pool, and its ``bytes_scanned``
must match the serial batch cell exactly — fragment scheduling, retry
and metric merging may not perturb rows *or* accounting.  Likewise
every ``batch`` and ``batch-lists`` cell must scan exactly the bytes of
the ``row`` cell with the same fusion setting and phase.  The cold/warm dimension
comes from executing the query twice in a fresh cache-enabled session:
the first run populates the cross-query plan cache, the second replays
it.  The ``batch`` cells run the block engine as configured by default
(NumPy vector columns) over blocks of 1 024 rows, so scans hand out
runs of chunks; ``batch-lists`` runs it with ``vectors="python"`` over
blocks of ``batch_rows`` (128) rows, so list columns and chunk slices
stay covered.

A query *passes* when all cells produce the same row multiset (floats
canonicalized to 10 significant digits — fusion legitimately reorders
float accumulation) or all fail with the same
benign error class (the generator occasionally produces SQL the binder
rejects; that is uniform and expected).  Everything else is a
:class:`Divergence`:

* ``rows``  — cells disagree on the result multiset;
* ``error`` — cells disagree on outcome/error class, or agree on an
  error class that should never happen (ExecutionError, PlanError …);
* ``validator`` — the plan invariant validator fired (OptimizerError);
* ``analysis`` — the abstract interpreter's static column facts
  (repro.algebra.analysis) contradicted the rows a cell actually
  produced: a value outside its derived bounds, a NULL in a column
  proved non-nullable, a duplicate under a derived key …;
* ``crash`` — a non-ReproError exception escaped the engine.

The ``analysis`` dimension makes the fuzzer a soundness oracle for the
abstract interpreter itself: every one of the twelve cells checks its
real output against the facts derived from its own optimized plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.analysis import verify_facts
from repro.algebra.operators import GroupBy
from repro.algebra.visitors import walk_plan
from repro.engine.session import Session
from repro.errors import BindingError, OptimizerError, ReproError, SqlSyntaxError
from repro.optimizer.config import OptimizerConfig
from repro.storage.columnar import Store

#: Error classes that may legitimately be raised for generated SQL, as
#: long as every cell agrees: the query never started executing.
BENIGN_ERRORS = ("SqlSyntaxError", "BindingError")

#: Significant digits floats are canonicalized to before comparison.
FLOAT_DIGITS = 10


@dataclass
class CellOutcome:
    """What one configuration cell produced for a query."""

    rows: list[tuple] | None
    error: str | None = None  # error class name; "crash:<Type>" for non-Repro
    message: str = ""
    #: Scan accounting, compared exactly between the block engine's
    #: cells and the row engine's, and between parallel cells and their
    #: serial counterparts.
    bytes_scanned: float | None = None

    @property
    def signature(self) -> str:
        return "rows" if self.error is None else self.error


@dataclass
class Divergence:
    """A failed differential check."""

    sql: str
    kind: str  # "rows" | "error" | "validator" | "analysis" | "crash"
    detail: str
    cells: dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:
        lines = [f"[{self.kind}] {self.detail}", f"  sql: {self.sql}"]
        for cell, sig in self.cells.items():
            lines.append(f"  {cell}: {sig}")
        return "\n".join(lines)


def canonical_value(value: object) -> object:
    """Floats rounded to FLOAT_DIGITS significant digits; everything
    else unchanged.  Fusion changes plan shapes and therefore float
    accumulation order, so last-ulp differences are not divergences."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        return float(f"{value:.{FLOAT_DIGITS}g}")
    return value


def canonical_rows(rows: list[tuple]) -> list[tuple]:
    """A canonical multiset representation: per-value float rounding,
    then a total order over rows (None sorts last per column)."""
    canon = [tuple(canonical_value(v) for v in row) for row in rows]
    return sorted(canon, key=lambda r: tuple((v is None, str(v)) for v in r))


class DifferentialOracle:
    """Runs queries across the full config matrix against one store."""

    def __init__(
        self,
        store: Store,
        batch_rows: int = 128,
        analysis: bool = True,
        worker_counts: tuple[int, ...] = (),
        cost_axis: bool = False,
    ):
        self.store = store
        self.batch_rows = batch_rows
        #: When set, every successful cell also checks its rows against
        #: the static column facts derived from its optimized plan.
        self.analysis = analysis
        #: Costed-vs-heuristic axis (DESIGN.md §15): re-run every query
        #: on the batch engine with ``cost_based=True`` (fusion on/off
        #: × cold/warm).  Cost-based selection changes which rewrites
        #: fire, never what a query returns — these cells are held to
        #: the same row-identical bar as every other cell.
        self.cost_axis = cost_axis
        #: Extra parallel-execution cells: for each ``n > 1`` the batch
        #: engine re-runs every query at ``workers=n`` (fusion on/off ×
        #: cold/warm), sharing one persistent worker pool per count so
        #: the fork cost amortizes across the whole campaign.  Rows and
        #: ``bytes_scanned`` must match the serial cells exactly.
        self.worker_counts = tuple(n for n in worker_counts if n > 1)
        self._pools: dict[int, object] = {}
        #: Status of the most recent ``check`` call: "ok", "benign" (a
        #: uniform parse/bind error), or "divergence".  Drivers read it
        #: for reporting; it carries no oracle state.
        self.last_status = "ok"
        self.last_error_class: str | None = None
        #: Operators ("GroupBy" = a keyed one) in the optimized plans of
        #: the most recent ``check``: the drivers' reach count.
        self.last_operators: set[str] = set()

    # -- one cell ----------------------------------------------------------

    #: The engine axis: display label → OptimizerConfig overrides.  The
    #: ``batch`` cell's blocks hold more rows than the fuzz dataset's
    #: ``store_sales`` (partitions of 256 and 144 rows at scale 0.01), so
    #: its drained scans coalesce chunks and its joins probe blocks that
    #: span partitions; every other cell runs ``batch_rows``, by default
    #: below the smallest partition, so blocks slice chunks.
    ENGINE_AXIS = (
        ("row", {"engine": "row"}),
        ("batch", {"engine": "batch", "batch_rows": 1024}),
        ("batch-lists", {"engine": "batch", "vectors": "python"}),
    )

    def _config(self, overrides: dict, fusion: bool) -> OptimizerConfig:
        return OptimizerConfig(
            enable_fusion=fusion,
            enable_plan_cache=True,
            validate_plans=True,
            **{"batch_rows": self.batch_rows, **overrides},
        )

    def _pool(self, workers: int):
        """The shared persistent worker pool for ``workers`` (created
        on first use, closed by :meth:`close`)."""
        pool = self._pools.get(workers)
        if pool is None:
            from repro.engine.parallel import WorkerPool

            pool = WorkerPool(self.store, workers)
            self._pools[workers] = pool
        return pool

    def close(self) -> None:
        """Shut down the shared worker pools (idempotent)."""
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    def __enter__(self) -> "DifferentialOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run_once(self, session: Session, sql: str) -> CellOutcome:
        try:
            result = session.execute(sql)
            self.last_operators.update(
                node.name
                for node in walk_plan(result.optimized_plan)
                if not (isinstance(node, GroupBy) and node.is_scalar)
            )
            if self.analysis:
                violations = verify_facts(
                    result.optimized_plan, result.rows, session.catalog
                )
                if violations:
                    return CellOutcome(
                        None,
                        error="AnalysisViolation",
                        message="; ".join(violations),
                    )
            return CellOutcome(
                rows=canonical_rows(result.rows),
                bytes_scanned=result.metrics.bytes_scanned,
            )
        except (SqlSyntaxError, BindingError) as exc:
            return CellOutcome(None, error=type(exc).__name__, message=str(exc))
        except ReproError as exc:
            return CellOutcome(None, error=type(exc).__name__, message=str(exc))
        except RecursionError as exc:
            return CellOutcome(None, error="crash:RecursionError", message=str(exc))
        except Exception as exc:  # noqa: BLE001 - the whole point of the oracle
            return CellOutcome(
                None, error=f"crash:{type(exc).__name__}", message=str(exc)
            )

    # -- the matrix --------------------------------------------------------

    def run_matrix(self, sql: str) -> dict[str, CellOutcome]:
        """All cells for one query (twelve), plus four parallel cells
        per entry in ``worker_counts``."""
        outcomes: dict[str, CellOutcome] = {}
        self.last_operators = set()
        for engine, overrides in self.ENGINE_AXIS:
            for fusion in (False, True):
                session = Session(self.store, self._config(overrides, fusion))
                label = f"{engine}/{'fusion' if fusion else 'baseline'}"
                outcomes[f"{label}/cold"] = self._run_once(session, sql)
                outcomes[f"{label}/warm"] = self._run_once(session, sql)
        if self.cost_axis:
            for fusion in (False, True):
                session = Session(
                    self.store,
                    self._config({"engine": "batch", "cost_based": True}, fusion),
                )
                label = f"batch-costed/{'fusion' if fusion else 'baseline'}"
                outcomes[f"{label}/cold"] = self._run_once(session, sql)
                outcomes[f"{label}/warm"] = self._run_once(session, sql)
        for workers in self.worker_counts:
            overrides = {"engine": "batch", "workers": workers}
            for fusion in (False, True):
                session = Session(
                    self.store,
                    self._config(overrides, fusion),
                    worker_pool=self._pool(workers),
                )
                label = f"batch-w{workers}/{'fusion' if fusion else 'baseline'}"
                outcomes[f"{label}/cold"] = self._run_once(session, sql)
                outcomes[f"{label}/warm"] = self._run_once(session, sql)
        return outcomes

    def check(self, sql: str) -> Divergence | None:
        """None when all cells agree benignly; a Divergence otherwise."""
        outcomes = self.run_matrix(sql)
        signatures = {cell: out.signature for cell, out in outcomes.items()}
        distinct = set(signatures.values())
        self.last_status = "ok"
        self.last_error_class = None

        if len(distinct) > 1:
            self.last_status = "divergence"
            detail = "cells disagree on outcome: " + ", ".join(sorted(distinct))
            kind = "error"
            if any(s.startswith("crash:") for s in distinct):
                kind = "crash"
            elif "AnalysisViolation" in distinct:
                kind = "analysis"
            return Divergence(sql, kind, detail, signatures)

        (signature,) = distinct
        if signature != "rows":
            first = next(iter(outcomes.values()))
            if signature in BENIGN_ERRORS:
                self.last_status = "benign"
                self.last_error_class = signature
                return None
            self.last_status = "divergence"
            if signature == OptimizerError.__name__:
                kind = "validator"
            elif signature == "AnalysisViolation":
                kind = "analysis"
            elif signature.startswith("crash:"):
                kind = "crash"
            else:
                kind = "error"
            return Divergence(
                sql, kind, f"all cells failed with {signature}: {first.message}",
                signatures,
            )

        reference_cell = "row/baseline/cold"
        reference = outcomes[reference_cell].rows
        for cell, outcome in outcomes.items():
            if outcome.rows != reference:
                self.last_status = "divergence"
                detail = (
                    f"{cell} disagrees with {reference_cell}: "
                    f"{_diff_summary(reference, outcome.rows)}"
                )
                cells = {
                    c: f"{len(o.rows)} rows" for c, o in outcomes.items()
                }
                return Divergence(sql, "rows", detail, cells)
        # Exact accounting is part of the engine contract (DESIGN.md
        # §7): the block engine, in either representation, scans what
        # the row engine scans, and a parallel cell what its serial twin
        # scans (fragment metric merging must be lossless) — a cell that
        # scans more or fewer bytes is wrong even if its rows agree.
        twins = [("batch", "row"), ("batch-lists", "row")]
        twins += [(f"batch-w{n}", "batch") for n in self.worker_counts]
        for engine, reference_engine in twins:
            for variant in ("baseline", "fusion"):
                for phase in ("cold", "warm"):
                    cell = f"{engine}/{variant}/{phase}"
                    twin = f"{reference_engine}/{variant}/{phase}"
                    got, want = outcomes[cell], outcomes[twin]
                    if got.bytes_scanned != want.bytes_scanned:
                        self.last_status = "divergence"
                        return Divergence(
                            sql,
                            "rows",
                            f"{cell} scanned {got.bytes_scanned} bytes vs "
                            f"{twin} {want.bytes_scanned}",
                            {
                                c: f"{o.bytes_scanned} bytes"
                                for c, o in outcomes.items()
                            },
                        )
        return None


def _diff_summary(expected: list[tuple], actual: list[tuple]) -> str:
    if len(expected) != len(actual):
        return f"{len(expected)} vs {len(actual)} rows"
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return f"first differing row {i}: {e!r} vs {a!r}"
    return "rows differ"
