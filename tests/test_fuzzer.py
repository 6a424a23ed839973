"""Tests for the differential fuzzing infrastructure itself.

The fuzzer is only trustworthy if (a) it is deterministic, (b) its
oracle actually detects planted bugs, and (c) its minimizer shrinks
failing queries without changing the failure kind.  These tests pin
all three, plus the row-canonicalization rules the oracle compares
with.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Comparison
from repro.algebra.operators import GroupBy
from repro.catalog.catalog import Catalog
from repro.fusion.fuse import Fuser
from repro.fusion.result import FusionResult
from repro.testing.generator import QueryGenerator
from repro.testing.minimizer import minimize
from repro.testing.oracle import DifferentialOracle, canonical_rows
from repro.testing.runner import run_fuzz


@pytest.fixture(scope="module")
def small_store():
    # Scale 0.01 (the fuzz campaign default): sparse enough that
    # selective predicates empty out groups, which is what the
    # compensation-sensitive checks below need.
    from repro.tpcds.generator import generate_dataset

    return generate_dataset(scale=0.01, seed=7)


@pytest.fixture(scope="module")
def catalog(small_store) -> Catalog:
    catalog = Catalog()
    small_store.load_catalog(catalog)
    return catalog


class TestGenerator:
    def test_deterministic_for_seed(self, catalog):
        a = QueryGenerator(catalog, seed=42)
        b = QueryGenerator(catalog, seed=42)
        for _ in range(50):
            assert a.generate().render() == b.generate().render()

    def test_seeds_differ(self, catalog):
        a = [QueryGenerator(catalog, seed=0).generate().render() for _ in range(5)]
        b = [QueryGenerator(catalog, seed=1).generate().render() for _ in range(5)]
        assert a != b

    def test_streams_are_varied(self, catalog):
        gen = QueryGenerator(catalog, seed=3)
        queries = {gen.generate().render() for _ in range(50)}
        assert len(queries) > 40

    def test_bucket_predicates_are_generated_and_counted(self, catalog):
        """Q28's mask shape (a range AND a three-way OR of depth-1
        predicates) is the only form with AND/OR nested deep enough for
        the block engines to narrow inside a narrowed block."""
        gen = QueryGenerator(catalog, seed=0)
        specs = [gen.generate() for _ in range(100)]
        with_bucket = [s for s in specs if s.predicate_forms["bucket"]]
        assert with_bucket
        for spec in with_bucket:
            assert " BETWEEN " in spec.render() and " OR " in spec.render()
        assert sum(s.predicate_forms["cmp"] for s in specs) > len(with_bucket)

    def test_generated_sql_mostly_binds(self, small_store, catalog):
        oracle = DifferentialOracle(small_store)
        gen = QueryGenerator(catalog, seed=11)
        benign = 0
        for _ in range(20):
            assert oracle.check(gen.generate().render()) is None
            if oracle.last_status == "benign":
                benign += 1
        assert benign <= 5  # the generator emits mostly-valid SQL


class TestCanonicalRows:
    def test_multiset_order_independent(self):
        assert canonical_rows([(2, "b"), (1, "a")]) == canonical_rows(
            [(1, "a"), (2, "b")]
        )

    def test_float_last_ulp_folded(self):
        a = [(0.1 + 0.2,)]
        b = [(0.3,)]
        assert canonical_rows(a) == canonical_rows(b)

    def test_distinct_floats_stay_distinct(self):
        assert canonical_rows([(1.0,)]) != canonical_rows([(1.001,)])

    def test_nulls_sort_last(self):
        rows = canonical_rows([(None,), (5,)])
        assert rows == [(5,), (None,)]

    def test_nan_is_comparable(self):
        assert canonical_rows([(float("nan"),)]) == canonical_rows(
            [(float("nan"),)]
        )


class TestOracle:
    def test_agreeing_query_passes(self, small_store):
        oracle = DifferentialOracle(small_store)
        assert oracle.check("SELECT count(*) AS n FROM store_sales") is None
        assert oracle.last_status == "ok"

    def test_benign_error_uniform(self, small_store):
        oracle = DifferentialOracle(small_store)
        assert oracle.check("SELECT no_such_column FROM store_sales") is None
        assert oracle.last_status == "benign"
        assert oracle.last_error_class == "BindingError"

    def test_syntax_error_benign(self, small_store):
        oracle = DifferentialOracle(small_store)
        assert oracle.check("SELEKT 1") is None
        assert oracle.last_status == "benign"

    def test_matrix_covers_every_engine_cell(self, small_store):
        from repro.engine.vectors import numpy_enabled

        oracle = DifferentialOracle(small_store)
        outcomes = oracle.run_matrix("SELECT count(*) AS n FROM item")
        assert len(outcomes) == (12 if numpy_enabled() else 8)
        assert "row/baseline/cold" in outcomes
        assert "batch/fusion/warm" in outcomes
        # vectors="python" is the batch engine: no cell of its own.
        assert not any(cell.startswith("compiled-python") for cell in outcomes)
        if numpy_enabled():
            assert "compiled-numpy/baseline/warm" in outcomes


@pytest.fixture()
def weakened_compensation():
    """Plant the classic §III.E bug: the GroupBy-fusion compensating
    filter ``comp_count > 0`` weakened to ``>= 0``, so groups that
    exist on only one side leak into the other.  Patches the fuser's
    dispatch table (``_HANDLERS`` binds the handler at class-definition
    time, so patching the method alone would not reroute dispatch)."""
    orig = Fuser._HANDLERS[GroupBy]

    def sabotaged(self, p1, p2):
        res = orig(self, p1, p2)
        if res is None:
            return None

        def weaken(comp):
            if isinstance(comp, Comparison) and comp.op == ">":
                return Comparison(">=", comp.left, comp.right)
            return comp

        return FusionResult(
            res.plan, res.mapping, weaken(res.left_filter), weaken(res.right_filter)
        )

    Fuser._HANDLERS[GroupBy] = sabotaged
    try:
        yield
    finally:
        Fuser._HANDLERS[GroupBy] = orig


#: Disjoint equality filters over a high-cardinality group key: most
#: groups exist on exactly one side, so the weakened compensation
#: leaks them into the other branch and the row multisets diverge.
SABOTAGE_BAIT = (
    "SELECT t0.ss_item_sk AS c0, count(*) AS c1 FROM store_sales t0 "
    "WHERE t0.ss_quantity = 5 GROUP BY t0.ss_item_sk "
    "UNION ALL "
    "SELECT t0.ss_item_sk AS c0, count(*) AS c1 FROM store_sales t0 "
    "WHERE t0.ss_quantity = 7 GROUP BY t0.ss_item_sk"
)


class TestOracleDetectsPlantedBugs:
    def test_weakened_compensation_is_caught(
        self, small_store, weakened_compensation
    ):
        oracle = DifferentialOracle(small_store)
        divergence = oracle.check(SABOTAGE_BAIT)
        assert divergence is not None
        assert divergence.kind == "rows"

    def test_same_query_clean_without_sabotage(self, small_store):
        oracle = DifferentialOracle(small_store)
        assert oracle.check(SABOTAGE_BAIT) is None


class TestMinimizer:
    def test_minimizes_to_union_core(self, small_store, catalog):
        """A synthetic failure predicate: 'the spec still renders a
        UNION ALL of two grouped branches'.  The minimizer must strip
        the decoration (order by, extra where) and keep the core."""
        gen = QueryGenerator(catalog, seed=5)
        spec = None
        for _ in range(200):
            candidate = gen.generate()
            if (
                len(candidate.branches) >= 2
                and candidate.branches[0].group_by
                and (candidate.order_by or any(b.where for b in candidate.branches))
            ):
                spec = candidate
                break
        assert spec is not None

        def still_fails(s):
            return len(s.branches) >= 2 and bool(s.branches[0].group_by)

        shrunk = minimize(spec, still_fails)
        assert len(shrunk.branches) == 2
        assert not shrunk.order_by
        assert shrunk.limit is None
        assert all(not b.where for b in shrunk.branches)
        assert still_fails(shrunk)

    def test_failure_preserved_end_to_end(
        self, small_store, weakened_compensation
    ):
        """With the planted bug, run_fuzz must both detect divergences
        and hand back minimized reproductions that still diverge."""
        report = run_fuzz(seed=0, count=60, store=small_store, fail_fast=True)
        assert not report.ok
        oracle = DifferentialOracle(small_store)
        failure = report.failures[0]
        minimized = oracle.check(failure.minimized_sql)
        assert minimized is not None
        assert minimized.kind == failure.kind

    def test_noop_when_core_is_minimal(self, catalog, small_store):
        gen = QueryGenerator(catalog, seed=9)
        spec = gen.generate()

        def never_shrinks(s):
            return s.render() == spec.render()

        assert minimize(spec, never_shrinks).render() == spec.render()


class TestRunFuzz:
    def test_clean_campaign(self, small_store):
        report = run_fuzz(seed=0, count=25, store=small_store)
        assert report.ok
        assert report.executed == 25
        assert report.passed + sum(report.benign.values()) == 25
        # Reach: optimized plans with a keyed GroupBy (several), counted
        # once per query whatever the number of cells that hold one.
        assert 0 < report.operators["GroupBy"] <= 25

    def test_report_roundtrip(self, small_store):
        report = run_fuzz(seed=2, count=5, store=small_store)
        payload = report.to_dict()
        assert payload["ok"] is report.ok
        assert payload["executed"] == 5
        assert payload["shapes"] and payload["predicate_forms"]
        assert "  predicate forms: " in report.summary()
        assert payload["operators"] == dict(report.operators)
        assert "  plan operators: " in report.summary()

    def test_fail_fast_stops_early(self, small_store, weakened_compensation):
        report = run_fuzz(
            seed=0, count=60, store=small_store,
            minimize_failures=False, fail_fast=True,
        )
        assert not report.ok
        assert report.executed < 60
        assert len(report.failures) == 1
