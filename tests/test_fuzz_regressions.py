"""Minimized regressions pinned from differential-fuzzer findings.

Every test here started life as a :mod:`repro.testing` fuzzer
divergence (or a targeted audit the fuzzer motivated), was shrunk by
the delta-debugging minimizer, and is pinned so the bug stays fixed.
Each test runs its query through the full differential matrix — any
row-multiset or error-class divergence across
{row, batch} × {fusion on, off} × {cache cold, warm} fails the test
with the oracle's diagnosis.
"""

from __future__ import annotations

import pytest

from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig
from repro.testing.oracle import DifferentialOracle


@pytest.fixture(scope="module")
def oracle(tpcds_store) -> DifferentialOracle:
    return DifferentialOracle(tpcds_store)


def assert_agrees(oracle: DifferentialOracle, sql: str) -> None:
    divergence = oracle.check(sql)
    assert divergence is None, str(divergence)


# ---------------------------------------------------------------------------
# Fuzzer find: groupby_join_to_window referenced P2-only columns.
#
# Found by ``run_fuzz(seed=1)`` (query #332, minimized by the delta
# debugger).  The §IV.A rewrite built the Window over ``other`` (the
# probe-side input) while mapping the aggregate arguments through the
# fusion ColumnMapping into the *fused* plan's columns.  When the
# grouped side aggregated a column the probe side never read
# (ss_coupon_amt below), the Window referenced a column its child did
# not produce: the plan validator rejected it, and without validation
# the engines crashed with "unbound correlated column id".  Fixed by
# building the Window over ``result.plan``, which by the fusion
# contract (P1 = Project[outCols(P1)](P) when exact) has the same row
# multiset as ``other`` plus the mapped P2 columns.
# ---------------------------------------------------------------------------


def test_window_rewrite_p2_only_aggregate_argument(oracle):
    assert_agrees(
        oracle,
        "SELECT t2.c1 AS c0 FROM store_sales t1 INNER JOIN "
        "(SELECT t0.ss_store_sk AS c0, sum(t0.ss_coupon_amt) AS c1 "
        "FROM store_sales t0 GROUP BY t0.ss_store_sk) t2 "
        "ON t1.ss_store_sk = t2.c0",
    )


def test_window_rewrite_still_fires_after_fix(tpcds_store):
    """The fix must not have silenced the rewrite itself."""
    sql = (
        "SELECT t2.c1 AS c0 FROM store_sales t1 INNER JOIN "
        "(SELECT t0.ss_store_sk AS c0, sum(t0.ss_coupon_amt) AS c1 "
        "FROM store_sales t0 GROUP BY t0.ss_store_sk) t2 "
        "ON t1.ss_store_sk = t2.c0"
    )
    session = Session(
        tpcds_store, OptimizerConfig(enable_fusion=True, validate_plans=True)
    )
    result = session.execute(sql)
    assert "groupby_join_to_window" in result.fired_rules


# ---------------------------------------------------------------------------
# 3VL audit pins: NULL masks count as not-matching everywhere.
#
# The GroupBy-fusion compensation drops groups with ``comp_count > 0``
# where comp_count is ``count(*) FILTER (compensating predicate)``.
# The audit confirmed all three mask consumers agree on identity-True
# semantics (a NULL mask row matches nowhere): the row engine's
# per-row accumulate (executor: ``values[mask_slot] is not True``),
# the batch engine's dense path (AggAccumulator.add_block:
# ``m is True``) and per-row fallback, and the compensation filter
# itself (FILTER over a NULL predicate does not increment, so an
# all-NULL group gets comp_count = 0 and ``0 > 0`` drops it — exactly
# matching the unfused side, where the WHERE clause drops those rows).
# These queries pin that agreement on NULL-salted TPC-DS columns.
# ---------------------------------------------------------------------------


def test_null_mask_groups_union_fusion(oracle):
    # ss_customer_sk is NULL-salted: the branch predicate is NULL (not
    # False) on those rows, so the compensating count(*) FILTER must
    # treat them as not-matching in every engine.
    assert_agrees(
        oracle,
        "SELECT t0.ss_store_sk AS c0, count(*) AS c1, sum(t0.ss_quantity) AS c2 "
        "FROM store_sales t0 GROUP BY t0.ss_store_sk "
        "UNION ALL "
        "SELECT t0.ss_store_sk AS c0, count(*) AS c1, sum(t0.ss_quantity) AS c2 "
        "FROM store_sales t0 WHERE t0.ss_customer_sk < 50 GROUP BY t0.ss_store_sk",
    )


def test_null_mask_aggregate_filters(oracle):
    # Explicit FILTER masks that evaluate to NULL on salted rows,
    # fused across UNION ALL branches with different WHEREs.
    assert_agrees(
        oracle,
        "SELECT t0.ss_store_sk AS c0, "
        "count(*) FILTER (WHERE t0.ss_hdemo_sk > 100) AS c1 "
        "FROM store_sales t0 GROUP BY t0.ss_store_sk "
        "UNION ALL "
        "SELECT t0.ss_store_sk AS c0, "
        "count(*) FILTER (WHERE t0.ss_hdemo_sk > 100) AS c1 "
        "FROM store_sales t0 WHERE t0.ss_addr_sk IS NULL "
        "GROUP BY t0.ss_store_sk",
    )


def test_empty_group_compensation(oracle):
    # High-cardinality group key + selective equality predicates: most
    # groups exist on one side only, so correctness rides entirely on
    # the ``comp_count > 0`` compensation (a weakened ``>= 0`` here is
    # exactly the seeded bug the oracle self-test plants).
    assert_agrees(
        oracle,
        "SELECT t0.ss_item_sk AS c0, count(*) AS c1 FROM store_sales t0 "
        "WHERE t0.ss_quantity = 5 GROUP BY t0.ss_item_sk "
        "UNION ALL "
        "SELECT t0.ss_item_sk AS c0, count(*) AS c1 FROM store_sales t0 "
        "WHERE t0.ss_quantity = 7 GROUP BY t0.ss_item_sk",
    )


def test_null_comparison_predicate_branch(oracle):
    # ``sk IN (3, NULL)`` is NULL (never True) when sk <> 3 — the whole
    # branch filter is 3VL-tricky and lands in the compensating mask.
    assert_agrees(
        oracle,
        "SELECT t0.s_state AS c0, t0.s_city AS c1, max(t0.s_state) AS c2 "
        "FROM store t0 GROUP BY t0.s_state, t0.s_city "
        "UNION ALL "
        "SELECT t0.s_state AS c0, t0.s_city AS c1, max(t0.s_state) AS c2 "
        "FROM store t0 WHERE t0.s_store_sk IN (3, NULL) "
        "GROUP BY t0.s_state, t0.s_city",
    )


# ---------------------------------------------------------------------------
# agg_key canonicalization: the compensating count reuses an existing
# ``count(*) FILTER`` even when the compensator arrives unsimplified.
# ---------------------------------------------------------------------------


def test_count_column_dedup_unsimplified_compensator(people_store):
    """Structural pin: the compensating count reuses the existing
    aggregate.  ``_fuse_scan`` hands back the raw scan predicate
    ``NOT (age <= 40)`` as the right compensator, while the merged
    aggregate masks are simplified to ``age > 40``; the dedup key must
    simplify the compensator too, or the fused GroupBy grows a second,
    semantically identical count column."""
    from repro.algebra.operators import GroupBy
    from repro.algebra.visitors import collect
    from repro.catalog.catalog import Catalog
    from repro.fusion.fuse import Fuser
    from repro.sql.binder import Binder

    catalog = Catalog()
    people_store.load_catalog(catalog)
    binder = Binder(catalog)
    fuser = Fuser(catalog.allocator, validate=True)

    p1 = binder.bind_sql(
        "SELECT city_id, count(*) FILTER (WHERE age > 40) AS n "
        "FROM people GROUP BY city_id"
    ).plan
    p2 = binder.bind_sql(
        "SELECT city_id, count(*) AS n FROM people "
        "WHERE NOT (age <= 40) GROUP BY city_id"
    ).plan
    result = fuser.fuse(p1, p2)
    assert result is not None
    grouped = collect(result.plan, GroupBy)[0]
    # One shared count — not a p1 count, a p2 count, and a comp_count
    # that all carry the same (post-simplification) mask.
    assert len(grouped.aggregates) == 1, [
        (a.func, str(a.mask)) for a in grouped.aggregates
    ]


def test_negated_scan_predicate_count_reuse(oracle):
    # Branch filters NOT (x <= 5) vs x > 5 normalize differently until
    # simplified; the dedup key must simplify before matching or a
    # duplicate comp_count aggregate appears (pinned structurally in
    # test_fusion_rules-style unit tests; pinned semantically here).
    assert_agrees(
        oracle,
        "SELECT t0.ss_store_sk AS c0, "
        "count(*) FILTER (WHERE t0.ss_quantity > 5) AS c1 "
        "FROM store_sales t0 GROUP BY t0.ss_store_sk "
        "UNION ALL "
        "SELECT t0.ss_store_sk AS c0, "
        "count(*) FILTER (WHERE t0.ss_quantity > 5) AS c1 "
        "FROM store_sales t0 WHERE NOT (t0.ss_quantity <= 5) "
        "GROUP BY t0.ss_store_sk",
    )


# ---------------------------------------------------------------------------
# Targeted audit (the generated data holds no NaN, so no campaign could
# find it): groupby_join_to_window guarded its Window with NOT NULL
# only.  The join it replaces drops NaN keys too (``NaN = NaN`` is
# false), so with a DOUBLE key holding NaN fusion returned 32 rows
# where the unfused plan returns 20; and the row / batch Window
# partitioned NaN by object identity, so ``compiled+numpy`` returned 44.
# Fixed by a ``key = key`` guard on DOUBLE partition columns and by one
# NaN partition in every engine (``canon_key``, as for GROUP BY).
# ---------------------------------------------------------------------------


def test_window_rewrite_drops_nan_keys_like_the_join():
    from tests.test_compiled_engine import _store_with_prices

    nan = float("nan")
    prices = [1.0, nan, 2.0, nan, 1.0, None, float("nan"), 3.0, None, 2.0] * 8
    assert_agrees(
        DifferentialOracle(_store_with_prices(prices)),
        "SELECT t.id FROM t, (SELECT t2.price AS p, avg(t2.id) AS a "
        "FROM t t2 GROUP BY t2.price) g WHERE t.price = g.p AND t.id >= g.a",
    )


# ---------------------------------------------------------------------------
# Shapes the fuzzer exercised heavily without finding divergences —
# pinned as representative happy paths so future regressions in them
# surface here before a full campaign runs.
# ---------------------------------------------------------------------------


def test_cte_self_join_null_key(oracle):
    assert_agrees(
        oracle,
        "WITH shared AS (SELECT t0.d_moy AS c0, sum(t0.d_dom) AS c1 "
        "FROM date_dim t0 GROUP BY t0.d_moy) "
        "SELECT y.c1 AS c0 FROM shared x INNER JOIN shared y "
        "ON x.c0 = y.c0 WHERE x.c0 IS NULL",
    )


def test_grouped_join_union(oracle):
    assert_agrees(
        oracle,
        "SELECT t0.ss_sales_price AS c0, count(t1.c_last_name) AS c1, "
        "sum(t0.ss_addr_sk) AS c2 "
        "FROM store_sales t0 INNER JOIN customer t1 "
        "ON t0.ss_customer_sk = t1.c_customer_sk GROUP BY t0.ss_sales_price "
        "UNION ALL "
        "SELECT t0.ss_sales_price AS c0, count(t1.c_last_name) AS c1, "
        "sum(t0.ss_addr_sk) AS c2 "
        "FROM store_sales t0 INNER JOIN customer t1 "
        "ON t0.ss_customer_sk = t1.c_customer_sk "
        "WHERE t0.ss_hdemo_sk <= 24 GROUP BY t0.ss_sales_price",
    )
