"""Using the Fuse primitive directly (paper §III).

The library exposes ``Fuser.fuse(P1, P2) -> (P, M, L, R)`` as a public
building block, exactly as the paper defines it.  This example fuses
two SQL fragments that scan the same table with different filters and
aggregates — the §III.B and §III.E walkthroughs — and prints the fused
plan, the column mapping M, and the compensating filters L and R, then
verifies the reconstruction identities by executing them.

    python examples/fuse_fragments.py
"""

from repro import Fuser, generate_dataset
from repro.algebra.printer import explain
from repro.catalog import Catalog
from repro.engine.executor import execute
from repro.engine.metrics import RunContext
from repro.fusion import reconstruct_left, reconstruct_right
from repro.sql import Binder

FRAGMENT_1 = """
SELECT i_item_desc
FROM item
WHERE i_category = 'Music' AND i_brand_id > 900
"""

FRAGMENT_2 = """
SELECT i_item_desc
FROM item
WHERE i_category = 'Music' AND i_brand_id < 50
"""

AGG_1 = """
SELECT i_category_id, min(i_brand_id) AS mi
FROM item
WHERE i_color = 'red'
GROUP BY i_category_id
"""

AGG_2 = """
SELECT i_category_id,
       avg(i_current_price) FILTER (WHERE i_size = 'medium') AS avgp
FROM item
GROUP BY i_category_id
"""


def rows(plan, store):
    return sorted(
        execute(plan, RunContext(store)),
        key=lambda r: tuple((v is None, str(v)) for v in r),
    )


def demonstrate(title: str, sql1: str, sql2: str, store, binder, fuser, allocator):
    print(f"\n=== {title} ===")
    p1 = binder.bind_sql(sql1).plan
    p2 = binder.bind_sql(sql2).plan
    result = fuser.fuse(p1, p2)
    assert result is not None, "fusion unexpectedly failed"

    print("fused plan P:")
    print(explain(result.plan))
    print(f"mapping M: {result.mapping}")
    print(f"L (restores fragment 1): {result.left_filter!r}")
    print(f"R (restores fragment 2): {result.right_filter!r}")

    left = reconstruct_left(result, p1)
    right = reconstruct_right(result, p2, allocator)
    assert rows(left, store) == rows(p1, store)
    assert rows(right, store) == rows(p2, store)
    print("reconstruction identities verified against the data ✓")


def main() -> None:
    store = generate_dataset(scale=0.1)
    catalog = Catalog()
    store.load_catalog(catalog)
    binder = Binder(catalog)
    fuser = Fuser(catalog.allocator)

    demonstrate(
        "§III.B — filters fuse into a disjunction with compensators",
        FRAGMENT_1, FRAGMENT_2, store, binder, fuser, catalog.allocator,
    )
    demonstrate(
        "§III.E — aggregations merge via masks + compensating counts",
        AGG_1, AGG_2, store, binder, fuser, catalog.allocator,
    )


if __name__ == "__main__":
    main()
