"""Tests for the synthetic TPC-DS data generator."""

import pytest

from repro.storage.columnar import delist
from repro.tpcds import schema as S
from repro.tpcds.generator import (
    DATE_SK_BASE,
    date_sk_for,
    generate_dataset,
    month_seq,
)


@pytest.fixture(scope="module")
def store():
    return generate_dataset(scale=0.02, seed=7)


class TestCalendar:
    def test_month_seq_convention(self):
        # TPC-DS convention: Jan 2000 == 1200.
        assert month_seq(2000, 1) == 1200
        assert month_seq(2001, 1) == 1212
        assert month_seq(1998, 12) == 1187

    def test_date_sk_monotone(self):
        assert date_sk_for(1998, 1, 1) == DATE_SK_BASE
        assert date_sk_for(1998, 1, 2) == DATE_SK_BASE + 1
        assert date_sk_for(1999, 1, 1) == DATE_SK_BASE + 365

    def test_date_dim_contents(self, store):
        table = store.stored_table("date_dim")
        chunk = table.partitions[0].chunks["d_year"]
        assert set(chunk.values) == {1998, 1999, 2000, 2001, 2002}
        seq = table.partitions[0].chunks["d_month_seq"]
        assert seq.min_value == month_seq(1998, 1)
        assert seq.max_value == month_seq(2002, 12)


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = generate_dataset(scale=0.01, seed=3)
        b = generate_dataset(scale=0.01, seed=3)
        chunk_a = a.stored_table("store_sales").partitions[0].chunks["ss_item_sk"]
        chunk_b = b.stored_table("store_sales").partitions[0].chunks["ss_item_sk"]
        assert delist(chunk_a.values) == delist(chunk_b.values)

    def test_different_seed_differs(self):
        a = generate_dataset(scale=0.01, seed=3)
        b = generate_dataset(scale=0.01, seed=4)
        chunk_a = a.stored_table("store_sales").partitions[0].chunks["ss_item_sk"]
        chunk_b = b.stored_table("store_sales").partitions[0].chunks["ss_item_sk"]
        assert delist(chunk_a.values) != delist(chunk_b.values)


class TestShape:
    def test_all_tables_present(self, store):
        for table in S.ALL_TABLES:
            assert store.has(table.name)

    def test_scale_controls_fact_size(self):
        small = generate_dataset(scale=0.01)
        large = generate_dataset(scale=0.05)
        fact_rows = [s.stored_table("store_sales").row_count for s in (small, large)]
        assert fact_rows[1] > fact_rows[0]

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(scale=0)

    def test_partitioned_tables_have_partitions(self, store):
        # The paper partitions the 7 largest tables by date columns.
        assert len(S.PARTITIONED_TABLES) == 7
        for name in S.PARTITIONED_TABLES:
            assert len(store.stored_table(name).partitions) >= 1

    def test_fact_sorted_by_partition_column(self, store):
        table = store.stored_table("store_sales")
        previous_max = None
        for part in table.partitions:
            chunk = part.chunks["ss_sold_date_sk"]
            if previous_max is not None:
                assert chunk.min_value >= previous_max
            previous_max = chunk.max_value

    def test_foreign_keys_in_domain(self, store):
        items = store.stored_table("item").row_count
        chunk = store.stored_table("store_sales").partitions[0].chunks["ss_item_sk"]
        assert all(1 <= v <= items for v in chunk.values)

    def test_nullable_foreign_keys_have_nulls(self, store):
        values = []
        for part in store.stored_table("store_sales").partitions:
            values.extend(part.chunks["ss_customer_sk"].values)
        assert any(v is None for v in values)
        assert sum(v is None for v in values) < len(values) * 0.1

    def test_order_numbers_shared_across_warehouses(self, store):
        # Q95's ws_wh self-join needs orders spanning warehouses.
        orders = {}
        for part in store.stored_table("web_sales").partitions:
            for number, warehouse in zip(
                part.chunks["ws_order_number"].values,
                part.chunks["ws_warehouse_sk"].values,
            ):
                orders.setdefault(number, set()).add(warehouse)
        assert any(len(ws) > 1 for ws in orders.values())

    def test_catalog_row_counts_loaded(self, store):
        from repro.catalog.catalog import Catalog

        catalog = Catalog()
        store.load_catalog(catalog)
        assert catalog.row_count("store_sales") == store.stored_table("store_sales").row_count
