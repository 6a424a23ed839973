"""TPC-DS substrate: schema, synthetic generator, queries."""

from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import FILLER_QUERIES, STUDIED_QUERIES, WORKLOAD_QUERIES
from repro.tpcds.schema import ALL_TABLES, PARTITIONED_TABLES

__all__ = [
    "generate_dataset",
    "ALL_TABLES",
    "PARTITIONED_TABLES",
    "STUDIED_QUERIES",
    "FILLER_QUERIES",
    "WORKLOAD_QUERIES",
]
