"""Logical data types.

The engine supports a deliberately small set of types — the ones needed
by TPC-DS-style analytics.  DECIMAL is modeled as DOUBLE (the studied
queries only compare and aggregate prices), and DATE is modeled as an
integer day number, exactly like TPC-DS surrogate date keys.

Each type knows its *encoded size*: the number of bytes one value
contributes to a columnar chunk.  This powers the bytes-scanned
accounting that stands in for Athena's pay-per-TB-scanned billing
(see :mod:`repro.storage.accounting`).  The sizes approximate Parquet
with Snappy: integers are delta/bit-packed to roughly half their
in-memory width, doubles stay at 8 bytes, booleans are bit-packed, and
strings are dictionary encoded (the per-table column statistics supply
average encoded widths that override :data:`DEFAULT_STRING_BYTES`).
"""

from __future__ import annotations

import enum


class DataType(enum.Enum):
    """A logical column/expression type."""

    INTEGER = "integer"
    DOUBLE = "double"
    STRING = "string"
    BOOLEAN = "boolean"
    DATE = "date"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.DOUBLE, DataType.DATE)


#: Average encoded bytes per value for string columns when the catalog
#: has no more precise statistic.
DEFAULT_STRING_BYTES = 12.0

#: Encoded bytes per value, per type (strings use column statistics).
ENCODED_BYTES = {
    DataType.INTEGER: 4.0,
    DataType.DOUBLE: 8.0,
    DataType.BOOLEAN: 0.125,
    DataType.DATE: 4.0,
    DataType.STRING: DEFAULT_STRING_BYTES,
}


def encoded_bytes(dtype: DataType, avg_string_bytes: float | None = None) -> float:
    """Encoded size in bytes of one value of ``dtype``.

    ``avg_string_bytes`` overrides the default width for STRING columns.
    """
    if dtype is DataType.STRING and avg_string_bytes is not None:
        return avg_string_bytes
    return ENCODED_BYTES[dtype]


def compatible(expected: DataType, actual: DataType) -> bool:
    """Type agreement as loose as the binder's coercions: exact match,
    or both numeric (INTEGER/DOUBLE/DATE interchange in arithmetic)."""
    return expected is actual or (expected.is_numeric and actual.is_numeric)


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """Result type of arithmetic between two numeric types."""
    if DataType.DOUBLE in (left, right):
        return DataType.DOUBLE
    return DataType.INTEGER
