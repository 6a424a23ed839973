"""The benchmark's own correctness oracle.

Reference results come from the row engine with fusion off and the
plan cache off — never the configuration under test.  A result matches
its reference when the two hold the same multiset of rows, numbers
compared to a relative tolerance of 1e-9: the engines may sum in
different orders (NumPy pairwise vs left-to-right), and ORDER BY ties
may come out in any order.

Numbers are compared, not rounded and hashed: an average such as
98.98390625 sits exactly on a nine-digit rounding boundary, so two sums
one ulp apart round to different digits (about one generated dataset in
a hundred has such a value in q09 or q28).
"""

from __future__ import annotations

import math

from repro.engine.session import Session
from repro.optimizer.config import OptimizerConfig

REFERENCE_CONFIG = OptimizerConfig(
    engine="row", enable_fusion=False, enable_plan_cache=False, workers=1
)

#: Two numbers this close are the same result.
REL_TOL = 1e-9
#: ... or, near zero (sums that cancel), this close.  Far below a cent.
ABS_TOL = 1e-9

_NUMBER = 1


def _cell(value) -> tuple:
    """One value as a (kind, value) pair, so that a column holding
    NULLs beside numbers still sorts."""
    if value is None:
        return (0, 0.0)
    if isinstance(value, str):
        return (2, value)
    # bool, int, float and NumPy scalars (which are not int/float
    # subclasses on every version): 5 and 5.0 are the same result.
    return (_NUMBER, float(value))


def canonical_rows(rows: list[tuple]) -> list[tuple]:
    """The result set as a sorted list of rows of (kind, value) cells.

    Rows that differ only by summation noise land at the same position
    on both sides unless a third row lies between them, which would
    take two groups whose aggregates agree to 15 digits."""
    return sorted(tuple(_cell(v) for v in row) for row in rows)


def _same_row(got: tuple, want: tuple) -> bool:
    if len(got) != len(want):
        return False
    for (kind, a), (want_kind, b) in zip(got, want):
        if kind != want_kind:
            return False
        if a != b and not (
            kind == _NUMBER and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ):
            return False
    return True


def rows_match(rows: list[tuple], reference: list[tuple]) -> bool:
    """Whether ``rows`` is the result ``reference`` (canonical rows) stands for."""
    got = canonical_rows(rows)
    return len(got) == len(reference) and all(
        a == b or _same_row(a, b) for a, b in zip(got, reference)
    )


def reference_results(store, queries: dict[str, str]) -> dict[str, list[tuple]]:
    """Query name -> canonical rows of its reference result."""
    with Session(store, REFERENCE_CONFIG) as session:
        return {
            name: canonical_rows(session.execute(sql).rows)
            for name, sql in queries.items()
        }
