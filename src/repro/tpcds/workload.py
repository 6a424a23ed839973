"""Workload vocabulary shared by the benchmarks and the tests.

The paper reports per-query latency and bytes scanned (Figures 1 and
2); ``benchmarks/e2e`` measures both.  A query's plan counts as
*changed* by the paper's techniques when one of these rules fired.
"""

from __future__ import annotations

#: Rule names that mark a plan as "changed" by the paper's techniques.
FUSION_RULE_NAMES = frozenset(
    {
        "groupby_join_to_window",
        "join_on_keys",
        "union_all_fusion",
        "union_all_on_join",
    }
)
