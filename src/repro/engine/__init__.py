"""Execution engines (row-streaming, vectorized batch, and "compiled":
the batch operators over NumPy vector blocks) with scan/memory
accounting.

Two expression compilers: the scalar reference ``compile_expression``
(row engine) and the block compiler ``compile_expression_block``
(batch and compiled engines, list or NumPy columns)."""

from repro.engine.batch_executor import DEFAULT_BLOCK_ROWS, execute_batch
from repro.engine.evaluator import Aggregator, compile_expression
from repro.engine.executor import execute
from repro.engine.metrics import QueryMetrics, RunContext, Stopwatch
from repro.engine.session import QueryResult, Session
from repro.engine.vectors import compile_expression_block

__all__ = [
    "Session",
    "QueryResult",
    "QueryMetrics",
    "RunContext",
    "Stopwatch",
    "execute",
    "execute_batch",
    "DEFAULT_BLOCK_ROWS",
    "compile_expression",
    "compile_expression_block",
    "Aggregator",
]
