"""Two execution engines with scan/memory accounting: the row-streaming
reference and the block engine — one operator table, one dispatch —
whose operators take NumPy vector columns and Python lists alike; scans
hand out the former under ``vectors="numpy"`` (the default), the
latter under ``"python"``.

Two expression compilers: the scalar reference ``compile_expression``
(row engine) and the block compiler ``compile_expression_block``
(block engine, list or NumPy columns)."""

from repro.engine.batch_executor import execute_batch
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
    "compile_expression",
    "compile_expression_block",
    "Aggregator",
]
