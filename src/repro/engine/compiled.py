"""The block engine's entry point under the name it had while the vector
path was an engine of its own: ``execute_compiled`` is
:func:`~repro.engine.batch_executor.execute_batch`, same signature.

There is one operator table (``batch_executor.BLOCK_OPERATORS``) and one
dispatch (``batch_executor.execute_blocks``); which column
representation a run uses is a scan fact, ``RunContext.vector_blocks``.
"""

from __future__ import annotations

from repro.engine.batch_executor import execute_batch

__all__ = ["execute_compiled"]

execute_compiled = execute_batch
