"""Two execution engines with scan/memory accounting: the row-streaming
reference and the block engine — one operator table, one dispatch —
whose operators take NumPy vector columns and Python lists alike; scans
hand out the former under ``vectors="numpy"`` (the default), the
latter under ``"python"``.

Two expression compilers: the scalar reference ``compile_expression``
(row engine) and the block compiler ``compile_expression_block``
(block engine, list or NumPy columns)."""
