"""Logical relational algebra: types, columns, expressions, operators.

This package is the IR shared by the SQL binder, the optimizer (and the
fusion machinery at its core), and the execution engine.
"""
