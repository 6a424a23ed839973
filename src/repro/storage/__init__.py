"""Columnar partitioned storage with scan accounting (S3+Parquet stand-in)."""
