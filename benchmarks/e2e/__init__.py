"""The repo's one end-to-end benchmark (see README.md in this directory).

``BENCHMARK.json`` at the repository root names the command, the
workloads and every metric; :mod:`benchmarks.e2e.metrics` is the same
list in code and the self-tests keep the two equal.
"""
