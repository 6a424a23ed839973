"""athena-fusion-repro: computation reuse via query fusion.

A from-scratch reproduction of *Computation Reuse via Fusion in Amazon
Athena* (ICDE 2022): the ``Fuse(P1, P2) -> (P, M, L, R)`` primitive
(§III), the fusion-based optimizer rules (§IV), and every substrate
they need — SQL frontend, logical algebra, rule-based optimizer,
streaming executor with bytes-scanned accounting, columnar partitioned
storage, and a synthetic TPC-DS workload (§V).

Quickstart::

    from repro import Session, generate_dataset
    from repro.optimizer import BASELINE, FUSION

    store = generate_dataset(scale=0.1)
    session = Session(store, FUSION)
    result = session.execute("SELECT count(*) FROM store_sales")
    print(result.rows, result.metrics.summary())
"""

from importlib import import_module

__version__ = "1.0.0"

#: Each public name and the module that defines it, imported on first
#: access (PEP 562): ``import repro.<module>`` loads only that module's
#: own imports, not the engine and optimizer.
_EXPORTS = {
    "Session": "repro.engine.session",
    "QueryResult": "repro.engine.session",
    "Fuser": "repro.fusion",
    "FusionResult": "repro.fusion",
    "OptimizerConfig": "repro.optimizer",
    "BASELINE": "repro.optimizer",
    "FUSION": "repro.optimizer",
    "optimize": "repro.optimizer",
    "generate_dataset": "repro.tpcds.generator",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
