"""The package boundary: ``repro`` exports its public names lazily, so
importing one module does not load the engine, the optimizer and the
generator behind them."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro


def test_importing_a_module_loads_only_its_own_imports():
    """A fresh interpreter that imports the query texts loads neither
    the session nor the optimizer (it loaded 67 modules when the
    package imported its exports eagerly)."""
    code = (
        "import sys, repro.tpcds.queries\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro.tpcds.queries" in loaded
    assert "repro.engine.session" not in loaded
    assert "repro.optimizer" not in loaded


def test_every_export_resolves_to_its_module_attribute():
    from repro.engine.session import Session
    from repro.optimizer import FUSION

    assert repro.Session is Session and repro.FUSION is FUSION
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
