"""Self-test of the line-reach collector (``benchmarks/reach.py``): it
reports the untaken branch of a tiny program and sees the lines that
ran only in a thread or only in a forked worker."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py"

MODULE = textwrap.dedent(
    """\
    def branch(x):
        if x > 0:
            return "positive"  # main
        return "not positive"  # untaken


    def in_thread():
        return "thread"  # thread


    def in_child(x):
        if x > 0:
            return "child"  # child
        return "never"  # untaken in child


    def never_called():
        return None
    """
)

MAIN = textwrap.dedent(
    """\
    import multiprocessing
    import threading

    import tiny

    if __name__ == "__main__":
        tiny.branch(1)
        thread = threading.Thread(target=tiny.in_thread)
        thread.start()
        thread.join()
        worker = multiprocessing.get_context("fork").Process(target=tiny.in_child, args=(1,))
        worker.start()
        worker.join()
        assert worker.exitcode == 0
    """
)


def _line(marker: str) -> int:
    for number, text in enumerate(MODULE.splitlines(), start=1):
        if text.endswith(f"# {marker}"):
            return number
    raise AssertionError(marker)


def _unreached(spans: str) -> set[int]:
    lines: set[int] = set()
    for span in filter(None, spans.split(", ")):
        low, _, high = span.partition("-")
        lines.update(range(int(low), int(high or low) + 1))
    return lines


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_reports_the_untaken_branch_across_thread_and_fork(tmp_path):
    package = tmp_path / "measured"
    package.mkdir()
    (package / "tiny.py").write_text(MODULE)
    (tmp_path / "main.py").write_text(MAIN)
    data = tmp_path / "reach"
    run = [sys.executable, str(REACH), "run", str(data), "--root", str(package), "--"]
    subprocess.run(
        run + [sys.executable, str(tmp_path / "main.py")],
        check=True,
        env={**os.environ, "PYTHONPATH": str(package)},
        timeout=120,
    )
    out = tmp_path / "reach.json"
    subprocess.run(
        [sys.executable, str(REACH), "report", str(data), "--root", str(package),
         "--json", str(out)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    entry = json.loads(out.read_text())["files"]["tiny.py"]
    unreached = _unreached(entry["unreached_lines"])
    assert _line("untaken") in unreached
    assert _line("untaken in child") in unreached
    for reached in ("main", "thread", "child"):
        assert _line(reached) not in unreached, reached
    assert entry["unreached_functions"] == ["never_called"]
    assert entry["unreached"] == len(unreached) == 3  # never_called's body too
