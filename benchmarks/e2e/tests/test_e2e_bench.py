"""Self-tests of the end-to-end benchmark.

Run explicitly (tier-1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.metrics import END_TO_END, NAME_PATTERN, PER_LAYER, as_benchmark_json
from benchmarks.e2e.oracle import canonical_rows, reference_results, rows_match
from benchmarks.e2e.workloads import SMOKE_SCALE, WORKLOADS, service_sequence
from repro.tpcds.generator import generate_dataset
from repro.tpcds.queries import STUDIED_QUERIES

ROOT = Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, **(env or {})},
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_are_well_formed():
    names = [*END_TO_END, *PER_LAYER, *WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_PATTERN.match(name), name
    for unit, *_ in [*END_TO_END.values(), *PER_LAYER.values()]:
        assert UNIT_PATTERN.match(unit), unit
    assert END_TO_END["setup_s"][:2] == ("s", "lower")
    assert END_TO_END["setup_s"][2] == max(bound for *_, bound in END_TO_END.values()) <= 0.25
    assert len(PER_LAYER) <= 128 and len(END_TO_END) <= 16


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK == as_benchmark_json(WORKLOADS.values())
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_service_sequence_is_seeded_and_balanced():
    names = list(WORKLOADS["service_mixed"].queries)
    take = lambda seed, client: list(itertools.islice(service_sequence(seed, client, names), 96))
    assert take(7, 0) == take(7, 0)
    assert take(7, 0) != take(8, 0)
    assert take(7, 0) != take(7, 1)
    for start in (0, 32, 64):
        assert sorted(take(7, 0)[start:start + 32]) == sorted(names)


def test_oracle_ignores_row_order_and_float_noise():
    reference = canonical_rows([(1, "a", 0.1 + 0.2, None), (2, "b", 5.0, 3)])
    assert rows_match([(2, "b", 5, 3), (1, "a", 0.3, None)], reference)
    assert not rows_match([(1, "a", 0.3001, None), (2, "b", 5.0, 3)], reference)
    assert not rows_match([(1, "a", 0.3, None)], reference)
    assert not rows_match([("",)], canonical_rows([(None,)]))


def test_oracle_accepts_sums_one_ulp_apart_on_a_rounding_boundary():
    # Nine-digit rounding would print 98.9839062 and 98.9839063.
    reference = canonical_rows([(98.98390624999995, 507.7932075000014)])
    assert rows_match([(98.98390625000002, 507.7932074999999)], reference)


def test_reference_results_follow_the_seed():
    results = {
        seed: reference_results(generate_dataset(SMOKE_SCALE, seed=seed), STUDIED_QUERIES)
        for seed in (7, 8)
    }
    again = reference_results(generate_dataset(SMOKE_SCALE, seed=7), STUDIED_QUERIES)
    assert results[7] == again
    assert results[7] != results[8]


def test_compare_verdicts():
    assert compare.verdict(100.0, 109.0, "lower", 0.10, 0.02) == "ok"
    assert compare.verdict(100.0, 111.0, "lower", 0.10, 0.02) == "worse"
    assert compare.verdict(100.0, 89.0, "higher", 0.10, 0.02) == "worse"
    assert compare.verdict(100.0, 150.0, "higher", 0.10, 0.02) == "ok"
    assert compare.verdict(100.0, 111.0, "lower", 0.10, 0.12) == "unresolved"


def test_refuses_to_run_without_numpy_vectors():
    done = run_benchmark("--workload", "studied_compiled", "--smoke",
                         env={"REPRO_DISABLE_NUMPY": "1"})
    assert done.returncode != 0
    assert "REPRO_DISABLE_NUMPY" in done.stderr
    assert done.stdout == ""


def test_unknown_workload_is_an_error():
    assert run_benchmark("--workload", "nope", "--smoke").returncode != 0


def test_smoke_emits_every_metric_quickly(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = run_benchmark("--smoke", "--trace", "--seed", "7", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0, elapsed
    document = json.loads(out.read_text())
    assert set(document["env"]) >= {"nproc", "python", "numpy", "PYTHONHASHSEED"}
    assert set(document["workloads"]) == set(WORKLOADS)
    for entry in document["workloads"].values():
        for run in entry["runs"]:
            assert set(run["metrics"]) == set(END_TO_END)
            assert run["failed"] == 0 and run["correct"]
            assert all(value > 0 for value in run["metrics"].values())
        assert set(entry["traced"]["metrics"]) == set(PER_LAYER)
        assert entry["traced"]["failed"] == 0
    assert document["paper"]["paper.fig2_bytes_fraction"] < 0.5


@pytest.mark.parametrize("workload", ["studied_fused", "studied_baseline"])
def test_serial_counts_repeat_for_equal_seeds(workload):
    def counts(seed: str) -> dict:
        plain = last_json(run_benchmark("--workload", workload, "--smoke", "--seed", seed))
        traced = last_json(
            run_benchmark("--workload", workload, "--smoke", "--seed", seed, "--trace", "1")
        )
        return {
            "bytes_scanned_mb": plain["metrics"]["bytes_scanned_mb"]["value"],
            **{
                name: traced["metrics"][name]["value"]
                for name in ("optimizer.rules_fired", "engine.rows_scanned",
                             "engine.total_state_rows", "sql.tokens")
            },
        }

    first, second, other = counts("7"), counts("7"), counts("8")
    assert first == second
    # Table sizes depend on the scale alone, so scan counts do not move
    # with the seed; the data does, and operator state follows it.
    assert first["engine.total_state_rows"] != other["engine.total_state_rows"]
    if workload == "studied_baseline":
        traced = last_json(
            run_benchmark("--workload", workload, "--smoke", "--seed", "7", "--trace", "1")
        )["metrics"]
        assert traced["optimizer.fusion_rules_fired"]["value"] == 0
        assert traced["optimizer.fusion_rules_ms"]["value"] == 0
