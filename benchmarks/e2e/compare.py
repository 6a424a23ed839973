"""Compare two result files written by ``run.py`` (all-workloads form).

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

For every workload and end-to-end metric prints the base median, the
new median, their ratio and a verdict against the bound recorded in
``BENCHMARK.json``:

* ``unresolved`` — either side's own run-to-run spread (interquartile
  range over median, needs ``--runs`` >= 2) exceeds the bound, so the
  pair cannot show a change of that size either way;
* ``worse`` — the new median is worse than the base by more than the bound;
* ``ok`` — otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(base: float, new: float, better: str, bound: float, spread: float) -> str:
    if spread > bound:
        return "unresolved"
    worsening = (new - base) / base if better == "lower" else (base - new) / base
    return "worse" if worsening > bound else "ok"


def compare(base: dict, new: dict, end_to_end: list[dict]) -> list[tuple]:
    rows = []
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"][workload]
        for metric in end_to_end:
            name = metric["name"]
            spread = max(
                base_entry["spread"].get(name, 0.0), new_entry["spread"].get(name, 0.0)
            )
            b, n = base_entry["median"][name], new_entry["median"][name]
            rows.append(
                (workload, name, metric["unit"], b, n, n / b, metric["bound"], spread,
                 verdict(b, n, metric["better"], metric["bound"], spread))
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(base, new, end_to_end)
    print(f"{'workload':<18}{'metric':<18}{'unit':<6}{'base':>12}{'new':>12}{'ratio':>8}"
          f"{'bound':>7}{'spread':>8}  verdict")
    for workload, name, unit, b, n, ratio, bound, spread, word in rows:
        print(f"{workload:<18}{name:<18}{unit:<6}{b:>12.5g}{n:>12.5g}{ratio:>8.3f}"
              f"{bound:>7.2f}{spread:>8.3f}  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
