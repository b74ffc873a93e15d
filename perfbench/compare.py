#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of the result records ``run.py``
writes to ``perfbench/out/results/`` (copy that directory aside after
running the parent commit, then run the change). For every workload and
metric the report gives each side's run count, median and quartiles,
the change of the medians, and a verdict against the bound
``BENCHMARK.json`` fixes for end-to-end metrics:

- ``regression`` / ``improvement``: the medians differ by more than the
  bound and both sides' spreads are within it;
- ``unresolved``: a side's spread (interquartile range over median) is
  wider than the bound, so the difference cannot be told from noise --
  unless every run of ``NEW`` is better than every run of ``BASE``;
- ``within bound``: otherwise.

Per-layer metrics have no bound and get no verdict. The exit code is 1
when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(directory: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, over every record in ``directory``."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"]
            )
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> tuple[float, str]:
    """(signed change of the medians, verdict) for one metric."""
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    if base_median:
        change = (new_median - base_median) / base_median
    else:
        change = 0.0 if new_median == base_median else float("inf")
    if bound is None:
        return change, ""
    worse = change if better == "lower" else -change
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return change, "unresolved"
    if worse > bound:
        return change, "regression"
    if worse < -bound:
        return change, "improvement"
    return change, "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK_PATH)
    args = parser.parse_args(argv)

    benchmark = json.loads(args.benchmark.read_text())
    declared = {
        metric["name"]: metric
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    base = load_results(args.base)
    new = load_results(args.new)
    regressed = False
    header = (f"{'workload':<16} {'metric':<34} {'n':>5} {'base median':>13} "
              f"{'[q1, q3]':>23} {'new median':>13} {'[q1, q3]':>23} "
              f"{'change':>8}  verdict")
    print(header)
    for workload, name in sorted(set(base) & set(new)):
        metric = declared.get(name)
        if metric is None:
            continue
        before, after = base[(workload, name)], new[(workload, name)]
        change, outcome = verdict(
            before, after, metric["better"], metric.get("bound")
        )
        regressed |= outcome == "regression"
        b1, bm, b3 = quartiles(before)
        n1, nm, n3 = quartiles(after)
        print(f"{workload:<16} {name:<34} {len(before):>2}/{len(after):<2} "
              f"{bm:13.4f} [{b1:10.4f},{b3:10.4f}] {nm:13.4f} "
              f"[{n1:10.4f},{n3:10.4f}] {change:+8.1%}  {outcome}")
    for workload, name in sorted(set(base) ^ set(new)):
        side = "base" if (workload, name) in base else "new"
        print(f"{workload:<16} {name:<34} only in {side}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
