#!/usr/bin/env python
"""Run the fusion equivalence guard on the Table III model zoo.

Each model is built at batch 1, shape-bound, fused by ``optimize`` and
then checked group by group with ``verify_fused_graph`` — the same guard
a ``compile_graph(..., verify_fusion=True)`` runs. One row per model
gives its fused groups, the results by kind and the wall time.

The run fails (exit 1) when any group mismatches its unfused members or
is skipped: at batch 1 every zoo tensor has a static shape, so a skipped
group means the guard did not check what it was meant to check.

Usage::

    python tools/fusion_guard_zoo.py                    # all ten models
    python tools/fusion_guard_zoo.py resnet50 unet      # a subset
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph.equivalence import verify_fused_graph  # noqa: E402
from repro.graph.passes import optimize  # noqa: E402
from repro.graph.shape_inference import bind_shapes  # noqa: E402
from repro.models.zoo import MODEL_NAMES, build  # noqa: E402


def guard_model(name: str) -> tuple[Counter, float]:
    """(results by kind, guard wall seconds) for one model at batch 1."""
    graph = bind_shapes(build(name), batch=1)
    optimized, _report = optimize(graph.bind({}), fusion=True)
    start = time.perf_counter()
    report = verify_fused_graph(optimized)
    wall = time.perf_counter() - start
    return Counter(check.result for check in report.checks), wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("models", nargs="*", metavar="MODEL",
                        help="zoo models (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.models) - set(MODEL_NAMES))
    if unknown:
        parser.error(f"unknown models {unknown}; choose from {list(MODEL_NAMES)}")

    failed = []
    print(f"{'model':<12} {'groups':>6} {'ok':>4} {'mismatch':>8} "
          f"{'skipped':>7} {'wall s':>7}")
    for name in args.models or MODEL_NAMES:
        results, wall = guard_model(name)
        print(f"{name:<12} {sum(results.values()):>6} {results['ok']:>4} "
              f"{results['mismatch']:>8} {results['skipped']:>7} {wall:>7.1f}")
        if results["mismatch"] or results["skipped"]:
            failed.append(name)
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
