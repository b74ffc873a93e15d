#!/usr/bin/env python3
"""Host-speed benchmark of the repro stack: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload zoo-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics named in ``BENCHMARK.json``. ``--trace 1`` alternates
untraced and traced sweeps, prints the per-layer metrics (with self time
where spans nest) and the tracing overhead, and writes the spans to
``perfbench/out/spans/``. Either way the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the full
record goes to ``perfbench/out/results/`` for ``perfbench/compare.py``.

The program is imported from ``src/`` of the checkout the script sits
in; without it the run fails before printing a result. The load comes
from this one process: ``REPRO_SIM_WORKERS=1`` is pinned, so no timed
sweep forks a ``repro.sim.parallel`` worker.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import hostspeed
from spans import (
    NULL_RECORDER,
    SpanRecorder,
    counts_per_rotation,
    per_rotation,
    self_times,
)
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINS_PATH = BENCH_DIR / "pins.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

#: Fresh processes whose set-up time is sampled; ``setup_s`` is the median.
SETUP_SAMPLES = 3


def pin_environment() -> None:
    """One worker process, one BLAS thread, default engine and router.

    Forked shard workers and BLAS thread pools would make the timings
    measure how the host schedules them next to its other tenants.
    """
    os.environ["REPRO_SIM_WORKERS"] = "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    for name in (
        "REPRO_SIM_ENGINE", "REPRO_FLEET_ROUTING", "REPRO_OBS_DEVICE_LABEL_CAP",
    ):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def normalize(value):
    """What a value reads as after a JSON round trip (as pins are stored)."""
    return json.loads(json.dumps(value, sort_keys=True))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def timed_sweep(workload, state, rec, index: int = 0):
    start = time.perf_counter()
    if rec.enabled:
        with rec.span("sweep"):
            sweep = workload.sweep(state, rec, index)
    else:
        sweep = workload.sweep(state, index=index)
    sweep.wall_s = time.perf_counter() - start
    return sweep


def run_sweeps(workload, state, seconds: float, rec, prober):
    """Sweep until the budget would be overrun; at least one rotation.

    With a recorder, each untraced sweep is followed by a traced one of
    the same index. The host's speed is read before the first sweep and
    after each one; see :func:`assign_scales`.
    """
    plain, traced, ordered = [], [], []
    readings = [prober.read()]
    deadline = time.perf_counter() + seconds
    while True:
        index = len(plain)
        for sweeps, recorder in ((plain, NULL_RECORDER), (traced, rec)):
            if recorder is None:
                continue
            sweep = timed_sweep(workload, state, recorder, index)
            readings.append(prober.read())
            sweeps.append(sweep)
            ordered.append(sweep)
        last = plain[-1].wall_s + (traced[-1].wall_s if traced else 0.0)
        if (
            len(plain) >= workload.rotation
            and time.perf_counter() + last > deadline
        ):
            assign_scales(ordered, readings)
            return plain, traced, readings


def assign_scales(ordered, readings) -> None:
    """Scale each sweep by the median of the six readings around it.

    Sweep ``j`` ran between readings ``j`` and ``j + 1``. The host's
    speed flips between two levels about 2x apart every second or so,
    and one 75 ms reading catches one level; the slower drifts that
    move whole runs last minutes. The median of the nearest six
    readings follows the drift and ignores single flips.
    """
    for j, sweep in enumerate(ordered):
        nearby = readings[max(0, j - 2):j + 4]
        sweep.scale = hostspeed.REFERENCE_S / statistics.median(nearby)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def failing_keys(workload, state, sweep, seen, pinned, all_pinned):
    """Operation keys of ``sweep`` that raised or failed a check.

    ``seen`` maps each key to its first output in the run; repeated
    operations must agree with it exactly. Pinned values are compared
    for every key at the pinned seed (``all_pinned``), and otherwise for
    keys that start with one of the workload's seed-free prefixes.
    """
    outputs = normalize(sweep.outputs)
    bad = set(sweep.raised) | workload.invariants(state, outputs)
    for key in sweep.ops:
        if key not in outputs:
            bad.add(key)
            continue
        if key in sweep.raised:
            continue
        if outputs[key] != seen.setdefault(key, outputs[key]):
            bad.add(key)
        pins_key = all_pinned or key.startswith(workload.seed_free)
        if pins_key and outputs[key] != pinned.get(key):
            bad.add(key)
    return bad


def check_sweeps(workload, state, seed: int, sweeps, pins: dict):
    """(attempted, failed, problems) over every sweep of the run."""
    entry = pins.get(workload.name)
    problems = []
    if entry is None:
        problems.append(f"no pinned outputs for {workload.name}")
        entry = {"seed": None, "outputs": {}}
    all_pinned = seed == entry["seed"]
    attempted = failed = 0
    seen: dict = {}
    for index, sweep in enumerate(sweeps):
        bad = failing_keys(
            workload, state, sweep, seen, entry["outputs"], all_pinned
        )
        attempted += sum(sweep.ops.values())
        failed += sum(sweep.ops.get(key, 1) for key in bad)
        problems.extend(
            f"sweep {index}: {key}: {sweep.outputs.get(key)}"
            for key in sorted(bad)
        )
    if problems and not failed:
        failed = 1
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def setup_sample(workload_name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh process (imports included)."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True,
        cwd=str(ROOT),
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_values(rec, workload, plain, traced, extras) -> dict[str, float]:
    """Per-layer values measured by the traced run, by metric name."""
    rotations = len(traced) / workload.rotation
    values = {
        f"{name}_ms": seconds * 1e3
        for name, seconds in per_rotation(rec.spans, rotations=rotations).items()
    }
    counts = counts_per_rotation(rec, rotations)
    values.update(counts)

    def ratio(numerator: str, denominator: str) -> float:
        if counts.get(denominator):
            return counts.get(numerator, 0.0) / counts[denominator]
        return 0.0

    values["caching.compile_hit_rate"] = ratio(
        "caching.warm_hits", "caching.warm_lookups"
    )
    if counts.get("sim.events"):
        values["sim.ns_per_event"] = (
            values["runtime.launch_ms"] * 1e6 / counts["sim.events"]
        )
    for loop in ("server", "fleet"):
        values[f"serving.{loop}.shed_ratio"] = ratio(
            f"serving.{loop}.shed", f"serving.{loop}.offered"
        )
    values["serving.server.mean_batch"] = ratio(
        "serving.server.batched", "serving.server.completed"
    )
    # Traced sweep k repeats untraced sweep k, so the sums compare equal work.
    values["trace.overhead_ratio"] = sum(
        s.wall_s * s.scale for s in traced
    ) / sum(s.wall_s * s.scale for s in plain[:len(traced)])
    values.update(extras)
    return values


def print_layer_table(rec, workload, traced, declared, values) -> None:
    """Every declared per-layer metric, plus self time for span metrics."""
    rotations = len(traced) / workload.rotation
    self_ms = {
        f"{name}_ms": seconds * 1e3
        for name, seconds in per_rotation(
            rec.spans, self_times(rec.spans), rotations
        ).items()
    }
    print(f"  {'per-layer metric':<40} {'value':>14}  {'unit':<6} "
          f"{'self ms':>10}")
    for metric in declared:
        name = metric["name"]
        own = f"{self_ms[name]:10.3f}" if name in self_ms else f"{'':>10}"
        print(f"  {name:<40} {values.get(name, 0.0):14.4f}  "
              f"{metric['unit']:<6} {own}")
    unlisted = sorted(set(self_ms) - {m["name"] for m in declared})
    for name in unlisted:
        print(f"  {name + ' (span)':<40} {values[name]:14.4f}  {'ms':<6} "
              f"{self_ms[name]:10.3f}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def setup_only(workload, seed: int) -> None:
    start = time.perf_counter()
    workload.setup(workload.inputs(seed))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def write_pins(workload, seed: int) -> None:
    """Record one rotation's outputs as the pinned values (a model change)."""
    state = workload.setup(workload.inputs(seed))
    outputs = {}
    for index in range(workload.rotation):
        sweep = timed_sweep(workload, state, NULL_RECORDER, index)
        if sweep.raised:
            raise SystemExit(f"cannot pin: {sorted(sweep.raised)} raised")
        outputs.update(normalize(sweep.outputs))
    pins = load_json(PINS_PATH) if PINS_PATH.exists() else {}
    pins[workload.name] = {"seed": seed, "outputs": outputs}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(outputs)} outputs of {workload.name} at seed {seed}")


def unit_of(name: str) -> str:
    """Unit of a named summary metric, from its suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return ""


def run(workload, args, benchmark: dict) -> tuple[dict, dict]:
    """One measured run: (the printed result object, extra record fields)."""
    run_id = f"{workload.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    rec = SpanRecorder(run_id) if args.trace else None
    with hostspeed.Prober() as prober:
        start = time.perf_counter()
        if rec is not None:
            with rec.span("setup"):
                state = workload.setup(workload.inputs(args.seed), rec)
        else:
            state = workload.setup(workload.inputs(args.seed))
        setup_raw = [time.perf_counter() - start]
        plain, traced, readings = run_sweeps(
            workload, state, args.seconds, rec, prober
        )
        if rec is None:
            for _ in range(SETUP_SAMPLES - 1):
                setup_raw.append(setup_sample(workload.name, args.seed))
                readings.append(prober.read())
    pins = load_json(PINS_PATH) if PINS_PATH.exists() else {}
    attempted, failed, problems = check_sweeps(
        workload, state, args.seed, plain + traced, pins
    )
    summary = workload.summarize(state, plain)
    raw_summary = workload.summarize(
        state, [replace(sweep, scale=1.0) for sweep in plain]
    )
    scales = [sweep.scale for sweep in plain]
    print(f"workload {workload.name}  seed {args.seed}  "
          f"sweeps {len(plain)} untraced, {len(traced)} traced  "
          f"host-speed scale {statistics.median(scales):.3f} "
          f"[{min(scales):.3f}, {max(scales):.3f}]")
    details = {
        "host_speed_scales": scales,
        "host_speed_readings_s": readings,
        "raw": raw_summary,
        "named": {name: value for name, value in summary.items()
                  if not name.startswith("stage")},
    }

    if rec is None:
        setup_scale = hostspeed.REFERENCE_S / statistics.median(readings)
        setup_samples = [raw * setup_scale for raw in setup_raw]
        details["setup_samples_s"] = setup_samples
        details["raw"]["setup_s"] = statistics.median(setup_raw)
        values = {
            "setup_s": statistics.median(setup_samples),
            "stage1_ms": summary["stage1_ms"],
            "stage2_ms": summary["stage2_ms"],
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = benchmark["end_to_end"]
        print("  end-to-end metrics (tracing off; times at reference host "
              "speed, raw in brackets)")
        for metric in declared:
            name = metric["name"]
            raw = details["raw"].get(name)
            bracket = f"  [{raw:.4f}]" if raw is not None else ""
            print(f"  {name:<24} {values[name]:14.4f} {metric['unit']:<4}"
                  f"{bracket}")
        for name, value in details["named"].items():
            print(f"  {name:<24} {value:14.4f} {unit_of(name):<4}"
                  f"  [{raw_summary[name]:.4f}]")
    else:
        attempted += 1
        try:
            extras = workload.trace_extras(state)
        except Exception as error:  # reported as a failed operation
            extras = {}
            failed += 1
            problems.append(f"trace extras: {type(error).__name__}: {error}")
        values = layer_values(rec, workload, plain, traced, extras)
        declared = benchmark["per_layer"]
        rec.write(OUT_DIR / "spans" / f"{workload.name}-seed{args.seed}.json")
        print_layer_table(rec, workload, traced, declared, values)

    print(f"  {'error_rate':<24} {failed / attempted:14.4f} ratio "
          f"({failed} of {attempted} operations)")
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {
                "value": float(values.get(metric["name"], 0.0)),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    return result, details


def run_all(args) -> int:
    """Every workload in turn, each in its own process, output passed on."""
    code = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), timeout=900,
        )
        code = code or completed.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help=f"one of {', '.join(WORKLOADS)}, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true",
                        help="record this seed's outputs in perfbench/pins.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    hostspeed.pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(workload, args.seed)
        return 0
    if args.write_pins:
        write_pins(workload, args.seed)
        return 0

    benchmark = load_json(BENCHMARK_PATH)
    result, details = run(workload, args, benchmark)
    record = dict(result, workload=workload.name, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, **details)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
