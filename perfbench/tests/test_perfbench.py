"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from spans import Span, per_rotation, self_times  # noqa: E402
from workloads import WORKLOADS, Sweep, digest, make_trace  # noqa: E402


# -- workload generation -----------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_across_seeds(name):
    workload = WORKLOADS[name]
    assert workload.inputs(7) == workload.inputs(7)
    assert workload.inputs(7) != workload.inputs(8)


def test_zoo_order_is_a_seeded_shuffle_of_every_model():
    zoo = WORKLOADS["zoo-cold"]
    orders = {tuple(zoo.inputs(seed)["order"]) for seed in range(5)}
    assert len(orders) > 1
    assert all(sorted(order) == sorted(next(iter(orders))) for order in orders)


def test_serving_trace_repeats_for_a_seed_and_changes_across_seeds():
    def trace_digest(seed):
        return digest([
            (r.request_id, r.tenant, r.arrival_ns, r.slo_class, r.user_id)
            for r in make_trace(seed)
        ])

    assert trace_digest(3) == trace_digest(3)
    assert trace_digest(3) != trace_digest(4)


# -- output checks -----------------------------------------------------------


def pinned_sweep(name: str) -> tuple[dict, Sweep]:
    pins = json.loads(run.PINS_PATH.read_text())
    outputs = copy.deepcopy(pins[name]["outputs"])
    return pins, Sweep(ops={key: 1 for key in outputs}, outputs=outputs)


def test_pinned_outputs_pass_the_check():
    pins, sweep = pinned_sweep("zoo-cold")
    attempted, failed, problems = run.check_sweeps(
        WORKLOADS["zoo-cold"], None, pins["zoo-cold"]["seed"], [sweep], pins
    )
    assert (attempted, failed, problems) == (30, 0, [])


@pytest.mark.parametrize("seed", [0, 5])
def test_check_flags_a_perturbed_seed_free_value(seed):
    pins, sweep = pinned_sweep("zoo-cold")
    sweep.outputs["launch:resnet50"]["latency_ns"] *= 1.0 + 1e-12
    _attempted, failed, problems = run.check_sweeps(
        WORKLOADS["zoo-cold"], None, seed, [sweep], pins
    )
    assert failed == 1
    assert "launch:resnet50" in problems[0]


def test_check_flags_a_perturbed_default_seed_value_only_at_that_seed():
    pins, sweep = pinned_sweep("serve-open-loop")
    sweep.outputs["fleet"]["a"]["classes"]["batch"]["p99_ms"] += 1e-9
    serve = WORKLOADS["serve-open-loop"]
    state = {"offered": {
        name: stats["completed"] + stats["shed"] + stats["failed"]
        for name, stats in sweep.outputs["server"].items()
    }}
    default = pins["serve-open-loop"]["seed"]
    assert run.check_sweeps(serve, state, default, [sweep], pins)[1] == 1
    assert run.check_sweeps(serve, state, default + 1, [sweep], pins)[1] == 0


def test_check_flags_requests_that_go_missing():
    pins, sweep = pinned_sweep("serve-open-loop")
    state = {"offered": {
        name: stats["completed"] + stats["shed"] + stats["failed"] + 1
        for name, stats in sweep.outputs["server"].items()
    }}
    serve = WORKLOADS["serve-open-loop"]
    assert run.check_sweeps(serve, state, 99, [sweep], pins)[1] == 2


def test_check_flags_sweeps_that_disagree_and_counts_weighted_ops():
    pins, first = pinned_sweep("compile-guarded")
    second = copy.deepcopy(first)
    first.ops["fuzz:0"] = second.ops["fuzz:0"] = 80
    second.outputs["fuzz:0"]["digest"] = "f" * 64
    attempted, failed, _problems = run.check_sweeps(
        WORKLOADS["compile-guarded"], None, 99, [first, second], pins
    )
    per_sweep = len(first.ops) - 1 + 80
    assert (attempted, failed) == (2 * per_sweep, 80)


def test_check_compares_each_key_with_its_first_occurrence():
    pins, full = pinned_sweep("compile-guarded")
    keys = sorted(full.outputs)
    halves = [
        Sweep(ops={k: 1 for k in part},
              outputs={k: full.outputs[k] for k in part})
        for part in (keys[::2], keys[1::2], keys[::2])
    ]
    assert run.check_sweeps(
        WORKLOADS["compile-guarded"], None, 99, halves, pins
    )[1:] == (0, [])


def test_check_flags_a_broken_invariant_and_a_raise():
    pins, sweep = pinned_sweep("chaos-suite")
    sweep.outputs["scenario:baseline"]["violations"] = ["lost a request"]
    sweep.raised.add("scenario:replica-kill")
    _attempted, failed, _problems = run.check_sweeps(
        WORKLOADS["chaos-suite"], None, 99, [sweep], pins
    )
    assert failed == 2


# -- spans -------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("sweep", 0.0, 10.0, None, "r"),      # 0
        Span("compile", 1.0, 6.0, 0, "r"),        # 1
        Span("validate", 1.5, 2.5, 1, "r"),       # 2
        Span("lower", 3.0, 5.0, 1, "r"),          # 3
        Span("launch", 6.0, 9.0, 0, "r"),         # 4
        Span("sweep", 20.0, 24.0, None, "r"),     # 5
        Span("compile", 20.0, 23.0, 5, "r"),      # 6
        Span("validate", 20.0, 21.0, 6, "r"),     # 7
    ]
    assert self_times(spans) == [2.0, 2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 1.0]
    totals = per_rotation(spans, rotations=2)
    assert totals == {"compile": 4.0, "validate": 1.0, "lower": 1.0,
                      "launch": 1.5}
    assert per_rotation(spans, self_times(spans), rotations=2)["compile"] == 2.0


def test_set_up_spans_count_once_per_run():
    spans = [
        Span("setup", 0.0, 3.0, None, "r"),
        Span("build", 0.0, 2.0, 0, "r"),
        Span("sweep", 5.0, 9.0, None, "r"),
        Span("compile", 5.0, 9.0, 2, "r"),
    ]
    assert per_rotation(spans, rotations=0.5) == {"build": 2.0, "compile": 8.0}


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        Span("parent", 0.0, 4.0, None, "r"),
        Span("a", -1.0, 2.0, 0, "r"),   # clipped to [0, 2]
        Span("b", 1.0, 3.0, 0, "r"),    # overlaps a: union is [0, 3]
    ]
    assert self_times(spans)[0] == 1.0


# -- compare -----------------------------------------------------------------


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, [x * 1.3 for x in base], "lower", 0.1)[1] == (
        "regression"
    )
    assert compare.verdict(base, [x * 0.7 for x in base], "lower", 0.1)[1] == (
        "improvement"
    )
    assert compare.verdict(base, base, "lower", 0.1)[1] == "within bound"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(base, [x * 1.3 for x in base], "higher", 0.1)[1] == (
        "improvement"
    )
