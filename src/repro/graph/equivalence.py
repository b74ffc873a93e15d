"""Fusion equivalence guard: replay fused groups against their members.

The expert-rule fuser (:mod:`repro.graph.fusion`) rewrites graphs
aggressively, and a production compiler must not ship a rewrite that
changes numerics. This module gives :func:`~repro.compiler.pipeline.compile_graph`
a safety net mirroring the paper's accuracy-verification workflow ("We use
CPU's DNN inference results as the reference", §VI-A):

for every fused node in the optimized graph, the guard

1. builds two views sharing tensor types and initializers — the single
   fused node (executed unflattened through
   :meth:`~repro.graph.reference.ReferenceExecutor._op_fused`) and its
   member subgraph (the pre-fusion ops),
2. evaluates both on identical seeded inputs and weights,
3. compares outputs with a tight tolerance.

A mismatch marks the compile for **fallback**: the caller recompiles the
pristine graph with fusion disabled instead of shipping silently-wrong
kernels, and observability counters (``fusion_guard_checks_total``,
``fusion_guard_fallbacks_total``) record the event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.fusion import fused_members
from repro.graph.ir import Graph, Node
from repro.graph.reference import ReferenceExecutor, seeded_input

#: Comparison tolerances. Default fused semantics replay members exactly,
#: so any honest fused kernel should match to float64 round-off; the loose
#: absolute term absorbs catastrophic-cancellation noise near zero.
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class GroupCheck:
    """Outcome of verifying one fused group."""

    node: str
    anchor: str
    members: int
    result: str
    """``"ok"``, ``"mismatch"`` or ``"skipped"`` (symbolic/missing types)."""
    max_abs_error: float = 0.0
    detail: str = ""


@dataclass
class FusionGuardReport:
    """All group checks for one optimized graph."""

    graph: str
    checks: list[GroupCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.result != "mismatch" for check in self.checks)

    @property
    def mismatches(self) -> list[GroupCheck]:
        return [c for c in self.checks if c.result == "mismatch"]

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "ok": self.ok,
            "checks": [
                {
                    "node": c.node,
                    "anchor": c.anchor,
                    "members": c.members,
                    "result": c.result,
                    "max_abs_error": c.max_abs_error,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _group_views(graph: Graph, fused: Node) -> tuple[Graph, Graph] | None:
    """(fused-node view, member-subgraph view), or None if untypeable.

    Both views share the parent's tensor types and initializer set, so the
    reference executors materialize identical weights.
    """
    members = fused_members(fused)
    needed = set(fused.inputs) | set(fused.outputs)
    for member in members:
        needed.update(member.inputs, member.outputs)
    for tensor in needed:
        tensor_type = graph.tensor_types.get(tensor)
        if tensor_type is None or not tensor_type.is_static:
            return None
    types = {name: graph.tensor_types[name] for name in needed}
    weights = {name for name in needed if name in graph.initializers}
    data_inputs = [name for name in fused.inputs if name not in weights]
    fused_view = Graph(
        name=f"{graph.name}.{fused.name}.fused",
        nodes=[fused],
        inputs=data_inputs,
        outputs=list(fused.outputs),
        tensor_types=types,
        initializers=weights,
    )
    member_view = Graph(
        name=f"{graph.name}.{fused.name}.members",
        nodes=list(members),
        inputs=data_inputs,
        outputs=list(fused.outputs),
        tensor_types=types,
        initializers=weights,
    )
    return fused_view, member_view


def check_fused_group(graph: Graph, fused: Node, seed: int = 0) -> GroupCheck:
    """Replay one fused group against its unfused members."""
    members = fused_members(fused)
    anchor = str(fused.attrs.get("anchor", fused.op_type))
    views = _group_views(graph, fused)
    if views is None:
        return GroupCheck(
            node=fused.name,
            anchor=anchor,
            members=len(members),
            result="skipped",
            detail="symbolic or missing tensor types",
        )
    fused_view, member_view = views
    inputs = {
        name: seeded_input(
            fused_view.tensor_types[name].shape, seed, "fusion-guard", name
        )
        for name in fused_view.inputs
    }
    weight_cache: dict[str, np.ndarray] = {}
    fused_out = ReferenceExecutor(
        fused_view, seed=seed, weight_cache=weight_cache, flatten_fused=False
    ).run(**inputs)
    member_out = ReferenceExecutor(
        member_view, seed=seed, weight_cache=weight_cache
    ).run(**inputs)
    worst = 0.0
    for name in fused_view.outputs:
        got, want = fused_out[name], member_out[name]
        if got.shape != want.shape:
            return GroupCheck(
                node=fused.name,
                anchor=anchor,
                members=len(members),
                result="mismatch",
                max_abs_error=float("inf"),
                detail=f"output {name!r} shape {got.shape} != {want.shape}",
            )
        if not np.allclose(got, want, rtol=RTOL, atol=ATOL, equal_nan=True):
            error = float(np.max(np.abs(got - want)))
            return GroupCheck(
                node=fused.name,
                anchor=anchor,
                members=len(members),
                result="mismatch",
                max_abs_error=error,
                detail=f"output {name!r} diverges by {error:.3e}",
            )
        finite = np.isfinite(got) & np.isfinite(want)
        if np.any(finite):
            worst = max(worst, float(np.max(np.abs(got[finite] - want[finite]))))
    return GroupCheck(
        node=fused.name,
        anchor=anchor,
        members=len(members),
        result="ok",
        max_abs_error=worst,
    )


def verify_fused_graph(
    graph: Graph, seed: int = 0, obs=None
) -> FusionGuardReport:
    """Check every fused group in an optimized graph.

    With an observability hub attached, each check increments
    ``fusion_guard_checks_total{result=...}``.
    """
    report = FusionGuardReport(graph=graph.name)
    for node in graph.nodes:
        if node.op_type != "fused":
            continue
        check = check_fused_group(graph, node, seed=seed)
        report.checks.append(check)
        if obs is not None:
            obs.metrics.counter(
                "fusion_guard_checks_total",
                "fusion equivalence guard outcomes",
            ).inc(result=check.result)
    return report


__all__ = [
    "ATOL",
    "RTOL",
    "FusionGuardReport",
    "GroupCheck",
    "check_fused_group",
    "verify_fused_graph",
]
