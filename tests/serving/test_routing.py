"""Fleet routing fast path: heap/reference equivalence and bounded depth.

The heap router's contract is *byte-identical behavior* to the pinned
reference scans (`repro.serving.routing.ReferenceRouter`), not merely
similar routing quality. Three layers of evidence:

- a seeded 512-replica churn harness drives both routers through the
  same quarantine/promote/drain/retire mutations and asserts every query
  (pick with exclusions, hedged picks past the clock, earliest_start,
  standby, drain_victim, due_repair) returns the same replica;
- tie-break regressions pin the deterministic orderings the fleet relies
  on (equal load -> lowest index; equal repair due -> lowest index);
- a whole-scenario byte-compare replays a chaos scenario through both
  implementations and diffs the serialized ``FleetReport`` — including
  per-class ``SloClassStats`` — as JSON.

``PrunedFinishes`` is checked against the unbounded sorted-list +
``bisect_right`` depth semantics it replaced.
"""

import json
import random
from bisect import bisect_right, insort

import pytest

from repro.chaos import SCENARIOS, run_scenario
from repro.serving.routing import (
    DepthView,
    HeapRouter,
    PrunedFinishes,
    ReferenceRouter,
    ReplicaStatus,
    make_router,
    resolve_routing,
)


class FakeReplica:
    """The attribute surface the routers consume."""

    __slots__ = ("index", "status", "free_at", "repair_due_ns")

    def __init__(self, index, status=ReplicaStatus.ACTIVE):
        self.index = index
        self.status = status
        self.free_at = 0.0
        self.repair_due_ns = None


def _pair(n, standby=0):
    """Fresh (replicas, heap router, reference router) triple."""
    replicas = [FakeReplica(i) for i in range(n)]
    for replica in replicas[n - standby:]:
        replica.status = ReplicaStatus.STANDBY
    heap, reference = HeapRouter(), ReferenceRouter()
    heap.rebuild(replicas)
    reference.rebuild(replicas)
    return replicas, heap, reference


def _assert_same_pick(heap, reference, now, excluded=frozenset()):
    got = heap.pick(now, excluded)
    want = reference.pick(now, excluded)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.index == want.index
    return want


# ---------------------------------------------------------------------------
# selection + config
# ---------------------------------------------------------------------------


def test_resolve_routing_precedence():
    assert resolve_routing() == "heap"
    assert resolve_routing("reference") == "reference"
    assert resolve_routing("heap") == "heap"


def test_resolve_routing_rejects_unknown():
    with pytest.raises(ValueError, match="unknown fleet routing"):
        resolve_routing("quantum")


def test_make_router_returns_selected_implementation():
    assert isinstance(make_router(), HeapRouter)
    assert isinstance(make_router("reference"), ReferenceRouter)


# ---------------------------------------------------------------------------
# tie-break regressions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("router_cls", [HeapRouter, ReferenceRouter])
def test_equal_load_breaks_ties_by_lowest_index(router_cls):
    replicas = [FakeReplica(i) for i in range(8)]
    router = router_cls()
    router.rebuild(replicas)
    # all idle at t=0: lowest index must win
    assert router.pick(0.0).index == 0
    # exclusions walk up the index order, never skipping
    assert router.pick(0.0, {0}).index == 1
    assert router.pick(0.0, {0, 1, 2}).index == 3
    # equally *busy* replicas tie-break on index too
    for replica in replicas:
        replica.free_at = 100.0
        router.update(replica)
    assert router.pick(0.0).index == 0
    assert router.pick(150.0, {0}).index == 1


@pytest.mark.parametrize("router_cls", [HeapRouter, ReferenceRouter])
def test_busy_replica_loses_to_later_idle_index(router_cls):
    replicas = [FakeReplica(i) for i in range(3)]
    router = router_cls()
    router.rebuild(replicas)
    router.advance(10.0)
    replicas[0].free_at = 50.0
    router.update(replicas[0])
    # replica 0 is busy until 50; replica 1 is free now and must win
    assert router.pick(10.0).index == 1
    # at t=50 replica 0 is free again and the index tie-break resumes
    router.advance(50.0)
    assert router.pick(50.0).index == 0


@pytest.mark.parametrize("router_cls", [HeapRouter, ReferenceRouter])
def test_equal_repair_due_breaks_ties_by_lowest_index(router_cls):
    replicas = [FakeReplica(i) for i in range(4)]
    router = router_cls()
    router.rebuild(replicas)
    for replica in (replicas[3], replicas[1]):
        replica.status = ReplicaStatus.QUARANTINED
        replica.repair_due_ns = 500.0
        router.update(replica)
    due = router.due_repair(500.0)
    assert due is not None and due.index == 1


def test_hedged_pick_past_clock_does_not_corrupt_state():
    # A hedge queries at a failure time beyond the routing clock; the
    # busy/idle split must survive the out-of-band query untouched.
    replicas = [FakeReplica(i) for i in range(4)]
    heap = HeapRouter()
    heap.rebuild(replicas)
    heap.advance(0.0)
    for replica in replicas[:3]:
        replica.free_at = 30.0
        heap.update(replica)
    replicas[3].free_at = 5.0
    heap.update(replicas[3])
    # hedge at t=40 (clock still 0): everyone is free, index 0 wins
    assert heap.pick(40.0, excluded={0}).index == 1
    # the clock never moved: a pick at t=6 still sees 0..2 busy
    assert heap.pick(6.0).index == 3
    assert heap.earliest_start(6.0) == 6.0


# ---------------------------------------------------------------------------
# seeded churn equivalence (satellite c)
# ---------------------------------------------------------------------------


def test_512_replica_churn_matches_reference_byte_for_byte():
    n = 512
    rng = random.Random(0xF1EE7)
    replicas, heap, reference = _pair(n, standby=24)
    now = 0.0
    for step in range(4000):
        now += rng.expovariate(1.0) * 1e5
        heap.advance(now)
        roll = rng.random()
        if roll < 0.55:
            # route one request, sometimes with failover exclusions
            excluded = set()
            if rng.random() < 0.3:
                excluded = {rng.randrange(n) for _ in range(rng.randrange(4))}
            picked = _assert_same_pick(heap, reference, now, excluded)
            if picked is not None:
                picked.free_at = max(picked.free_at, now) + rng.random() * 4e5
                heap.update(picked)
            assert heap.earliest_start(now) == reference.earliest_start(now)
        elif roll < 0.65:
            # hedged re-dispatch beyond the clock, clock not advanced
            hedge_at = now + rng.random() * 2e5
            _assert_same_pick(heap, reference, hedge_at)
        elif roll < 0.75:
            # quarantine a random active replica, maybe schedule repair
            victim = reference.pick(now)
            if victim is not None:
                victim.status = ReplicaStatus.QUARANTINED
                victim.repair_due_ns = (
                    now + rng.random() * 8e5 if rng.random() < 0.8 else None
                )
                heap.update(victim)
        elif roll < 0.85:
            # promote the standby the fleet would promote
            spare = reference.standby()
            assert (spare is None) == (heap.standby() is None)
            if spare is not None:
                assert heap.standby().index == spare.index
                spare.status = ReplicaStatus.ACTIVE
                spare.free_at = now
                heap.update(spare)
        elif roll < 0.93:
            # repair probe: both routers must surface the same due replica
            bound = now if rng.random() < 0.7 else None
            want = reference.due_repair(bound)
            got = heap.due_repair(bound)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.index == want.index
                if rng.random() < 0.6:  # repaired
                    want.status = ReplicaStatus.ACTIVE
                    want.free_at = now
                    want.repair_due_ns = None
                elif rng.random() < 0.5:  # probe failed, rescheduled
                    want.repair_due_ns = now + rng.random() * 8e5
                else:  # retired for good
                    want.status = ReplicaStatus.RETIRED
                    want.repair_due_ns = None
                heap.update(want)
        else:
            # autoscale drain of the highest-index active replica
            victim = reference.drain_victim()
            assert (victim is None) == (heap.drain_victim() is None)
            if victim is not None:
                assert heap.drain_victim().index == victim.index
                victim.status = ReplicaStatus.STANDBY
                heap.update(victim)
        assert heap.active_count() == reference.active_count()


# ---------------------------------------------------------------------------
# bounded depth tracking
# ---------------------------------------------------------------------------


def test_pruned_finishes_matches_bisect_reference():
    rng = random.Random(99)
    pruned = PrunedFinishes()
    unbounded: list[float] = []
    now = 0.0
    for _ in range(3000):
        now += rng.random() * 1e5
        for _ in range(rng.randrange(3)):
            finish = now + rng.random() * 5e5
            pruned.push(finish)
            insort(unbounded, finish)
        # historical depth semantics: finishes strictly after `now`
        want = len(unbounded) - bisect_right(unbounded, now)
        assert pruned.depth(now) == want
    # pruning actually bounds memory: entries <= now are gone
    assert len(pruned) == len(unbounded) - bisect_right(unbounded, now)


def test_pruned_finishes_boundary_is_exclusive():
    pruned = PrunedFinishes()
    pruned.push(10.0)
    pruned.push(20.0)
    # a finish exactly at `now` no longer occupies the queue
    assert pruned.depth(10.0) == 1
    assert pruned.depth(20.0) == 0
    assert len(pruned) == 0


def test_depth_view_reads_like_a_mapping():
    finishes = {"vision": PrunedFinishes(), "nlp": PrunedFinishes()}
    finishes["vision"].push(50.0)
    finishes["vision"].push(60.0)
    view = DepthView(finishes, 40.0)
    assert view.get("vision", 0) == 2
    assert view.get("nlp", 0) == 0
    assert view.get("absent", 0) == 0
    assert DepthView(finishes, 55.0).get("vision", 0) == 1


# ---------------------------------------------------------------------------
# whole-run byte equivalence (tentpole part 1)
# ---------------------------------------------------------------------------


def _suite_json(name, routing):
    result = run_scenario(SCENARIOS[name], seed=7, routing=routing)
    payload = {
        "report": result.report.to_dict(),
        "violations": result.violations,
        "sweep": result.sweep,
    }
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("scenario", ["replica-kill", "flash-crowd"])
def test_chaos_scenario_reports_byte_identical(scenario):
    assert _suite_json(scenario, "heap") == _suite_json(scenario, "reference")


def test_fleet_routing_arg_selects_reference():
    from repro.serving.fleet import FleetConfig, FleetManager
    from repro.serving.server import TenantConfig

    fleet = FleetManager(
        [TenantConfig("a", "resnet50", groups=1)],
        config=FleetConfig(replicas=1, validate_on_open=False),
        service_times_ns={"a": 1.0e6},
        routing="reference",
    )
    assert fleet.routing == "reference"
    assert isinstance(fleet._router, ReferenceRouter)
    assert FleetManager(
        [TenantConfig("a", "resnet50", groups=1)],
        config=FleetConfig(replicas=1, validate_on_open=False),
        service_times_ns={"a": 1.0e6},
        routing="heap",
    ).routing == "heap"
