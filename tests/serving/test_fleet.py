"""FleetManager: multi-device routing, failover, and the repair lifecycle.

The acceptance scenario lives in tests/integration/test_chaos.py; here we
exercise the fleet layer directly — bring-up identity, shared compile
cache, hedged failover, quarantine/promotion/reintegration, shedding with
zero capacity, determinism, and the exported fleet metrics.
"""

import pytest

from repro.caching import COMPILE_CACHE
from repro.core.errors import ReproRuntimeError
from repro.faults import FaultSchedule, StormPhase
from repro.obs import Observability
from repro.serving import (
    FleetConfig,
    FleetManager,
    RasConfig,
    ReplicaStatus,
    Request,
    TenantConfig,
    TrafficPattern,
    generate_trace,
)

SERVICE = {"a": 1.0e6, "b": 5.0e6}


def _tenants():
    return [
        TenantConfig("a", "resnet50", groups=2, max_batch=1, sla_ms=50.0),
        TenantConfig("b", "unet", groups=3, sla_ms=None),
    ]


def _fleet(config=None, schedule=None, ras=None, obs=None):
    return FleetManager(
        _tenants(),
        config=config or FleetConfig(replicas=2, validate_on_open=False),
        schedule=schedule,
        ras=ras or RasConfig(max_retries=2, queue_depth_limit=64),
        obs=obs,
        service_times_ns=dict(SERVICE),
    )


def _trace(seed=0, rate_a=200.0, rate_b=40.0, duration=0.5):
    return generate_trace(
        [TrafficPattern("a", rate_a), TrafficPattern("b", rate_b)],
        duration_s=duration,
        seed=seed,
    )


KILL_SCHEDULE = FaultSchedule(
    phases=(StormPhase.kill(device=1, at_s=0.15, duration_s=0.2),)
)
KILL_CONFIG = FleetConfig(
    replicas=2, hot_spares=1, quarantine_threshold=2, repair_ms=60.0,
    validate_on_open=False,
)


class TestBringUp:
    def test_replica_device_ids_are_stable_and_unique(self):
        fleet = _fleet(config=FleetConfig(replicas=3, validate_on_open=False))
        ids = [replica.device.device_id for replica in fleet._replicas]
        assert ids == ["i20-r0", "i20-r1", "i20-r2"]
        accelerators = {
            id(replica.device.accelerator) for replica in fleet._replicas
        }
        assert len(accelerators) == 3  # distinct card instances

    def test_models_compile_once_across_replicas(self):
        hits0, misses0 = COMPILE_CACHE.stats.hits, COMPILE_CACHE.stats.misses
        fleet = _fleet(config=FleetConfig(replicas=4, validate_on_open=False))
        hits = COMPILE_CACHE.stats.hits - hits0
        misses = COMPILE_CACHE.stats.misses - misses0
        n_models = len(fleet.tenants)
        # One compile call per tenant model for the whole fleet (the
        # replicas are the same chip, so bring-up shares the compiled
        # object instead of re-hashing the graph per replica); each
        # lookup misses at most once (zero when a previous test already
        # cached the model).
        assert hits + misses == n_models
        assert misses <= n_models
        for tenant in fleet.tenants:
            compiled = {
                id(replica.compiled[tenant])
                for replica in fleet._replicas
            }
            assert len(compiled) == 1  # shared CompiledModel per model

    def test_validate_on_open_records_bringup_launches(self):
        fleet = FleetManager(
            _tenants(),
            config=FleetConfig(replicas=2, validate_on_open=True),
            service_times_ns=dict(SERVICE),
        )
        kinds = [event.kind for event in fleet._bringup_events]
        assert kinds == ["opened", "validated"] * 2

    def test_invalid_config_rejected(self):
        for kwargs in (
            {"replicas": 0},
            {"hot_spares": -1},
            {"quarantine_threshold": 0},
            {"repair_ms": 0.0},
            {"max_repair_attempts": 0},
            {"max_hedges": -1},
        ):
            with pytest.raises(ReproRuntimeError, match="FleetConfig"):
                FleetConfig(**kwargs)

    def test_duplicate_tenants_rejected(self):
        tenants = [_tenants()[0], _tenants()[0]]
        with pytest.raises(ReproRuntimeError, match="duplicate"):
            FleetManager(tenants, service_times_ns=dict(SERVICE))

    def test_empty_tenants_rejected(self):
        with pytest.raises(ReproRuntimeError, match="at least one"):
            FleetManager([], service_times_ns=dict(SERVICE))


class TestQuietFleet:
    def test_no_faults_serves_everything(self):
        report = _fleet().run(_trace())
        for stats in report.tenants.values():
            assert stats.served == stats.offered
            assert stats.failed == 0 and stats.shed == 0
            assert stats.availability == 1.0
        assert report.hedged_requests == 0
        assert report.quarantines == 0
        assert report.min_healthy == 2

    def test_conservation_always_holds(self):
        report = _fleet(
            schedule=KILL_SCHEDULE, config=KILL_CONFIG
        ).run(_trace())
        for stats in report.tenants.values():
            assert stats.served + stats.failed + stats.shed == stats.offered

    def test_load_spreads_over_replicas(self):
        report = _fleet().run(_trace())
        served = [device.served for device in report.devices]
        assert all(count > 0 for count in served)


class TestFailoverLifecycle:
    def test_kill_drives_quarantine_repair_reintegrate(self):
        report = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(_trace())
        transitions = report.transitions("r1")
        assert "quarantined" in transitions
        assert "repaired" in transitions
        assert "reintegrated" in transitions
        assert transitions.index("quarantined") < transitions.index("repaired")
        assert transitions.index("repaired") <= transitions.index("reintegrated")
        killed = report.device("r1")
        assert killed.quarantines == 1
        assert killed.final_status in ("active", "standby")

    def test_kill_loses_zero_requests(self):
        report = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(_trace())
        for stats in report.tenants.values():
            assert stats.served == stats.offered
        assert report.hedged_requests > 0
        assert report.failovers >= report.hedged_requests

    def test_hot_spare_promoted_on_quarantine(self):
        report = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(_trace())
        assert report.promotions == 1
        assert "promoted" in report.transitions("r2")
        assert report.min_healthy == 2  # the spare kept the pool at strength

    def test_no_spare_drops_healthy_count(self):
        config = FleetConfig(
            replicas=2, hot_spares=0, quarantine_threshold=2,
            repair_ms=60.0, validate_on_open=False,
        )
        report = _fleet(schedule=KILL_SCHEDULE, config=config).run(_trace())
        assert report.quarantines >= 1
        assert report.min_healthy == 1

    def test_zero_capacity_sheds_instead_of_crashing(self):
        # One replica, no spares, killed for the whole remaining trace,
        # no hedges: the first two fatals quarantine it and everything
        # after is shed-no-capacity until the post-trace repair drain.
        config = FleetConfig(
            replicas=1, hot_spares=0, quarantine_threshold=1,
            repair_ms=1000.0, max_hedges=0, validate_on_open=False,
        )
        schedule = FaultSchedule(
            phases=(StormPhase.kill(device=0, at_s=0.1, duration_s=0.9),)
        )
        report = _fleet(schedule=schedule, config=config).run(_trace())
        stats = report.tenants["a"]
        assert stats.shed_no_capacity > 0
        assert stats.shed >= stats.shed_no_capacity
        assert stats.served + stats.failed + stats.shed == stats.offered
        assert report.min_healthy == 0
        # the drain still ran the repair probe after the storm ended
        assert report.transitions("r0")[-1] == "reintegrated"

    def test_repeated_probe_failures_retire_the_board(self):
        # Repair probes land inside the storm window -> every probe
        # faults -> the board retires after max_repair_attempts.
        config = FleetConfig(
            replicas=2, hot_spares=0, quarantine_threshold=1,
            repair_ms=10.0, max_repair_attempts=2, validate_on_open=False,
        )
        schedule = FaultSchedule(
            phases=(StormPhase.kill(device=1, at_s=0.05, duration_s=10.0),)
        )
        report = _fleet(schedule=schedule, config=config).run(_trace())
        assert report.retirements == 1
        assert report.device("r1").final_status == ReplicaStatus.RETIRED.value
        assert report.transitions("r1")[-1] == "retired"
        assert report.repair_failures == 2


class TestDeterminism:
    def test_same_seed_same_report(self):
        trace = _trace()
        first = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(trace)
        second = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG).run(trace)
        assert first.to_dict() == second.to_dict()

    def test_rerun_same_manager_is_reproducible(self):
        trace = _trace()
        fleet = _fleet(schedule=KILL_SCHEDULE, config=KILL_CONFIG)
        assert fleet.run(trace).to_dict() == fleet.run(trace).to_dict()

    def test_different_seed_changes_outcomes(self):
        trace = _trace()
        base = dict(
            replicas=2, hot_spares=1, quarantine_threshold=2,
            repair_ms=60.0, validate_on_open=False,
        )
        first = _fleet(
            schedule=KILL_SCHEDULE, config=FleetConfig(seed=0, **base)
        ).run(trace)
        second = _fleet(
            schedule=KILL_SCHEDULE, config=FleetConfig(seed=1, **base)
        ).run(trace)
        assert first.to_dict() != second.to_dict()


class TestTraceValidation:
    def test_non_monotone_arrivals_rejected(self):
        fleet = _fleet()
        trace = [
            Request(request_id=0, tenant="a", arrival_ns=2e6),
            Request(request_id=1, tenant="a", arrival_ns=1e6),
        ]
        with pytest.raises(ReproRuntimeError, match="non-decreasing"):
            fleet.run(trace)

    def test_unknown_tenant_rejected(self):
        fleet = _fleet()
        trace = [Request(request_id=0, tenant="ghost", arrival_ns=0.0)]
        with pytest.raises(ReproRuntimeError, match="unknown tenant"):
            fleet.run(trace)


class TestFleetObservability:
    def test_registry_mirrors_the_report(self):
        obs = Observability()
        report = _fleet(
            schedule=KILL_SCHEDULE, config=KILL_CONFIG, obs=obs
        ).run(_trace())
        registry = obs.metrics
        assert registry.get("fleet_replicas").value() == 3
        assert (
            registry.get("fleet_healthy_replicas").value()
            == report.final_healthy
        )
        assert (
            registry.get("fleet_min_healthy_replicas").value()
            == report.min_healthy
        )
        assert (
            registry.get("fleet_failovers_total").total() == report.failovers
        )
        assert (
            registry.get("fleet_hedged_requests_total").total()
            == report.hedged_requests
        )
        assert (
            registry.get("fleet_quarantines_total").total()
            == report.quarantines
        )
        for name, stats in report.tenants.items():
            assert registry.get("serving_requests_total").value(
                tenant=name, status="ok"
            ) == stats.served
            assert registry.get("serving_availability").value(
                tenant=name
            ) == stats.availability

    def test_per_device_launch_counters_distinguish_replicas(self):
        obs = Observability()
        FleetManager(
            _tenants(),
            config=FleetConfig(replicas=2, validate_on_open=True),
            obs=obs,
            service_times_ns=dict(SERVICE),
        )
        launches = obs.metrics.get("runtime_launches_total")
        devices = {
            labels["device"]
            for labels, value in launches.samples()
            if labels["status"] == "ok" and value == 1.0
        }
        assert devices == {"i20-r0", "i20-r1"}
