"""Measurement memoization + degraded-mode guards (docs/performance.md)."""

import os

import pytest

from repro.caching import MEASUREMENT_CACHE, reset_global_caches
from repro.obs import Observability
from repro.serving import (
    FleetManager,
    InferenceServer,
    NoHealthyGroupsError,
    TenantConfig,
    measure_service_time_ns,
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    reset_global_caches()
    yield
    reset_global_caches()


TENANTS = [
    TenantConfig("vision", "resnet50", groups=4, max_batch=4),
    TenantConfig("audio", "conformer", groups=2, max_batch=2),
]


class TestMeasurementMemo:
    def test_remeasure_is_a_hit_with_identical_value(self):
        first = measure_service_time_ns("resnet50", 4)
        assert MEASUREMENT_CACHE.stats.misses == 1
        second = measure_service_time_ns("resnet50", 4)
        assert second == first
        assert MEASUREMENT_CACHE.stats.hits == 1

    def test_groups_key_separately(self):
        four = measure_service_time_ns("resnet50", 4)
        two = measure_service_time_ns("resnet50", 2)
        assert four != two
        assert MEASUREMENT_CACHE.stats.misses == 2

    def test_second_server_performs_zero_measurement_runs(self):
        """ISSUE acceptance: constructing a second InferenceServer for the
        same tenant set is pure cache hits — zero simulator runs."""
        first = InferenceServer(TENANTS)
        misses_after_first = MEASUREMENT_CACHE.stats.misses
        assert misses_after_first == len(TENANTS)

        hits_before = MEASUREMENT_CACHE.stats.hits
        second = InferenceServer(TENANTS)
        assert MEASUREMENT_CACHE.stats.misses == misses_after_first
        assert MEASUREMENT_CACHE.stats.hits == hits_before + len(TENANTS)
        assert second.service_times_ns == first.service_times_ns

    def test_degraded_remeasure_hits_the_memo(self):
        server = InferenceServer(TENANTS)
        misses_before = MEASUREMENT_CACHE.stats.misses
        degraded = server._service_time("vision", 2)
        assert degraded > 0
        # Either memoized from a prior (model, 2) measurement or a fresh
        # miss — but asking again must not re-run the simulator.
        misses_after = MEASUREMENT_CACHE.stats.misses
        server2 = InferenceServer(TENANTS)
        assert server2._service_time("vision", 2) == degraded
        assert MEASUREMENT_CACHE.stats.misses == misses_after

    def test_user_supplied_times_never_measure(self):
        server = InferenceServer(
            TENANTS, service_times_ns={"vision": 1e6, "audio": 2e6}
        )
        assert MEASUREMENT_CACHE.stats.lookups == 0
        # Linear fallback, no simulator involved.
        assert server._service_time("vision", 2) == 2e6

    def test_obs_measurement_bypasses_memo(self):
        """Measurements with a hub attached must actually run: their spans
        are the observable product."""
        measure_service_time_ns("resnet50", 4)  # seed the memo
        obs = Observability()
        value = measure_service_time_ns("resnet50", 4, obs=obs)
        spans = [s for s in obs.tracer.spans if s.name == "measure:resnet50x4"]
        assert spans, "observed measurement emitted no span"
        assert value == measure_service_time_ns("resnet50", 4)


class TestNoForkInConstructors:
    """Servers and fleets measure cold tenants serially, in-process."""

    @pytest.mark.parametrize("front_end", [InferenceServer, FleetManager])
    def test_cold_tenants_measure_without_forking(self, monkeypatch, front_end):
        def no_fork():
            raise AssertionError("constructor forked")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", no_fork)
            built = front_end(TENANTS)
        assert MEASUREMENT_CACHE.stats.misses == len(TENANTS)
        assert MEASUREMENT_CACHE.stats.hits == 0

        reset_global_caches()
        fresh = {
            tenant.name: measure_service_time_ns(tenant.model, tenant.groups)
            for tenant in TENANTS
        }
        assert built.service_times_ns == fresh


class TestNoHealthyGroupsGuard:
    def test_zero_groups_raises_typed_error(self):
        server = InferenceServer(
            TENANTS, service_times_ns={"vision": 1e6, "audio": 2e6}
        )
        with pytest.raises(NoHealthyGroupsError):
            server._service_time("vision", 0)

    def test_negative_groups_raises(self):
        server = InferenceServer(
            TENANTS, service_times_ns={"vision": 1e6, "audio": 2e6}
        )
        with pytest.raises(NoHealthyGroupsError):
            server._service_time("vision", -1)

    def test_error_is_runtime_error_subclass(self):
        from repro.core.errors import ReproRuntimeError

        assert issubclass(NoHealthyGroupsError, ReproRuntimeError)
