"""Pin of the attached-observability output of both serving front ends.

``data/attached_pin.json`` holds, for each run below, the SHA-256 of its
Chrome trace (the bytes ``save_chrome_trace`` writes) and every sample of
its Prometheus exposition as ``{series: value}``. The runs cover
``InferenceServer`` in shared mode (SLO admission under a fault plan) and
in isolated mode (flat ``queue_depth_limit`` sheds, no admission), and
three chaos scenarios through ``FleetManager``. A change to how either
front end reports into an attached hub shows up as a trace digest or a
series diff. Regenerate (only for an intended change) with
``tests/obs/data/make_attached_pin.py``.

The pin was taken before both front ends exported their shared request
accounting through one ``repro.serving.core.export_ledger``. That merge
renamed the fleet's request rows (:data:`RENAMES`) and added the rows
one front end used to leave out (:data:`NEW_SERIES`); nothing else moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chaos import SCENARIOS, run_scenario
from repro.faults import FaultPlan
from repro.obs import Observability, to_chrome_trace, to_prometheus_text
from repro.serving import (
    InferenceServer,
    RasConfig,
    TenantConfig,
    TrafficPattern,
    generate_trace,
)
from repro.serving.admission import AdmissionPolicy
from repro.serving.loadgen import LoadSpec, generate_load

PIN = Path(__file__).parent / "data" / "attached_pin.json"

FAULTS = FaultPlan(
    seed=5,
    dma_corrupt_rate=0.004,
    ecc_ce_rate=0.004,
    dma_abort_rate=0.0015,
    ecc_ue_rate=0.0015,
)


def _tenants(window_ms=0.0):
    return [
        TenantConfig("a", "resnet50", groups=2, max_batch=8, sla_ms=20.0,
                     coalesce_window_ms=window_ms),
        TenantConfig("b", "unet", groups=3, max_batch=2, sla_ms=60.0),
    ]


def _server_shared_admission(obs):
    trace = generate_load(
        [
            LoadSpec("a", 900.0, slo_class="interactive", shape="flash-crowd",
                     flash_at_s=0.15, flash_duration_s=0.15),
            LoadSpec("a", 1500.0, slo_class="batch"),
            LoadSpec("b", 220.0, slo_class="standard"),
        ],
        duration_s=0.3, seed=4,
    )
    InferenceServer(
        _tenants(window_ms=0.3), isolated=False,
        service_times_ns={"a": 1.0e6, "b": 4.0e6}, fault_plan=FAULTS,
        ras=RasConfig(breaker_threshold=2, deadline_ms=40.0),
        admission=AdmissionPolicy(), obs=obs,
    ).run(trace)


def _server_isolated_queue_limit(obs):
    trace = generate_trace(
        [TrafficPattern("a", 1500.0, burstiness=2.0),
         TrafficPattern("b", 150.0)],
        duration_s=0.3, seed=3,
    )
    InferenceServer(
        _tenants(), isolated=True,
        service_times_ns={"a": 1.0e6, "b": 4.0e6},
        ras=RasConfig(queue_depth_limit=4), obs=obs,
    ).run(trace)


def _scenario(name):
    return lambda obs: run_scenario(SCENARIOS[name], seed=0, obs=obs)


RUNS = {
    "server-shared-admission-faults": _server_shared_admission,
    "server-isolated-queue-limit": _server_isolated_queue_limit,
    "chaos-flash-crowd": _scenario("flash-crowd"),
    "chaos-power-cap-storm": _scenario("power-cap-storm"),
    "chaos-silent-corruption-storm": _scenario("silent-corruption-storm"),
}


PROCESS_STATE = ("compile_cache_", "sim_timeout_pool_")
"""Series that read process-wide caches (the compile cache, the simulator's
interned timeouts): their values depend on what ran earlier in the same
process, so the pin leaves them out."""


RENAMES = {
    'fleet_requests_total{status="served",':
        'serving_requests_total{status="ok",',
    'fleet_requests_total{status="failed",':
        'serving_requests_total{status="failed",',
    'fleet_requests_total{status="shed",':
        'serving_requests_total{status="shed",',
    "fleet_availability{": "serving_availability{",
}
"""Pinned series prefix -> its name since the merge."""

_FLEET = ("serving_p99_ms{",)
_FLEET_NO_ADMISSION = _FLEET + ("serving_shed_total{",)
NEW_SERIES = {
    "server-shared-admission-faults": (
        "serving_class_p99_ms{", "serving_class_availability{",
    ),
    "server-isolated-queue-limit": (),
    "chaos-flash-crowd": _FLEET,
    "chaos-power-cap-storm": _FLEET_NO_ADMISSION,
    "chaos-silent-corruption-storm": _FLEET_NO_ADMISSION,
}
"""Series a run may export beyond the pin: the fleet's per-tenant p99 and
its sheds without an admission policy; the server's class gauges under
admission."""


def renamed(series: str) -> str:
    for old, new in RENAMES.items():
        if series.startswith(old):
            return new + series[len(old):]
    return series


def series_values(text: str) -> dict[str, str]:
    """``{series: value}`` of every sample line of a Prometheus text,
    minus the :data:`PROCESS_STATE` series."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            if not series.startswith(PROCESS_STATE):
                samples[series] = value
    return samples


def observe(run) -> dict:
    obs = Observability()
    run(obs)
    trace = json.dumps(to_chrome_trace(obs.tracer)).encode()
    return {
        "chrome_trace_sha256": hashlib.sha256(trace).hexdigest(),
        "series": series_values(to_prometheus_text(obs.metrics)),
    }


def pinned_document() -> str:
    document = {name: observe(run) for name, run in RUNS.items()}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_attached_output_matches_pin(name, pin):
    observed = observe(RUNS[name])
    assert observed["chrome_trace_sha256"] == pin[name]["chrome_trace_sha256"]
    expected = {
        renamed(series): value for series, value in pin[name]["series"].items()
    }
    series = observed["series"]
    assert {key: series.get(key) for key in expected} == expected
    extra = sorted(set(series) - set(expected))
    assert [key for key in extra if not key.startswith(NEW_SERIES[name])] == []
