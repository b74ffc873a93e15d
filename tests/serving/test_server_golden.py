"""Byte-identity pin of InferenceServer reports across its serving modes.

``data/server_golden.json`` holds the canonical JSON of the per-tenant
reports of every configuration below: shared and isolated mode, dynamic
and continuous batching, the flat queue-depth limit, the per-request
deadline, retries and breaker-degraded slices under a fault plan, and SLO
admission. Any change to the request loop that moves one served, shed or
failed request, or one latency, shows up as a diff. Regenerate (only for
an intended model change) with ``tests/serving/data/make_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

from repro.faults import FaultPlan
from repro.serving import (
    InferenceServer,
    RasConfig,
    TenantConfig,
    TrafficPattern,
    generate_trace,
)
from repro.serving.admission import AdmissionPolicy
from repro.serving.loadgen import LoadSpec, generate_load

GOLDEN = Path(__file__).parent / "data" / "server_golden.json"

SERVICE = {"a": 1.0e6, "b": 4.0e6}  # 1 ms and 4 ms per inference

FAULTS = FaultPlan(
    seed=5,
    dma_corrupt_rate=0.004,
    ecc_ce_rate=0.004,
    dma_abort_rate=0.0015,
    ecc_ue_rate=0.0015,
)
"""Transient rates that force retries, fatal rates that trip breakers."""


def _tenants(max_batch_a=8, max_batch_b=2, window_ms=0.0):
    return [
        TenantConfig("a", "resnet50", groups=2, max_batch=max_batch_a,
                     sla_ms=20.0, coalesce_window_ms=window_ms),
        TenantConfig("b", "unet", groups=3, max_batch=max_batch_b,
                     sla_ms=60.0),
    ]


def _plain_trace():
    return generate_trace(
        [TrafficPattern("a", 1500.0, burstiness=2.0),
         TrafficPattern("b", 150.0)],
        duration_s=0.5, seed=3,
    )


def _class_trace():
    return generate_load(
        [
            LoadSpec("a", 900.0, slo_class="interactive", shape="flash-crowd",
                     flash_at_s=0.15, flash_duration_s=0.15),
            LoadSpec("a", 1200.0, slo_class="standard", shape="diurnal",
                     period_s=0.25),
            LoadSpec("a", 1500.0, slo_class="batch"),
            LoadSpec("b", 220.0, slo_class="standard"),
        ],
        duration_s=0.4, seed=4,
    )


def _server(isolated, tenants=None, **kwargs):
    return InferenceServer(
        tenants or _tenants(), isolated=isolated,
        service_times_ns=dict(SERVICE), **kwargs,
    )


CONFIGS = {
    "shared-batched": lambda: _server(False).run(_plain_trace()),
    "shared-faults": lambda: _server(
        False, fault_plan=FAULTS, ras=RasConfig(breaker_threshold=2),
    ).run(_plain_trace()),
    "isolated-faults": lambda: _server(
        True, fault_plan=FAULTS,
        ras=RasConfig(max_retries=1, breaker_threshold=2),
    ).run(_plain_trace()),
    "isolated-queue-limit": lambda: _server(
        True, ras=RasConfig(queue_depth_limit=4),
    ).run(_plain_trace()),
    "shared-queue-limit": lambda: _server(
        False, ras=RasConfig(queue_depth_limit=6),
    ).run(_plain_trace()),
    "isolated-deadline": lambda: _server(
        True, tenants=_tenants(max_batch_a=1), ras=RasConfig(deadline_ms=5.0),
    ).run(_plain_trace()),
    "shared-deadline-faults": lambda: _server(
        False, fault_plan=FAULTS, ras=RasConfig(deadline_ms=25.0),
    ).run(_plain_trace()),
    "isolated-coalesce": lambda: _server(
        True, tenants=_tenants(window_ms=0.5),
    ).run(_plain_trace()),
    "shared-coalesce": lambda: _server(
        False, tenants=_tenants(window_ms=0.5),
    ).run(_plain_trace()),
    "isolated-admission": lambda: _server(
        True, tenants=_tenants(window_ms=0.3), admission=AdmissionPolicy(),
    ).run(_class_trace()),
    "shared-admission": lambda: _server(
        False, tenants=_tenants(window_ms=0.3), admission=AdmissionPolicy(),
    ).run(_class_trace()),
    "isolated-admission-faults": lambda: _server(
        True, fault_plan=FAULTS, admission=AdmissionPolicy(),
        ras=RasConfig(breaker_threshold=2, deadline_ms=40.0),
    ).run(_class_trace()),
}


def canonical_reports() -> str:
    """Canonical JSON of every configuration's per-tenant reports."""
    document = {
        name: {
            tenant: dataclasses.asdict(report)
            for tenant, report in sorted(run().items())
        }
        for name, run in CONFIGS.items()
    }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def test_server_reports_match_golden():
    assert canonical_reports() == GOLDEN.read_text()
