"""Inference-server simulation: queueing + batching over processing groups.

Implements the paper's §IV-E serving story quantitatively:

- each tenant owns an **isolated slice** of processing groups (Fig. 7);
  its requests queue only behind its own traffic;
- alternatively, a **shared** deployment funnels every tenant through one
  queue over the whole chip — the interference case isolation prevents
  ("isolated hardware resources prevent interference among each other,
  system throughput is increased without compromising inference latency");
- dynamic batching: requests waiting in a queue coalesce up to
  ``max_batch``, with sub-linear batch service times taken from the i20's
  calibrated utilization-vs-batch curve — in shared mode, same-tenant
  waiting requests coalesce the same way, so the isolated-vs-shared
  comparison isolates the queueing policy rather than loss of batching.

Service times come from one measured executor run per (model, groups)
configuration, so the queueing layer stays fast while staying anchored to
the detailed simulator.

RAS layer (reliability/availability/serviceability)
---------------------------------------------------

A server built with a :class:`~repro.faults.FaultPlan` replays the fault
campaign at request granularity: each service attempt draws transient
(DMA corruption, correctable ECC) and fatal (DMA abort, uncorrectable
ECC, core hang) faults from a deterministic per-run RNG, at the plan's
per-event rates compounded over ``RasConfig.transfers_per_request``
hardware events per inference. The server *survives* them:

- **retry with backoff** — a transiently-faulted batch replays up to
  ``max_retries`` times, each attempt paying the full service time plus
  exponential backoff;
- **admission control** — a request arriving to a tenant queue deeper
  than ``queue_depth_limit`` is shed immediately instead of waiting;
- **circuit breaker** — fatal faults are attributed to a processing
  group of the tenant's slice; ``breaker_threshold`` consecutive
  failures trip the breaker and the slice degrades to fewer groups with
  the correspondingly longer calibrated service time;
- **observability** — :class:`TenantReport` accounts every ``failed``,
  ``retried``, ``shed`` and ``degraded`` request next to the latency
  percentiles.

With no fault plan, every number is bit-identical to the fault-free
server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.caching import MEASUREMENT_CACHE, MeasurementCache
from repro.core.accelerator import Accelerator
from repro.core.errors import ReproRuntimeError
from repro.faults.plan import FaultPlan
from repro.models.zoo import build
from repro.perfmodel.calibration import calibration
from repro.runtime.runtime import Device
from repro.seeding import derive_rng
from repro.serving.core import (
    Ledger,
    SloClassStats,
    export_ledger,
    fault_outcome,
    retry_backoff_ns,
    serve_requests,
)
from repro.serving.workload import Request


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's deployment: model + slice size + SLA + batching."""

    name: str
    model: str
    groups: int
    max_batch: int = 1
    sla_ms: float | None = None
    coalesce_window_ms: float = 0.0
    """Continuous batching: a dispatching batch keeps admitting requests
    arriving up to this long after its nominal start (until ``max_batch``)
    instead of closing at a fixed boundary. 0 keeps the legacy
    waiting-requests-only batching bit-identically."""

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.coalesce_window_ms < 0:
            raise ValueError(
                f"coalesce_window_ms must be >= 0, "
                f"got {self.coalesce_window_ms}"
            )


@dataclass(frozen=True)
class RasConfig:
    """Reliability policy knobs for one :class:`InferenceServer`.

    Every field is validated at construction; a bad knob raises
    :class:`~repro.core.errors.ReproRuntimeError` naming the field and the
    offending value — a misconfigured reliability policy should fail the
    deployment loudly, not silently serve with nonsense retry math.
    """

    max_retries: int = 2
    """Service replays of a transiently-faulted batch before giving up."""
    retry_backoff_ms: float = 0.1
    """First retry backoff; grows by ``backoff_factor`` per attempt."""
    backoff_factor: float = 2.0
    """Multiplier applied to the backoff after each retry (>= 1)."""
    queue_depth_limit: int | None = None
    """Admission control: shed arrivals beyond this per-tenant depth."""
    breaker_threshold: int = 3
    """Consecutive fatal faults on one group that trip its breaker."""
    min_groups: int = 1
    """Degradation floor: a tenant never drops below this many groups."""
    transfers_per_request: int = 16
    """Hardware fault events one inference is exposed to (per sample)."""
    deadline_ms: float | None = None
    """Per-request completion deadline: a request finishing (queue +
    service + retries) past this counts as ``failed``, mirroring a
    client-side timeout. ``None`` disables the check."""

    def __post_init__(self) -> None:
        def reject(message: str) -> None:
            raise ReproRuntimeError(f"RasConfig: {message}")

        if self.max_retries < 0:
            reject(
                f"max_retries must be >= 0 (0 disables retries), "
                f"got {self.max_retries}"
            )
        if self.retry_backoff_ms < 0:
            reject(
                f"retry_backoff_ms must be >= 0, got {self.retry_backoff_ms}"
            )
        if self.backoff_factor < 1.0:
            reject(
                f"backoff_factor must be >= 1 (backoff never shrinks), "
                f"got {self.backoff_factor}"
            )
        if self.queue_depth_limit is not None and self.queue_depth_limit < 1:
            reject(
                f"queue_depth_limit must be >= 1 or None, "
                f"got {self.queue_depth_limit}"
            )
        if self.breaker_threshold < 1:
            reject(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.min_groups < 1:
            reject(f"min_groups must be >= 1, got {self.min_groups}")
        if self.transfers_per_request < 1:
            reject(
                f"transfers_per_request must be >= 1, "
                f"got {self.transfers_per_request}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            reject(
                f"deadline_ms must be > 0 or None, got {self.deadline_ms}"
            )


class TenantHealth:
    """Per-group failure tracking + circuit breaker for one tenant slice."""

    def __init__(self, groups: int, threshold: int, min_groups: int) -> None:
        self.configured = groups
        self.available = groups
        self.threshold = threshold
        self.min_groups = min(min_groups, groups)
        self.breaker_trips = 0
        self._failures = [0] * groups  # consecutive faults per live group

    @property
    def degraded(self) -> bool:
        return self.available < self.configured

    def record_success(self) -> None:
        """A clean service clears every live group's failure streak."""
        for slot in range(len(self._failures)):
            self._failures[slot] = 0

    def record_failure(self, slot: int) -> bool:
        """Attribute one fatal fault; returns True when the breaker trips
        and the slice degrades (the failed group is routed around)."""
        self._failures[slot] += 1
        if self._failures[slot] >= self.threshold and self.available > self.min_groups:
            self.available -= 1
            self.breaker_trips += 1
            del self._failures[slot]
            return True
        return False

    def restore_group(self) -> bool:
        """Reintegrate one routed-around group after repair.

        The repaired group rejoins with a clean failure streak; returns
        False (no-op) when the slice is already at full strength. This is
        the path fleet repair drives when a quarantined device comes back.
        """
        if self.available >= self.configured:
            return False
        self.available += 1
        self._failures.append(0)
        return True

    def reset(self) -> None:
        """Full circuit-breaker reset: all groups live, streaks cleared.

        ``breaker_trips`` is cumulative history and survives the reset.
        """
        self.available = self.configured
        self._failures = [0] * self.configured


@dataclass
class CompletedRequest:
    """Outcome of one request."""

    request: Request
    start_ns: float
    finish_ns: float
    batch_size: int
    status: str = "ok"
    """'ok' or 'failed' (fatal fault / retries exhausted)."""
    retries: int = 0
    """Service replays this request's batch needed."""
    degraded: bool = False
    """Served on a circuit-breaker-degraded group slice."""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_ms(self) -> float:
        return (self.finish_ns - self.request.arrival_ns) / 1e6

    @property
    def queue_ms(self) -> float:
        return (self.start_ns - self.request.arrival_ns) / 1e6


@dataclass
class TenantReport:
    """Serving statistics for one tenant over a run."""

    tenant: str
    completed: int
    throughput_per_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_batch: float
    sla_ms: float | None
    sla_violations: int
    failed: int = 0
    """Requests lost to fatal faults or exhausted retries."""
    retried: int = 0
    """Served requests whose batch needed >= 1 service replay."""
    shed: int = 0
    """Requests dropped by admission control before service."""
    degraded: int = 0
    """Requests served while the tenant's slice was degraded."""
    shed_reasons: dict[str, int] = field(default_factory=dict)
    """Shed counts by reason (``queue-full``/``deadline``/``brownout``)."""
    by_class: dict[str, SloClassStats] = field(default_factory=dict)
    """Per-SLO-class breakdown (populated when classes are in play)."""

    @property
    def offered(self) -> int:
        """Every request the trace offered to this tenant."""
        return self.completed + self.failed + self.shed

    @property
    def sla_violation_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.sla_violations / self.completed

    @property
    def availability(self) -> float:
        """Fraction of offered requests that completed successfully."""
        if self.offered == 0:
            return 1.0
        return self.completed / self.offered


class NoHealthyGroupsError(ReproRuntimeError):
    """A service time was requested for a slice with no live groups."""


def measure_service_time_ns(
    model: str,
    groups: int,
    obs=None,
    fault_plan: FaultPlan | None = None,
) -> float:
    """One detailed-simulator run: the per-inference service time.

    With an :class:`~repro.obs.Observability` hub the measurement opens a
    serving-layer ``measure:<model>x<groups>`` span whose TraceContext the
    launch (and through it the executor, simulator and fault injector)
    parents on — the full cross-layer thread of one inference. An optional
    ``fault_plan`` attaches a hardware-level injector to the measurement
    accelerator so fault events appear on the same timeline; keep its
    fatal rates at zero or the measurement launch itself may fail.

    Plain measurements (no hub, no fault plan) are memoized process-wide
    in :data:`repro.caching.MEASUREMENT_CACHE` — the simulator is
    deterministic, so re-measuring (model, groups) always reproduces the
    cached latency. Measurements with a hub or fault plan attached bypass
    the memo: their spans and fault timelines are the point of running
    them.
    """
    memoizable = obs is None and fault_plan is None
    if memoizable:
        cached = MEASUREMENT_CACHE.get(MeasurementCache.key_for(model, groups))
        if cached is not None:
            return cached
    accelerator = Accelerator.cloudblazer_i20()
    if obs is not None:
        accelerator.attach_observability(obs)
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        accelerator.attach_faults(FaultInjector(fault_plan))
    device = Device(accelerator)
    compiled = device.compile(build(model), batch=1)
    measure_handle = None
    if obs is not None:
        measure_handle = obs.tracer.begin(
            f"measure:{model}x{groups}", layer="serving",
            start_ns=accelerator.sim.now, track="measurement",
            model=model, groups=groups,
        )
    result = device.launch(
        compiled,
        num_groups=groups,
        trace_ctx=measure_handle.context if measure_handle else None,
    )
    if measure_handle is not None:
        measure_handle.end(accelerator.sim.now, latency_ms=result.latency_ms)
    if memoizable:
        MEASUREMENT_CACHE.put(
            MeasurementCache.key_for(model, groups), result.latency_ns
        )
    return result.latency_ns


def measure_service_times(
    tenants: list[TenantConfig],
    times: dict[str, float],
    obs=None,
    fault_plan: FaultPlan | None = None,
) -> set[str]:
    """Fill ``times`` in place with a measured service time for every
    tenant it lacks; returns the names of the tenants measured.
    """
    missing = [tenant for tenant in tenants if tenant.name not in times]
    for tenant in missing:
        times[tenant.name] = measure_service_time_ns(
            tenant.model, tenant.groups, obs=obs, fault_plan=fault_plan
        )
    return {tenant.name for tenant in missing}


_BATCH_SCALE_CACHE: dict[int, float] = {}


def batch_service_time_ns(base_ns: float, batch: int) -> float:
    """Sub-linear batch scaling from the i20 calibration curve.

    The curve value is memoized per batch size (it is a pure function of
    the calibration constants); the arithmetic against ``base_ns`` is
    unchanged, so results stay bit-identical.
    """
    if batch < 1:
        raise ValueError(f"batch {batch} < 1")
    scale = _BATCH_SCALE_CACHE.get(batch)
    if scale is None:
        scale = calibration("i20").batch_scale(batch)
        _BATCH_SCALE_CACHE[batch] = scale
    return base_ns * batch / scale


class InferenceServer:
    """Event-driven queueing simulation over tenant slices."""

    def __init__(
        self,
        tenants: list[TenantConfig],
        isolated: bool = True,
        service_times_ns: dict[str, float] | None = None,
        fault_plan: FaultPlan | None = None,
        ras: RasConfig | None = None,
        degraded_service_times_ns: dict[tuple[str, int], float] | None = None,
        obs=None,
        measurement_fault_plan: FaultPlan | None = None,
        admission=None,
    ) -> None:
        if not tenants:
            raise ValueError("server needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.tenants = {tenant.name: tenant for tenant in tenants}
        self.isolated = isolated
        self.fault_plan = fault_plan
        self.obs = obs
        self.measurement_fault_plan = measurement_fault_plan
        self.ras = ras or RasConfig()
        # SLO-class admission (repro.serving.admission): when a policy is
        # attached, per-class bounded queues + deadline-aware early
        # shedding + brownout supersede the flat ras.queue_depth_limit.
        self.admission = admission
        self._admission_ctl = None
        if admission is not None:
            from repro.serving.admission import AdmissionController

            self._admission_ctl = AdmissionController(admission)
        self.service_times_ns = service_times_ns or {}
        # Tenants whose base time we measured on the detailed simulator get
        # degraded-slice times measured (calibrated) too; user-provided
        # times fall back to linear scaling unless overridden explicitly.
        self._measured = measure_service_times(
            tenants, self.service_times_ns,
            obs=obs, fault_plan=measurement_fault_plan,
        )
        self._degraded_times: dict[tuple[str, int], float] = dict(
            degraded_service_times_ns or {}
        )

    @property
    def _injecting(self) -> bool:
        return self.fault_plan is not None and self.fault_plan.enabled

    # -- service-time resolution ---------------------------------------------

    def _service_time(self, tenant_name: str, groups: int) -> float:
        """Per-inference service time of ``tenant_name`` on ``groups`` groups.

        Raises :class:`NoHealthyGroupsError` for ``groups < 1`` rather than
        dividing by zero in the linear fallback (or asking the simulator
        for a zero-group launch): RAS degradation floors at ``min_groups
        >= 1``, so a zero here means the caller's slice accounting broke.
        """
        tenant = self.tenants[tenant_name]
        if groups < 1:
            raise NoHealthyGroupsError(
                f"tenant {tenant_name!r}: service time requested for "
                f"{groups} groups; a slice always keeps >= 1 healthy group"
            )
        if groups == tenant.groups:
            return self.service_times_ns[tenant_name]
        key = (tenant_name, groups)
        if key not in self._degraded_times:
            base = self.service_times_ns[tenant_name]
            if tenant_name in self._measured:
                self._degraded_times[key] = measure_service_time_ns(
                    tenant.model, groups,
                    obs=self.obs, fault_plan=self.measurement_fault_plan,
                )
            else:
                # Linear-in-groups approximation for user-supplied times.
                self._degraded_times[key] = base * tenant.groups / groups
        return self._degraded_times[key]

    # -- simulation ----------------------------------------------------------

    def run(self, trace: list[Request]) -> dict[str, TenantReport]:
        """Replay the trace; returns per-tenant serving statistics.

        Isolated mode: one server (the tenant's group slice) per tenant.
        Shared mode: a single FIFO server processes everything in arrival
        order — head-of-line blocking included, though same-tenant waiting
        requests still coalesce into batches.

        Deterministic: the same trace, fault plan and RAS config always
        produce identical reports (per-run RNGs are re-seeded from the
        plan seed on every call).
        """
        ctl = self._admission_ctl
        if ctl is not None:
            ctl.reset()
        # Per-request records and sheds are kept only for the obs export.
        observed = self.obs is not None
        records: list[CompletedRequest] | None = [] if observed else None
        ledger = Ledger(
            self.tenants, classes=ctl is not None,
            shed_log=[] if observed else None,
        )
        # Isolated mode replays one queue per tenant slice, one after
        # another. The admission controller is shared and not reset
        # between them, so a later slice starts at the brownout level the
        # previous one ended on (docs/serving.md).
        queues = (
            [([name], [r for r in trace if r.tenant == name], name)
             for name in self.tenants]
            if self.isolated else [(list(self.tenants), trace, "shared")]
        )
        for names, queue, label in queues:
            pool = _SlicePool(
                self, ledger, names, self._rng(label),
                fifo=self.isolated, records=records,
            )
            serve_requests(queue, pool, ledger, self.ras, ctl)
        ledger.close()
        reports = self._report(ledger, trace)
        if observed:
            self._emit_observability(ledger, records, reports)
        return reports

    # -- observability bridge -------------------------------------------------

    def _emit_observability(
        self,
        ledger: Ledger,
        completed: list[CompletedRequest],
        reports: dict[str, TenantReport],
    ) -> None:
        """Report the run into the attached Observability hub.

        One serving-layer span per request (children: ``queue`` +
        ``service``), one instant event per shed arrival, the latency /
        queue / batch histograms and the retry, degraded, throughput and
        SLA rows; the request accounting the fleet shares goes through
        :func:`~repro.serving.core.export_ledger`. Runs once after the
        queueing simulation — the serving numbers are bit-identical with
        or without a hub.
        """
        from repro.obs.metrics import DEFAULT_BUCKETS_MS

        tracer = self.obs.tracer
        metrics = self.obs.metrics
        export_ledger(ledger, metrics, self._admission_ctl)
        latency_hist = metrics.histogram(
            "serving_request_latency_ms", "arrival-to-finish latency",
            unit="ms", buckets=DEFAULT_BUCKETS_MS,
        )
        queue_hist = metrics.histogram(
            "serving_queue_wait_ms", "arrival-to-service wait",
            unit="ms", buckets=DEFAULT_BUCKETS_MS,
        )
        batch_hist = metrics.histogram(
            "serving_batch_size", "dynamic-batch sizes served",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        retries_total = metrics.counter(
            "serving_retries_total", "request-level RAS service replays"
        )
        degraded_total = metrics.counter(
            "serving_degraded_requests_total",
            "requests served on a degraded slice",
        )
        class_latency = metrics.histogram(
            "serving_class_latency_ms", "per-SLO-class request latency",
            unit="ms", buckets=DEFAULT_BUCKETS_MS,
        )
        for request in sorted(completed, key=lambda c: c.request.request_id):
            tenant = request.request.tenant
            root = tracer.begin(
                f"request:{request.request.request_id}", layer="serving",
                start_ns=request.request.arrival_ns,
                track=f"tenant.{tenant}", tenant=tenant,
            )
            if request.start_ns > request.request.arrival_ns:
                tracer.add_span(
                    "queue", layer="serving",
                    start_ns=request.request.arrival_ns,
                    end_ns=request.start_ns,
                    parent=root.context, track=f"tenant.{tenant}",
                )
            tracer.add_span(
                "service", layer="serving",
                start_ns=request.start_ns, end_ns=request.finish_ns,
                parent=root.context, track=f"tenant.{tenant}",
                batch=request.batch_size, retries=request.retries,
                status=request.status, degraded=request.degraded,
            )
            root.end(
                request.finish_ns,
                status=request.status, batch=request.batch_size,
            )
            if request.ok:
                latency_hist.observe(request.latency_ms, tenant=tenant)
                queue_hist.observe(request.queue_ms, tenant=tenant)
                batch_hist.observe(request.batch_size, tenant=tenant)
                if ledger.classes:
                    class_latency.observe(
                        request.latency_ms, tenant=tenant,
                        slo_class=request.request.slo_class,
                    )
            if request.retries:
                retries_total.inc(request.retries, tenant=tenant)
            if request.degraded:
                degraded_total.inc(tenant=tenant)
        for request, reason in ledger.shed_log:
            tracer.add_event(
                "shed", layer="serving", time_ns=request.arrival_ns,
                track=f"tenant.{request.tenant}", tenant=request.tenant,
                reason=reason,
            )
        throughput = metrics.gauge(
            "serving_throughput_rps", "completed requests per second"
        )
        for name, report in reports.items():
            throughput.set(report.throughput_per_s, tenant=name)
            if report.sla_violations:
                metrics.counter(
                    "serving_sla_violations_total", "requests over SLA"
                ).inc(report.sla_violations, tenant=name)

    def _rng(self, label: str) -> random.Random:
        """Per-tenant (or ``"shared"``) draw stream off the plan seed.

        Derived through :func:`repro.seeding.derive_rng`, whose single-label
        stream name is exactly the historical ``f"{seed}:{label}"`` key —
        existing campaigns reproduce bit-identically.
        """
        seed = self.fault_plan.seed if self.fault_plan is not None else 0
        return derive_rng(seed, label)

    def _health(self, tenant: TenantConfig) -> TenantHealth:
        return TenantHealth(
            groups=tenant.groups,
            threshold=self.ras.breaker_threshold,
            min_groups=self.ras.min_groups,
        )

    def _report(
        self, ledger: Ledger, trace: list[Request]
    ) -> dict[str, TenantReport]:
        # Throughput horizon: the run lasts until the last completion, not
        # the last arrival (which overstates throughput for bursty traces).
        horizon_ns = ledger.horizon_ns
        if horizon_ns <= 0.0:
            horizon_ns = max((r.arrival_ns for r in trace), default=0.0) or 1.0
        reports = {}
        for name, tenant in self.tenants.items():
            tally = ledger.tallies[name]
            violations = 0
            if tenant.sla_ms is not None:
                violations = int(
                    (np.asarray(tally.latencies_ms) > tenant.sla_ms).sum()
                )
            reports[name] = TenantReport(
                tenant=name,
                completed=tally.served,
                throughput_per_s=tally.served * 1e9 / horizon_ns,
                p50_ms=tally.p50_ms,
                p95_ms=tally.p95_ms,
                p99_ms=tally.p99_ms,
                mean_batch=(
                    tally.batched / tally.served if tally.served else 0.0
                ),
                sla_ms=tenant.sla_ms,
                sla_violations=violations,
                failed=tally.failed,
                retried=tally.retried,
                shed=tally.shed,
                degraded=tally.degraded,
                shed_reasons=tally.shed_reasons,
                by_class=dict(sorted(tally.by_class.items())),
            )
        return reports


class _SlicePool:
    """The server's pool for :func:`~repro.serving.core.serve_requests`:
    one tenant's group slice (isolated mode) or the whole chip shared by
    every tenant (shared mode) — a single slot that serves one batch at a
    time.

    The batch window opens when the slot frees, so requests already
    waiting join even with a zero coalescing window; with a window the
    batch stays open for arrivals up to ``window`` past that start. A
    request of another tenant or class closes the batch when ``fifo`` (an
    isolated slice serves its queue in order) and keeps its place in the
    chip-wide queue otherwise (shared mode).
    """

    def __init__(
        self,
        server: InferenceServer,
        ledger: Ledger,
        tenants: list[str],
        rng: random.Random,
        fifo: bool,
        records: list[CompletedRequest] | None,
    ) -> None:
        self.server = server
        self.tallies = ledger.tallies
        self.healths = {
            name: server._health(server.tenants[name]) for name in tenants
        }
        self.rng = rng
        self.fifo = fifo
        self.records = records
        self.free_at = 0.0
        self._served = (0.0, 0, 0, False)
        """(start, size, retries, degraded) of the batch just served."""
        self.settles = records is not None

    def advance(self, now: float) -> bool:
        return True

    def earliest_start(self, now: float) -> float:
        return max(now, self.free_at)

    def admission_service_ns(self, request: Request) -> float:
        available = self.healths[request.tenant].available
        base = self.server._service_time(request.tenant, available)
        return batch_service_time_ns(base, 1)

    def pressure_floor(self) -> float:
        return 0.0

    def batch_window(self, head: Request) -> tuple[float, int]:
        tenant = self.server.tenants[head.tenant]
        start = max(head.arrival_ns, self.free_at)
        return start + tenant.coalesce_window_ms * 1e6, tenant.max_batch

    def serve(self, batch: list[Request]) -> tuple[float, str]:
        """Serve one batch with RAS retries.

        Each attempt pays the full batch service time; transient faults
        add exponential backoff then replay, fatal faults fail the batch
        and feed the circuit breaker.
        """
        server = self.server
        head = batch[0]
        # Continuous batching: the launch waits for its last joiner.
        start = max(head.arrival_ns, self.free_at, batch[-1].arrival_ns)
        health = self.healths[head.tenant]
        base = server._service_time(head.tenant, health.available)
        degraded = health.degraded
        service = batch_service_time_ns(base, len(batch))
        finish, status, retries = start, "ok", 0
        while True:
            finish += service
            if not server._injecting:
                break
            plan = server.fault_plan
            outcome = fault_outcome(
                self.rng, plan.transient_event_rate, plan.fatal_event_rate,
                server.ras.transfers_per_request * len(batch),
            )
            if outcome == "ok":
                health.record_success()
                break
            if outcome == "fatal":
                health.record_failure(self.rng.randrange(health.available))
                status = "failed"
                break
            retries += 1
            if retries > server.ras.max_retries:
                status = "failed"
                break
            finish += retry_backoff_ns(server.ras, retries)
        tally = self.tallies[head.tenant]
        if retries:
            tally.retried += len(batch)
        if degraded:
            tally.degraded += len(batch)
        self._served = (start, len(batch), retries, degraded)
        self.free_at = finish
        return finish, status

    def settle(
        self, request: Request, finish: float, ok: bool, latency_ms: float
    ) -> None:
        start, size, retries, degraded = self._served
        self.records.append(
            CompletedRequest(
                request=request, start_ns=start, finish_ns=finish,
                batch_size=size, status="ok" if ok else "failed",
                retries=retries, degraded=degraded,
            )
        )
