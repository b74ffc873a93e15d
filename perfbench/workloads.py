"""The benchmark's four workloads: seeded inputs, set-up, sweeps, checks.

Each workload drives the stack only through its public functions. One
*sweep* is the workload's whole unit of work; the runner repeats sweeps
for the run's time budget and reports medians. Every sweep returns its
simulated outputs keyed by operation, so the runner can check them
against pinned values, against invariants and against the run's other
sweeps.

Each workload's ``summarize`` turns its sweeps' stage timings into the
end-to-end ``stage1_ms`` and ``stage2_ms`` metrics; what each stage is
differs per workload and is listed in the README beside this file.

The traced sweep calls the same layers, but splits compound calls into
their public steps (``Graph.validate``, ``optimize``, ``lower_graph``,
the fuzz generate/check functions) so each gets its own span. The
identity check across sweeps then proves the staged path produced the
same outputs as the one-call path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from spans import NULL_RECORDER


def digest(value) -> str:
    """Stable SHA-256 of a JSON-able value or an already-canonical string."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Sweep:
    """What one sweep measured and produced."""

    stages_ms: dict[str, float] = field(default_factory=dict)
    """Stage timings of this sweep (names are per workload)."""
    ops: dict[str, int] = field(default_factory=dict)
    """Operation key -> number of operations it stands for."""
    outputs: dict[str, object] = field(default_factory=dict)
    """Operation key -> simulated output (JSON-able)."""
    raised: set[str] = field(default_factory=set)
    """Operation keys whose call raised."""
    wall_s: float = 0.0
    scale: float = 1.0
    """Host-speed factor from raw to reference times (see hostspeed)."""

    def attempt(self, key: str, call, ops: int = 1):
        """Run one operation; a raise is recorded, not propagated."""
        self.ops[key] = ops
        try:
            return call()
        except Exception as error:  # an operation failing is a result
            self.raised.add(key)
            self.outputs[key] = {"error": f"{type(error).__name__}: {error}"}
            return None


class Workload:
    """Interface every workload implements (see module docstring)."""

    name = ""
    seed_free: tuple[str, ...] = ()
    """Prefixes of output keys whose pinned values hold at every seed."""
    rotation = 1
    """Sweeps that together cover the workload once; a run makes at
    least this many, and sweep ``index`` does part ``index % rotation``."""

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, rec=NULL_RECORDER):
        raise NotImplementedError

    def sweep(self, state, rec=NULL_RECORDER, index: int = 0) -> Sweep:
        raise NotImplementedError

    def invariants(self, state, outputs: dict) -> set[str]:
        """Output keys that break a seed-independent invariant."""
        return set()

    def summarize(self, state, sweeps: list[Sweep]) -> dict[str, float]:
        """End-to-end stage metrics plus the named ones, from sweeps."""
        raise NotImplementedError

    def trace_extras(self, state) -> dict[str, float]:
        """Per-layer numbers measured once per traced run, after sweeps."""
        return {}


def _median_stage(sweeps: list[Sweep], stage: str) -> float:
    return statistics.median(
        sweep.stages_ms[stage] * sweep.scale for sweep in sweeps
    )


# ---------------------------------------------------------------------------
# zoo-cold
# ---------------------------------------------------------------------------


class ZooCold(Workload):
    name = "zoo-cold"
    seed_free = ("compile:", "recompile:", "launch:")

    def inputs(self, seed: int) -> dict:
        from repro.models.zoo import MODEL_NAMES

        order = list(MODEL_NAMES)
        random.Random(seed).shuffle(order)
        return {"order": order}

    def setup(self, inputs: dict, rec=NULL_RECORDER):
        from repro.caching import CompileCache
        from repro.models.zoo import build
        from repro.runtime.runtime import Device

        graphs = {}
        for model in inputs["order"]:
            with rec.span("models.build"):
                graphs[model] = build(model)
        # First compiles: lazy imports and process-wide memos fill here,
        # so the timed sweeps see the steady state a long-lived compiler
        # process would.
        for model in inputs["order"]:
            with rec.span("compile.first"):
                Device.open("i20").compile(
                    graphs[model], batch=1, cache=CompileCache()
                )
        return {"order": inputs["order"], "graphs": graphs}

    def sweep(self, state, rec=NULL_RECORDER, index: int = 0) -> Sweep:
        from repro.caching import CompileCache
        from repro.runtime.runtime import Device

        sweep = Sweep()
        for model in state["order"]:
            graph = state["graphs"][model]
            device = Device.open("i20")
            cache = CompileCache()
            compile_key = f"compile:{model}"
            start = time.perf_counter()
            if rec.enabled:
                compiled = sweep.attempt(
                    compile_key,
                    lambda: _staged_compile(device, graph, cache, rec),
                )
            else:
                compiled = sweep.attempt(
                    compile_key,
                    lambda: device.compile(graph, batch=1, cache=cache),
                )
            sweep.stages_ms[compile_key] = (time.perf_counter() - start) * 1e3
            if compiled is None:
                continue
            sweep.outputs[compile_key] = {"kernels": len(compiled.kernels)}

            def recompile():
                hits = cache.stats.hits
                with rec.span("compile.warm"):
                    again = device.compile(graph, batch=1, cache=cache)
                rec.count("caching.warm_hits", cache.stats.hits - hits)
                rec.count("caching.warm_lookups", 1)
                return again

            again = sweep.attempt(f"recompile:{model}", recompile)
            if again is not None:
                sweep.outputs[f"recompile:{model}"] = {
                    "cached_object": again is compiled
                }

            sim = device.accelerator.sim
            events, steps = sim.events_dispatched, sim.time_steps
            launch_key = f"launch:{model}"
            start = time.perf_counter()
            with rec.span("runtime.launch"):
                result = sweep.attempt(
                    launch_key, lambda: device.launch(compiled)
                )
            sweep.stages_ms[launch_key] = (time.perf_counter() - start) * 1e3
            if result is None:
                continue
            sweep.outputs[launch_key] = {
                "latency_ns": result.latency_ns,
                "energy_joules": result.energy_joules,
            }
            rec.count("sim.events", sim.events_dispatched - events)
            rec.count("sim.time_steps", sim.time_steps - steps)
            rec.count("dma.bytes", result.counters["dma_bytes"])
            rec.count(
                "dma.configurations", result.counters["dma_configurations"]
            )
            rec.count("compiler.kernels", len(compiled.kernels))
        return sweep

    def invariants(self, state, outputs: dict) -> set[str]:
        return {
            key for key, value in outputs.items()
            if key.startswith("recompile:")
            and value != {"cached_object": True}
        }

    def summarize(self, state, sweeps: list[Sweep]) -> dict[str, float]:
        models = sorted(
            key.split(":", 1)[1] for key in sweeps[0].stages_ms
            if key.startswith("compile:")
        )

        def geomean(step: str) -> float:
            return statistics.geometric_mean(
                statistics.median(
                    sweep.stages_ms[f"{step}:{model}"] * sweep.scale
                    for sweep in sweeps
                    if f"{step}:{model}" in sweep.stages_ms
                )
                for model in models
            )

        compile_ms = geomean("compile")
        launch_ms = geomean("launch")
        return {
            "stage1_ms": compile_ms,
            "stage2_ms": launch_ms,
            "compile_ms_geomean": compile_ms,
            "launch_ms_geomean": launch_ms,
        }

    def trace_extras(self, state) -> dict[str, float]:
        """Power windows, read from an attached obs hub on extra launches.

        The hub changes what a launch costs, so these launches run after
        the traced sweeps and outside every timed span.
        """
        from repro.obs import Observability
        from repro.runtime.runtime import Device

        windows = 0.0
        for model in state["order"]:
            obs = Observability()
            device = Device.open("i20", obs=obs)
            device.launch(device.compile(state["graphs"][model], batch=1))
            windows += obs.metrics.counter("power_windows_total").value()
        return {"power.windows": windows}


def _staged_compile(device, graph, cache, rec):
    """``Device.compile`` split into its public steps, one span each."""
    from repro.caching import CompileCache
    from repro.compiler.lowering import lower_graph
    from repro.core.datatypes import DType
    from repro.graph.passes import optimize
    from repro.graph.shape_inference import bind_shapes

    chip = device.accelerator.chip
    fusion = chip.features.operator_fusion
    with rec.span("compile"):
        with rec.span("graph.bind"):
            bound = bind_shapes(graph, batch=1)
        with rec.span("caching.key"):
            key = CompileCache.key_for(bound, chip, DType.FP16, fusion, False)
        with rec.span("graph.bind"):
            pristine = bound.bind({})
        with rec.span("graph.validate"):
            pristine.validate(signatures=True)
        with rec.span("graph.optimize"):
            optimized, report = optimize(pristine.bind({}), fusion=fusion)
        with rec.span("compiler.lower"):
            compiled = lower_graph(optimized, chip, DType.FP16)
        cache.put(key, compiled)
    rec.count("graph.nodes_fused", report.nodes_fused)
    return compiled


# ---------------------------------------------------------------------------
# compile-guarded
# ---------------------------------------------------------------------------

GUARD_MODEL = "resnet50"
#: Sweeps per rotation. Sweep ``k`` guard-checks every ROTATION-th fused
#: group of resnet50 starting at ``k`` and runs fuzz campaign ``k``, so
#: one rotation covers the whole guarded model and ROTATION campaigns.
ROTATION = 9
FUZZ_BUDGET = 80


class CompileGuarded(Workload):
    """The fusion equivalence guard on resnet50 plus differential fuzzing.

    One ``compile_graph(resnet50, verify_fusion=True)`` is a single
    10-16 s call, and its run-to-run spread on a shared host stayed at
    0.2-0.27 whether or not the host-speed probe scaled it. The guard
    checks each fused group independently (``check_fused_group``, the
    call ``verify_fused_graph`` loops over), so the workload spreads the
    54 groups over a rotation of short sweeps instead. ``stage1_ms`` is
    the sum over groups of each group's check time: the guard's share of
    a guarded compile. Validation, fusion and lowering are timed by
    ``zoo-cold``.
    """

    name = "compile-guarded"
    seed_free = ("guard:",)
    rotation = ROTATION

    def inputs(self, seed: int) -> dict:
        return {
            "seed": seed,
            "fuzz_seeds": [seed * ROTATION + k for k in range(ROTATION)],
        }

    def setup(self, inputs: dict, rec=NULL_RECORDER):
        from repro.graph.passes import optimize
        from repro.graph.shape_inference import bind_shapes
        from repro.models.zoo import build

        with rec.span("models.build"):
            graph = bind_shapes(build(GUARD_MODEL), batch=1)
        with rec.span("graph.optimize"):
            optimized, _report = optimize(graph.bind({}), fusion=True)
        fused = [node for node in optimized.nodes if node.op_type == "fused"]
        return dict(inputs, graph=optimized, fused=fused)

    def sweep(self, state, rec=NULL_RECORDER, index: int = 0) -> Sweep:
        from repro.graph.equivalence import check_fused_group
        from repro.graph.fuzz import run_fuzz

        sweep = Sweep()
        part = index % ROTATION
        start = time.perf_counter()
        for node in state["fused"][part::ROTATION]:
            key = f"guard:{node.name}"
            with rec.span("graph.equivalence.verify"):
                check = sweep.attempt(
                    key,
                    lambda: check_fused_group(
                        state["graph"], node, seed=state["seed"]
                    ),
                )
            if check is None:
                continue
            sweep.outputs[key] = {
                "anchor": check.anchor, "members": check.members,
                "result": check.result,
            }
            skipped = check.result == "skipped"
            rec.count("graph.equivalence.groups_checked", int(not skipped))
            rec.count("graph.equivalence.groups_skipped", int(skipped))
        sweep.stages_ms[f"guard:{part}"] = (time.perf_counter() - start) * 1e3

        seed = state["fuzz_seeds"][part]
        key = f"fuzz:{part}"
        start = time.perf_counter()
        if rec.enabled:
            report = sweep.attempt(
                key, lambda: _staged_fuzz(seed, FUZZ_BUDGET, rec),
                ops=FUZZ_BUDGET,
            )
        else:
            report = sweep.attempt(
                key, lambda: run_fuzz(seed=seed, budget=FUZZ_BUDGET),
                ops=FUZZ_BUDGET,
            )
        sweep.stages_ms[key] = (time.perf_counter() - start) * 1e3
        if report is not None:
            sweep.outputs[key] = {
                "digest": digest(report.to_json()),
                "violations": len(report.violations),
            }
        return sweep

    def invariants(self, state, outputs: dict) -> set[str]:
        """No guard mismatch, no fuzz violation."""
        return {
            key for key, value in outputs.items()
            if "error" not in value
            and (value.get("result") == "mismatch" or value.get("violations"))
        }

    def summarize(self, state, sweeps: list[Sweep]) -> dict[str, float]:
        """Per part of the rotation, the median over the sweeps that ran
        it; then the sum over parts: one whole pass."""

        def rotation_ms(prefix: str) -> float:
            parts = {
                key for sweep in sweeps for key in sweep.stages_ms
                if key.startswith(prefix)
            }
            return sum(
                statistics.median(
                    sweep.stages_ms[part] * sweep.scale for sweep in sweeps
                    if part in sweep.stages_ms
                )
                for part in parts
            )

        guard_ms = rotation_ms("guard:")
        per_case_ms = rotation_ms("fuzz:") / (ROTATION * FUZZ_BUDGET)
        return {
            "stage1_ms": guard_ms,
            "stage2_ms": per_case_ms,
            "guard_verify_s": guard_ms / 1e3,
            "fuzz_cases_per_s": 1e3 / per_case_ms,
        }


def _staged_fuzz(seed: int, budget: int, rec):
    """``run_fuzz`` rebuilt from its public steps, one span per step."""
    from repro.graph.fuzz import (
        FuzzCase,
        FuzzReport,
        check_malformed_graph,
        check_valid_graph,
        generate_graph,
        mutate_graph,
    )

    report = FuzzReport(seed=seed, budget=budget)
    for index in range(budget):
        with rec.span("graph.fuzz.generate"):
            family, graph = generate_graph(seed, index)
            mutated = mutate_graph(graph, seed, index)
        case = FuzzCase(
            index=index, family=family,
            mutation=mutated[0] if mutated else None,
        )
        with rec.span("graph.fuzz.check_valid"):
            violation = check_valid_graph(graph, seed, index)
        if violation:
            case.violations.append(violation)
        if mutated:
            _name, mutant, provenance = mutated
            with rec.span("graph.fuzz.check_malformed"):
                violation = check_malformed_graph(mutant, provenance)
            if violation:
                case.violations.append(violation)
        report.cases.append(case)
    return report


# ---------------------------------------------------------------------------
# serve-open-loop
# ---------------------------------------------------------------------------

SERVE_DURATION_S = 5.0


def serving_specs():
    """Tenant ``a`` (resnet50, three classes, interactive flash crowd) and
    tenant ``nlp`` (bert_large, steady Poisson): about 60k requests over
    five simulated seconds, well past one device's capacity."""
    from repro.serving.loadgen import LoadSpec

    return [
        LoadSpec(
            tenant="a", rate_per_s=2400.0, slo_class="interactive",
            shape="flash-crowd", users=400, flash_at_s=1.5,
            flash_duration_s=1.0, flash_multiplier=3.0, flash_ramp_s=0.2,
        ),
        LoadSpec(
            tenant="a", rate_per_s=3000.0, slo_class="standard",
            shape="diurnal", users=600, period_s=2.5, amplitude=0.5,
        ),
        LoadSpec(
            tenant="a", rate_per_s=3600.0, slo_class="batch", users=100,
            session_mean_requests=8.0,
        ),
        LoadSpec(tenant="nlp", rate_per_s=2000.0, slo_class="standard",
                 users=300),
    ]


def serving_tenants():
    from repro.serving.server import TenantConfig

    return [
        TenantConfig("a", "resnet50", groups=4, max_batch=8,
                     coalesce_window_ms=0.5),
        TenantConfig("nlp", "bert_large", groups=2, max_batch=4),
    ]


def make_trace(seed: int):
    from repro.serving.loadgen import generate_load

    return generate_load(serving_specs(), duration_s=SERVE_DURATION_S, seed=seed)


def _class_table(by_class) -> dict:
    return {
        name: {
            "offered": stats.offered, "served": stats.served,
            "shed": stats.shed, "failed": stats.failed,
            "p99_ms": stats.p99_ms,
        }
        for name, stats in sorted(by_class.items())
    }


class ServeOpenLoop(Workload):
    name = "serve-open-loop"

    def inputs(self, seed: int) -> dict:
        return {"seed": seed}

    def setup(self, inputs: dict, rec=NULL_RECORDER):
        from repro.serving.admission import AdmissionPolicy
        from repro.serving.autoscale import AutoscalerConfig
        from repro.serving.fleet import FleetConfig, FleetManager
        from repro.serving.server import InferenceServer, measure_service_time_ns

        seed = inputs["seed"]
        tenants = serving_tenants()
        policy = AdmissionPolicy()
        with rec.span("serving.loadgen"):
            trace = make_trace(seed)
        with rec.span("serving.measure"):
            times = {
                tenant.name: measure_service_time_ns(tenant.model, tenant.groups)
                for tenant in tenants
            }
        with rec.span("serving.server_open"):
            server = InferenceServer(
                tenants, service_times_ns=dict(times), admission=policy
            )

        def fleet(obs=None):
            return FleetManager(
                tenants,
                config=FleetConfig(replicas=4, hot_spares=4, seed=seed),
                service_times_ns=dict(times), admission=policy,
                autoscaler=AutoscalerConfig(), obs=obs,
            )

        with rec.span("serving.fleet_open"):
            manager = fleet()
        return {
            "trace": trace, "server": server, "fleet": manager,
            "make_fleet": fleet,
            "offered": dict(Counter(request.tenant for request in trace)),
        }

    def sweep(self, state, rec=NULL_RECORDER, index: int = 0) -> Sweep:
        sweep = Sweep()
        trace = state["trace"]
        start = time.perf_counter()
        with rec.span("serving.server_run"):
            reports = sweep.attempt("server", lambda: state["server"].run(trace))
        sweep.stages_ms["server"] = (time.perf_counter() - start) * 1e3
        if reports is not None:
            sweep.outputs["server"] = {
                name: {
                    "completed": report.completed, "shed": report.shed,
                    "failed": report.failed,
                    "classes": _class_table(report.by_class),
                }
                for name, report in sorted(reports.items())
            }
            offered = sum(r.offered for r in reports.values())
            rec.count("serving.server.shed", sum(r.shed for r in reports.values()))
            rec.count("serving.server.offered", offered)
            rec.count("serving.server.batched", sum(
                r.mean_batch * r.completed for r in reports.values()
            ))
            rec.count("serving.server.completed", sum(
                r.completed for r in reports.values()
            ))

        start = time.perf_counter()
        with rec.span("serving.fleet_run"):
            report = sweep.attempt("fleet", lambda: state["fleet"].run(trace))
        sweep.stages_ms["fleet"] = (time.perf_counter() - start) * 1e3
        if report is not None:
            sweep.outputs["fleet"] = {
                name: {
                    "completed": stats.served, "shed": stats.shed,
                    "failed": stats.failed,
                    "classes": _class_table(stats.by_class),
                }
                for name, stats in sorted(report.tenants.items())
            }
            rec.count("serving.fleet.shed", sum(
                s.shed for s in report.tenants.values()
            ))
            rec.count("serving.fleet.offered", sum(
                s.offered for s in report.tenants.values()
            ))
            rec.count("serving.fleet.autoscale_events",
                      report.autoscale_ups + report.autoscale_downs)
            rec.count("serving.fleet.max_brownout", report.max_brownout_level)
        return sweep

    def trace_extras(self, state) -> dict[str, float]:
        """``FleetManager.run`` wall with an obs hub over the wall without.

        Runs after the traced sweeps, alternating the two fleets; the hub
        must not change the report.
        """
        from repro.obs import Observability

        observed = state["make_fleet"](Observability())
        trace = state["trace"]
        walls: dict[str, list[float]] = {"plain": [], "obs": []}
        reports = {}
        for _ in range(3):
            for kind, fleet in (("plain", state["fleet"]), ("obs", observed)):
                start = time.perf_counter()
                reports[kind] = fleet.run(trace)
                walls[kind].append(time.perf_counter() - start)
        if digest(reports["plain"].to_dict()) != digest(reports["obs"].to_dict()):
            raise RuntimeError("attaching an obs hub changed the fleet report")
        return {
            "obs.overhead_ratio":
                statistics.median(walls["obs"]) / statistics.median(walls["plain"])
        }

    def invariants(self, state, outputs: dict) -> set[str]:
        """served + shed + failed == offered, per class and per tenant."""
        bad = set()
        for key in ("server", "fleet"):
            tenants = outputs.get(key, {})
            if "error" in tenants:
                continue
            if set(tenants) != set(state["offered"]):
                bad.add(key)
            for name, stats in tenants.items():
                classes = stats["classes"].values()
                offered = state["offered"].get(name)
                if (
                    stats["completed"] + stats["shed"] + stats["failed"]
                    != offered
                    or sum(c["offered"] for c in classes) != offered
                    or any(
                        c["served"] + c["shed"] + c["failed"] != c["offered"]
                        for c in classes
                    )
                ):
                    bad.add(key)
        return bad

    def summarize(self, state, sweeps: list[Sweep]) -> dict[str, float]:
        server_ms = _median_stage(sweeps, "server")
        fleet_ms = _median_stage(sweeps, "fleet")
        offered = len(state["trace"])
        return {
            "stage1_ms": server_ms,
            "stage2_ms": fleet_ms,
            "server_requests_per_s": offered / server_ms * 1e3,
            "fleet_requests_per_s": offered / fleet_ms * 1e3,
        }


# ---------------------------------------------------------------------------
# chaos-suite
# ---------------------------------------------------------------------------


def _is_hook_scenario(scenario) -> bool:
    """Scenarios that run the optional fleet layers as inline hooks."""
    return scenario.powercap is not None or scenario.sdc is not None


#: Root seed of every chaos scenario. It is fixed, not the run's seed: the
#: four hook scenarios took 1.2-1.8 s over eight root seeds (the
#: silent-corruption storm alone 0.26-0.91 s), which
#: would make the run-to-run spread measure the storms, not the code.
CHAOS_ROOT_SEED = 0


class ChaosSuite(Workload):
    name = "chaos-suite"

    def inputs(self, seed: int) -> dict:
        """The run's seed shuffles the order the scenarios run in."""
        from repro.chaos import SCENARIOS

        names = list(SCENARIOS)
        random.Random(seed).shuffle(names)
        return {"seed": CHAOS_ROOT_SEED, "names": names}

    seed_free = ("scenario:",)

    def setup(self, inputs: dict, rec=NULL_RECORDER):
        from repro.chaos import SCENARIOS
        from repro.models.zoo import build
        from repro.runtime.runtime import Device

        # Warm the process-wide compile cache the way run_suite does, so
        # the first scenario does not pay every model's cold compile.
        models = sorted({
            (SCENARIOS[name].fleet.device, tenant.model)
            for name in inputs["names"]
            for tenant in SCENARIOS[name].tenants
        })
        for device, model in models:
            with rec.span("compile.first"):
                Device.open(device).compile(build(model), batch=1)
        return inputs

    def sweep(self, state, rec=NULL_RECORDER, index: int = 0) -> Sweep:
        from repro.chaos import SCENARIOS, run_scenario

        sweep = Sweep()
        sweep.stages_ms = {"plain": 0.0, "hooks": 0.0}
        for name in state["names"]:
            scenario = SCENARIOS[name]
            key = f"scenario:{name}"
            start = time.perf_counter()
            with rec.span(f"chaos.{name}"):
                result = sweep.attempt(
                    key, lambda: run_scenario(scenario, seed=state["seed"])
                )
            stage = "hooks" if _is_hook_scenario(scenario) else "plain"
            sweep.stages_ms[stage] += (time.perf_counter() - start) * 1e3
            if result is None:
                continue
            sweep.outputs[key] = {
                "violations": list(result.violations),
                "digest": digest(result.to_dict()),
            }
            report = result.report
            rec.count("serving.hedged", report.hedged_requests)
            rec.count("serving.repairs", report.repairs)
            if report.power is not None:
                rec.count("powercap.reapportions", report.power["reapportions"])
            if report.sdc is not None:
                rec.count("sdc.detected", report.sdc["detected_total"])
                rec.count("sdc.screens", report.sdc["screens_run"])
                rec.count("sdc.audits", report.sdc["audits_run"])
        return sweep

    def invariants(self, state, outputs: dict) -> set[str]:
        return {
            key for key, value in outputs.items()
            if "error" not in value and value["violations"]
        }

    def summarize(self, state, sweeps: list[Sweep]) -> dict[str, float]:
        plain_ms = _median_stage(sweeps, "plain")
        hooks_ms = _median_stage(sweeps, "hooks")
        suite_s = statistics.median(
            (sweep.stages_ms["plain"] + sweep.stages_ms["hooks"]) * sweep.scale
            for sweep in sweeps
        ) / 1e3
        return {
            "stage1_ms": plain_ms,
            "stage2_ms": hooks_ms,
            "chaos_suite_s": suite_s,
        }

    def trace_extras(self, state) -> dict[str, float]:
        """Serial against sharded ``run_suite`` at the default worker count.

        The only place the benchmark lets ``repro.sim.parallel`` fork:
        the traced run, after every timed sweep has finished.
        """
        from hostspeed import every_cpu
        from repro.chaos import run_suite
        from repro.sim import parallel

        workers = min(os.cpu_count() or 1, parallel.DEFAULT_MAX_WORKERS)
        with every_cpu():
            start = time.perf_counter()
            serial = run_suite(seed=state["seed"], workers=1)
            serial_s = time.perf_counter() - start
            start = time.perf_counter()
            sharded = run_suite(seed=state["seed"], workers=workers)
            sharded_s = time.perf_counter() - start
        if serial.to_json() != sharded.to_json():
            raise RuntimeError("sharded chaos suite differs from serial")
        stats = parallel.LAST_SHARD_STATS
        return {
            "sim.parallel.speedup": serial_s / sharded_s,
            "sim.parallel.max_shard_share":
                stats.max_shard_wall_seconds / sharded_s,
        }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (ZooCold(), CompileGuarded(), ServeOpenLoop(), ChaosSuite())
}
