"""The pinned oracles stay out of every production path.

``repro.oracles`` holds the reference implementations the fast paths are
tested against. Production code must not import it: a fresh interpreter
that launches a zoo model, runs an ``InferenceServer`` and runs a
default-routing ``FleetManager`` must finish without ``repro.oracles`` in
``sys.modules``. The reference event core moved out of ``repro.sim``: no
``repro.sim`` submodule may define it any more, and importing all of them
must not pull the oracles in either.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import importlib
import pkgutil
import sys

from repro.models.zoo import build
from repro.runtime.runtime import Device
from repro.serving import InferenceServer, TenantConfig, TrafficPattern
from repro.serving import generate_trace
from repro.serving.fleet import FleetConfig, FleetManager

device = Device.open("i20")
device.launch(device.compile(build("resnet50"), batch=1))

tenants = [TenantConfig("a", "resnet50", groups=1)]
trace = generate_trace([TrafficPattern("a", 200.0)], duration_s=0.05, seed=1)
InferenceServer(tenants).run(trace)
FleetManager(tenants, config=FleetConfig(replicas=2)).run(trace)

assert "repro.oracles" not in sys.modules, "production code imported repro.oracles"

import repro.sim

for info in pkgutil.iter_modules(repro.sim.__path__, "repro.sim."):
    module = importlib.import_module(info.name)
    assert not hasattr(module, "ReferenceSimulator"), info.name
assert "repro.oracles" not in sys.modules, "a repro.sim module imported the oracles"
print("isolated")
"""


def test_production_paths_never_import_the_oracles():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "isolated"
