"""Discrete-event simulation substrate."""

from repro.sim.kernel import (
    AllOf,
    Event,
    Process,
    Resource,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.parallel import ShardError, default_workers, run_sharded
from repro.sim.trace import Interval, Trace
from repro.sim.trace_export import save_chrome_trace, to_chrome_trace

__all__ = [
    "AllOf", "Event", "Interval", "Process", "Resource", "ShardError",
    "SimulationError", "Simulator", "Timeout", "Trace", "default_workers",
    "run_sharded", "save_chrome_trace", "to_chrome_trace",
]
