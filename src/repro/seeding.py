"""Deterministic seed derivation: one root seed fans out into labeled streams.

Every stochastic component of the stack (fault draws, traffic generation,
per-tenant serving RNGs, fleet routing, chaos scenarios) derives its
randomness from one top-level seed through a *labeled stream*: a
``random.Random`` keyed on ``"<root>:<label>:<label>:..."``. Two runs with
the same root seed therefore reproduce every stream exactly, while streams
with different labels are statistically independent of each other — adding
a new consumer (a new tenant, a new replica) never perturbs existing ones.

Stream label conventions (the ``_rng`` catalogue):

========================  =====================================================
label path                consumer
========================  =====================================================
``<tenant>``              :class:`~repro.serving.server.InferenceServer`
                          per-tenant fault draws (isolated mode)
``shared``                :class:`~repro.serving.server.InferenceServer`
                          shared-queue fault draws
``serve:<replica>``       :class:`~repro.serving.fleet.FleetManager` request
                          outcome draws on one replica
``injector:<replica>``    per-replica :class:`~repro.faults.FaultInjector`
                          seed for bring-up validation launches
``probe:<replica>:<n>``   repair-probe injector seed (attempt ``n``; the
                          first screen vector keeps this legacy label)
``probe:<r>:<n>:<v>``     repair-probe injector seed for screen vector
                          ``v`` >= 1 (multi-vector screens)
``probe-screen:<r>:<n>``  repair-probe corruption-screen draws (attempt
                          ``n``, :class:`~repro.serving.fleet.FleetManager`)
``sdc:<replica>``         :class:`~repro.serving.sdc.SdcTracker` silent-
                          corruption + probe-coverage draws per replica
``screen:<replica>``      :class:`~repro.serving.sdc.SdcTracker` golden-
                          vector screen draws per replica
``audit``                 :class:`~repro.serving.sdc.SdcTracker` audit
                          sampling + secondary-execution draws
``scenario:<name>``       :mod:`repro.chaos` per-scenario fleet seed
``trace:<name>``          :mod:`repro.chaos` per-scenario traffic seed
``load:<name>``           :mod:`repro.chaos` per-scenario open-loop loadgen
                          seed (overload scenarios)
``loadgen:<i>:<t>:<c>``   :mod:`repro.serving.loadgen` per-spec arrival +
                          session stream (spec index, tenant, SLO class)
``fusion-guard:<t>``      :mod:`repro.graph.equivalence` seeded input for a
                          fused group's data tensor ``t``
``inputs:<i>:<t>``        :mod:`repro.graph.fuzz` seeded input tensor ``t``
                          of fuzz case ``i``
========================  =====================================================

The last two streams seed a NumPy generator instead
(``np.random.default_rng(derive_seed(...))``, drawn in one
``standard_normal`` call by :func:`repro.graph.reference.seeded_input`).

docs/robustness.md documents how the chaos harness pins this: two chaos
runs from the same root seed must produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_rng", "derive_seed", "stream_name"]


def stream_name(root: int | str, *labels: object) -> str:
    """The canonical stream key: ``"<root>:<label>:<label>..."``."""
    return ":".join([str(root), *(str(label) for label in labels)])


def derive_seed(root: int | str, *labels: object) -> int:
    """A stable 64-bit integer seed for the labeled stream.

    Hash-based (SHA-256 over the stream name) so it is stable across
    processes and Python versions regardless of ``PYTHONHASHSEED`` —
    suitable for seeding components that want an ``int`` seed (e.g.
    :class:`~repro.faults.FaultInjector`).
    """
    digest = hashlib.sha256(stream_name(root, *labels).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(root: int | str, *labels: object) -> random.Random:
    """A fresh ``random.Random`` for the labeled stream.

    Seeded directly with the stream *name* (``random.Random`` hashes
    strings with SHA-512 internally, independent of ``PYTHONHASHSEED``),
    which keeps existing single-label consumers bit-identical to the
    historical ``random.Random(f"{seed}:{label}")`` idiom.
    """
    return random.Random(stream_name(root, *labels))
