"""Pins the vectorized ``MatrixEngine.gemm`` to the tile loop
``repro.oracles.gemm_reference``.

The fast path must be observably identical to the per-tile loop: same
IEEE-754 results bit for bit, same tiles issued, same MAC count, same
accumulator and matrix-register state, same trace counters, same error
behavior on unsupported patterns. Anything less would let a performance
change silently alter the architectural model.
"""

import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.datatypes import DType
from repro.engines.matrix import (
    NUM_ACCUMULATION_REGISTERS,
    MatrixEngine,
    VmmPatternError,
)
from repro.oracles import gemm_reference
from repro.sim.trace import Trace


def _operands(m: int, k: int, n: int, seed: int = 0, transform: str = "plain"):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    if transform == "aT":
        a = np.ascontiguousarray(rng.standard_normal((k, m)).T)
    elif transform == "bT":
        b = np.ascontiguousarray(rng.standard_normal((n, k)).T)
    elif transform == "neg":
        a, b = -np.abs(a), -np.abs(b)
    return a, b


def _run_both(dtype, m, k, n, seed=0, transform="plain", tile_rows=None):
    a, b = _operands(m, k, n, seed, transform)
    fast = MatrixEngine(dtype)
    fast.trace = Trace()
    reference = MatrixEngine(dtype)
    reference.trace = Trace()
    out_fast = fast.gemm(a, b, tile_rows=tile_rows)
    out_ref = gemm_reference(reference, a, b, tile_rows=tile_rows)
    return fast, out_fast, reference, out_ref


def _assert_identical(fast, out_fast, reference, out_ref):
    # Bit-identical outputs, not approximately equal.
    assert np.array_equal(out_fast, out_ref)
    assert out_fast.dtype == out_ref.dtype
    _assert_same_state(fast, reference)


def _assert_same_state(fast, reference):
    # Identical architectural charges.
    assert fast.vmm_issued == reference.vmm_issued
    assert fast.macs_executed == reference.macs_executed
    assert fast.trace.counters == reference.trace.counters
    # Identical visible register-file state (same slots touched, same values).
    assert set(fast.accumulators) == set(reference.accumulators)
    for slot in fast.accumulators:
        assert slot < NUM_ACCUMULATION_REGISTERS
        assert np.array_equal(fast.accumulators[slot], reference.accumulators[slot])
    assert np.array_equal(fast.matrix_registers[0], reference.matrix_registers[0])


ODD_SHAPES = [
    (1, 1, 1),
    (3, 5, 7),
    (5, 33, 17),
    (17, 64, 100),
    (64, 96, 48),
    (2, 511, 3),
]


@pytest.mark.parametrize("shape", ODD_SHAPES)
@pytest.mark.parametrize("dtype", list(DType))
def test_identical_over_odd_shapes_all_dtypes(shape, dtype):
    m, k, n = shape
    _assert_identical(*_run_both(dtype, m, k, n))


@pytest.mark.parametrize("transform", ["plain", "aT", "bT", "neg"])
def test_identical_over_memory_layouts(transform):
    """Transposed views and sign-skewed operands change nothing."""
    _assert_identical(*_run_both(DType.FP16, 9, 40, 70, transform=transform))


@pytest.mark.parametrize("tile_rows", [4, 8, 16])
def test_identical_with_explicit_tile_rows(tile_rows):
    _assert_identical(*_run_both(DType.FP32, 7, 37, 21, tile_rows=tile_rows))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 24),
    k=st.integers(1, 80),
    n=st.integers(1, 80),
    seed=st.integers(0, 50),
    dtype=st.sampled_from([DType.FP32, DType.FP16, DType.BF16, DType.INT8]),
)
def test_property_identical(m, k, n, seed, dtype):
    _assert_identical(*_run_both(dtype, m, k, n, seed=seed))


def test_unsupported_pattern_raises_with_same_register_state():
    """The reference loop loads the first tile before vmm() rejects the
    pattern; the fast path must reproduce both the error and the side
    effect."""
    a, b = _operands(4, 16, 16)
    fast = MatrixEngine(DType.FP32)
    with pytest.raises(VmmPatternError):
        fast.gemm(a, b, tile_rows=3)
    reference = MatrixEngine(DType.FP32)
    with pytest.raises(VmmPatternError):
        gemm_reference(reference, a, b, tile_rows=3)
    assert np.array_equal(fast.matrix_registers[0], reference.matrix_registers[0])
    assert fast.vmm_issued == reference.vmm_issued == 0


def test_empty_dimension_matches_reference():
    """Degenerate extents behave exactly like the loop: m == 0 and n == 0
    return empty results and leave the register file alone; k == 0 clears
    accumulator 0 and raises reading it back (the loop never fills an
    accumulator before reading it)."""
    for m, k, n in [(0, 4, 4), (4, 4, 0), (4, 0, 4)]:
        a, b = _operands(m, k, n)
        outcomes = []
        for gemm in (MatrixEngine.gemm, gemm_reference):
            engine = MatrixEngine(DType.FP16)
            engine.trace = Trace()
            # live accumulators make a degenerate call's side effects visible
            engine.accumulators = {0: np.ones(32), 1: np.full(32, 2.0)}
            try:
                outcome = gemm(engine, a, b)
            except VmmPatternError as error:
                outcome = error
            outcomes.append((engine, outcome))
        (fast, out_fast), (reference, out_ref) = outcomes
        if k == 0:
            assert isinstance(out_ref, VmmPatternError)
            assert type(out_fast) is type(out_ref)
            assert str(out_fast) == str(out_ref) == "accumulator 0 has no value"
            assert set(fast.accumulators) == {1}
        else:
            assert out_fast.shape == out_ref.shape == (m, n)
            assert np.array_equal(out_fast, out_ref)
        _assert_same_state(fast, reference)


def _median_wall(fn, runs=3):
    """Median wall seconds of ``runs`` calls after one warm-up call, plus
    the last call's result: a single shot reads ±30–45% under host load."""
    result = fn()
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls), result


def test_speedup_at_least_20x_on_acceptance_shape():
    """ISSUE acceptance: >= 20x on 64x256x256 with bit-identical results."""
    a, b = _operands(64, 256, 256, seed=7)

    fast = MatrixEngine(DType.FP16)
    fast_s, out_fast = _median_wall(lambda: fast.gemm(a, b))

    reference = MatrixEngine(DType.FP16)
    ref_s, out_ref = _median_wall(lambda: gemm_reference(reference, a, b))

    assert np.array_equal(out_fast, out_ref)
    assert fast.vmm_issued == reference.vmm_issued
    assert fast.macs_executed == reference.macs_executed
    assert ref_s / fast_s >= 20.0, (
        f"fast path only {ref_s / fast_s:.1f}x faster "
        f"({fast_s * 1e3:.1f} ms vs {ref_s * 1e3:.1f} ms)"
    )
