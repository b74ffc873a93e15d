"""Tests for the numpy reference executor (the §VI-A CPU oracle)."""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.graph import reference
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph, Node
from repro.graph.reference import (
    EvaluationError,
    ReferenceExecutor,
    materialize_weight,
    seeded_input,
)


def _run_single(op_builder, input_shape, data=None, seed=0):
    builder = GraphBuilder("g")
    x = builder.input("x", input_shape)
    y = op_builder(builder, x)
    graph = builder.finish([y])
    rng = np.random.default_rng(seed)
    payload = rng.normal(size=input_shape) if data is None else data
    executor = ReferenceExecutor(graph, seed=seed)
    return executor, payload, executor.run(x=payload)[y]


class TestWeights:
    def test_deterministic_per_name_and_seed(self):
        a = materialize_weight("w", (8, 8), seed=0)
        b = materialize_weight("w", (8, 8), seed=0)
        c = materialize_weight("w", (8, 8), seed=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_scaled_by_fan_in(self):
        small = materialize_weight("w", (8, 4))
        large = materialize_weight("v", (8, 4096))
        assert large.std() < small.std()

    def test_set_weight_overrides(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 4))
        y = builder.dense(x, 4, bias=False, name="fc")
        graph = builder.finish([y])
        executor = ReferenceExecutor(graph)
        executor.set_weight("fc.w", np.eye(4))
        data = np.arange(4.0).reshape(1, 4)
        assert np.allclose(executor.run(x=data)[y], data)


class TestSeededInput:
    def test_deterministic_per_stream(self):
        a = seeded_input((2, 3, 4), 0, "fusion-guard", "x")
        b = seeded_input((2, 3, 4), 0, "fusion-guard", "x")
        assert a.shape == (2, 3, 4)
        assert np.array_equal(a, b)

    def test_streams_differ_by_tensor_and_seed(self):
        base = seeded_input((16,), 0, "fusion-guard", "x")
        assert not np.array_equal(base, seeded_input((16,), 0, "fusion-guard", "y"))
        assert not np.array_equal(base, seeded_input((16,), 1, "fusion-guard", "x"))
        assert not np.array_equal(base, seeded_input((16,), 0, "inputs", 0, "x"))

    def test_scalar_shape_is_float64_ndarray(self):
        value = seeded_input((), 0, "fusion-guard", "s")
        assert isinstance(value, np.ndarray)
        assert value.shape == () and value.dtype == np.float64


def _im2col_conv2d(data, weight, bias, groups, stride, pad_h, pad_w):
    """The whole-window-matrix conv the blocked one replaced: the oracle."""
    out_c, in_per_group, k_h, k_w = weight.shape
    out_per_group = out_c // groups
    outputs = []
    for group in range(groups):
        part = data[:, group * in_per_group:(group + 1) * in_per_group]
        padded = np.pad(part, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
        batch, channels, height, width = padded.shape
        out_h = (height - k_h) // stride + 1
        out_w = (width - k_w) // stride + 1
        strides = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded,
            shape=(batch, channels, out_h, out_w, k_h, k_w),
            strides=(strides[0], strides[1], strides[2] * stride,
                     strides[3] * stride, strides[2], strides[3]),
        )
        columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
            batch, out_h, out_w, channels * k_h * k_w
        )
        flat = weight[group * out_per_group:(group + 1) * out_per_group]
        result = columns @ flat.reshape(out_per_group, -1).T
        outputs.append(result.transpose(0, 3, 1, 2))
    out = np.concatenate(outputs, axis=1)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


def _conv(op_type, operands, **attrs):
    executor = ReferenceExecutor(Graph("conv"))
    node = Node("c", op_type, ["x", "w", "b"][:len(operands)], ["y"], attrs)
    return getattr(executor, f"_op_{op_type}")(node, operands)


class TestBlockedConv:
    """The row-blocked conv against the whole-matrix im2col oracle."""

    @pytest.fixture(params=[reference.CONV_COLUMN_BUDGET, 4096, 1])
    def budget(self, request, monkeypatch):
        # 4096 and 1 byte force several blocks (down to one row each)
        monkeypatch.setattr(reference, "CONV_COLUMN_BUDGET", request.param)
        return request.param

    def test_conv2d_matches_im2col(self, budget):
        rng = np.random.default_rng(0)
        grid = itertools.product(
            (1, 2), (1, 2, 3), (1, 2), (0, 1, 2), (1, 3, 5), (6, 11)
        )
        checked = 0
        for batch, groups, stride, pad, kernel, size in grid:
            if size + 2 * pad < kernel:
                continue
            data = rng.standard_normal((batch, 2 * groups, size, size + 1))
            weight = rng.standard_normal((3 * groups, 2, kernel, kernel))
            bias = rng.standard_normal(3 * groups) if batch == 1 else None
            operands = [data, weight] + ([bias] if bias is not None else [])
            got = _conv("conv2d", operands, groups=groups, stride=stride, pad=pad)
            want = _im2col_conv2d(data, weight, bias, groups, stride, pad, pad)
            assert np.array_equal(got, want), (batch, groups, stride, pad, kernel)
            checked += 1
        assert checked > 100

    def test_depthwise_conv2d_matches_im2col(self, budget):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((1, 8, 9, 9))
        weight = rng.standard_normal((8, 1, 3, 3))
        got = _conv("conv2d", [data, weight], groups=8, stride=2, pad=1)
        assert np.array_equal(got, _im2col_conv2d(data, weight, None, 8, 2, 1, 1))

    def test_conv1d_matches_im2col(self, budget):
        rng = np.random.default_rng(2)
        for in_c, out_c, weight_in, stride, pad in [
            (4, 6, 4, 1, 1), (4, 6, 4, 2, 0), (5, 5, 1, 1, 2), (5, 5, 1, 2, 1),
        ]:
            data = rng.standard_normal((2, in_c, 17))
            weight = rng.standard_normal((out_c, weight_in, 5))
            bias = rng.standard_normal(out_c)
            got = _conv("conv1d", [data, weight, bias], stride=stride, pad=pad)
            groups = in_c if weight_in == 1 else 1
            want = _im2col_conv2d(
                data[:, :, None, :], weight[:, :, None, :], bias, groups,
                stride, 0, pad,
            )[:, :, 0, :]
            assert np.array_equal(got, want), (in_c, out_c, weight_in, stride)

    def test_columns_stay_under_budget(self):
        # full im2col would be 96*96 rows x 32*9*9 columns of float64,
        # about 190 MB; the blocked conv holds at most the budget of them
        rng = np.random.default_rng(3)
        data = rng.standard_normal((1, 32, 96, 96))
        weight = rng.standard_normal((4, 32, 9, 9))
        full_columns = 96 * 96 * 32 * 9 * 9 * 8
        assert full_columns > 2.5 * reference.CONV_COLUMN_BUDGET
        tracemalloc.start()
        try:
            out = _conv("conv2d", [data, weight], pad=4)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 4, 96, 96)
        assert peak < reference.CONV_COLUMN_BUDGET + 16 * 2**20
        assert peak < full_columns / 2


class TestConvSemantics:
    def test_identity_kernel(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 1, 5, 5))
        y = builder.conv2d(x, 1, 3, pad=1, bias=False, name="c")
        graph = builder.finish([y])
        executor = ReferenceExecutor(graph)
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0  # delta kernel = identity
        executor.set_weight("c.w", kernel)
        data = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        assert np.allclose(executor.run(x=data)[y], data)

    def test_stride_downsamples(self):
        _, _, out = _run_single(
            lambda b, x: b.conv2d(x, 4, 3, stride=2, pad=1), (1, 3, 8, 8)
        )
        assert out.shape == (1, 4, 4, 4)

    def test_grouped_conv_blocks_cross_talk(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 2, 4, 4))
        y = builder.conv2d(x, 2, 1, groups=2, bias=False, name="c")
        graph = builder.finish([y])
        executor = ReferenceExecutor(graph)
        executor.set_weight("c.w", np.ones((2, 1, 1, 1)))
        data = np.zeros((1, 2, 4, 4))
        data[0, 0] = 5.0  # only channel 0 carries signal
        out = executor.run(x=data)[y]
        assert np.all(out[0, 0] == 5.0)
        assert np.all(out[0, 1] == 0.0)  # group isolation

    def test_depthwise_conv1d(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 4, 10))
        weight = builder.weight("dw.w", (4, 1, 3))
        y = builder.node("conv1d", [x, weight], attrs={"pad": 1}, name="dw")
        graph = builder.finish([y])
        executor = ReferenceExecutor(graph)
        executor.set_weight(
            "dw.w", np.tile(np.array([0.0, 1.0, 0.0]), (4, 1, 1))
        )
        data = np.random.default_rng(0).normal(size=(1, 4, 10))
        assert np.allclose(executor.run(x=data)[y], data)

    def test_conv_transpose_shape_and_mass(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 2, 4, 4))
        weight = builder.weight("up.w", (2, 3, 4, 4))
        y = builder.node(
            "conv_transpose2d", [x, weight], attrs={"stride": 2, "pad": 1},
            name="up",
        )
        graph = builder.finish([y])
        out = ReferenceExecutor(graph).run(
            x=np.ones((1, 2, 4, 4))
        )[y]
        assert out.shape == (1, 3, 8, 8)


class TestOpSemantics:
    def test_pooling(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        _, _, out = _run_single(lambda b, x: b.max_pool(x, 2), (1, 1, 4, 4), data)
        assert out[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]
        _, _, avg = _run_single(lambda b, x: b.avg_pool(x, 2), (1, 1, 4, 4), data)
        assert avg[0, 0].tolist() == [[2.5, 4.5], [10.5, 12.5]]

    def test_pixel_shuffle_inverts_space_to_depth(self):
        data = np.random.default_rng(0).normal(size=(1, 4, 3, 3))
        _, _, out = _run_single(
            lambda b, x: b.pixel_shuffle(x, 2), (1, 4, 3, 3), data
        )
        assert out.shape == (1, 1, 6, 6)
        assert out[0, 0, 0, 0] == data[0, 0, 0, 0]
        assert out[0, 0, 0, 1] == data[0, 1, 0, 0]

    def test_layer_norm_standardizes(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (2, 8))
        y = builder.layer_norm(x, name="ln")
        graph = builder.finish([y])
        executor = ReferenceExecutor(graph)
        executor.set_weight("ln.scale", np.ones(8))
        executor.set_weight("ln.shift", np.zeros(8))
        data = np.random.default_rng(0).normal(size=(2, 8)) * 7 + 3
        out = executor.run(x=data)[y]
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_glu_gates(self):
        data = np.concatenate([np.ones((1, 2, 3)), np.zeros((1, 2, 3))], axis=1)
        _, _, out = _run_single(
            lambda b, x: b.glu(x, axis=1), (1, 4, 3), data
        )
        assert np.allclose(out, 0.5)  # 1 * sigmoid(0)

    def test_top_k_outputs(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 6))
        values, indices = builder.top_k(x, 2)
        graph = builder.finish([values, indices])
        data = np.array([[1.0, 9.0, 3.0, 7.0, 5.0, 0.0]])
        out = ReferenceExecutor(graph).run(x=data)
        assert out[values][0].tolist() == [9.0, 7.0]
        assert out[indices][0].tolist() == [1.0, 3.0]

    def test_embedding_gathers(self):
        builder = GraphBuilder("g")
        tokens = builder.input("t", (1, 3))
        y = builder.embedding(tokens, vocab=10, features=4, name="emb")
        graph = builder.finish([y])
        executor = ReferenceExecutor(graph)
        table = np.arange(40.0).reshape(10, 4)
        executor.set_weight("emb.table", table)
        out = executor.run(t=np.array([[0, 5, 9]]))[y]
        assert np.allclose(out[0, 1], table[5])

    def test_missing_input_raises(self):
        builder = GraphBuilder("g")
        x = builder.input("x", (1, 2))
        graph = builder.finish([builder.relu(x)])
        with pytest.raises(EvaluationError):
            ReferenceExecutor(graph).run()

    def test_attention_rows_are_convex_weights(self):
        builder = GraphBuilder("g")
        tokens = builder.input("t", (1, 6, 16))
        out = builder.multi_head_attention(tokens, heads=2)
        graph = builder.finish([out])
        result = ReferenceExecutor(graph).run(
            t=np.random.default_rng(0).normal(size=(1, 6, 16))
        )
        assert result[out].shape == (1, 6, 16)
        assert np.isfinite(result[out]).all()


class TestFusedEvaluation:
    def test_optimize_preserves_semantics_cnn(self):
        from repro.graph.passes import optimize

        def build():
            builder = GraphBuilder("g")
            x = builder.input("x", (2, 3, 12, 12))
            y = builder.conv2d(x, 8, 3, pad=1, name="c0")
            y = builder.batch_norm(y, name="bn0")
            y = builder.relu(y)
            y = builder.conv2d(y, 8, 3, pad=1, name="c1")
            y = builder.sigmoid(y)
            return builder.finish([y])

        data = np.random.default_rng(1).normal(size=(2, 3, 12, 12))
        plain = build()
        reference = ReferenceExecutor(plain, seed=3).run(x=data)
        fused_graph, report = optimize(build())
        assert report.groups >= 1
        fused = ReferenceExecutor(fused_graph, seed=3).run(x=data)
        key_plain = plain.outputs[0]
        key_fused = fused_graph.outputs[0]
        assert np.allclose(reference[key_plain], fused[key_fused], atol=1e-12)

    def test_optimize_preserves_semantics_attention(self):
        from repro.graph.passes import optimize

        def build():
            builder = GraphBuilder("g")
            tokens = builder.input("t", (1, 5, 8))
            out = builder.multi_head_attention(tokens, heads=2)
            return builder.finish([out])

        data = np.random.default_rng(2).normal(size=(1, 5, 8))
        plain = build()
        reference = ReferenceExecutor(plain, seed=0).run(t=data)[plain.outputs[0]]
        fused_graph, _ = optimize(build())
        fused = ReferenceExecutor(fused_graph, seed=0).run(t=data)[
            fused_graph.outputs[0]
        ]
        assert np.allclose(reference, fused, atol=1e-12)
