"""Unit + property tests for the sparse DMA compression formats (§IV-C)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dma.sparse import (
    CompressedTensor,
    SparseCodecError,
    SparseFormat,
    _compress_rle,
    _decompress_rle,
    best_format,
    compress,
    decompress,
)
from repro.oracles import compress_rle_loop, decompress_rle_loop


def _sparse_tensor(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape).astype(np.float32)
    mask = rng.random(shape) < density
    return data * mask


class TestRoundTrip:
    @pytest.mark.parametrize("format", list(SparseFormat))
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_roundtrip_exact(self, format, density):
        tensor = _sparse_tensor((31, 17), density)
        compressed = compress(tensor, format)
        assert np.array_equal(decompress(compressed), tensor)

    @pytest.mark.parametrize("format", list(SparseFormat))
    def test_roundtrip_preserves_shape(self, format):
        tensor = _sparse_tensor((2, 3, 4), 0.3)
        assert decompress(compress(tensor, format)).shape == (2, 3, 4)

    @pytest.mark.parametrize("format", list(SparseFormat))
    def test_empty_tensor(self, format):
        tensor = np.zeros((0,), dtype=np.float32)
        assert decompress(compress(tensor, format)).size == 0

    def test_long_zero_runs_rle(self):
        tensor = np.zeros(200000, dtype=np.float32)
        tensor[123456] = 1.5
        compressed = compress(tensor, SparseFormat.RLE)
        assert np.array_equal(decompress(compressed), tensor)
        assert compressed.compression_ratio > 1000


class TestCompressionRatio:
    def test_sparser_compresses_better_bitmask(self):
        dense = compress(_sparse_tensor((64, 64), 0.9), SparseFormat.BITMASK)
        sparse = compress(_sparse_tensor((64, 64), 0.1), SparseFormat.BITMASK)
        assert sparse.compression_ratio > dense.compression_ratio

    def test_bitmask_ratio_formula(self):
        """Ratio ~= 1 / (density + 1/32) for FP32 payloads."""
        density = 0.25
        tensor = _sparse_tensor((256, 256), density)
        compressed = compress(tensor, SparseFormat.BITMASK)
        actual_density = float((tensor != 0).mean())
        expected = 1.0 / (actual_density + 1 / 32)
        assert compressed.compression_ratio == pytest.approx(expected, rel=0.05)

    def test_fully_dense_expands_slightly(self):
        tensor = _sparse_tensor((64, 64), 1.0)
        compressed = compress(tensor, SparseFormat.BITMASK)
        assert compressed.compression_ratio < 1.0

    def test_best_format_picks_smaller(self):
        runs = np.zeros(4096, dtype=np.float32)
        runs[::512] = 1.0  # long zero runs -> RLE wins
        assert best_format(runs) is SparseFormat.RLE
        scattered = _sparse_tensor((64, 64), 0.4)
        assert best_format(scattered) is SparseFormat.BITMASK


class TestMalformedPayloads:
    def test_truncated_bitmask_rejected(self):
        compressed = compress(_sparse_tensor((16, 16), 0.5), SparseFormat.BITMASK)
        broken = CompressedTensor(
            format=compressed.format,
            shape=compressed.shape,
            element_bytes=compressed.element_bytes,
            payload=compressed.payload[:8],
        )
        with pytest.raises(SparseCodecError):
            decompress(broken)

    def test_ragged_rle_rejected(self):
        compressed = compress(_sparse_tensor((16,), 0.5), SparseFormat.RLE)
        broken = CompressedTensor(
            format=compressed.format,
            shape=compressed.shape,
            element_bytes=compressed.element_bytes,
            payload=compressed.payload + b"x",
        )
        with pytest.raises(SparseCodecError):
            decompress(broken)

    def test_wrong_shape_rejected(self):
        compressed = compress(_sparse_tensor((16,), 0.5), SparseFormat.RLE)
        broken = CompressedTensor(
            format=compressed.format,
            shape=(32,),
            element_bytes=compressed.element_bytes,
            payload=compressed.payload,
        )
        with pytest.raises(SparseCodecError):
            decompress(broken)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, width=32
            ),
        ),
        min_size=0,
        max_size=300,
    ),
    format=st.sampled_from(list(SparseFormat)),
)
def test_property_roundtrip_any_payload(values, format):
    tensor = np.asarray(values, dtype=np.float32)
    assert np.array_equal(decompress(compress(tensor, format)), tensor)


@settings(max_examples=30, deadline=None)
@given(density=st.floats(0.0, 1.0), seed=st.integers(0, 100))
def test_property_compressed_bytes_positive_and_consistent(density, seed):
    tensor = _sparse_tensor((32, 32), density, seed)
    for format in SparseFormat:
        compressed = compress(tensor, format)
        assert compressed.compressed_bytes > 0
        assert compressed.dense_bytes == tensor.size * 4


class TestDegenerateInputs:
    """Satellite: empty tensors, all-zero tensors, flat sizes not a
    multiple of 8 (the bitmask pads its final mask byte)."""

    @pytest.mark.parametrize("format", list(SparseFormat))
    @pytest.mark.parametrize("shape", [(0,), (0, 7), (3, 0, 5)])
    def test_empty_tensor_roundtrip(self, format, shape):
        tensor = np.zeros(shape, dtype=np.float32)
        compressed = compress(tensor, format)
        restored = decompress(compressed)
        assert restored.shape == shape
        assert np.array_equal(restored, tensor)

    @pytest.mark.parametrize("format", list(SparseFormat))
    @pytest.mark.parametrize("shape", [(1,), (8,), (64, 64), (65537,)])
    def test_all_zero_tensor_roundtrip(self, format, shape):
        tensor = np.zeros(shape, dtype=np.float32)
        compressed = compress(tensor, format)
        assert np.array_equal(decompress(compressed), tensor)
        if tensor.size >= 64:
            # Large all-zero payloads must actually compress.
            assert compressed.compressed_bytes < compressed.dense_bytes

    @pytest.mark.parametrize("format", list(SparseFormat))
    @pytest.mark.parametrize("size", [1, 3, 5, 7, 9, 13, 63, 65])
    def test_size_not_multiple_of_8(self, format, size):
        tensor = _sparse_tensor((size,), density=0.4, seed=size)
        assert np.array_equal(decompress(compress(tensor, format)), tensor)


class TestRleFastPathPinning:
    """The vectorized RLE codec must be byte-identical to the loop."""

    CASES = [
        np.zeros(0, dtype=np.float32),
        np.zeros(5, dtype=np.float32),
        np.zeros(65535, dtype=np.float32),
        np.zeros(65536, dtype=np.float32),
        np.zeros(65537, dtype=np.float32),
        np.ones(7, dtype=np.float32),
        np.asarray([0, 0, 1, 0, 0, 0, 2, 0], dtype=np.float32),
        np.asarray([3, 0, 0], dtype=np.float32),
        np.concatenate(
            [np.zeros(131073, dtype=np.float32), np.ones(2, dtype=np.float32)]
        ),
        np.concatenate(
            [np.ones(1, dtype=np.float32), np.zeros(65536, dtype=np.float32)]
        ),
    ]

    @pytest.mark.parametrize("flat", CASES, ids=range(len(CASES)))
    def test_compress_byte_identical(self, flat):
        assert _compress_rle(flat) == compress_rle_loop(flat)

    @pytest.mark.parametrize("flat", CASES, ids=range(len(CASES)))
    def test_decompress_identical(self, flat):
        compressed = compress(flat, SparseFormat.RLE)
        assert np.array_equal(
            _decompress_rle(compressed), decompress_rle_loop(compressed)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, width=32),
            ),
            min_size=0,
            max_size=400,
        )
    )
    def test_property_byte_identical(self, values):
        flat = np.asarray(values, dtype=np.float32)
        assert _compress_rle(flat) == compress_rle_loop(flat)
