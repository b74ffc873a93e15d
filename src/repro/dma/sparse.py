"""Hardware-defined sparse compression for DMA transfers (paper §IV-C).

"to optimize bandwidth for transferring sparse data, DMA engines in DTU 2.0
supports automatic data decompression. Given the data compressed in
hardware-defined formats, DMA engines decompress the data while storing them
at the destination memory locations."

Two hardware formats are modelled, matching common accelerator practice:

- **bitmask**: a 1-bit-per-element validity mask plus packed non-zero
  payload. Compression ratio ~``1 / (density + 1/8/element_bytes)``.
- **run-length (RLE)** over zero runs: ``(zero_run_u16, value)`` pairs,
  better for long zero bursts (e.g. post-ReLU feature maps).

Both round-trip exactly (tests verify) and expose ``compressed_bytes`` so
the DMA timing model can charge the wire for compressed traffic only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class SparseFormat(enum.Enum):
    BITMASK = "bitmask"
    RLE = "rle"


class SparseCodecError(ValueError):
    """Malformed compressed payload or unsupported configuration."""


@dataclass(frozen=True)
class CompressedTensor:
    """Wire format of one compressed DMA payload."""

    format: SparseFormat
    shape: tuple[int, ...]
    element_bytes: int
    payload: bytes

    @property
    def compressed_bytes(self) -> int:
        # Header: format byte + rank + dims (4 B each) + element size.
        return len(self.payload) + 2 + 4 * len(self.shape)

    @property
    def dense_bytes(self) -> int:
        count = 1
        for extent in self.shape:
            count *= extent
        return count * self.element_bytes

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("inf")
        return self.dense_bytes / self.compressed_bytes


def _as_flat_f32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float32).ravel()


def compress(array: np.ndarray, format: SparseFormat) -> CompressedTensor:
    """Compress a dense tensor into the hardware wire format."""
    array = np.asarray(array)
    flat = _as_flat_f32(array)
    if format is SparseFormat.BITMASK:
        payload = _compress_bitmask(flat)
    elif format is SparseFormat.RLE:
        payload = _compress_rle(flat)
    else:
        raise SparseCodecError(f"unsupported format {format}")
    return CompressedTensor(
        format=format,
        shape=tuple(array.shape),
        element_bytes=4,
        payload=payload,
    )


def decompress(compressed: CompressedTensor, corruptor=None) -> np.ndarray:
    """Invert :func:`compress`; what the DMA does while storing.

    ``corruptor`` (a :class:`~repro.faults.silent.SilentCorruptor`) models
    a marginal decompression datapath: the decoded tensor may come back
    with one element silently wrong — format checks still pass, nothing
    raises. ``None`` (the default) is the exact legacy path.
    """
    if compressed.format is SparseFormat.BITMASK:
        flat = _decompress_bitmask(compressed)
    elif compressed.format is SparseFormat.RLE:
        flat = _decompress_rle(compressed)
    else:
        raise SparseCodecError(f"unsupported format {compressed.format}")
    expected = 1
    for extent in compressed.shape:
        expected *= extent
    if flat.size != expected:
        raise SparseCodecError(
            f"payload decodes to {flat.size} elements, shape wants {expected}"
        )
    dense = flat.reshape(compressed.shape)
    if corruptor is not None:
        dense = corruptor.corrupt_sparse(dense)
    return dense


def _compress_bitmask(flat: np.ndarray) -> bytes:
    mask = flat != 0
    packed_mask = np.packbits(mask)
    values = flat[mask]
    return packed_mask.tobytes() + values.tobytes()


def _decompress_bitmask(compressed: CompressedTensor) -> np.ndarray:
    count = 1
    for extent in compressed.shape:
        count *= extent
    mask_bytes = (count + 7) // 8
    raw = compressed.payload
    if len(raw) < mask_bytes:
        raise SparseCodecError("bitmask payload truncated")
    mask = np.unpackbits(
        np.frombuffer(raw[:mask_bytes], dtype=np.uint8), count=count
    ).astype(bool)
    values = np.frombuffer(raw[mask_bytes:], dtype=np.float32)
    if values.size != int(mask.sum()):
        raise SparseCodecError(
            f"bitmask says {int(mask.sum())} values, payload has {values.size}"
        )
    flat = np.zeros(count, dtype=np.float32)
    flat[mask] = values
    return flat


def _compress_rle(flat: np.ndarray) -> bytes:
    """(zero_run: u16, value: f32) records; a record decodes to ``run``
    zeros followed by ``value``. Zero runs longer than 65535 split into
    (0xFFFF, 0.0) cap records (each covering 65536 zeros); trailing zeros
    end with a (run-1, 0.0) record.

    Vectorized: one pass of array ops over the nonzero positions instead
    of a Python loop per element. Byte-identical to
    :func:`repro.oracles.compress_rle_loop` (pinned in
    ``tests/dma/test_sparse.py``).
    """
    size = flat.size
    nonzero = np.flatnonzero(flat)
    # Zeros between consecutive nonzeros (and before the first one).
    previous = np.empty(nonzero.shape, dtype=np.int64)
    if nonzero.size:
        previous[0] = -1
        previous[1:] = nonzero[:-1]
    gaps = nonzero - previous - 1
    caps = gaps >> 16  # full 65536-zero cap records per gap
    remainders = gaps & 0xFFFF
    counts = caps + 1  # each nonzero emits its caps then one value record
    total = int(counts.sum())
    runs = np.full(total, 0xFFFF, dtype=np.uint32)
    values = np.zeros(total, dtype=np.float32)
    if nonzero.size:
        value_slots = np.cumsum(counts) - 1
        runs[value_slots] = remainders
        values[value_slots] = flat[nonzero]
    # Trailing zeros: caps, then (run-1, 0.0) for the remainder.
    tail = size - (int(nonzero[-1]) + 1 if nonzero.size else 0)
    tail_caps, tail_rem = tail >> 16, tail & 0xFFFF
    if tail_caps or tail_rem:
        extra = np.full(tail_caps + (1 if tail_rem else 0), 0xFFFF, dtype=np.uint32)
        if tail_rem:
            extra[-1] = tail_rem - 1
        runs = np.concatenate([runs, extra])
        values = np.concatenate(
            [values, np.zeros(extra.size, dtype=np.float32)]
        )
    return runs.astype(np.uint16).tobytes() + values.tobytes()


def _decompress_rle(compressed: CompressedTensor) -> np.ndarray:
    count = 1
    for extent in compressed.shape:
        count *= extent
    raw = compressed.payload
    if len(raw) % 6 != 0:
        raise SparseCodecError("RLE payload is not a whole number of records")
    records = len(raw) // 6
    runs = np.frombuffer(raw[: records * 2], dtype=np.uint16)
    values = np.frombuffer(raw[records * 2 :], dtype=np.float32)
    # Record i lands its value at cumulative(run + 1) - 1; everything
    # before it in the gap is zeros — one scatter instead of a Python
    # loop of per-record concatenations.
    ends = np.cumsum(runs.astype(np.int64) + 1)
    total = int(ends[-1]) if ends.size else 0
    flat = np.zeros(total, dtype=np.float32)
    if ends.size:
        flat[ends - 1] = values
    if flat.size != count:
        raise SparseCodecError(
            f"RLE decodes to {flat.size} elements, shape wants {count}"
        )
    return flat


def best_format(array: np.ndarray) -> SparseFormat:
    """Pick the format with the smaller wire size for this tensor."""
    bitmask = compress(array, SparseFormat.BITMASK)
    rle = compress(array, SparseFormat.RLE)
    if rle.compressed_bytes < bitmask.compressed_bytes:
        return SparseFormat.RLE
    return SparseFormat.BITMASK
