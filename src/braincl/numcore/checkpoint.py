"""Flat binary checkpoint container.

Byte layout (version 1, everything little-endian):

    magic    4 bytes   b"BNCP"
    version  uint32
    count    uint32    number of entries
    entry, repeated `count` times, sorted by name:
        name_len  uint16
        name      utf-8 bytes
        ndim      uint8
        dims      uint32 × ndim
        payload   float64 × prod(dims), row-major

Entries are written in sorted-name order so the same parameter dict always
produces identical bytes. The loader rejects a name that does not strictly
follow the one before it, so a repeated entry cannot replace an earlier one.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .tensor import freeze

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "FORMAT_VERSION"]

MAGIC = b"BNCP"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"parameter name too long: {name!r}")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The saved entries as a frozen parameter dict (see ``freeze``)."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    offset = 4

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise CheckpointError(f"{path}: truncated checkpoint")
        piece = blob[offset:offset + n]
        offset += n
        return piece

    version, count = struct.unpack("<II", take(8))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        raw_name = take(name_len)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry name {raw_name!r} is not UTF-8") from None
        if params and name <= next(reversed(params)):  # names must strictly increase
            raise CheckpointError(f"{path}: entry {name!r} is repeated or out of name order")
        (ndim,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n_values = int(np.prod(dims, dtype=np.int64)) if ndim else 1
        payload = take(8 * n_values)
        params[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    if offset != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last entry")
    return freeze(params)
