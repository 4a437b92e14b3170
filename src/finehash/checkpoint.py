"""Binary checkpoint container for named float64 arrays.

Layout: the 4-byte magic ``FHT1``, then one block per array in insertion
order.  Each block is a little-endian u32 name length, the UTF-8 name, a
little-endian u32 rank, one little-endian u64 extent per axis, and the
values as little-endian float64 in C order.  Blocks repeat until EOF, so
the container needs no explicit count.  Model weights are float64 on disk
and float32 in memory: ``trainer.load_checkpoint`` rounds them on load, and
float32 values survive the round trip bit for bit.

Writes go through :func:`atomic_write`, which every artifact writer of the
package shares: a sibling temporary file replaces the target only once
complete, so a crash mid-write leaves the previous file intact.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FileFormatError

MAGIC = b"FHT1"


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs):
    """Open ``<path>.tmp`` for writing; on success fsync it and move it onto path.

    If the body raises, the temporary file is removed and whatever was at
    path before stays as it was.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays to a checkpoint file, preserving order."""
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        for name, values in arrays.items():
            encoded = name.encode("utf-8")
            data = np.asarray(values, dtype="<f8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes(order="C"))


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint file back into an ordered name -> float64 array dict.

    The file is read once and parsed from its bytes, and every name length,
    rank and value count is checked against the bytes left before use.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise FileFormatError(f"{path}: bad checkpoint magic {blob[:4]!r}, expected {MAGIC!r}")
    offset = len(MAGIC)

    def take(size: int, what: str) -> int:
        """Offset of the next ``size`` bytes, which must lie inside the file."""
        nonlocal offset
        if size > len(blob) - offset:
            raise FileFormatError(f"{path}: checkpoint truncated while reading {what}")
        offset += size
        return offset - size

    arrays: dict[str, np.ndarray] = {}
    while offset < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, take(4, "name length"))
        start = take(name_len, "name")
        try:
            name = blob[start:offset].decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: checkpoint entry name at byte {start} "
                                  f"is not UTF-8") from None
        (rank,) = struct.unpack_from("<I", blob, take(4, f"rank of {name!r}"))
        shape = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank, f"extents of {name!r}"))
        count = math.prod(shape)
        values = np.frombuffer(blob, "<f8", count, take(8 * count, f"values of {name!r}"))
        try:
            arrays[name] = values.astype(np.float64).reshape(shape)
        except ValueError:  # a zero extent next to extents too large for an array
            raise FileFormatError(f"{path}: checkpoint entry {name!r} has shape {shape}, "
                                  f"which cannot form an array") from None
    return arrays
