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


def _read_exact(fh, count: int, what: str) -> bytes:
    blob = fh.read(count)
    if len(blob) != count:
        raise FileFormatError(f"checkpoint truncated while reading {what}")
    return blob


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint file back into an ordered name -> float64 array dict."""
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FileFormatError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}")
        while True:
            head = fh.read(4)
            if not head:
                return arrays
            if len(head) != 4:
                raise FileFormatError("checkpoint truncated while reading name length")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
            shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "extents"))
            count = int(np.prod(shape)) if rank else 1
            blob = _read_exact(fh, 8 * count, f"values of {name!r}")
            arrays[name] = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(shape)
    return arrays
