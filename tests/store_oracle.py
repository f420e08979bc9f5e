"""An independent reader of the store's column file (``payload.bin``).

It knows only the byte layout: a magic line, a little-endian u64 table
length, an ASCII JSON table of ``[name, dtype.str, shape, offset]`` rows,
zeros up to a 64-byte boundary, then each column's C-order bytes at its
offset from that boundary.  It checks nothing beyond what reading needs,
so tests can hold ``repro.store.store._decode_payload`` to it.
"""

from __future__ import annotations

import json
import struct
from typing import Dict

import numpy as np

MAGIC = b"repro columns 1\n"
ALIGN = 64


def read_payload(raw: bytes) -> Dict[str, np.ndarray]:
    """Every column of the column file ``raw``, in table order."""
    assert raw.startswith(MAGIC)
    (length,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
    table_end = len(MAGIC) + 8 + length
    base = -(-table_end // ALIGN) * ALIGN
    columns = {}
    for name, descr, shape, offset in json.loads(raw[len(MAGIC) + 8:table_end]):
        dtype = np.dtype(descr)
        count = int(np.prod(shape, dtype=np.int64))
        columns[name] = np.frombuffer(
            raw, dtype=dtype, count=count, offset=base + offset
        ).reshape(shape)
    return columns
