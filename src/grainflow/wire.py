"""The one binary format exchanged between partitions.

Every message is a frame of typed arrays: a header (wire version, array
count), then each array in ``.npy`` format.  A layout declares, once and
here, the dtype and column count of each array of one kind of message
(``None`` for a flat array); ``decode_arrays`` checks a frame against its
layout before it reads any data.  Arrays carry global ids verbatim, so
decoding needs no mesh context, and floats travel as raw little-endian
IEEE doubles, which keeps round trips bit-exact and every exchange
deterministic.
"""

from __future__ import annotations

import io
import math
import struct
from tokenize import TokenError

import numpy as np

WIRE_VERSION = 4

# stencil support modes
MODE_CHAIN = 0   # continuation of a line chain past a shared node
MODE_ARMS = 1    # junction arm endpoints around a shared point

_HEADER = struct.Struct("<II")
_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")

# identity regularization: (node, identity), then (local, remote, part)
PAIRS = ((_I64, 2),)
TRIPLETS = ((_I64, 3),)
# movement back-off: node ids; NULL_ID marks flips only the sender has
FLIPS = ((_I64, None),)
# stencil support: one head (mode, line, node, n_samples) per record, then
# all sample ids and all sample positions back to back
SUPPORT = ((_I64, 4), (_I64, None), (_F64, 2))
# migration: elements (id, surf, a, b, c); each of their nodes once,
# ascending, as (id, topo, entity, bnd, prv, nxt) plus its position; the
# junction connections (node, line, anchor)
MIGRATION = ((_I64, 5), (_I64, 6), (_F64, 2), (_I64, 3))
# output: per-grain ids and areas and the element count, then for a
# snapshot the live mesh arrays of ``Mesh.live_arrays``
AREAS = ((_I64, None), (_F64, None), (_I64, None))
MESH = ((_I64, None), (_F64, 2), (_I64, None), (_I64, 3), (_I64, None))
SNAPSHOT = AREAS + MESH


class WireError(Exception):
    """Raised when a byte stream is not a valid frame of its layout."""


def encode_arrays(arrays, layout) -> bytes:
    """Frame arrays (or nested sequences) as ``layout`` types them."""
    buf = io.BytesIO()
    buf.write(_HEADER.pack(WIRE_VERSION, len(layout)))
    for a, (dtype, cols) in zip(arrays, layout, strict=True):
        a = np.ascontiguousarray(a, dtype=dtype)
        np.save(buf, a.reshape(-1) if cols is None else a.reshape(-1, cols),
                allow_pickle=False)
    return buf.getvalue()


def decode_arrays(buf: bytes, layout) -> list[np.ndarray]:
    """Parse an ``encode_arrays`` frame strictly: version, array count,
    dtypes and column counts must match ``layout``, with no pickled
    objects and no missing or trailing bytes.  The arrays are read-only
    views of ``buf``."""
    if len(buf) < _HEADER.size:
        raise WireError("truncated frame header")
    version, count = _HEADER.unpack_from(buf)
    if version != WIRE_VERSION:
        raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
    if count != len(layout):
        raise WireError(f"frame holds {count} arrays, layout {len(layout)}")
    f = io.BytesIO(buf)
    f.seek(_HEADER.size)
    arrays = []
    for i, (dtype, cols) in enumerate(layout):
        try:
            if np.lib.format.read_magic(f) != (1, 0):
                raise ValueError("unsupported .npy version")
            shape, fortran, got = np.lib.format.read_array_header_1_0(f)
        except (ValueError, TypeError, SyntaxError, TokenError) as exc:
            # numpy's header parser lets its tokenizer's errors through
            raise WireError(f"malformed header of array {i}: {exc}") from exc
        want = (1,) if cols is None else (2, cols)
        if (got != dtype or fortran or min(shape, default=0) < 0
                or (len(shape),) + shape[1:] != want):
            raise WireError(f"array {i} is {got} {shape}, layout wants "
                            f"{dtype} with {cols} columns")
        n = math.prod(shape)
        start = f.tell()
        if start + n * dtype.itemsize > len(buf):
            raise WireError(f"truncated data of array {i}")
        arrays.append(np.frombuffer(buf, dtype, n, start).reshape(shape))
        f.seek(start + n * dtype.itemsize)
    if f.tell() != len(buf):
        raise WireError("trailing bytes after the last array")
    return arrays
