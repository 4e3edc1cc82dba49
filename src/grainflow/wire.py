"""The one binary format exchanged between partitions.

Every collective sends one frame of typed arrays.  A layout declares, once
and here, the dtype and column count of each array of one kind of message
(0 for a flat array), so the layout is the whole schema.  A frame is the
header (wire version, array count), then one descriptor per array (dtype
string, column count, row count), then the raw array bytes back to back.
``decode_arrays`` checks every descriptor against the layout, and that the
data fits exactly, before it takes any view of the data.  Arrays carry
global ids verbatim, so decoding needs no mesh context, and floats travel
as raw little-endian IEEE doubles, which keeps round trips bit-exact and
every exchange deterministic.
"""

from __future__ import annotations

import struct

import numpy as np

WIRE_VERSION = 5

# stencil support modes
MODE_CHAIN = 0   # continuation of a line chain past a shared node
MODE_ARMS = 1    # junction arm endpoints around a shared point

_HEADER = struct.Struct("<II")
_DESCRIPTOR = struct.Struct("<3sBq")   # dtype string, columns, rows
_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")

# shared-node agreement: one (node, class, entity) row per shared node
TRIPLETS = ((_I64, 3),)
# ids: shared-node candidates, an element count, or movement back-off
# notices, where NULL_ID marks flips only the sender has
IDS = ((_I64, 0),)
# the fastest node speed of one worker
SPEEDS = ((_F64, 0),)
# stencil support: one head (mode, line, node, n_samples) per record, then
# all sample ids and all sample positions back to back
SUPPORT = ((_I64, 4), (_I64, 0), (_F64, 2))
# migration: elements (id, surf, a, b, c); each of their nodes once,
# ascending, as (id, topo, entity, bnd, prv, nxt) plus its position; the
# junction connections (node, line, anchor)
MIGRATION = ((_I64, 5), (_I64, 6), (_F64, 2), (_I64, 3))
# output: per-grain ids and areas and the element count, then for a
# snapshot the live mesh arrays of ``Mesh.live_arrays``
AREAS = ((_I64, 0), (_F64, 0), (_I64, 0))
MESH = ((_I64, 0), (_F64, 2), (_I64, 0), (_I64, 3), (_I64, 0))
SNAPSHOT = AREAS + MESH


class WireError(Exception):
    """Raised when a byte stream is not a valid frame of its layout."""


def encode_arrays(arrays, layout) -> bytes:
    """Frame arrays (or nested sequences) as ``layout`` types them."""
    descriptors, data = [], []
    for a, (dtype, cols) in zip(arrays, layout, strict=True):
        a = np.ascontiguousarray(a, dtype=dtype)
        a = a.reshape(-1, cols) if cols else a.reshape(-1)
        descriptors.append(_DESCRIPTOR.pack(dtype.str.encode(), cols, len(a)))
        data.append(a)
    return b"".join([_HEADER.pack(WIRE_VERSION, len(layout)),
                     *descriptors, *data])


def decode_arrays(buf: bytes, layout) -> list[np.ndarray]:
    """Parse an ``encode_arrays`` frame strictly: version, array count,
    dtypes and column counts must match ``layout``, with no missing or
    trailing bytes.  The arrays are read-only views of ``buf``."""
    if len(buf) < _HEADER.size:
        raise WireError("truncated frame header")
    version, count = _HEADER.unpack_from(buf)
    if version != WIRE_VERSION:
        raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
    if count != len(layout):
        raise WireError(f"frame holds {count} arrays, layout {len(layout)}")
    start = _HEADER.size + count * _DESCRIPTOR.size
    if len(buf) < start:
        raise WireError("truncated array descriptors")
    spans = []
    for i, (dtype, cols) in enumerate(layout):
        code, got, rows = _DESCRIPTOR.unpack_from(
            buf, _HEADER.size + i * _DESCRIPTOR.size)
        if code != dtype.str.encode() or got != cols or rows < 0:
            raise WireError(f"array {i} is {code!r} with {got} columns and "
                            f"{rows} rows, layout wants {dtype.str} with "
                            f"{cols} columns")
        n = rows * max(cols, 1)
        spans.append((start, n, (rows, cols) if cols else (rows,)))
        start += n * dtype.itemsize
        if start > len(buf):
            raise WireError(f"truncated data of array {i}")
    if start != len(buf):
        raise WireError("trailing bytes after the last array")
    return [np.frombuffer(buf, dtype, n, offset).reshape(shape)
            for (offset, n, shape), (dtype, _) in zip(spans, layout)]
