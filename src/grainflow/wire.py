"""Binary formats exchanged between partitions.

Protocol messages are flat concatenations of framed records: a fixed header
(version, record type, payload length) followed by a little-endian payload.
Records are self-contained and carry global ids verbatim, so decoding needs
no mesh context.  Identity regularization exchanges pairs and triplets,
scattering element packets, stencil completion the support each owner
pushes to its co-owners unasked, and the movement back-off flip notices.
Bulk numeric data (the snapshot gather) travels as framed arrays instead:
a count, then each array in ``.npy`` format.  Either way floats travel as
raw IEEE doubles, which keeps encode / decode round trips bit-exact and
the whole exchange deterministic.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .mesh import NULL_ID

WIRE_VERSION = 3

RT_PAIR = 1
RT_TRIPLET = 2
RT_ELEMENT = 3
RT_TEMP_REPLY = 5
RT_FLIP = 6

# stencil support modes
MODE_CHAIN = 0   # continuation of a line chain past a shared node
MODE_ARMS = 1    # junction arm endpoints around a shared point

_HEADER = struct.Struct("<BBI")
_PAIR = struct.Struct("<qq")
_TRIPLET = struct.Struct("<qqi")
_FLIP = struct.Struct("<q")
_NODE_FIXED = struct.Struct("<qddBqb")
_ELEM_HEAD = struct.Struct("<qqI")
_U32 = struct.Struct("<I")
_I64_PAIR = struct.Struct("<qq")
_I64_3 = struct.Struct("<qqq")
_SAMPLE = struct.Struct("<qdd")


class WireError(Exception):
    """Raised when a byte stream is not a valid record sequence."""


@dataclass(frozen=True)
class Pair:
    """A node owned by several partitions, with the entity identity the
    sender currently uses at that node."""
    node: int
    identity: int


@dataclass(frozen=True)
class Triplet:
    """Correspondence between the local identity of an entity and the one a
    specific remote partition uses for the same entity."""
    local_id: int
    remote_id: int
    part: int


@dataclass(frozen=True)
class NodePayload:
    """One node inside an element packet, complete enough to instantiate on
    the receiver: geometry, classification, boundary kind and per-class
    connectivity (line membership for an L-node, line connections with their
    anchor nodes for a P-node).  Co-owner ranks do not travel: the receiver
    rebuilds its shared-node registry after every scatter."""
    node: int
    x: float
    y: float
    topo: int
    entity: int
    bnd: int
    prv: int = NULL_ID
    nxt: int = NULL_ID
    line: int = NULL_ID
    connections: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class ElementPacket:
    """A migrating element with its surface id and fully described corners."""
    elem: int
    surf: int
    nodes: tuple[NodePayload, ...] = field(default=())


@dataclass(frozen=True)
class TempNodeReply:
    """An owner's stencil support at a node it shares with the receiver:
    (id, x, y) per sample node.  ``MODE_CHAIN`` carries one chain direction
    of ``line``, ordered outward from ``node``; ``MODE_ARMS`` carries the
    junction arm endpoints around ``node``, ascending by id, with ``line``
    unused."""
    mode: int
    line: int
    node: int
    samples: tuple[tuple[int, float, float], ...] = ()


@dataclass(frozen=True)
class FlipNotice:
    """A node whose collective move must be damped this round.  The sentinel
    node ``NULL_ID`` reports that the sender has purely private violations,
    which still forces everyone into another round."""
    node: int


Record = Pair | Triplet | ElementPacket | TempNodeReply | FlipNotice


def _encode_node(n: NodePayload) -> bytes:
    out = [_NODE_FIXED.pack(n.node, n.x, n.y, n.topo, n.entity, n.bnd),
           _I64_3.pack(n.prv, n.nxt, n.line)]
    out.append(_U32.pack(len(n.connections)))
    for lid, anchor in n.connections:
        out.append(_I64_PAIR.pack(lid, anchor))
    return b"".join(out)


def _decode_node(buf: bytes, off: int) -> tuple[NodePayload, int]:
    node, x, y, topo, entity, bnd = _NODE_FIXED.unpack_from(buf, off)
    off += _NODE_FIXED.size
    prv, nxt, line = _I64_3.unpack_from(buf, off)
    off += _I64_3.size
    (ncon,) = _U32.unpack_from(buf, off)
    off += _U32.size
    conns = []
    for _ in range(ncon):
        lid, anchor = _I64_PAIR.unpack_from(buf, off)
        off += _I64_PAIR.size
        conns.append((lid, anchor))
    return NodePayload(node, x, y, topo, entity, bnd, prv, nxt, line,
                       tuple(conns)), off


def _payload(rec: Record) -> tuple[int, bytes]:
    if isinstance(rec, Pair):
        return RT_PAIR, _PAIR.pack(rec.node, rec.identity)
    if isinstance(rec, Triplet):
        return RT_TRIPLET, _TRIPLET.pack(rec.local_id, rec.remote_id, rec.part)
    if isinstance(rec, ElementPacket):
        out = [_ELEM_HEAD.pack(rec.elem, rec.surf, len(rec.nodes))]
        for n in rec.nodes:
            out.append(_encode_node(n))
        return RT_ELEMENT, b"".join(out)
    if isinstance(rec, TempNodeReply):
        out = [struct.pack("<BqqI", rec.mode, rec.line, rec.node,
                           len(rec.samples))]
        for nid, x, y in rec.samples:
            out.append(_SAMPLE.pack(nid, x, y))
        return RT_TEMP_REPLY, b"".join(out)
    if isinstance(rec, FlipNotice):
        return RT_FLIP, _FLIP.pack(rec.node)
    raise WireError(f"unknown record {rec!r}")


def encode_records(records) -> bytes:
    """Serialize records into one framed byte string."""
    out = []
    for rec in records:
        rtype, body = _payload(rec)
        out.append(_HEADER.pack(WIRE_VERSION, rtype, len(body)))
        out.append(body)
    return b"".join(out)


def _decode_one(rtype: int, body: bytes) -> Record:
    if rtype == RT_PAIR:
        return Pair(*_PAIR.unpack(body))
    if rtype == RT_TRIPLET:
        return Triplet(*_TRIPLET.unpack(body))
    if rtype == RT_FLIP:
        return FlipNotice(*_FLIP.unpack(body))
    if rtype == RT_TEMP_REPLY:
        mode, line, node, count = struct.unpack_from("<BqqI", body)
        off = struct.calcsize("<BqqI")
        samples = []
        for _ in range(count):
            nid, x, y = _SAMPLE.unpack_from(body, off)
            off += _SAMPLE.size
            samples.append((nid, x, y))
        if off != len(body):
            raise WireError("trailing bytes inside temp-node reply")
        return TempNodeReply(mode, line, node, tuple(samples))
    if rtype == RT_ELEMENT:
        elem, surf, count = _ELEM_HEAD.unpack_from(body)
        off = _ELEM_HEAD.size
        nodes = []
        for _ in range(count):
            n, off = _decode_node(body, off)
            nodes.append(n)
        if off != len(body):
            raise WireError("trailing bytes inside element packet")
        return ElementPacket(elem, surf, tuple(nodes))
    raise WireError(f"unknown record type {rtype}")


def decode_records(buf: bytes) -> list[Record]:
    """Parse a framed byte string back into records, strictly."""
    records: list[Record] = []
    off = 0
    total = len(buf)
    while off < total:
        if off + _HEADER.size > total:
            raise WireError("truncated record header")
        version, rtype, length = _HEADER.unpack_from(buf, off)
        if version != WIRE_VERSION:
            raise WireError(f"wire version {version}, expected {WIRE_VERSION}")
        off += _HEADER.size
        if off + length > total:
            raise WireError("truncated record payload")
        try:
            records.append(_decode_one(rtype, buf[off:off + length]))
        except struct.error as exc:
            raise WireError(f"malformed record type {rtype}: {exc}") from exc
        off += length
    return records


def encode_arrays(arrays) -> bytes:
    """Frame numeric arrays into one byte string: the array count, then
    each array in ``.npy`` format (dtype, shape, raw data)."""
    buf = io.BytesIO()
    buf.write(_U32.pack(len(arrays)))
    for a in arrays:
        np.save(buf, a, allow_pickle=False)
    return buf.getvalue()


def decode_arrays(buf: bytes) -> list[np.ndarray]:
    """Parse ``encode_arrays`` output, strictly: no pickled objects, no
    missing or trailing bytes."""
    if len(buf) < _U32.size:
        raise WireError("truncated array count")
    (count,) = _U32.unpack_from(buf)
    f = io.BytesIO(buf)
    f.seek(_U32.size)
    try:
        arrays = [np.load(f, allow_pickle=False) for _ in range(count)]
    except (ValueError, EOFError) as exc:
        raise WireError(f"malformed array frame: {exc}") from exc
    if f.tell() != len(buf):
        raise WireError("trailing bytes after the last array")
    return arrays
