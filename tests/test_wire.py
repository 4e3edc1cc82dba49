"""Round-trip and malformed-input checks for the binary record layer."""

import io
import math
import pickle
import struct

import numpy as np
import pytest

from grainflow.mesh import NULL_ID, PNODE, LNODE, SNODE, BND_TANGENT_X
from grainflow.wire import (
    WIRE_VERSION, RT_ELEMENT, MODE_ARMS, MODE_CHAIN, WireError,
    Pair, Triplet, NodePayload, ElementPacket, TempNodeRequest,
    TempNodeReply, FlipNotice, encode_records, decode_records,
    encode_arrays, decode_arrays,
)


def roundtrip(records):
    buf = encode_records(records)
    out = decode_records(buf)
    assert encode_records(out) == buf
    return out


def test_empty_stream():
    assert decode_records(b"") == []
    assert encode_records([]) == b""


def test_pair_triplet_flip_roundtrip():
    recs = [Pair(7, 105), Pair(NULL_ID, 0), Triplet(4, 9, 2),
            Triplet(11, 11, 0), FlipNotice(42), FlipNotice(NULL_ID)]
    assert roundtrip(recs) == recs


def test_temp_request_roundtrip():
    recs = [TempNodeRequest(MODE_CHAIN, 3, 17),
            TempNodeRequest(MODE_CHAIN, 4, NULL_ID),
            TempNodeRequest(MODE_ARMS, NULL_ID, 99)]
    assert roundtrip(recs) == recs
    # header, then mode (u8), line and node (i64 each)
    assert len(encode_records(recs[:1])) == 6 + 1 + 8 + 8


def test_temp_reply_float_bits_survive():
    # values with no short decimal form; bit patterns must be preserved
    x = math.pi
    y = float.fromhex("0x1.fffffffffffffp-3")
    tiny = 5e-324
    recs = [TempNodeReply(MODE_CHAIN, 6, 2, ((10, x, y), (11, tiny, -0.0))),
            TempNodeReply(MODE_ARMS, NULL_ID, 2, ())]
    out = roundtrip(recs)
    (_, rx, ry), (_, rt, rz) = out[0].samples
    assert struct.pack("<d", rx) == struct.pack("<d", x)
    assert struct.pack("<d", ry) == struct.pack("<d", y)
    assert struct.pack("<d", rt) == struct.pack("<d", tiny)
    assert math.copysign(1.0, rz) == -1.0


def test_element_packet_roundtrip():
    nodes = (
        NodePayload(5, 0.25, 0.5, SNODE, 12, -1),
        NodePayload(6, 1.0 / 3.0, 0.1, LNODE, 4, -1,
                    prv=9, nxt=NULL_ID, line=4),
        NodePayload(7, 0.0, 0.0, PNODE, 3, BND_TANGENT_X,
                    connections=((4, 6), (8, NULL_ID))),
    )
    recs = [ElementPacket(40, 12, nodes), ElementPacket(41, 12, nodes[:1] * 3)]
    out = roundtrip(recs)
    assert out == recs
    assert (out[0].nodes[1].prv, out[0].nodes[1].line) == (9, 4)
    assert out[0].nodes[2].connections == ((4, 6), (8, NULL_ID))
    # header, element head (i64, i64, u32), then per node the fixed part
    # (i64, f64, f64, u8, i64, i8), prv/nxt/line (3 x i64) and a u32 count
    # of connections
    assert len(encode_records(recs[1:])) == 6 + 20 + 3 * (34 + 24 + 4)


def test_mixed_stream_preserves_order():
    recs = [Pair(1, 2), ElementPacket(3, 4, ()), FlipNotice(5),
            TempNodeReply(MODE_CHAIN, 1, 2, ((3, 0.5, 0.25),)),
            Triplet(6, 7, 1)]
    assert roundtrip(recs) == recs


def test_bad_version_rejected():
    buf = bytearray(encode_records([Pair(1, 2)]))
    buf[0] = WIRE_VERSION + 1
    with pytest.raises(WireError, match="version"):
        decode_records(bytes(buf))


def test_truncated_header_rejected():
    buf = encode_records([Pair(1, 2)])
    with pytest.raises(WireError, match="truncated"):
        decode_records(buf[:3])


def test_truncated_payload_rejected():
    buf = encode_records([Pair(1, 2)])
    with pytest.raises(WireError, match="truncated"):
        decode_records(buf[:-1])


def test_unknown_record_type_rejected():
    body = struct.pack("<qq", 1, 2)
    buf = struct.pack("<BBI", WIRE_VERSION, 200, len(body)) + body
    with pytest.raises(WireError, match="unknown record type"):
        decode_records(buf)


def test_trailing_bytes_in_element_rejected():
    buf = bytearray(encode_records([ElementPacket(1, 2, ())]))
    # grow the declared payload and append junk inside the frame
    _, _, length = struct.unpack_from("<BBI", buf)
    struct.pack_into("<BBI", buf, 0, WIRE_VERSION, RT_ELEMENT, length + 2)
    buf += b"\x00\x00"
    with pytest.raises(WireError, match="trailing"):
        decode_records(bytes(buf))


def test_short_fixed_payload_rejected():
    body = struct.pack("<q", 1)  # Pair needs two i64
    buf = struct.pack("<BBI", WIRE_VERSION, 1, len(body)) + body
    with pytest.raises(WireError, match="malformed"):
        decode_records(buf)


# -- framed arrays -----------------------------------------------------------

ARRAYS = [
    np.array([3, -1, 2**62], dtype=np.int64),
    np.arange(12, dtype=np.int64).reshape(4, 3),
    np.zeros((0, 3), dtype=np.int64),
    np.array([0.1, -0.0, math.pi, 1e-300, math.inf]),
    np.random.default_rng(0).random((5, 2)),
    np.zeros(0),
    np.int64(7),
]


def test_arrays_roundtrip_exactly():
    out = decode_arrays(encode_arrays(ARRAYS))
    assert len(out) == len(ARRAYS)
    for a, b in zip(ARRAYS, out):
        assert b.dtype == a.dtype and b.shape == np.shape(a)
        assert b.tobytes() == np.asarray(a).tobytes()
    assert decode_arrays(encode_arrays([])) == []


def test_arrays_truncated_rejected():
    buf = encode_arrays(ARRAYS)
    for cut in range(len(buf)):
        with pytest.raises(WireError):
            decode_arrays(buf[:cut])
    with pytest.raises(WireError):
        decode_arrays(buf + b"\0")


def test_arrays_pickled_rejected():
    count = struct.pack("<I", 1)
    obj = io.BytesIO()
    np.save(obj, np.array([{"x": 1}], dtype=object), allow_pickle=True)
    for payload in (obj.getvalue(), pickle.dumps([1, 2, 3])):
        with pytest.raises(WireError):
            decode_arrays(count + payload)
